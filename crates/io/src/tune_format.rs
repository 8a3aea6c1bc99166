//! The `.tune` profile format — reusable auto-tuning results.
//!
//! `copack tune` sweeps SA schedules, Eq. 3 weights, and portfolio knobs
//! over a circuit family and distils the winners into a **tuning
//! profile**: one tuned configuration per *instance class*, where a
//! class is the coarse feature bucket of a quadrant ([`ClassKey`]:
//! net-count bucket, finger-row count, ψ stacking tiers, supply-net
//! fraction). `copack plan`, `copack replan`, and `copack serve` load a
//! profile with `--profile` and pick the config whose class matches the
//! instance at hand; unknown classes fall back to the built-in defaults.
//!
//! The format follows the repo's text-format rules (line-based,
//! `#`-commented, exact `parse(write(p)) == p` round trip) with two
//! extra obligations the other formats don't need:
//!
//! * **byte exactness** — every `f64` travels as its IEEE-754 bit
//!   pattern in hex (`0x3fd0000000000000`), never as a decimal
//!   rendering, because a profile is a determinism artifact: the same
//!   tuning run must emit byte-identical files across thread counts and
//!   reruns, and a loaded profile must reproduce the exact floats the
//!   tuner measured;
//! * **integrity** — the file ends with a `checksum` line holding
//!   FNV-1a over the canonical body (everything [`write_tune`] emits
//!   before the checksum line). A truncated, corrupted, or hand-edited
//!   profile is rejected with a typed error instead of silently
//!   steering the annealer with garbage.

use std::fmt;

use copack_core::{CostWeights, ExchangeConfig, PortfolioConfig, PortfolioMode, Schedule};
use copack_geom::Quadrant;

use crate::canonical::fnv1a64;
use crate::error::{ParseError, ParseErrorKind};

/// The only version this build reads and writes.
pub const TUNE_VERSION: u32 = 1;

/// The coarse feature bucket a tuned configuration applies to.
///
/// Buckets deliberately quantise hard: tuning generalises across
/// instances of similar *shape*, not across exact net counts, and a
/// coarse key means a profile tuned on a family covers unseen members
/// of the same family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassKey {
    /// Net count rounded up to the next power of two.
    pub nets: u32,
    /// Ball-row count, exact (the paper's instances use 4; `large` uses
    /// more).
    pub rows: u32,
    /// ψ — the number of stacking tiers in use (max tier id over nets).
    pub tiers: u8,
    /// Supply-net (power + ground) share of all nets, rounded to the
    /// nearest 25 %.
    pub power_pct: u8,
}

impl fmt::Display for ClassKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n{}-r{}-t{}-p{}",
            self.nets, self.rows, self.tiers, self.power_pct
        )
    }
}

impl ClassKey {
    /// Parses the `n..-r..-t..-p..` display form back into a key.
    fn parse(token: &str) -> Option<Self> {
        let mut parts = token.split('-');
        let nets = parts.next()?.strip_prefix('n')?.parse().ok()?;
        let rows = parts.next()?.strip_prefix('r')?.parse().ok()?;
        let tiers = parts.next()?.strip_prefix('t')?.parse().ok()?;
        let power_pct = parts.next()?.strip_prefix('p')?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Self {
            nets,
            rows,
            tiers,
            power_pct,
        })
    }
}

/// The feature bucket of one quadrant — what `--profile` keys on.
#[must_use]
pub fn classify_quadrant(quadrant: &Quadrant) -> ClassKey {
    let nets = quadrant.net_count() as u32;
    let supply = quadrant.nets().filter(|n| n.kind.is_supply()).count();
    let tiers = quadrant.nets().map(|n| n.tier.get()).max().unwrap_or(1);
    let fraction = if quadrant.net_count() == 0 {
        0.0
    } else {
        supply as f64 / quadrant.net_count() as f64
    };
    ClassKey {
        nets: nets.max(1).next_power_of_two(),
        rows: quadrant.row_count() as u32,
        tiers,
        power_pct: ((fraction * 4.0).round() * 25.0) as u8,
    }
}

/// One tuned configuration: the result-affecting knobs of an exchange
/// run plus the portfolio shape it should race under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassConfig {
    /// SA cooling factor per temperature step.
    pub cooling: f64,
    /// Initial temperature as a fraction of the initial cost.
    pub initial_temp_factor: f64,
    /// Final/initial temperature ratio (schedule length).
    pub final_temp_ratio: f64,
    /// Proposed moves per temperature step per finger.
    pub moves_per_temp: u32,
    /// Eq. 3 λ — IR-drop weight.
    pub lambda: f64,
    /// Eq. 3 ρ — increased-density weight.
    pub rho: f64,
    /// Eq. 3 φ — wire-balance weight.
    pub phi: f64,
    /// Eq. 3 μ — net-separation margin weight.
    pub margin: f64,
    /// Portfolio starts K.
    pub starts: u32,
    /// Portfolio prune margin.
    pub prune_margin: f64,
    /// Portfolio mode (race / coop).
    pub mode: PortfolioMode,
    /// Coop crossover kick size.
    pub kick_size: u32,
}

impl ClassConfig {
    /// Captures the tunable knobs of an exchange + portfolio config
    /// pair (the rest — seed, acceptance rule — are not part of the
    /// trial space and stay with the caller).
    #[must_use]
    pub fn from_configs(config: &ExchangeConfig, portfolio: &PortfolioConfig) -> Self {
        Self {
            cooling: config.schedule.cooling,
            initial_temp_factor: config.schedule.initial_temp_factor,
            final_temp_ratio: config.schedule.final_temp_ratio,
            moves_per_temp: config.schedule.moves_per_temp_per_finger as u32,
            lambda: config.weights.lambda,
            rho: config.weights.rho,
            phi: config.weights.phi,
            margin: config.weights.margin,
            starts: portfolio.starts,
            prune_margin: portfolio.prune_margin,
            mode: portfolio.mode,
            kick_size: portfolio.kick_size,
        }
    }

    /// Writes the tuned knobs into `config` and `portfolio`, leaving
    /// every untuned field (seed, acceptance, sync epochs, threads)
    /// untouched.
    pub fn apply(&self, config: &mut ExchangeConfig, portfolio: &mut PortfolioConfig) {
        config.schedule.cooling = self.cooling;
        config.schedule.initial_temp_factor = self.initial_temp_factor;
        config.schedule.final_temp_ratio = self.final_temp_ratio;
        config.schedule.moves_per_temp_per_finger = self.moves_per_temp as usize;
        config.weights = CostWeights {
            lambda: self.lambda,
            rho: self.rho,
            phi: self.phi,
            margin: self.margin,
        };
        portfolio.starts = self.starts;
        portfolio.prune_margin = self.prune_margin;
        portfolio.mode = self.mode;
        portfolio.kick_size = self.kick_size;
    }

    /// The built-in defaults as a class config — what unknown classes
    /// fall back to.
    #[must_use]
    pub fn default_config() -> Self {
        Self::from_configs(
            &ExchangeConfig {
                schedule: Schedule::default(),
                ..ExchangeConfig::default()
            },
            &PortfolioConfig::default(),
        )
    }
}

/// A parsed tuning profile: per-class tuned configs plus the provenance
/// needed to reproduce the tuning run (base seed, trial-space
/// fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub struct TuneProfile {
    /// Base seed every trial seed was derived from.
    pub seed: u64,
    /// FNV-1a fingerprint of the trial space the profile was tuned
    /// over.
    pub space_fingerprint: u64,
    /// `(class, tuned config)` pairs, sorted by class key — the writer
    /// sorts, and the parser rejects duplicates, so equal profiles
    /// serialise byte-equally.
    pub classes: Vec<(ClassKey, ClassConfig)>,
}

impl TuneProfile {
    /// The tuned config for `key`, or `None` (callers fall back to
    /// defaults — an unknown class must never fail a plan).
    #[must_use]
    pub fn lookup(&self, key: &ClassKey) -> Option<&ClassConfig> {
        self.classes.iter().find(|(k, _)| k == key).map(|(_, c)| c)
    }

    /// The tuned config for `quadrant`'s class, or the built-in
    /// defaults.
    #[must_use]
    pub fn config_for(&self, quadrant: &Quadrant) -> ClassConfig {
        self.lookup(&classify_quadrant(quadrant))
            .copied()
            .unwrap_or_else(ClassConfig::default_config)
    }

    /// Content fingerprint of the whole profile — what `copack-serve`
    /// folds into cache keys so results planned under different
    /// profiles never collide.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(write_tune(self).as_bytes())
    }
}

fn hex_bits(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

fn body_of(profile: &TuneProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!("tune-profile v{TUNE_VERSION}\n"));
    out.push_str(&format!("seed {}\n", profile.seed));
    out.push_str(&format!("space 0x{:016x}\n", profile.space_fingerprint));
    let mut classes = profile.classes.clone();
    classes.sort_by_key(|entry| entry.0);
    let defaults = ClassConfig::default_config();
    for (key, c) in &classes {
        out.push_str(&format!(
            "class {key} cooling={} itf={} ftr={} moves={} lambda={} rho={} phi={} \
             margin={} starts={} prune={}",
            hex_bits(c.cooling),
            hex_bits(c.initial_temp_factor),
            hex_bits(c.final_temp_ratio),
            c.moves_per_temp,
            hex_bits(c.lambda),
            hex_bits(c.rho),
            hex_bits(c.phi),
            hex_bits(c.margin),
            c.starts,
            hex_bits(c.prune_margin),
        ));
        // The cooperative-mode attributes are emitted only when they
        // deviate from the built-in defaults: a default-valued knob
        // serialises to the exact byte stream the pre-mode writer
        // produced, so old profiles re-checksum unchanged, and the
        // parser's default-fill makes parse(write(p)) == p either way.
        if c.mode != defaults.mode {
            out.push_str(&format!(" mode={}", c.mode.as_str()));
        }
        if c.kick_size != defaults.kick_size {
            out.push_str(&format!(" kick={}", c.kick_size));
        }
        out.push('\n');
    }
    out
}

/// Serialises a profile, classes sorted, floats as bit patterns, with
/// the trailing integrity checksum. `parse_tune(write_tune(p))`
/// reconstructs `p` exactly (modulo class sort order, which the writer
/// normalises).
#[must_use]
pub fn write_tune(profile: &TuneProfile) -> String {
    let body = body_of(profile);
    let checksum = fnv1a64(body.as_bytes());
    format!("{body}checksum 0x{checksum:016x}\n")
}

fn bad_number(line: usize, token: &str) -> ParseError {
    ParseError::new(
        line,
        ParseErrorKind::BadNumber {
            token: token.to_owned(),
        },
    )
}

fn parse_u64(line: usize, token: &str) -> Result<u64, ParseError> {
    token.parse().map_err(|_| bad_number(line, token))
}

fn parse_hex64(line: usize, token: &str) -> Result<u64, ParseError> {
    token
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| bad_number(line, token))
}

fn parse_bits_f64(line: usize, token: &str) -> Result<f64, ParseError> {
    Ok(f64::from_bits(parse_hex64(line, token)?))
}

/// Parses a `.tune` profile.
///
/// Rejections are typed: a wrong or missing version header is
/// [`ParseErrorKind::VersionMismatch`], a missing checksum line is
/// [`ParseErrorKind::Truncated`], and a checksum that does not match
/// the canonical body is [`ParseErrorKind::ChecksumMismatch`] — so
/// callers can distinguish "old profile, re-tune" from "corrupt file".
pub fn parse_tune(text: &str) -> Result<TuneProfile, ParseError> {
    let mut seed: Option<u64> = None;
    let mut space: Option<u64> = None;
    let mut classes: Vec<(ClassKey, ClassConfig)> = Vec::new();
    let mut saw_header = false;
    let mut declared_checksum: Option<u64> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if declared_checksum.is_some() {
            // Nothing may follow the checksum line — trailing content
            // is by definition outside the integrity envelope.
            return Err(ParseError::new(
                line,
                ParseErrorKind::UnknownDirective {
                    keyword: content.split_whitespace().next().unwrap_or("").to_owned(),
                },
            ));
        }
        let mut tokens = content.split_whitespace();
        let keyword = tokens.next().unwrap_or("");
        if !saw_header {
            if keyword != "tune-profile" {
                return Err(ParseError::new(
                    line,
                    ParseErrorKind::MissingHeader {
                        expected: "tune-profile",
                    },
                ));
            }
            let version = tokens.next().unwrap_or("");
            if version != format!("v{TUNE_VERSION}") {
                return Err(ParseError::new(
                    line,
                    ParseErrorKind::VersionMismatch {
                        found: version.to_owned(),
                    },
                ));
            }
            saw_header = true;
            continue;
        }
        match keyword {
            "seed" => {
                if seed.is_some() {
                    return Err(ParseError::new(
                        line,
                        ParseErrorKind::Duplicate { keyword: "seed" },
                    ));
                }
                let token = tokens.next().ok_or_else(|| {
                    ParseError::new(
                        line,
                        ParseErrorKind::BadOperands {
                            keyword: "seed",
                            expected: "one integer",
                        },
                    )
                })?;
                seed = Some(parse_u64(line, token)?);
            }
            "space" => {
                if space.is_some() {
                    return Err(ParseError::new(
                        line,
                        ParseErrorKind::Duplicate { keyword: "space" },
                    ));
                }
                let token = tokens.next().ok_or_else(|| {
                    ParseError::new(
                        line,
                        ParseErrorKind::BadOperands {
                            keyword: "space",
                            expected: "one 0x-prefixed fingerprint",
                        },
                    )
                })?;
                space = Some(parse_hex64(line, token)?);
            }
            "class" => {
                let key_token = tokens.next().ok_or_else(|| {
                    ParseError::new(
                        line,
                        ParseErrorKind::BadOperands {
                            keyword: "class",
                            expected: "a class key and key=value attributes",
                        },
                    )
                })?;
                let key = ClassKey::parse(key_token).ok_or_else(|| {
                    ParseError::new(
                        line,
                        ParseErrorKind::BadOperands {
                            keyword: "class",
                            expected: "a key shaped like n64-r4-t1-p25",
                        },
                    )
                })?;
                if classes.iter().any(|(k, _)| *k == key) {
                    return Err(ParseError::new(
                        line,
                        ParseErrorKind::Duplicate { keyword: "class" },
                    ));
                }
                let mut config = ClassConfig::default_config();
                let mut seen: Vec<&str> = Vec::new();
                for attr in tokens {
                    let (k, v) = attr.split_once('=').ok_or_else(|| {
                        ParseError::new(
                            line,
                            ParseErrorKind::BadOperands {
                                keyword: "class",
                                expected: "key=value attributes",
                            },
                        )
                    })?;
                    if seen.contains(&k) {
                        return Err(ParseError::new(
                            line,
                            ParseErrorKind::Duplicate { keyword: "class" },
                        ));
                    }
                    match k {
                        "cooling" => config.cooling = parse_bits_f64(line, v)?,
                        "itf" => config.initial_temp_factor = parse_bits_f64(line, v)?,
                        "ftr" => config.final_temp_ratio = parse_bits_f64(line, v)?,
                        "moves" => {
                            config.moves_per_temp = v.parse().map_err(|_| bad_number(line, v))?;
                        }
                        "lambda" => config.lambda = parse_bits_f64(line, v)?,
                        "rho" => config.rho = parse_bits_f64(line, v)?,
                        "phi" => config.phi = parse_bits_f64(line, v)?,
                        "margin" => config.margin = parse_bits_f64(line, v)?,
                        "starts" => {
                            config.starts = v.parse().map_err(|_| bad_number(line, v))?;
                        }
                        "prune" => config.prune_margin = parse_bits_f64(line, v)?,
                        "mode" => {
                            config.mode = PortfolioMode::parse(v).ok_or_else(|| {
                                ParseError::new(
                                    line,
                                    ParseErrorKind::BadOperands {
                                        keyword: "class",
                                        expected: "mode=race|coop",
                                    },
                                )
                            })?;
                        }
                        "kick" => {
                            config.kick_size = v.parse().map_err(|_| bad_number(line, v))?;
                        }
                        _ => {
                            return Err(ParseError::new(
                                line,
                                ParseErrorKind::UnknownAttribute { key: k.to_owned() },
                            ))
                        }
                    }
                    seen.push(k);
                }
                classes.push((key, config));
            }
            "checksum" => {
                let token = tokens.next().ok_or_else(|| {
                    ParseError::new(
                        line,
                        ParseErrorKind::BadOperands {
                            keyword: "checksum",
                            expected: "one 0x-prefixed FNV-1a value",
                        },
                    )
                })?;
                declared_checksum = Some(parse_hex64(line, token)?);
            }
            other => {
                return Err(ParseError::new(
                    line,
                    ParseErrorKind::UnknownDirective {
                        keyword: other.to_owned(),
                    },
                ))
            }
        }
    }

    if !saw_header {
        return Err(ParseError::new(
            0,
            ParseErrorKind::MissingHeader {
                expected: "tune-profile",
            },
        ));
    }
    let Some(declared) = declared_checksum else {
        // No checksum line: the file was cut off before its integrity
        // footer.
        return Err(ParseError::new(
            0,
            ParseErrorKind::Truncated {
                expected: "checksum",
            },
        ));
    };
    let profile = TuneProfile {
        seed: seed
            .ok_or_else(|| ParseError::new(0, ParseErrorKind::Truncated { expected: "seed" }))?,
        space_fingerprint: space
            .ok_or_else(|| ParseError::new(0, ParseErrorKind::Truncated { expected: "space" }))?,
        classes,
    };
    // The checksum covers the *canonical* body, so corruption anywhere
    // in the parsed content — and any hand edit that changes meaning —
    // is caught, while comments and whitespace stay free.
    let actual = fnv1a64(body_of(&profile).as_bytes());
    if actual != declared {
        return Err(ParseError::new(
            0,
            ParseErrorKind::ChecksumMismatch { declared, actual },
        ));
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneProfile {
        let mut tuned = ClassConfig::default_config();
        tuned.cooling = 0.87;
        tuned.lambda = 650.0;
        tuned.starts = 2;
        TuneProfile {
            seed: 0xC0DE,
            space_fingerprint: 0x1234_5678_9abc_def0,
            classes: vec![
                (
                    ClassKey {
                        nets: 32,
                        rows: 4,
                        tiers: 1,
                        power_pct: 25,
                    },
                    tuned,
                ),
                (
                    ClassKey {
                        nets: 64,
                        rows: 4,
                        tiers: 3,
                        power_pct: 50,
                    },
                    ClassConfig::default_config(),
                ),
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let p = sample();
        let text = write_tune(&p);
        let parsed = parse_tune(&text).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(write_tune(&parsed), text);
    }

    #[test]
    fn mode_attributes_round_trip_and_default_ones_are_omitted() {
        let mut p = sample();
        p.classes[0].1.mode = PortfolioMode::Coop;
        p.classes[0].1.kick_size = 8;
        let text = write_tune(&p);
        assert!(text.contains(" mode=coop"), "{text}");
        assert!(text.contains(" kick=8"), "{text}");
        assert_eq!(parse_tune(&text).unwrap(), p);
        // Default-valued knobs never serialise: the sample profile's
        // byte stream is identical to what the pre-mode writer emitted,
        // so profiles written before the cooperative modes still
        // checksum clean.
        let default_text = write_tune(&sample());
        assert!(!default_text.contains("mode="), "{default_text}");
        assert!(!default_text.contains("kick="), "{default_text}");
    }

    #[test]
    fn bad_mode_tag_is_typed() {
        let mut p = sample();
        p.classes[0].1.mode = PortfolioMode::Coop;
        let text = write_tune(&p);
        // Profiles written while `temper` was a mode carry its tag; it
        // fails as typed as any unknown one.
        for tag in ["boil", "temper"] {
            let bad = text.replacen("mode=coop", &format!("mode={tag}"), 1);
            let err = parse_tune(&bad).unwrap_err();
            assert!(
                matches!(
                    err.kind,
                    ParseErrorKind::BadOperands {
                        keyword: "class",
                        ..
                    }
                ),
                "{tag}: {err}"
            );
        }
        // So does its `ladder=` knob.
        let bad = text.replacen(" mode=coop", " mode=coop ladder=0x3ff8000000000000", 1);
        let err = parse_tune(&bad).unwrap_err();
        assert!(
            matches!(&err.kind, ParseErrorKind::UnknownAttribute { key } if key == "ladder"),
            "{err}"
        );
    }

    #[test]
    fn writer_is_sorted_and_stable() {
        let mut p = sample();
        p.classes.reverse();
        assert_eq!(write_tune(&p), write_tune(&sample()));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = write_tune(&sample()).replacen("v1", "v9", 1);
        let err = parse_tune(&text).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::VersionMismatch { ref found } if found == "v9"
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let text = write_tune(&sample());
        let cut = text.rsplit_once("checksum").unwrap().0;
        let err = parse_tune(cut).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Truncated {
                expected: "checksum"
            }
        ));
    }

    #[test]
    fn corruption_is_typed() {
        let text = write_tune(&sample());
        // Flip one hex digit inside a float's bit pattern: still
        // parseable, semantically different, so the checksum trips.
        let corrupt = text.replacen("cooling=0x3f", "cooling=0x3e", 1);
        assert_ne!(corrupt, text, "corruption must hit a digit");
        let err = parse_tune(&corrupt).unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn comments_and_whitespace_are_free() {
        let text = write_tune(&sample());
        let relaxed = format!("# tuned on table1\n\n{}", text.replace("seed", "seed "));
        assert_eq!(parse_tune(&relaxed).unwrap(), sample());
    }

    #[test]
    fn trailing_content_after_checksum_is_rejected() {
        let mut text = write_tune(&sample());
        text.push_str("seed 7\n");
        assert!(parse_tune(&text).is_err());
    }

    #[test]
    fn unknown_class_falls_back_to_defaults() {
        let p = sample();
        let missing = ClassKey {
            nets: 1024,
            rows: 9,
            tiers: 8,
            power_pct: 75,
        };
        assert!(p.lookup(&missing).is_none());
    }

    #[test]
    fn classify_buckets_features() {
        let (_, q) = crate::parse_quadrant(
            "quadrant t\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power\nnet 11 ground\nnet 6 signal tier=2\n",
        )
        .unwrap();
        let key = classify_quadrant(&q);
        assert_eq!(key.nets, 16); // 12 nets → next power of two
        assert_eq!(key.rows, 3);
        assert_eq!(key.tiers, 2);
        assert_eq!(key.power_pct, 25); // 2/12 ≈ 17 % → nearest 25
        assert_eq!(key.to_string(), "n16-r3-t2-p25");
        assert_eq!(ClassKey::parse("n16-r3-t2-p25"), Some(key));
    }

    #[test]
    fn apply_respects_untuned_fields() {
        let mut config = ExchangeConfig {
            seed: 42,
            ..ExchangeConfig::default()
        };
        let mut portfolio = PortfolioConfig {
            threads: 3,
            ..PortfolioConfig::default()
        };
        let mut tuned = ClassConfig::default_config();
        tuned.cooling = 0.5;
        tuned.starts = 8;
        tuned.apply(&mut config, &mut portfolio);
        assert_eq!(config.seed, 42);
        assert_eq!(portfolio.threads, 3);
        assert_eq!(config.schedule.cooling, 0.5);
        assert_eq!(portfolio.starts, 8);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let mut b = sample();
        b.classes[0].1.lambda = 651.0;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), sample().fingerprint());
    }
}
