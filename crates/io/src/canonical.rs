//! Canonical serialization and content hashing for cache keys.
//!
//! A resident planning service (`copack-serve`) keys its result cache by
//! the *content* of a job, not by file paths or submission order. Two
//! texts that parse to the same [`Quadrant`] — different comments,
//! whitespace, header names, or directive order — must hash identically,
//! and any model difference must change the hash. The canonical form is
//! the writer's output itself: [`crate::write_quadrant`] emits rows
//! bottom-up, net overrides in id order, and geometry with shortest
//! round-trip floats, so `write(parse(text))` is a normal form. Hashing
//! that form (under a fixed header name, so the user-chosen name cannot
//! split the cache) yields a stable 64-bit fingerprint.
//!
//! The hash is FNV-1a: tiny, dependency-free, and plenty for a cache
//! index that tolerates (and re-checks) collisions at the value level.

use copack_geom::Quadrant;

use crate::circuit_format::write_quadrant;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
///
/// Deterministic across platforms and processes (unlike
/// `std::collections::hash_map::DefaultHasher`, which is seeded), so the
/// value can cross the service protocol and appear in golden files.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The quadrant's canonical circuit-format text.
///
/// The header name is pinned to `canonical` so texts that differ only in
/// their declared name canonicalise identically; everything else is
/// exactly what [`crate::write_quadrant`] writes. Parsing this text
/// yields a quadrant equal to the input (`parse(canonical(q)).1 == q`),
/// and canonicalisation is idempotent.
#[must_use]
pub fn canonical_quadrant_text(quadrant: &Quadrant) -> String {
    write_quadrant("canonical", quadrant)
}

/// Content fingerprint of a quadrant: [`fnv1a64`] over
/// [`canonical_quadrant_text`].
///
/// Invariant under re-serialization round trips: for any text `t`,
/// `quadrant_fingerprint(parse(t)) ==
/// quadrant_fingerprint(parse(write(name, parse(t))))` for every `name`
/// (property-tested in `crates/io/tests/cache_key.rs`).
#[must_use]
pub fn quadrant_fingerprint(quadrant: &Quadrant) -> u64 {
    fnv1a64(canonical_quadrant_text(quadrant).as_bytes())
}

/// Canonical cache-key fragment of a multi-start portfolio's
/// result-affecting parameters.
///
/// The margin travels as raw `f64` bits (`f64::to_bits`), not a decimal
/// rendering, so two margins hash identically exactly when they are the
/// same float — no formatting or rounding can split or merge cache
/// entries. Single-start jobs (`starts ≤ 1`) must omit the fragment
/// entirely (portfolio parameters are inert there), which keeps every
/// pre-portfolio cache key stable; callers enforce that by only
/// appending this for `starts > 1`.
#[must_use]
pub fn canonical_portfolio_params(starts: u32, prune_margin_bits: u64) -> String {
    format!("starts={starts}|prune_margin=0x{prune_margin_bits:016x}|")
}

/// Canonical cache-key fragment of a *cooperative* portfolio mode's
/// result-affecting parameters: the mode tag plus the crossover kick
/// size.
///
/// Jobs running the default `race` mode must omit the fragment entirely
/// — mode parameters are inert there — which keeps every pre-mode cache
/// key byte-stable; callers enforce that by only appending this for a
/// non-default mode (and, as with the portfolio fragment, only for
/// `starts > 1`).
#[must_use]
pub fn canonical_portfolio_mode_params(mode: &str, kick_size: u32) -> String {
    format!("mode={mode}|kick={kick_size}|")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_quadrant;

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_ignores_name_comments_and_blank_lines() {
        let a = "quadrant alpha\nrow 10 2 4 7 0\nrow 1 3 5 8\nnet 10 power\n";
        let b = "# a comment\nquadrant beta\n\nrow 10 2 4 7 0   # bottom row\nrow 1 3 5 8\nnet 10 power\n";
        let (_, qa) = parse_quadrant(a).unwrap();
        let (_, qb) = parse_quadrant(b).unwrap();
        assert_eq!(quadrant_fingerprint(&qa), quadrant_fingerprint(&qb));
    }

    #[test]
    fn fingerprint_sees_model_differences() {
        let base = "quadrant t\nrow 1 2 3\nrow 4 5\n";
        let kind = "quadrant t\nrow 1 2 3\nrow 4 5\nnet 2 power\n";
        let order = "quadrant t\nrow 1 3 2\nrow 4 5\n";
        let (_, qb) = parse_quadrant(base).unwrap();
        let (_, qk) = parse_quadrant(kind).unwrap();
        let (_, qo) = parse_quadrant(order).unwrap();
        assert_ne!(quadrant_fingerprint(&qb), quadrant_fingerprint(&qk));
        assert_ne!(quadrant_fingerprint(&qb), quadrant_fingerprint(&qo));
    }

    #[test]
    fn portfolio_params_are_exact_and_injective() {
        let a = canonical_portfolio_params(4, 0.25f64.to_bits());
        assert_eq!(a, "starts=4|prune_margin=0x3fd0000000000000|");
        // Different float bits — even ones that print alike — differ.
        let b = canonical_portfolio_params(4, 0.25000000000000006f64.to_bits());
        assert_ne!(a, b);
        assert_ne!(a, canonical_portfolio_params(5, 0.25f64.to_bits()));
        // Exact bit round trip: the fragment encodes the bits verbatim.
        let bits = 0.1f64.to_bits();
        let frag = canonical_portfolio_params(2, bits);
        let hex = frag
            .split("prune_margin=0x")
            .nth(1)
            .unwrap()
            .trim_end_matches('|');
        assert_eq!(u64::from_str_radix(hex, 16).unwrap(), bits);
    }

    #[test]
    fn portfolio_mode_params_are_exact_and_injective() {
        let a = canonical_portfolio_mode_params("coop", 4);
        assert_eq!(a, "mode=coop|kick=4|");
        assert_ne!(a, canonical_portfolio_mode_params("race", 4));
        assert_ne!(a, canonical_portfolio_mode_params("coop", 8));
    }

    #[test]
    fn canonical_text_is_idempotent_and_round_trips() {
        let text = "quadrant x\nrow 10 2 4 7 0\nrow 1 3 5 8\nrow 11 6 9\nnet 10 power tier=2\n";
        let (_, q) = parse_quadrant(text).unwrap();
        let canon = canonical_quadrant_text(&q);
        let (name, reparsed) = parse_quadrant(&canon).unwrap();
        assert_eq!(name, "canonical");
        assert_eq!(reparsed, q);
        assert_eq!(canonical_quadrant_text(&reparsed), canon);
    }
}
