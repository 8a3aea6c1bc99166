//! Statistical quality-regression suite over the paper's Table 1
//! circuits.
//!
//! Every algorithm the paper measures — the Random / IFA / DFA
//! assignments (Table 2) and the IR-drop-aware exchange in its 2-D and
//! 4-tier-stacking forms (Table 3) — runs at fixed seeds, and the
//! resulting quality metrics must stay inside tolerance bands pinned in
//! [`REFERENCES`]. The bands were recorded from the current
//! implementation at these exact seeds and sized generously (several
//! percent, wider for the stochastic exchange averages) so harmless
//! refactors pass while a quality regression — a worse assignment, a
//! broken cost term, a mis-seeded annealer — fails loudly. On failure
//! the assert prints a check-style per-circuit verdict table with every
//! metric, its band, and its verdict.
//!
//! A second test pins the portfolio acceptance criterion: on every
//! circuit an eight-start portfolio is never worse than the single
//! start it contains.

use std::fmt::Write as _;

use copack::core::{
    assign, exchange, exchange_portfolio, exchange_warm, AssignMethod, CancelToken, Codesign,
    ExchangeConfig, PortfolioConfig, PortfolioMode, Schedule,
};
use copack::gen::{churn, circuits, STANDARD_CHURN};
use copack::geom::StackConfig;
use copack::obs::NoopRecorder;
use copack::power::GridSpec;
use copack::route::{analyze, DensityModel};
use copack::verify::REPLAN_TOLERANCE;

/// Seeds for the random-assignment baseline (same set Table 2's harness
/// averages over).
const RANDOM_SEEDS: [u64; 5] = [11, 23, 37, 51, 73];

/// Seeds for the stochastic exchange averages (same set Table 3's
/// harness averages over).
const EXCHANGE_SEEDS: [u64; 3] = [0xC0DE, 0xBEEF, 0xF00D];

/// An inclusive tolerance band for one quality metric.
#[derive(Clone, Copy)]
struct Band {
    lo: f64,
    hi: f64,
}

const fn band(lo: f64, hi: f64) -> Band {
    Band { lo, hi }
}

impl Band {
    fn holds(self, v: f64) -> bool {
        v.is_finite() && v >= self.lo && v <= self.hi
    }
}

/// Pinned reference bands for one Table 1 circuit.
struct Reference {
    name: &'static str,
    /// Flyline max density of the random baseline, averaged over
    /// [`RANDOM_SEEDS`].
    random_density: Band,
    /// Flyline max density of the IFA order (deterministic).
    ifa_density: Band,
    /// Flyline max density of the DFA order (deterministic).
    dfa_density: Band,
    /// Total wirelength of the DFA order, one quadrant (deterministic).
    dfa_wirelength: Band,
    /// 2-D IR-drop improvement %, averaged over [`EXCHANGE_SEEDS`].
    ir_improvement: Band,
    /// 4-tier bonding-wire (omega) improvement %, averaged over
    /// [`EXCHANGE_SEEDS`].
    omega_improvement: Band,
    /// Max density after the 2-D exchange, averaged over
    /// [`EXCHANGE_SEEDS`] (the paper allows a couple of units of growth,
    /// not a collapse back to random quality).
    density_after_exchange: Band,
}

/// The pinned bands. Deterministic metrics get ±1 density unit or ±2%
/// wirelength; seed-averaged exchange metrics get wider statistical
/// bands.
const REFERENCES: [Reference; 5] = [
    Reference {
        // Recorded: 12.60 / 7 / 6 / 177.22 / 31.35% / 24.07% / 7.00
        name: "circuit 1",
        random_density: band(11.0, 14.2),
        ifa_density: band(6.0, 8.0),
        dfa_density: band(5.0, 7.0),
        dfa_wirelength: band(173.0, 181.0),
        ir_improvement: band(20.0, 45.0),
        omega_improvement: band(12.0, 40.0),
        density_after_exchange: band(5.0, 8.5),
    },
    Reference {
        // Recorded: 12.40 / 8 / 7 / 199.71 / 14.68% / 6.67% / 7.00
        name: "circuit 2",
        random_density: band(10.9, 13.9),
        ifa_density: band(7.0, 9.0),
        dfa_density: band(6.0, 8.0),
        dfa_wirelength: band(195.0, 204.0),
        ir_improvement: band(8.0, 25.0),
        omega_improvement: band(2.0, 15.0),
        density_after_exchange: band(5.0, 9.0),
    },
    Reference {
        // Recorded: 12.60 / 8 / 7 / 219.29 / 2.74% / 7.69% / 7.00
        name: "circuit 3",
        random_density: band(11.1, 14.1),
        ifa_density: band(7.0, 9.0),
        dfa_density: band(6.0, 8.0),
        dfa_wirelength: band(214.0, 224.0),
        ir_improvement: band(0.5, 8.0),
        omega_improvement: band(2.0, 16.0),
        density_after_exchange: band(5.0, 9.0),
    },
    Reference {
        // Recorded: 14.00 / 8 / 7 / 363.47 / 2.45% / 13.64% / 7.00
        name: "circuit 4",
        random_density: band(12.5, 15.5),
        ifa_density: band(7.0, 9.0),
        dfa_density: band(6.0, 8.0),
        dfa_wirelength: band(356.0, 371.0),
        ir_improvement: band(0.5, 8.0),
        omega_improvement: band(6.0, 25.0),
        density_after_exchange: band(5.0, 9.0),
    },
    Reference {
        // Recorded: 15.60 / 8 / 7 / 459.44 / 1.74% / 11.11% / 6.00
        name: "circuit 5",
        random_density: band(14.1, 17.1),
        ifa_density: band(7.0, 9.0),
        dfa_density: band(6.0, 8.0),
        dfa_wirelength: band(450.0, 469.0),
        ir_improvement: band(0.2, 6.0),
        omega_improvement: band(5.0, 20.0),
        density_after_exchange: band(4.5, 8.5),
    },
];

/// The Table 3 flow at test speed: a coarse IR grid and a short
/// schedule, still long enough for the exchange to improve the IR drop.
fn fast_flow() -> Codesign {
    Codesign {
        grid: GridSpec::default_chip(16),
        exchange: ExchangeConfig {
            schedule: Schedule {
                moves_per_temp_per_finger: 1,
                final_temp_ratio: 1e-2,
                cooling: 0.85,
                ..Schedule::default()
            },
            ..ExchangeConfig::default()
        },
        ..Codesign::default()
    }
}

/// One measured metric with its band and verdict.
struct Check {
    circuit: &'static str,
    metric: &'static str,
    actual: f64,
    band: Band,
}

impl Check {
    fn passes(&self) -> bool {
        self.band.holds(self.actual)
    }
}

/// Renders the check-style verdict table (every metric of every circuit,
/// failures marked), mirroring `copack check`'s output shape.
fn verdict_table(checks: &[Check]) -> String {
    let mut out =
        String::from("circuit   metric               actual      band                  verdict\n");
    for c in checks {
        let _ = writeln!(
            out,
            "{:<9} {:<20} {:<11.4} [{:.4}, {:.4}]{:>3} {}",
            c.circuit,
            c.metric,
            c.actual,
            c.band.lo,
            c.band.hi,
            "",
            if c.passes() { "ok" } else { "FAIL" }
        );
    }
    out
}

#[test]
fn table1_quality_stays_inside_the_pinned_bands() {
    let mut checks: Vec<Check> = Vec::new();
    let base = fast_flow();

    for (c, reference) in circuits().iter().zip(&REFERENCES) {
        assert_eq!(c.name, reference.name, "reference table out of sync");
        let q = c.build_quadrant().expect("circuit builds");

        // Table 2 shape: assignment quality at fixed seeds.
        let mut random_density = 0.0;
        for &seed in &RANDOM_SEEDS {
            let a = assign(&q, AssignMethod::Random { seed }).expect("random");
            random_density += f64::from(
                analyze(&q, &a, DensityModel::Geometric)
                    .expect("legal")
                    .max_density,
            );
        }
        random_density /= RANDOM_SEEDS.len() as f64;

        let ifa = assign(&q, AssignMethod::Ifa).expect("ifa");
        let ifa_density = analyze(&q, &ifa, DensityModel::Geometric)
            .expect("legal")
            .max_density;
        let dfa = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let dfa_report = analyze(&q, &dfa, DensityModel::Geometric).expect("legal");

        // Table 3 shape: the exchange at fixed seeds, 2-D and 4-tier.
        let mut ir_improvement = 0.0;
        let mut density_after = 0.0;
        for &seed in &EXCHANGE_SEEDS {
            let mut flow = base.clone();
            flow.exchange.seed = seed;
            let report = flow.run(&q).expect("2-D flow runs");
            ir_improvement += report.ir_improvement_percent.unwrap_or(0.0);
            density_after += f64::from(report.routing_after.max_density);
        }
        ir_improvement /= EXCHANGE_SEEDS.len() as f64;
        density_after /= EXCHANGE_SEEDS.len() as f64;

        let stacked = c.stacked(4);
        let q4 = stacked.build_quadrant().expect("stacked circuit builds");
        let flow4 = Codesign {
            stack: stacked.stack().expect("valid stack"),
            ..base.clone()
        };
        let mut omega_improvement = 0.0;
        for &seed in &EXCHANGE_SEEDS {
            let mut flow = flow4.clone();
            flow.exchange.seed = seed;
            let report = flow.run(&q4).expect("stacked flow runs");
            omega_improvement += report.omega_improvement_percent.unwrap_or(0.0);
        }
        omega_improvement /= EXCHANGE_SEEDS.len() as f64;

        for (metric, actual, b) in [
            ("random density", random_density, reference.random_density),
            ("ifa density", f64::from(ifa_density), reference.ifa_density),
            (
                "dfa density",
                f64::from(dfa_report.max_density),
                reference.dfa_density,
            ),
            (
                "dfa wirelength",
                dfa_report.total_wirelength,
                reference.dfa_wirelength,
            ),
            ("ir improvement %", ir_improvement, reference.ir_improvement),
            (
                "omega improvement %",
                omega_improvement,
                reference.omega_improvement,
            ),
            (
                "density after exch",
                density_after,
                reference.density_after_exchange,
            ),
        ] {
            checks.push(Check {
                circuit: reference.name,
                metric,
                actual,
                band: b,
            });
        }
    }

    let failed = checks.iter().filter(|c| !c.passes()).count();
    assert!(
        failed == 0,
        "{failed} quality metric(s) left their pinned band:\n{}",
        verdict_table(&checks)
    );
}

/// Replan quality bands under the standard 10%-net-churn ECO: on every
/// Table 1 circuit the warm replan must land in the same feasibility
/// class as a from-scratch plan of the edited instance (both legal,
/// both analysed), with its final cost inside the `replan_vs_scratch`
/// oracle's band and its routing density inside a pinned range. The
/// ratio metric is `warm / (scratch + slack)` where slack is one
/// discrete cost quantum (ρ + φ) — the same absolute allowance the
/// oracle grants tiny near-zero-cost instances.
#[test]
fn replan_quality_stays_inside_the_pinned_bands_on_every_circuit() {
    // Recorded worst-case ratios at these seeds sit well under 1.0 on
    // every circuit (the warm start usually *wins*); the band tops out
    // at the oracle's multiplicative tolerance.
    let ratio_band = band(0.0, REPLAN_TOLERANCE);
    // Post-replan density: same range the post-exchange bands allow,
    // with one extra unit for the churned (slightly different) netlist.
    let density_band = band(4.0, 10.0);

    let base_config = fast_flow().exchange;
    let slack = base_config.weights.rho + base_config.weights.phi;
    let mut checks: Vec<Check> = Vec::new();

    for (c, reference) in circuits().iter().zip(&REFERENCES) {
        let q = c.build_quadrant().expect("circuit builds");
        let mut worst_ratio: f64 = 0.0;
        let mut density_after = 0.0;

        for &seed in &EXCHANGE_SEEDS {
            let mut config = base_config.clone();
            config.seed = seed;

            // The previous plan of the pre-edit instance.
            let initial = assign(&q, AssignMethod::dfa_default()).expect("dfa");
            let previous = exchange(&q, &initial, &StackConfig::planar(), &config)
                .expect("baseline exchange runs")
                .assignment;

            // The ECO: standard churn, keyed off the exchange seed.
            let edited = churn(&q, seed, STANDARD_CHURN).expect("churn applies");

            // Warm replan vs from-scratch plan of the edited instance.
            let warm = exchange_warm(
                &edited,
                &previous,
                &StackConfig::planar(),
                &config,
                &mut NoopRecorder,
                &CancelToken::new(),
            )
            .expect("warm replan runs");
            let scratch_initial = assign(&edited, AssignMethod::dfa_default()).expect("dfa");
            let scratch = exchange(&edited, &scratch_initial, &StackConfig::planar(), &config)
                .expect("scratch exchange runs");

            // Same feasibility class: both plans are complete and legal
            // (analyze rejects anything else).
            let warm_report =
                analyze(&edited, &warm.assignment, DensityModel::Geometric).expect("warm is legal");
            analyze(&edited, &scratch.assignment, DensityModel::Geometric)
                .expect("scratch is legal");

            let ratio = warm.stats.final_cost / (scratch.stats.final_cost + slack);
            worst_ratio = worst_ratio.max(ratio);
            density_after += f64::from(warm_report.max_density);
        }
        density_after /= EXCHANGE_SEEDS.len() as f64;

        checks.push(Check {
            circuit: reference.name,
            metric: "replan cost ratio",
            actual: worst_ratio,
            band: ratio_band,
        });
        checks.push(Check {
            circuit: reference.name,
            metric: "replan density",
            actual: density_after,
            band: density_band,
        });
    }

    let failed = checks.iter().filter(|c| !c.passes()).count();
    assert!(
        failed == 0,
        "{failed} replan metric(s) left their pinned band:\n{}",
        verdict_table(&checks)
    );
}

#[test]
fn portfolio_of_eight_never_loses_to_a_single_start_on_any_circuit() {
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    for c in circuits() {
        let q = c.build_quadrant().expect("circuit builds");
        let initial = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let run = |starts: u32| {
            exchange_portfolio(
                &q,
                &initial,
                &StackConfig::planar(),
                &config,
                &PortfolioConfig {
                    starts,
                    threads: 1,
                    ..PortfolioConfig::default()
                },
            )
            .expect("portfolio runs")
        };
        let single = run(1);
        let wide = run(8);
        assert!(
            wide.result.stats.final_cost <= single.result.stats.final_cost,
            "{}: K=8 winner {:.6} worse than K=1 {:.6}",
            c.name,
            wide.result.stats.final_cost,
            single.result.stats.final_cost
        );
    }
}

/// The cooperative-mode quality chain, per Table 1 circuit × three
/// seeds: at equal total move budget (both modes run the same K-start
/// schedule, and coop replaces race's fresh respawns with crossover
/// respawns of the same remaining length), the `coop` winner must not
/// lose to `race` beyond a small tolerance band. The band exists because
/// the chain is a statistical dominance claim, not an invariant: a fresh
/// race respawn can get lucky where a crossover respawn inherits a
/// local basin. Recorded worst ratios at these seeds are ≤ 1.0
/// (cooperation usually *wins*); the band tops out a few percent above
/// parity so a real regression — a broken kick — fails loudly with the
/// verdict table.
#[test]
fn cooperative_modes_form_a_quality_chain_on_every_circuit() {
    // One discrete cost quantum of additive slack (as the replan bands
    // use), so near-parity links on cheap circuits don't flap. The
    // schedule is the Table 3 test flow's — deep enough for both modes
    // to converge; at these seeds both find the same winner on every
    // circuit, so the recorded ratios are exactly 1.0.
    let base_config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    let slack = base_config.weights.rho + base_config.weights.phi;
    let ratio_band = band(0.0, 1.05);
    let mut checks: Vec<Check> = Vec::new();

    for (c, reference) in circuits().iter().zip(&REFERENCES) {
        let q = c.build_quadrant().expect("circuit builds");
        let initial = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let mut worst_coop: f64 = 0.0;
        for &seed in &EXCHANGE_SEEDS {
            let mut config = base_config.clone();
            config.seed = seed;
            let run = |mode: PortfolioMode| {
                exchange_portfolio(
                    &q,
                    &initial,
                    &StackConfig::planar(),
                    &config,
                    &PortfolioConfig {
                        starts: 8,
                        threads: 1,
                        mode,
                        ..PortfolioConfig::default()
                    },
                )
                .expect("portfolio runs")
                .result
                .stats
                .final_cost
            };
            let race = run(PortfolioMode::Race);
            let coop = run(PortfolioMode::Coop);
            worst_coop = worst_coop.max(coop / (race + slack));
        }
        checks.push(Check {
            circuit: reference.name,
            metric: "coop/race ratio",
            actual: worst_coop,
            band: ratio_band,
        });
    }

    let failed = checks.iter().filter(|c| !c.passes()).count();
    assert!(
        failed == 0,
        "{failed} mode-chain metric(s) left their pinned band:\n{}",
        verdict_table(&checks)
    );
}

/// The crossover payoff, pinned: on circuit 1 under the starved
/// schedule all eight of race's independent starts converge to the same
/// local minimum (cost 10.33 at these seeds) — the plateau ROADMAP item
/// 2 names. Coop's leader-seeded kick respawns escape it (recorded:
/// 2.78 at 0xC0DE, 0.0 at 0xBEEF). The test asserts the aggregate form:
/// coop's best-of-seeds strictly beats race's best-of-seeds, so a
/// regression that turns the kick into a no-op fails loudly.
#[test]
fn coop_crossover_escapes_the_shared_local_minimum_on_circuit_1() {
    let schedule = Schedule {
        moves_per_temp_per_finger: 1,
        final_temp_ratio: 5e-2,
        cooling: 0.7,
        ..Schedule::default()
    };
    let c = &circuits()[0];
    let q = c.build_quadrant().expect("circuit builds");
    let initial = assign(&q, AssignMethod::dfa_default()).expect("dfa");
    let mut best_race = f64::INFINITY;
    let mut best_coop = f64::INFINITY;
    for &seed in &EXCHANGE_SEEDS {
        let config = ExchangeConfig {
            schedule,
            seed,
            ..ExchangeConfig::default()
        };
        let run = |mode: PortfolioMode| {
            exchange_portfolio(
                &q,
                &initial,
                &StackConfig::planar(),
                &config,
                &PortfolioConfig {
                    starts: 8,
                    threads: 1,
                    mode,
                    ..PortfolioConfig::default()
                },
            )
            .expect("portfolio runs")
            .result
            .stats
            .final_cost
        };
        best_race = best_race.min(run(PortfolioMode::Race));
        best_coop = best_coop.min(run(PortfolioMode::Coop));
    }
    assert!(
        best_coop < best_race,
        "coop best-of-seeds {best_coop:.4} no longer beats race's {best_race:.4} — \
         the crossover kick stopped escaping the shared local minimum"
    );
}

/// `--portfolio-mode race` is the pre-cooperative portfolio, bit for
/// bit: an explicit `Race` with an arbitrary (inert) kick size
/// must reproduce the default-config result exactly on every circuit —
/// the regression pin that keeps every pre-PR golden, cache key, and
/// oracle honest now that the mode enum exists.
#[test]
fn race_mode_is_bit_identical_to_the_pre_mode_portfolio() {
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    for c in circuits() {
        let q = c.build_quadrant().expect("circuit builds");
        let initial = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let run = |portfolio: PortfolioConfig| {
            exchange_portfolio(&q, &initial, &StackConfig::planar(), &config, &portfolio)
                .expect("portfolio runs")
        };
        let default_cfg = run(PortfolioConfig {
            starts: 8,
            threads: 1,
            ..PortfolioConfig::default()
        });
        let explicit_race = run(PortfolioConfig {
            starts: 8,
            threads: 1,
            mode: PortfolioMode::Race,
            kick_size: 17, // inert outside coop
            ..PortfolioConfig::default()
        });
        assert_eq!(
            default_cfg, explicit_race,
            "{}: explicit race with exotic inert knobs diverged from the default portfolio",
            c.name
        );
        assert_eq!(default_cfg.journal, explicit_race.journal, "{}", c.name);
    }
}

/// The K=8 regression the baseline-relative prune rule fixed: under
/// leader-relative pruning, widening the portfolio tightened the early
/// thresholds and could abandon (mid-descent) the very start a narrower
/// portfolio carried to the win — on circuit 5, K=2/4 found 8.64 while
/// K=8 returned 9.53. With prune verdicts made against start 0's
/// K-invariant trajectory, widening only adds candidates, so the
/// winner's cost must be monotone in K on every circuit. This uses the
/// starved bench schedule, the regime where the regression showed.
#[test]
fn portfolio_quality_is_monotone_in_k_on_every_circuit() {
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 5e-2,
            cooling: 0.7,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    for c in circuits() {
        let q = c.build_quadrant().expect("circuit builds");
        let initial = assign(&q, AssignMethod::dfa_default()).expect("dfa");
        let mut previous = f64::INFINITY;
        for starts in [1u32, 2, 4, 8] {
            let won = exchange_portfolio(
                &q,
                &initial,
                &StackConfig::planar(),
                &config,
                &PortfolioConfig {
                    starts,
                    threads: 1,
                    ..PortfolioConfig::default()
                },
            )
            .expect("portfolio runs");
            let cost = won.result.stats.final_cost;
            assert!(
                cost <= previous,
                "{}: K={starts} winner {:.6} worse than K={} at {:.6}",
                c.name,
                cost,
                starts / 2,
                previous
            );
            previous = cost;
        }
    }
}
