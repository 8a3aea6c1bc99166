//! Integration check of the acceptance criterion for the incremental
//! exchange kernel: on the Fig. 5 instance, all five Table 1 circuits
//! (ψ = 1 and ψ = 4), reduced large-family instances (ψ ∈ {1, 2, 4, 8}),
//! a large-1k preset side, and sparse quadrants (more fingers than nets),
//! with the margin weight μ off and on, and with each of λ, ρ and φ off in
//! turn, [`exchange`] and
//! [`exchange_reference`] must return
//! **bit-identical** [`copack::core::ExchangeResult`]s from identical
//! seeds — and, with the telemetry layer, identical **trajectories**: the
//! recorded event streams match move for move, not just at the end state.

use copack::core::{
    dfa, exchange, exchange_reference, exchange_reference_traced, exchange_traced, CostWeights,
    ExchangeConfig, Schedule,
};
use copack::gen::{circuits, large_circuit, large_fuzz_case};
use copack::geom::{Assignment, NetKind, Quadrant, StackConfig, TierId};
use copack::obs::{accepted_signature, TraceBuffer};
use proptest::prelude::*;

/// The Fig. 5 instance, with a few nets marked as power pads so the
/// Δ_IR term is live at ψ = 1.
fn fig5_with_power() -> Quadrant {
    Quadrant::builder()
        .row([10u32, 2, 4, 7, 0])
        .row([1u32, 3, 5, 8])
        .row([11u32, 6, 9])
        .net_kind(3u32, NetKind::Power)
        .net_kind(6u32, NetKind::Power)
        .net_kind(9u32, NetKind::Power)
        .build()
        .expect("the Fig. 5 instance builds")
}

fn config(seed: u64) -> ExchangeConfig {
    ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-2,
            cooling: 0.7,
            ..Schedule::default()
        },
        seed,
        ..ExchangeConfig::default()
    }
}

/// The margin weights every extended input runs under: μ off (the
/// default, no tracker built) and on.
const MARGINS: [f64; 2] = [0.0, 1.5];

fn with_margin(mut cfg: ExchangeConfig, margin: f64) -> ExchangeConfig {
    cfg.weights.margin = margin;
    cfg
}

/// `cfg` under each weight set that switches one Eq. 3 term off: λ = 0
/// (a power pad trades places with any net at no cost), ρ = 0 (ID is not
/// scored) and φ = 0 (ω is not scored). These are the inputs on which the
/// kernel's per-net flags stop telling term-changing swaps apart.
fn one_term_off(cfg: &ExchangeConfig) -> [(&'static str, ExchangeConfig); 3] {
    let base = cfg.weights;
    [
        (
            "lambda=0",
            CostWeights {
                lambda: 0.0,
                ..base
            },
        ),
        ("rho=0", CostWeights { rho: 0.0, ..base }),
        ("phi=0", CostWeights { phi: 0.0, ..base }),
    ]
    .map(|(label, weights)| {
        (
            label,
            ExchangeConfig {
                weights,
                ..cfg.clone()
            },
        )
    })
}

/// The tier counts the one-term-off checks run at: planar, and stacked
/// with two and four tiers.
const TERM_OFF_TIERS: [u8; 3] = [1, 2, 4];

fn assert_bit_identical(quadrant: &Quadrant, stack: &StackConfig, label: &str) {
    assert_bit_identical_under(quadrant, stack, 0.0, label);
}

fn assert_bit_identical_under(quadrant: &Quadrant, stack: &StackConfig, margin: f64, label: &str) {
    let initial = dfa(quadrant, 1).expect("dfa");
    for seed in [0u64, 7, 2009] {
        let cfg = with_margin(config(seed), margin);
        assert_results_match(
            quadrant,
            &initial,
            stack,
            &cfg,
            &format!("{label}, seed {seed}"),
        );
    }
}

fn assert_results_match(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    cfg: &ExchangeConfig,
    label: &str,
) {
    let fast = exchange(quadrant, initial, stack, cfg).expect("kernel runs");
    let slow = exchange_reference(quadrant, initial, stack, cfg).expect("reference runs");
    assert_eq!(fast, slow, "{label}");
    // "Bit-identical" includes the float-valued costs; `PartialEq` on
    // f64 compares values, so pin the exact representations too.
    assert_eq!(
        fast.stats.final_cost.to_bits(),
        slow.stats.final_cost.to_bits(),
        "{label}: final cost bits"
    );
    assert_eq!(
        fast.stats.initial_cost.to_bits(),
        slow.stats.initial_cost.to_bits(),
        "{label}: initial cost bits"
    );
}

#[test]
fn fig5_kernel_matches_reference() {
    let q = fig5_with_power();
    assert_bit_identical(&q, &StackConfig::planar(), "fig5 psi=1");
}

#[test]
fn table1_circuits_kernel_matches_reference_planar() {
    for circuit in circuits() {
        let q = circuit.build_quadrant().expect("circuit builds");
        assert_bit_identical(
            &q,
            &StackConfig::planar(),
            &format!("{} psi=1", circuit.name),
        );
    }
}

#[test]
fn table1_circuits_kernel_matches_reference_stacked4() {
    for circuit in circuits() {
        let stacked = circuit.stacked(4);
        let q = stacked.build_quadrant().expect("circuit builds");
        let stack = stacked.stack().expect("valid stack");
        assert_bit_identical(&q, &stack, &format!("{} psi=4", circuit.name));
    }
}

/// Runs both implementations with rejected-move recording on and asserts
/// the full event streams — and in particular the accepted-move
/// signatures `(step, slot, delta bits, cost bits)` — are identical.
fn assert_same_trajectory(quadrant: &Quadrant, stack: &StackConfig, seed: u64, label: &str) {
    let initial = dfa(quadrant, 1).expect("dfa");
    assert_same_trajectory_under(quadrant, &initial, stack, &config(seed), label);
}

fn assert_same_trajectory_under(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    cfg: &ExchangeConfig,
    label: &str,
) {
    let mut fast_buf = TraceBuffer::with_rejected();
    let mut slow_buf = TraceBuffer::with_rejected();
    let fast = exchange_traced(quadrant, initial, stack, cfg, &mut fast_buf);
    let slow = exchange_reference_traced(quadrant, initial, stack, cfg, &mut slow_buf);
    // Degenerate instances (e.g. a single net — nothing to swap) must
    // fail identically on both sides; there is no trajectory to compare.
    let (fast, slow) = match (fast, slow) {
        (Ok(f), Ok(s)) => (f, s),
        (f, s) => {
            assert_eq!(
                f.as_ref().err().map(ToString::to_string),
                s.as_ref().err().map(ToString::to_string),
                "{label}: errors diverge ({f:?} vs {s:?})"
            );
            return;
        }
    };
    assert_eq!(fast, slow, "{label}: result");
    let fast_events = fast_buf.into_events();
    let slow_events = slow_buf.into_events();
    assert_eq!(
        accepted_signature(&fast_events),
        accepted_signature(&slow_events),
        "{label}: accepted-move sequence"
    );
    assert_eq!(fast_events.len(), slow_events.len(), "{label}: event count");
    for (i, (f, s)) in fast_events.iter().zip(&slow_events).enumerate() {
        assert_eq!(f.to_json(), s.to_json(), "{label}: event {i}");
    }
}

#[test]
fn trajectories_match_on_the_paper_circuits() {
    let q = fig5_with_power();
    assert_same_trajectory(&q, &StackConfig::planar(), 2009, "fig5 psi=1");
    for circuit in circuits() {
        let q = circuit.build_quadrant().expect("circuit builds");
        assert_same_trajectory(
            &q,
            &StackConfig::planar(),
            7,
            &format!("{} psi=1", circuit.name),
        );
        let stacked = circuit.stacked(4);
        let q4 = stacked.build_quadrant().expect("circuit builds");
        let stack = stacked.stack().expect("valid stack");
        assert_same_trajectory(&q4, &stack, 7, &format!("{} psi=4", circuit.name));
    }
}

/// The stack a ψ-tier instance is planned on.
fn stack_of(tiers: u8) -> StackConfig {
    if tiers <= 1 {
        StackConfig::planar()
    } else {
        StackConfig::stacked(tiers).expect("valid stack")
    }
}

#[test]
fn trajectories_match_with_one_term_off_on_the_paper_circuits() {
    let q = fig5_with_power();
    let initial = dfa(&q, 1).expect("dfa");
    for (term, cfg) in one_term_off(&config(2009)) {
        let label = format!("fig5 psi=1 {term}");
        assert_same_trajectory_under(&q, &initial, &StackConfig::planar(), &cfg, &label);
    }
    for circuit in circuits() {
        for tiers in TERM_OFF_TIERS {
            let spec = circuit.stacked(tiers);
            let q = spec.build_quadrant().expect("circuit builds");
            let stack = stack_of(tiers);
            let initial = dfa(&q, 1).expect("dfa");
            for (term, cfg) in one_term_off(&config(7)) {
                let label = format!("{} psi={tiers} {term}", circuit.name);
                assert_same_trajectory_under(&q, &initial, &stack, &cfg, &label);
            }
        }
    }
}

/// Reduced large-family instances (64–160 nets), two of each ψ in
/// {1, 2, 4, 8}, in index order.
fn large_fuzz_instances() -> Vec<(Quadrant, u8, String)> {
    let mut per_psi = [0usize; 4];
    let mut out = Vec::new();
    for index in 0..256u64 {
        let case = large_fuzz_case(0x5EED, index).expect("large fuzz case builds");
        let slot = [1u8, 2, 4, 8]
            .iter()
            .position(|&t| t == case.tiers)
            .expect("psi wheel");
        if per_psi[slot] < 2 {
            per_psi[slot] += 1;
            let label = format!(
                "large-fuzz {index} ({} nets) psi={}",
                case.quadrant.net_count(),
                case.tiers
            );
            out.push((case.quadrant, case.tiers, label));
        }
        if per_psi.iter().all(|&n| n == 2) {
            return out;
        }
    }
    panic!("the psi wheel covers every tier count within 256 cases");
}

/// `quadrant` rebuilt with `extra` empty fingers: a sparse order, which
/// the ω tracker does not model (the kernel recounts ω instead).
fn with_spare_fingers(quadrant: &Quadrant, extra: usize) -> Quadrant {
    let mut builder = Quadrant::builder().geometry(*quadrant.geometry());
    for (_, nets) in quadrant.rows_bottom_up() {
        builder = builder.row(nets.iter().copied());
    }
    for net in quadrant.nets() {
        builder = builder
            .net_kind(net.id, net.kind)
            .net_tier(net.id, net.tier);
    }
    builder
        .fingers(quadrant.finger_count() + extra)
        .build()
        .expect("a wider finger row still builds")
}

#[test]
fn large_fuzz_instances_kernel_matches_reference() {
    for (q, tiers, label) in large_fuzz_instances() {
        for margin in MARGINS {
            assert_bit_identical_under(
                &q,
                &stack_of(tiers),
                margin,
                &format!("{label} mu={margin}"),
            );
        }
    }
}

#[test]
fn trajectories_match_on_large_fuzz_instances() {
    for (q, tiers, label) in large_fuzz_instances() {
        let initial = dfa(&q, 1).expect("dfa");
        for margin in MARGINS {
            let cfg = with_margin(config(11), margin);
            assert_same_trajectory_under(
                &q,
                &initial,
                &stack_of(tiers),
                &cfg,
                &format!("{label} mu={margin}"),
            );
        }
    }
}

#[test]
fn trajectories_match_with_one_term_off_on_large_fuzz_instances() {
    for (q, tiers, label) in large_fuzz_instances() {
        if !TERM_OFF_TIERS.contains(&tiers) {
            continue;
        }
        let initial = dfa(&q, 1).expect("dfa");
        for (term, cfg) in one_term_off(&config(13)) {
            let label = format!("{label} {term}");
            assert_same_trajectory_under(&q, &initial, &stack_of(tiers), &cfg, &label);
        }
    }
}

/// One large-1k preset side (1 000 nets, ψ = 2) under a schedule cut to
/// four temperature steps of one proposal per finger, so the from-scratch
/// reference stays affordable in a debug build.
#[test]
fn large_1k_side_kernel_matches_reference_with_a_short_schedule() {
    let spec = large_circuit("1k", 7).expect("1k is a preset");
    let q = spec.build_quadrant().expect("large-1k builds");
    let stack = spec.stack().expect("valid stack");
    let initial = dfa(&q, 1).expect("dfa");
    for margin in MARGINS {
        let cfg = with_margin(
            ExchangeConfig {
                schedule: Schedule {
                    moves_per_temp_per_finger: 1,
                    final_temp_ratio: 0.3,
                    cooling: 0.7,
                    ..Schedule::default()
                },
                seed: 2009,
                ..ExchangeConfig::default()
            },
            margin,
        );
        let label = format!("large-1k psi=2 mu={margin}");
        assert_results_match(&q, &initial, &stack, &cfg, &label);
        assert_same_trajectory_under(&q, &initial, &stack, &cfg, &label);
    }
}

/// Sparse quadrants: circuit 3 at ψ = `circuit_tiers` with 9 empty
/// fingers, and every other reduced large-family instance with 13, each
/// with its DFA order (which leaves fingers empty).
fn sparse_cases(circuit_tiers: &[u8]) -> Vec<(Quadrant, u8, String, Assignment)> {
    let mut cases = Vec::new();
    for &tiers in circuit_tiers {
        let circuit3 = circuits()[2].stacked(tiers);
        cases.push((
            with_spare_fingers(&circuit3.build_quadrant().expect("builds"), 9),
            tiers,
            format!("circuit 3 psi={tiers} +9 fingers"),
        ));
    }
    for (q, tiers, label) in large_fuzz_instances().into_iter().step_by(2) {
        cases.push((
            with_spare_fingers(&q, 13),
            tiers,
            format!("{label} +13 fingers"),
        ));
    }
    cases
        .into_iter()
        .map(|(q, tiers, label)| {
            assert!(q.finger_count() > q.net_count(), "{label} is sparse");
            let initial = dfa(&q, 1).expect("dfa");
            assert!(initial.finger_count() > initial.net_count(), "{label}");
            (q, tiers, label, initial)
        })
        .collect()
}

/// Sparse quadrants: empty fingers beside the nets, planar and stacked
/// (where ω is recounted every move rather than tracked).
#[test]
fn sparse_quadrants_kernel_matches_reference() {
    for (q, tiers, label, initial) in sparse_cases(&[4]) {
        for margin in MARGINS {
            let label = format!("{label} mu={margin}");
            assert_bit_identical_under(&q, &stack_of(tiers), margin, &label);
            let cfg = with_margin(config(5), margin);
            assert_same_trajectory_under(&q, &initial, &stack_of(tiers), &cfg, &label);
        }
    }
}

/// The sparse quadrants with each of λ, ρ and φ off in turn, at
/// ψ ∈ {1, 2, 4}: a move into an empty finger, and ω recounted rather
/// than tracked, under every weight set that switches a term's flag off.
#[test]
fn trajectories_match_with_one_term_off_on_sparse_quadrants() {
    for (q, tiers, label, initial) in sparse_cases(&TERM_OFF_TIERS) {
        if !TERM_OFF_TIERS.contains(&tiers) {
            continue;
        }
        for (term, cfg) in one_term_off(&config(5)) {
            let label = format!("{label} {term}");
            assert_same_trajectory_under(&q, &initial, &stack_of(tiers), &cfg, &label);
        }
    }
}

/// Strategy mirroring `tests/properties.rs`: a quadrant with shuffled net
/// ids, every third net a power pad, striped across `tiers` tiers.
fn quadrant_strategy_tiered(tiers: u8) -> impl Strategy<Value = Quadrant> {
    (prop::collection::vec(1usize..=8, 1..=5), any::<u64>()).prop_map(move |(sizes, seed)| {
        let total: usize = sizes.iter().sum();
        // Deterministic Fisher–Yates from the seed, no external RNG needed.
        let mut ids: Vec<u32> = (1..=total as u32).collect();
        let mut state = seed | 1;
        for i in (1..ids.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            ids.swap(i, j);
        }
        let mut builder = Quadrant::builder();
        let mut cursor = 0;
        for &s in &sizes {
            builder = builder.row(ids[cursor..cursor + s].iter().copied());
            cursor += s;
        }
        for id in 1..=total as u32 {
            if id % 3 == 0 {
                builder = builder.net_kind(id, NetKind::Power);
            }
            if tiers > 1 {
                builder =
                    builder.net_tier(id, TierId::new(((id - 1) % u32::from(tiers) + 1) as u8));
            }
        }
        builder.build().expect("generated quadrants are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-trajectory equivalence on arbitrary quadrants and seeds:
    /// the O(1) kernel and the from-scratch reference record the same
    /// accepted-move sequence (and the same complete event stream) at
    /// ψ = 1.
    #[test]
    fn trajectories_match_for_any_seed_planar(
        q in quadrant_strategy_tiered(1),
        seed in any::<u64>(),
    ) {
        assert_same_trajectory(&q, &StackConfig::planar(), seed, "proptest psi=1");
    }

    /// Same, with 3-tier stacking (live ω term).
    #[test]
    fn trajectories_match_for_any_seed_stacked3(
        q in quadrant_strategy_tiered(3),
        seed in any::<u64>(),
    ) {
        let stack = StackConfig::stacked(3).expect("valid stack");
        assert_same_trajectory(&q, &stack, seed, "proptest psi=3");
    }

    /// Same, with one of λ, ρ and φ off, at ψ ∈ {1, 2, 4}.
    #[test]
    fn trajectories_match_for_any_seed_with_one_term_off(
        instance in (0usize..TERM_OFF_TIERS.len()).prop_flat_map(|i| {
            let tiers = TERM_OFF_TIERS[i];
            quadrant_strategy_tiered(tiers).prop_map(move |q| (q, tiers))
        }),
        term in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (q, tiers) = instance;
        let initial = dfa(&q, 1).expect("dfa");
        let (label, cfg) = one_term_off(&config(seed))[term].clone();
        let label = format!("proptest psi={tiers} {label}");
        assert_same_trajectory_under(&q, &initial, &stack_of(tiers), &cfg, &label);
    }

    /// Same over sparse quadrants (1–8 spare fingers, so moves into empty
    /// slots and, at ψ > 1, a recounted ω), with every term on or one of
    /// λ, ρ and φ off.
    #[test]
    fn trajectories_match_for_any_seed_on_sparse_quadrants(
        instance in (0usize..TERM_OFF_TIERS.len()).prop_flat_map(|i| {
            let tiers = TERM_OFF_TIERS[i];
            quadrant_strategy_tiered(tiers).prop_map(move |q| (q, tiers))
        }),
        spare in 1usize..=8,
        term in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (q, tiers) = instance;
        let q = with_spare_fingers(&q, spare);
        let initial = dfa(&q, 1).expect("dfa");
        let (label, cfg) = match term {
            3 => ("all terms", config(seed)),
            _ => one_term_off(&config(seed))[term].clone(),
        };
        let label = format!("proptest psi={tiers} +{spare} fingers {label}");
        assert_same_trajectory_under(&q, &initial, &stack_of(tiers), &cfg, &label);
    }
}
