//! Criterion benchmarks of the exchange step: one full annealing run per
//! circuit size (2-D and 4-tier), and the per-move cost evaluation that
//! dominates it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use copack_core::{dfa, exchange, exchange_reference, ExchangeConfig, Schedule, SectionBaseline};
use copack_gen::{circuit, circuits};
use copack_geom::StackConfig;

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange");
    group.sample_size(10);
    // A deliberately short schedule: the benchmark tracks scaling, not
    // solution quality.
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 1e-1,
            cooling: 0.8,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    for circuit in circuits() {
        let nets = circuit.finger_count / 4;
        let q2 = circuit.build_quadrant().expect("builds");
        let initial2 = dfa(&q2, 1).expect("dfa");
        group.bench_with_input(
            BenchmarkId::new("planar", nets),
            &(&q2, &initial2),
            |b, (q, a)| {
                b.iter(|| {
                    exchange(black_box(q), black_box(a), &StackConfig::planar(), &config)
                        .expect("runs")
                });
            },
        );

        let stacked = circuit.stacked(4);
        let q4 = stacked.build_quadrant().expect("builds");
        let initial4 = dfa(&q4, 1).expect("dfa");
        let stack4 = stacked.stack().expect("stack");
        group.bench_with_input(
            BenchmarkId::new("stacked4", nets),
            &(&q4, &initial4),
            |b, (q, a)| {
                b.iter(|| exchange(black_box(q), black_box(a), &stack4, &config).expect("runs"));
            },
        );
    }
    group.finish();
}

fn bench_kernel_vs_reference(c: &mut Criterion) {
    // The headline of the O(1)-per-move rework: the incremental kernel vs
    // the from-scratch reference on the largest circuit, same seed, same
    // trajectory (they are bit-identical).
    let mut group = c.benchmark_group("exchange_kernel");
    group.sample_size(10);
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 1e-1,
            cooling: 0.8,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    let circuit = circuit(5);
    let q = circuit.build_quadrant().expect("builds");
    let initial = dfa(&q, 1).expect("dfa");
    group.bench_with_input(
        BenchmarkId::new("incremental", "circuit5"),
        &(&q, &initial),
        |b, (q, a)| {
            b.iter(|| {
                exchange(black_box(q), black_box(a), &StackConfig::planar(), &config).expect("runs")
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("reference", "circuit5"),
        &(&q, &initial),
        |b, (q, a)| {
            b.iter(|| {
                exchange_reference(black_box(q), black_box(a), &StackConfig::planar(), &config)
                    .expect("runs")
            });
        },
    );
    group.finish();
}

fn bench_move_cost(c: &mut Criterion) {
    // The ID metric recomputation is the hot inner loop of the annealer.
    let q = circuit(5).build_quadrant().expect("builds");
    let a = dfa(&q, 1).expect("dfa");
    let baseline = SectionBaseline::record(&q, &a).expect("baseline");
    c.bench_function("exchange/id_metric_112_nets", |b| {
        b.iter(|| {
            baseline
                .increased_density(black_box(&q), black_box(&a))
                .expect("id")
        });
    });
}

criterion_group!(
    benches,
    bench_exchange,
    bench_kernel_vs_reference,
    bench_move_cost
);
criterion_main!(benches);
