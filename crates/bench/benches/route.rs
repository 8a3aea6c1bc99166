//! Criterion benchmarks of the routing substrate: density analysis, the
//! fast top-line congestion estimator (which the paper's exchange step
//! relies on being much cheaper than full analysis), and path extraction.
//! Density analysis and path extraction also run on a large-1k DFA order
//! (1 000 nets, 100 lines), where the crossing sweep's cost shows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use copack_core::dfa;
use copack_gen::{circuits, large_circuit};
use copack_route::{
    balanced_density_map, density_map, estimate_congestion, extract_paths, DensityModel,
};

fn bench_routing_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("route");
    for circuit in circuits() {
        let quadrant = circuit.build_quadrant().expect("builds");
        let assignment = dfa(&quadrant, 1).expect("dfa");
        let nets = quadrant.net_count();

        group.bench_with_input(
            BenchmarkId::new("density_map", nets),
            &(&quadrant, &assignment),
            |b, (q, a)| {
                b.iter(|| density_map(black_box(q), black_box(a), DensityModel::Geometric));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("estimator", nets),
            &(&quadrant, &assignment),
            |b, (q, a)| {
                b.iter(|| estimate_congestion(black_box(q), black_box(a)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("balanced", nets),
            &(&quadrant, &assignment),
            |b, (q, a)| {
                b.iter(|| balanced_density_map(black_box(q), black_box(a)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("paths", nets),
            &(&quadrant, &assignment),
            |b, (q, a)| {
                b.iter(|| extract_paths(black_box(q), black_box(a)));
            },
        );
    }

    let spec = large_circuit("1k", 1).expect("1k is a preset size");
    let quadrant = spec.build_quadrant().expect("builds");
    let assignment = dfa(&quadrant, 1).expect("dfa");
    let nets = quadrant.net_count();
    group.bench_with_input(
        BenchmarkId::new("density_map", nets),
        &(&quadrant, &assignment),
        |b, (q, a)| {
            b.iter(|| density_map(black_box(q), black_box(a), DensityModel::Geometric));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("paths", nets),
        &(&quadrant, &assignment),
        |b, (q, a)| {
            b.iter(|| extract_paths(black_box(q), black_box(a)));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_routing_analysis);
criterion_main!(benches);
