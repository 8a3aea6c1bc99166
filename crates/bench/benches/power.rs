//! Criterion benchmarks of the IR-drop substrate: the multigrid-
//! preconditioned CG against plain CG across grid sizes, and the Δ_IR
//! proxy the exchange loop calls thousands of times (its whole reason to
//! exist is being orders of magnitude cheaper than a solve).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use copack_power::{solve_cg, solve_mg, GridSpec, PadRing, PadSpacingProxy};

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_solve");
    group.sample_size(20);
    for n in [16usize, 32, 48] {
        let spec = GridSpec::default_chip(n);
        let ring = PadRing::uniform(12);
        group.bench_with_input(BenchmarkId::new("mg", n), &(&spec, &ring), |b, (s, r)| {
            b.iter(|| solve_mg(black_box(s), black_box(r)).expect("solves"));
        });
        group.bench_with_input(BenchmarkId::new("cg", n), &(&spec, &ring), |b, (s, r)| {
            b.iter(|| solve_cg(black_box(s), black_box(r)).expect("solves"));
        });
    }
    group.finish();
}

fn bench_proxy(c: &mut Criterion) {
    let ts: Vec<f64> = (0..64).map(|i| (f64::from(i) + 0.37) / 64.0).collect();
    c.bench_function("power_proxy/delta_ir_64_pads", |b| {
        b.iter(|| {
            PadSpacingProxy::new(black_box(&ts))
                .expect("proxy")
                .delta_ir()
        });
    });
}

criterion_group!(benches, bench_solvers, bench_proxy);
criterion_main!(benches);
