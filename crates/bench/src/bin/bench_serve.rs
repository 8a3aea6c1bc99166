//! Machine-readable serving-throughput benchmark: an in-process daemon
//! on an ephemeral port, hammered by concurrent client threads in four
//! scenarios — a **cold** phase of distinct jobs (every submission
//! executes), a **warm** phase resubmitting the same jobs (every
//! submission is answered from the content-addressed cache or coalesces
//! onto an in-flight duplicate), a **sustained** fixed-duration hammer
//! over the warm set (steady-state jobs/sec through the reactor), and a
//! **restart** scenario that shuts a cache-dir-backed daemon down and
//! measures how much of the cold cost the disk tier recovers on the
//! next boot. Writes per-scenario throughput and each scenario's
//! per-submission latency spread (reps, min, median, p90, plus p99) to
//! `BENCH_serve.json` for tracking across commits, with the host's core
//! count.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_serve`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use copack_bench::{host_cores, timed, Spread};
use copack_gen::circuits;
use copack_io::write_quadrant;
use copack_serve::{Client, JobSpec, PoolMetrics, ServeConfig, Server};

/// One benchmark phase's measurements.
struct Phase {
    jobs: usize,
    wall_seconds: f64,
    /// Per-submission latency, in seconds.
    latency: Spread,
    p99_ms: f64,
}

impl Phase {
    /// A phase of `latencies` (seconds, one per submission) over
    /// `wall_seconds`.
    fn of(wall_seconds: f64, mut latencies: Vec<f64>) -> Self {
        latencies.sort_by(f64::total_cmp);
        let rank = (0.99 * (latencies.len() as f64 - 1.0)).round() as usize;
        Self {
            jobs: latencies.len(),
            wall_seconds,
            p99_ms: latencies[rank] * 1000.0,
            latency: Spread::of(latencies),
        }
    }

    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.wall_seconds.max(1e-12)
    }

    fn p50_ms(&self) -> f64 {
        self.latency.median * 1000.0
    }
}

/// Submits every spec once, one client thread per `clients` slice, and
/// returns the phase timing (latencies measured per submission).
fn run_phase(addr: std::net::SocketAddr, specs: &[JobSpec], clients: usize) -> Phase {
    let started = Instant::now();
    let mut latencies: Vec<f64> = Vec::with_capacity(specs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|lane| {
                let lane_specs: Vec<&JobSpec> = specs.iter().skip(lane).step_by(clients).collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    lane_specs
                        .into_iter()
                        .map(|spec| timed(|| client.plan(spec).expect("job plans")).0)
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    Phase::of(started.elapsed().as_secs_f64(), latencies)
}

/// Hammers the (already warm) spec set for a fixed wall-clock window,
/// each client cycling through its lane's specs, and returns the
/// steady-state phase timing.
fn run_sustained(
    addr: std::net::SocketAddr,
    specs: &[JobSpec],
    clients: usize,
    window: Duration,
) -> Phase {
    let started = Instant::now();
    let deadline = started + window;
    let mut latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|lane| {
                let lane_specs: Vec<&JobSpec> = specs.iter().skip(lane).step_by(clients).collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lane_latencies = Vec::new();
                    'window: loop {
                        for spec in &lane_specs {
                            if Instant::now() >= deadline {
                                break 'window;
                            }
                            lane_latencies.push(timed(|| client.plan(spec).expect("job plans")).0);
                        }
                    }
                    lane_latencies
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    Phase::of(started.elapsed().as_secs_f64(), latencies)
}

fn json_phase(out: &mut String, key: &str, phase: &Phase) {
    let _ = write!(
        out,
        "\"{key}\": {{\"jobs\": {}, \"wall_seconds\": {:.6}, \"jobs_per_sec\": {:.1}, \
         \"latency\": {{{}}}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
        phase.jobs,
        phase.wall_seconds,
        phase.jobs_per_sec(),
        phase.latency.json_fields(),
        phase.p50_ms(),
        phase.p99_ms
    );
}

/// The cold-vs-warm-restart measurements.
struct Restart {
    cold: Phase,
    warm: Phase,
    disk_hits: u64,
}

/// Runs `specs` cold on a cache-dir-backed daemon, shuts it down, boots
/// a successor on the same directory, and resubmits everything — every
/// answer must come from the disk tier, and the two walls quantify what
/// the persistent cache saves across a restart.
fn run_restart(specs: &[JobSpec], workers: usize) -> Restart {
    let dir = std::env::temp_dir().join(format!("bench_serve_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = |dir: &std::path::Path| ServeConfig {
        workers,
        queue_capacity: specs.len().max(64),
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };

    // First life: compute and persist everything, then exit cleanly.
    let server = Server::bind("127.0.0.1:0", config(&dir)).expect("bind first life");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let cold = run_phase(addr, specs, 1);
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("first life exits cleanly");

    // Second life, same directory: memory is empty, so every submission
    // must be answered by the warm disk store.
    let server = Server::bind("127.0.0.1:0", config(&dir)).expect("bind second life");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());
    let started = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    let mut latencies = Vec::with_capacity(specs.len());
    for spec in specs {
        let (seconds, plan) = timed(|| client.plan(spec).expect("restarted daemon plans"));
        assert_eq!(
            plan.cache, "disk",
            "a restarted daemon answers a persisted job from the disk tier"
        );
        latencies.push(seconds);
    }
    let warm = Phase::of(started.elapsed().as_secs_f64(), latencies);
    client.shutdown().expect("shutdown");
    let summary = daemon
        .join()
        .expect("daemon thread")
        .expect("second life exits cleanly");
    let metrics = PoolMetrics::from_events(&summary.events);
    assert_eq!(metrics.disk_hits as usize, specs.len());
    let _ = std::fs::remove_dir_all(&dir);

    Restart {
        cold,
        warm,
        disk_hits: metrics.disk_hits,
    }
}

fn main() {
    let workers = 4usize;
    let clients = 8usize;
    // Distinct jobs: every Table 1 circuit under several configurations
    // (exchange off for volume — the serving layer, not the annealer, is
    // under test).
    let mut specs: Vec<JobSpec> = Vec::new();
    for circuit in circuits() {
        let quadrant = circuit.build_quadrant().expect("circuit builds");
        let text = write_quadrant(&circuit.name, &quadrant);
        for slack in 1u32..=8 {
            specs.push(JobSpec {
                method: copack_core::AssignMethod::Dfa { slack },
                ..JobSpec::new(text.clone())
            });
        }
        specs.push(JobSpec {
            method: copack_core::AssignMethod::Ifa,
            ..JobSpec::new(text.clone())
        });
        for seed in 0u64..4 {
            specs.push(JobSpec {
                method: copack_core::AssignMethod::Random { seed },
                ..JobSpec::new(text.clone())
            });
        }
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            queue_capacity: specs.len().max(64),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let daemon = std::thread::spawn(move || server.run());

    let cold = run_phase(addr, &specs, clients);
    let warm = run_phase(addr, &specs, clients);
    let sustained = run_sustained(addr, &specs, clients, Duration::from_secs(3));

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let summary = daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    let metrics = PoolMetrics::from_events(&summary.events);
    assert_eq!(
        summary.status.completed as usize,
        specs.len(),
        "every distinct job must execute exactly once across both phases"
    );

    for (name, phase) in [("cold", &cold), ("warm", &warm), ("sustained", &sustained)] {
        println!(
            "{name}: {} jobs in {:.3} s ({:.1} jobs/s, p50 {:.2} ms, p99 {:.2} ms)",
            phase.jobs,
            phase.wall_seconds,
            phase.jobs_per_sec(),
            phase.p50_ms(),
            phase.p99_ms
        );
    }
    println!(
        "cache: {} hits, {} coalesced over {} submissions (hit-rate {:.1}%)",
        metrics.cache_hits,
        metrics.coalesced,
        metrics.jobs,
        100.0 * metrics.cache_hit_rate()
    );

    // Cold-vs-warm restart on a smaller distinct set (one client, so
    // the walls compare like for like).
    let restart_specs: Vec<JobSpec> = specs.iter().take(12).cloned().collect();
    let restart = run_restart(&restart_specs, workers);
    let restart_speedup = restart.cold.wall_seconds / restart.warm.wall_seconds.max(1e-12);
    println!(
        "restart: {} jobs cold in {:.3} s, warm from disk in {:.3} s \
         ({restart_speedup:.1}x speedup, {} disk hits)",
        restart.cold.jobs, restart.cold.wall_seconds, restart.warm.wall_seconds, restart.disk_hits
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"benchmark\": \"serve\",\n  \"cores\": {},\n  \"workers\": {workers}, \
         \"clients\": {clients}, \"distinct_jobs\": {},\n  ",
        host_cores(),
        specs.len()
    );
    json_phase(&mut json, "cold", &cold);
    json.push_str(",\n  ");
    json_phase(&mut json, "warm", &warm);
    json.push_str(",\n  ");
    json_phase(&mut json, "sustained", &sustained);
    let _ = write!(
        json,
        ",\n  \"restart\": {{\"jobs\": {}, \"speedup\": {restart_speedup:.2}, \
         \"disk_hits\": {}, ",
        restart.cold.jobs, restart.disk_hits
    );
    json_phase(&mut json, "cold", &restart.cold);
    json.push_str(", ");
    json_phase(&mut json, "warm", &restart.warm);
    json.push('}');
    let _ = writeln!(
        json,
        ",\n  \"cache_hits\": {}, \"coalesced\": {}, \"hit_rate\": {:.4}, \
         \"warm_speedup\": {:.2}\n}}",
        metrics.cache_hits,
        metrics.coalesced,
        metrics.cache_hit_rate(),
        cold.wall_seconds / warm.wall_seconds.max(1e-12)
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
