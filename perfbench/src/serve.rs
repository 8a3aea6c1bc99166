//! The `copack-serve` layers, measured in `table1-flow`'s traced run: an
//! in-process `Server` at `ServeConfig::default()` and two client
//! connections in a closed loop over a warmed hot set of 14 exchange jobs
//! (the ten Table 1 quadrants plus four 17 KB large-1k payloads). On each
//! connection every 20th request is a fresh Table 1 job with a new exchange
//! seed, so ≈95 % of requests are cache hits.
//!
//! A `serve-resubmit` workload of its own was left out: its throughput
//! drifted by up to 1.5× between runs of the same seed, and a local,
//! single-threaded replay of the same request lines drifted with it, so
//! no regression bound could hold on the end-to-end numbers.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use copack_core::CancelToken;
use copack_gen::SplitMix64;
use copack_io::parse_quadrant;
use copack_obs::Event;
use copack_serve::{
    cache_key, decode_request, decode_response, encode_request, encode_response, execute_job,
    Client, Frame, JobOutput, JobSpec, LineReader, PlanResponse, Request, Response, ServeConfig,
    ServeSummary, Server,
};
use polling::{poll, PollFd, POLLIN};

use crate::harness::{digest, text, Layers};
use crate::inputs::{large_1k, table1_rows, PlanInput};
use crate::stats::{mean, ms_since, ratio};
use crate::trace::Spans;

const CONNECTIONS: usize = 2;
/// How long a reply may take before the request counts as failed: the
/// daemon's own default job budget.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Every `MISS_EVERY`-th request on a connection is a fresh job.
const MISS_EVERY: usize = 20;
const HOT: usize = 14;
/// Hot jobs `0..TABLE1` are the Table 1 quadrants, the rest large-1k.
const TABLE1: usize = 10;
/// A cycle is `HOT` blocks of `MISS_EVERY - 1` hits and one miss, so each
/// hot job is requested exactly `MISS_EVERY - 1` times per cycle.
const CYCLE: usize = HOT * MISS_EVERY;
/// Measured cycles, after one untimed warm-up cycle.
const CYCLES: usize = 4;

fn spec(input: &PlanInput) -> JobSpec {
    JobSpec {
        exchange: true,
        psi: input.psi,
        exchange_seed: input.seed,
        ..JobSpec::new(input.text.clone())
    }
}

/// The run's inputs: the hot set and the Table 1 bases of the misses.
struct Inputs {
    hot: Vec<JobSpec>,
    table1: Vec<PlanInput>,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut r = SplitMix64::new(seed);
        let table1: Vec<PlanInput> = table1_rows(&mut r, 1).into_iter().flatten().collect();
        let large = large_1k(&mut r, HOT - table1.len());
        let hot = table1.iter().chain(&large).map(spec).collect();
        Self { hot, table1, seed }
    }

    /// The `n`-th fresh job of connection `conn`: a Table 1 quadrant with
    /// an exchange seed no other request uses.
    fn miss(&self, conn: usize, n: usize) -> JobSpec {
        let mut r = SplitMix64::new(self.seed ^ ((conn as u64 + 1) << 56) ^ n as u64);
        let base = &self.table1[n % self.table1.len()];
        spec(&PlanInput {
            seed: r.next_u64(),
            ..base.clone()
        })
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot(usize),
    /// The connection and its miss counter name the spec.
    Miss(usize, usize),
}

/// One answered request.
struct Record {
    kind: Kind,
    rtt_ms: f64,
    daemon_ms: f64,
    hit: bool,
    /// `None` when the daemon answered with an error.
    digest: Option<u64>,
}

fn output_digest(report: &str, assignment: &str) -> u64 {
    digest(&format!("{report}\0{assignment}"))
}

/// A connection's request order: the hot jobs in rotation, a miss closing
/// every block. At each position both connections ask for the same kind
/// of job — two Table 1 hits, two large hits or two misses — but for
/// different hot jobs: connection `c` shifts the rotation by `c` within
/// each kind.
fn kind_at(conn: usize, position: usize, misses_before: usize) -> Kind {
    if position % MISS_EVERY == MISS_EVERY - 1 {
        return Kind::Miss(conn, misses_before);
    }
    let hot = (position - position / MISS_EVERY) % HOT;
    let (base, len) = if hot < TABLE1 {
        (0, TABLE1)
    } else {
        (TABLE1, HOT - TABLE1)
    };
    Kind::Hot(base + (hot - base + conn) % len)
}

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Daemon {
    fn start() -> std::io::Result<Self> {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle })
    }

    fn stop(self) -> Result<ServeSummary, String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(text)?;
        self.handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(text)
    }
}

/// One client connection, kept from warm-up into the timed phase. It
/// speaks the daemon's protocol through the public codec, so a send and
/// its reply can be awaited separately.
struct Conn {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
    misses: usize,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = LineReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            misses: 0,
        })
    }

    fn send(&mut self, job: &JobSpec) -> Result<(), String> {
        let mut frame = encode_request(&Request::Plan(job.clone()));
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).map_err(text)
    }

    fn receive(&mut self) -> Result<PlanResponse, String> {
        loop {
            match self.reader.next_frame().map_err(text)? {
                Frame::Line(line) => {
                    return match decode_response(&line).map_err(text)? {
                        Response::Plan(plan) => Ok(plan),
                        other => Err(format!("expected a plan, got {other:?}")),
                    }
                }
                Frame::Idle => {}
                Frame::Eof => return Err("the daemon closed the connection".into()),
            }
        }
    }

    /// One request and its reply, on its own.
    fn plan(&mut self, job: &JobSpec) -> Result<PlanResponse, String> {
        self.send(job)?;
        self.receive()
    }
}

/// What some cycles of the loop measured.
#[derive(Default)]
struct Phase {
    records: Vec<Record>,
    /// One `"request"` span per request.
    spans: Spans,
}

/// Runs `cycles` whole cycles, keeping a span per request. The
/// connections move in step: both send, and the next pair goes once both
/// replies are in. One thread drives both and waits on them with
/// `poll(2)`, so each reply is timed when it arrives and no client thread
/// has to wake another.
fn phase(conns: &mut [Conn], inputs: &Inputs, cycles: usize) -> Phase {
    let mut out = Phase::default();
    for _ in 0..cycles {
        for position in 0..CYCLE {
            let mut pending = Vec::with_capacity(CONNECTIONS);
            for (id, conn) in conns.iter_mut().enumerate() {
                let kind = kind_at(id, position, conn.misses);
                let job = match kind {
                    Kind::Hot(i) => inputs.hot[i].clone(),
                    Kind::Miss(..) => {
                        conn.misses += 1;
                        inputs.miss(id, conn.misses - 1)
                    }
                };
                let sent = out.spans.begin();
                let t = Instant::now();
                let failed = conn.send(&job).is_err();
                pending.push((id, kind, sent, t, failed));
            }
            while !pending.is_empty() {
                let mut fds: Vec<PollFd> = pending
                    .iter()
                    .map(|&(id, ..)| PollFd::new(conns[id].writer.as_raw_fd(), POLLIN))
                    .collect();
                let ready = poll(&mut fds, REPLY_TIMEOUT).unwrap_or(0);
                let mut k = 0;
                while k < pending.len() {
                    let (id, kind, sent, t, failed) = pending[k];
                    let timed_out = ready == 0;
                    if !(failed || timed_out || fds[k].readable()) {
                        k += 1;
                        continue;
                    }
                    let answer = if failed || timed_out {
                        Err("no reply".to_string())
                    } else {
                        conns[id].receive()
                    };
                    let rtt_ms = ms_since(t);
                    out.spans.end("request", out.records.len() as u32, sent);
                    out.records.push(match answer {
                        Ok(r) => Record {
                            kind,
                            rtt_ms,
                            daemon_ms: r.seconds * 1e3,
                            hit: r.cache == "hit",
                            digest: Some(output_digest(&r.report, &r.assignment)),
                        },
                        Err(_) => Record {
                            kind,
                            rtt_ms,
                            daemon_ms: 0.0,
                            hit: false,
                            digest: None,
                        },
                    });
                    pending.remove(k);
                    fds.remove(k);
                }
            }
        }
    }
    out
}

struct Running {
    daemon: Daemon,
    conns: Vec<Conn>,
}

/// Binds the daemon, fills the cache with the hot set and runs one
/// untimed warm-up cycle on both connections.
fn setup(inputs: &Inputs) -> Result<Running, String> {
    let daemon = Daemon::start().map_err(text)?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(Conn::connect(daemon.addr).map_err(text)?);
    }
    for job in &inputs.hot {
        conns[0].plan(job)?;
    }
    phase(&mut conns, inputs, 1);
    Ok(Running { daemon, conns })
}

fn teardown(running: Running) -> Result<ServeSummary, String> {
    drop(running.conns);
    running.daemon.stop()
}

/// Local `execute_job` of a spec: the reference the served bytes must
/// equal, and how long planning took.
fn local(job: &JobSpec) -> Result<(JobOutput, f64), String> {
    let (name, quadrant) = parse_quadrant(&job.circuit).map_err(text)?;
    let t = Instant::now();
    let out = execute_job(job, &name, &quadrant, &CancelToken::default()).map_err(text)?;
    Ok((out, ms_since(t)))
}

/// Local `execute_job` of every hot job.
fn hot_references(inputs: &Inputs) -> Result<Vec<JobOutput>, String> {
    inputs.hot.iter().map(|job| Ok(local(job)?.0)).collect()
}

/// Checks every record against a local `execute_job` of its spec.
/// Returns the count that matched and the local plan times of the misses.
fn check(
    inputs: &Inputs,
    hot: &[JobOutput],
    records: &[Record],
    problems: &mut Vec<String>,
) -> (usize, Vec<f64>) {
    let hot_digests: Vec<u64> = hot
        .iter()
        .map(|out| output_digest(&out.report, &out.assignment))
        .collect();
    let mut ok = 0;
    let mut plan_ms = Vec::new();
    let mut mismatches = 0;
    for r in records {
        let expected = match r.kind {
            Kind::Hot(i) => Some(hot_digests[i]),
            Kind::Miss(conn, n) => match local(&inputs.miss(conn, n)) {
                Ok((out, ms)) => {
                    plan_ms.push(ms);
                    Some(output_digest(&out.report, &out.assignment))
                }
                Err(e) => {
                    problems.push(format!("miss reference: {e}"));
                    None
                }
            },
        };
        if r.digest.is_some() && r.digest == expected {
            ok += 1;
        } else {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} served answers differ from a local execute_job"
        ));
    }
    (ok, plan_ms)
}

/// What the serve probe adds to a traced run.
pub struct Served {
    pub attempted: usize,
    pub ok: usize,
    pub problems: Vec<String>,
    /// A `"request"` span per loop request, then the replay's layer spans.
    pub spans: Spans,
}

/// Runs [`CYCLES`] loop cycles against a warmed daemon, then replays one
/// cycle of each connection's request lines locally through decode →
/// parse → fingerprint → plan (misses only) → encode, each step in a
/// span, and sets the `serve.*` layers. Every served answer is checked
/// against a local `execute_job`.
pub fn measure(seed: u64, layers: &mut Layers) -> Result<Served, String> {
    let inputs = &Inputs::new(seed);
    let mut running = setup(inputs)?;
    let Phase { records, mut spans } = phase(&mut running.conns, inputs, CYCLES);
    let summary = teardown(running)?;

    let hot_outputs = hot_references(inputs)?;
    // Replayed lines take job ids after every loop request's.
    let mut replayed = records.len() as u32;
    let first_replay = replayed;
    // Replayed parse + fingerprint time of each hit and each miss line.
    let (mut hit_parse_key, mut miss_parse_key) = (Vec::new(), Vec::new());
    for conn in 0..CONNECTIONS {
        let mut misses = 0;
        for position in 0..CYCLE {
            let kind = kind_at(conn, position, misses);
            let (job, hot) = match kind {
                Kind::Hot(i) => (inputs.hot[i].clone(), Some(&hot_outputs[i])),
                Kind::Miss(c, n) => {
                    misses += 1;
                    (inputs.miss(c, n), None)
                }
            };
            let id = replayed;
            replayed += 1;
            let line = encode_request(&Request::Plan(job));
            let Ok(Request::Plan(job)) =
                spans.time("serve.decode_ms", id, || decode_request(&line))
            else {
                return Err("a request line does not decode back to its plan".into());
            };
            let opened = spans.begin();
            let (name, quadrant) = spans
                .time("serve.parse_ms", id, || parse_quadrant(&job.circuit))
                .map_err(text)?;
            let key = spans.time("serve.fingerprint_ms", id, || cache_key(&job, &quadrant));
            let parse_key_ms = (spans.begin() - opened) as f64 / 1e6;
            let output = match hot {
                Some(output) => {
                    hit_parse_key.push(parse_key_ms);
                    output.clone()
                }
                None => {
                    miss_parse_key.push(parse_key_ms);
                    spans
                        .time("serve.plan_ms", id, || {
                            execute_job(&job, &name, &quadrant, &CancelToken::default())
                        })
                        .map_err(text)?
                }
            };
            let response = Response::Plan(PlanResponse {
                cache: if hot.is_some() { "hit" } else { "miss" }.to_owned(),
                key,
                name: output.name,
                report: output.report,
                assignment: output.assignment,
                seconds: 0.0,
            });
            spans.time("serve.encode_ms", id, || encode_response(&response));
        }
    }

    let mut problems = Vec::new();
    let (ok, plan_ms) = check(inputs, &hot_outputs, &records, &mut problems);

    let hits: Vec<f64> = records
        .iter()
        .filter(|r| r.hit)
        .map(|r| r.daemon_ms)
        .collect();
    let misses: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.kind, Kind::Miss(..)))
        .map(|r| r.daemon_ms)
        .collect();
    let transport: Vec<f64> = records.iter().map(|r| r.rtt_ms - r.daemon_ms).collect();
    let queue_depth_max = summary
        .events
        .iter()
        .filter_map(|e| match e {
            Event::ServeJob { queue_depth, .. } => Some(*queue_depth),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    let totals = spans.totals_ms();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let n = (replayed - first_replay) as usize;
    for name in [
        "serve.parse_ms",
        "serve.decode_ms",
        "serve.fingerprint_ms",
        "serve.encode_ms",
    ] {
        layers.set(name, ratio(total(name), n as f64), n);
    }
    let (daemon_hit_ms, daemon_miss_ms, plan_per_miss) =
        (mean(&hits), mean(&misses), mean(&plan_ms));
    layers.set("serve.plan_ms", plan_per_miss, plan_ms.len());
    layers.set("serve.daemon_hit_ms", daemon_hit_ms, hits.len());
    layers.set("serve.daemon_miss_ms", daemon_miss_ms, misses.len());
    layers.set("serve.transport_ms", mean(&transport), transport.len());
    // A miss's daemon time is parse, fingerprint, queue wait and plan:
    // the wait is what the replayed steps leave of it.
    layers.set(
        "serve.queue_wait_ms",
        daemon_miss_ms - plan_per_miss - mean(&miss_parse_key),
        misses.len(),
    );
    layers.set(
        "serve.queue_depth_max",
        f64::from(queue_depth_max),
        summary.events.len(),
    );
    layers.set(
        "serve.hit_share",
        ratio(hits.len() as f64, records.len() as f64),
        records.len(),
    );
    Ok(Served {
        attempted: records.len(),
        ok,
        problems,
        spans,
    })
}
