//! The resident daemon: pool core, admission policy, and lifecycle.
//!
//! Threading model (v2):
//!
//! * one **reactor** (the caller's thread, inside [`Server::run`])
//!   owning every socket: it polls a nonblocking listener plus all
//!   connections, decodes frames, answers cache hits inline, and
//!   registers cache misses to be answered when a worker finishes —
//!   see [`crate::reactor`]. Idle connections cost one pollfd each,
//!   not a thread;
//! * a fixed pool of **worker threads** popping jobs from two bounded
//!   class queues (interactive and bulk) with a weighted policy: up to
//!   [`crate::JobClass::INTERACTIVE_WEIGHT`] consecutive interactive
//!   dequeues before a waiting bulk job is guaranteed a turn. Each
//!   class queue never exceeds `queue_capacity`: a submission that
//!   finds its class full is rejected with a typed `queue_full` error
//!   instead of queueing (explicit backpressure, no unbounded
//!   buffering).
//!
//! Results flow through the tiered [`ResultCache`] (memory LRU over an
//! optional persistent disk store) and back to the reactor over a
//! completion queue plus a loopback waker, so a finished job wakes the
//! poll immediately instead of waiting out a tick.
//!
//! Timeouts are wall-clock from *admission*: a job that spends its
//! whole budget waiting in the queue is cancelled the moment a worker
//! picks it up, and the cooperative token aborts the anneal loop
//! mid-run otherwise. After a `shutdown` request the daemon stops
//! accepting connections, lets workers drain both queues, answers
//! every already-admitted job, and gives open connections a short
//! grace window in which further requests are answered with typed
//! `shutting_down` errors rather than a slammed socket.

use copack_core::CancelToken;
use copack_geom::Quadrant;
use copack_io::{parse_quadrant, TuneProfile};
use copack_obs::{Event, NoopRecorder, Recorder as _, TraceBuffer};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::{CacheConfig, CacheStats, Lookup, ResultCache};
use crate::error::{ErrorKind, ServeError};
use crate::job::{cache_key_with, execute_job_full, JobClass, JobOutput, JobSpec};
use crate::protocol::{Response, StatusSnapshot};
use crate::reactor::{CompletionQueue, Reactor};

/// How often parked workers wake to re-check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long open connections keep being served typed `shutting_down`
/// errors after a shutdown request before the daemon closes them.
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_millis(750);

/// Pool and policy knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Bounded per-class queue capacity — the backpressure threshold.
    pub queue_capacity: usize,
    /// Wall-clock budget applied to jobs that do not set their own
    /// `timeout_ms`; `None` means no default budget.
    pub default_timeout: Option<Duration>,
    /// Test hook: workers sleep this long before executing each job, so
    /// integration tests can deterministically fill the queue and
    /// observe coalescing. `None` (the default) adds no delay.
    pub worker_stall: Option<Duration>,
    /// Directory for the persistent result-cache tier; `None` keeps the
    /// cache memory-only (results do not survive a restart).
    pub cache_dir: Option<PathBuf>,
    /// Memory-tier budget in bytes (least-recently-used entries are
    /// evicted past it); `0` means unbounded.
    pub cache_mem_limit: usize,
    /// Loaded tuning profile (`copack serve --profile`). Jobs that set
    /// `profile: true` plan under its per-class configuration; when
    /// `None`, such jobs are refused as bad requests, as are profile jobs
    /// that also set a portfolio or margin field the profile replaces.
    pub profile: Option<TuneProfile>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 64,
            default_timeout: Some(Duration::from_secs(30)),
            worker_stall: None,
            cache_dir: None,
            cache_mem_limit: 64 << 20,
            profile: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final counter values.
    pub status: StatusSnapshot,
    /// Final result-cache statistics (both tiers).
    pub cache: CacheStats,
    /// Every recorded [`Event::ServeJob`], closed by one
    /// [`Event::ServeCache`] and one [`Event::ServePool`].
    pub events: Vec<Event>,
}

struct QueuedJob {
    spec: JobSpec,
    name: String,
    quadrant: Quadrant,
    key: u64,
    deadline: Option<Instant>,
}

/// Both class queues plus the drain flag under ONE mutex: admission,
/// worker exit, and the drain decision all serialize here, so a job can
/// never slip into a queue after the last worker has decided to exit.
#[derive(Default)]
struct PoolState {
    interactive: VecDeque<QueuedJob>,
    bulk: VecDeque<QueuedJob>,
    /// Consecutive interactive dequeues since a bulk job last ran.
    interactive_streak: u32,
    draining: bool,
}

impl PoolState {
    /// Weighted dequeue: interactive jobs go first, but after
    /// [`JobClass::INTERACTIVE_WEIGHT`] of them in a row a waiting bulk
    /// job is guaranteed the next worker — bounded-latency for the
    /// interactive class without starving bulk.
    fn dequeue(&mut self) -> Option<QueuedJob> {
        let bulk_turn = self.interactive.is_empty()
            || (!self.bulk.is_empty() && self.interactive_streak >= JobClass::INTERACTIVE_WEIGHT);
        if bulk_turn {
            if let Some(job) = self.bulk.pop_front() {
                self.interactive_streak = 0;
                return Some(job);
            }
        }
        if let Some(job) = self.interactive.pop_front() {
            self.interactive_streak += 1;
            return Some(job);
        }
        None
    }

    fn queued(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    failed: AtomicU64,
}

/// How one plan submission resolved at admission time. `Ready` and
/// `Refused` carry the full answer; `Wait` means a worker owns (or
/// already owned, for coalesced duplicates) the job and the reactor
/// must answer when the completion arrives.
pub(crate) enum PlanOutcome {
    Ready {
        cache_tag: &'static str,
        key: u64,
        output: Arc<JobOutput>,
    },
    Wait {
        cache_tag: &'static str,
        key: u64,
        admitted_depth: usize,
    },
    Refused(ServeError),
}

pub(crate) struct Inner {
    workers: usize,
    queue_capacity: usize,
    default_timeout: Option<Duration>,
    worker_stall: Option<Duration>,
    cache: ResultCache,
    pool: Mutex<PoolState>,
    queue_signal: Condvar,
    pub(crate) shutdown: AtomicBool,
    running: AtomicU32,
    counters: Counters,
    events: Mutex<TraceBuffer>,
    profile: Option<TuneProfile>,
}

impl Inner {
    pub(crate) fn snapshot(&self) -> StatusSnapshot {
        let (queued, interactive_queued, bulk_queued) = {
            let pool = self.pool.lock().expect("pool poisoned");
            (pool.queued(), pool.interactive.len(), pool.bulk.len())
        };
        let cache = self.cache.stats();
        let c = &self.counters;
        StatusSnapshot {
            workers: u32::try_from(self.workers).unwrap_or(u32::MAX),
            queue_capacity: u32::try_from(self.queue_capacity).unwrap_or(u32::MAX),
            running: self.running.load(Ordering::Relaxed),
            queued: u32::try_from(queued).unwrap_or(u32::MAX),
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            disk_hits: cache.disk_hits,
            evictions: cache.evictions,
            interactive_queued: u32::try_from(interactive_queued).unwrap_or(u32::MAX),
            bulk_queued: u32::try_from(bulk_queued).unwrap_or(u32::MAX),
            shutting_down: self.shutdown.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record_job(
        &self,
        cache: &str,
        outcome: &str,
        class: JobClass,
        queue_depth: usize,
        started: Instant,
    ) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .record(&Event::ServeJob {
                cache: cache.to_owned(),
                outcome: outcome.to_owned(),
                class: class.as_str().to_owned(),
                queue_depth: u32::try_from(queue_depth).unwrap_or(u32::MAX),
                seconds: started.elapsed().as_secs_f64(),
            });
    }

    /// Records one event into the daemon's trace buffer (the reactor's
    /// hook for replan lifecycle events).
    pub(crate) fn record_event(&self, event: &Event) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .record(event);
    }

    /// Resolves one plan submission at admission time: cache lookup,
    /// then admission to the job's class queue (or typed rejection).
    /// Never blocks on job execution — `Wait` outcomes are answered by
    /// the reactor when the worker's completion arrives.
    pub(crate) fn plan_disposition(&self, spec: JobSpec, started: Instant) -> PlanOutcome {
        let class = spec.class;
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);

        if self.shutdown.load(Ordering::Relaxed) {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            self.record_job("none", "rejected", class, 0, started);
            return PlanOutcome::Refused(ServeError::new(
                ErrorKind::ShuttingDown,
                "the daemon is draining and accepts no new jobs",
            ));
        }

        let (name, quadrant) = match parse_quadrant(&spec.circuit) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.record_job("none", "error", class, 0, started);
                return PlanOutcome::Refused(ServeError::new(
                    ErrorKind::BadRequest,
                    format!("circuit does not parse: {e}"),
                ));
            }
        };
        if spec.profile && self.profile.is_none() {
            self.record_job("none", "rejected", class, 0, started);
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return PlanOutcome::Refused(ServeError::new(
                ErrorKind::BadRequest,
                "no tuning profile is loaded; start the daemon with --profile",
            ));
        }
        if let Some(field) = spec.profile_conflict().filter(|_| spec.profile) {
            self.record_job("none", "rejected", class, 0, started);
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return PlanOutcome::Refused(ServeError::new(
                ErrorKind::BadRequest,
                format!("`{field}` cannot be set on a profile job: the tuning profile sets it"),
            ));
        }
        let key = cache_key_with(&spec, &quadrant, self.profile.as_ref());

        match self.cache.lookup(key) {
            Lookup::Hit(output) => {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.record_job("hit", "ok", class, 0, started);
                PlanOutcome::Ready {
                    cache_tag: "hit",
                    key,
                    output,
                }
            }
            Lookup::DiskHit(output) => {
                // Disk hits are tallied in the cache stats, not in
                // `cache_hits` (which stays memory-tier-only so the
                // pre-v2 counter keeps its meaning).
                self.record_job("disk", "ok", class, 0, started);
                PlanOutcome::Ready {
                    cache_tag: "disk",
                    key,
                    output,
                }
            }
            Lookup::Coalesced(_) => {
                // The reactor waits on the completion queue, not on the
                // cache waiter, so the waiter is dropped here.
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                PlanOutcome::Wait {
                    cache_tag: "coalesced",
                    key,
                    admitted_depth: 0,
                }
            }
            Lookup::Miss => {
                // This call owns the pending entry: admit the job or
                // fulfil the entry with the rejection so coalesced
                // duplicates are answered too.
                let timeout = spec
                    .timeout_ms
                    .map(Duration::from_millis)
                    .or(self.default_timeout);
                let mut admitted_depth = 0usize;
                let rejection = {
                    let mut pool = self.pool.lock().expect("pool poisoned");
                    let draining = pool.draining;
                    let queue = match class {
                        JobClass::Interactive => &mut pool.interactive,
                        JobClass::Bulk => &mut pool.bulk,
                    };
                    if draining {
                        Some(ServeError::new(
                            ErrorKind::ShuttingDown,
                            "the daemon is draining and accepts no new jobs",
                        ))
                    } else if queue.len() >= self.queue_capacity {
                        Some(ServeError::new(
                            ErrorKind::QueueFull,
                            format!(
                                "the {class} job queue is at capacity ({}); retry later",
                                self.queue_capacity
                            ),
                        ))
                    } else {
                        admitted_depth = queue.len();
                        queue.push_back(QueuedJob {
                            spec,
                            name,
                            quadrant,
                            key,
                            deadline: timeout.map(|t| started + t),
                        });
                        None
                    }
                };
                if let Some(error) = rejection {
                    self.cache.fulfil(key, Err(error.clone()));
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    self.record_job("none", "rejected", class, self.queue_capacity, started);
                    return PlanOutcome::Refused(error);
                }
                self.queue_signal.notify_one();
                PlanOutcome::Wait {
                    cache_tag: "miss",
                    key,
                    admitted_depth,
                }
            }
        }
    }

    /// Flips the daemon into drain mode (idempotent; the second caller
    /// gets a typed `shutting_down` error).
    pub(crate) fn handle_shutdown(&self) -> Response {
        let already = {
            let mut pool = self.pool.lock().expect("pool poisoned");
            std::mem::replace(&mut pool.draining, true)
        };
        self.shutdown.store(true, Ordering::Relaxed);
        if already {
            Response::Error(ServeError::new(
                ErrorKind::ShuttingDown,
                "the daemon is already draining",
            ))
        } else {
            self.queue_signal.notify_all();
            Response::Shutdown
        }
    }

    /// True once both queues are empty and no worker holds a job. Used
    /// by the reactor's shutdown exit check.
    pub(crate) fn pool_drained(&self) -> bool {
        let queued = self.pool.lock().expect("pool poisoned").queued();
        queued == 0 && self.running.load(Ordering::Acquire) == 0
    }

    fn worker_loop(&self, completions: &CompletionQueue) {
        loop {
            let job = {
                let mut pool = self.pool.lock().expect("pool poisoned");
                loop {
                    if let Some(job) = pool.dequeue() {
                        break job;
                    }
                    if pool.draining {
                        return;
                    }
                    let (p, _) = self
                        .queue_signal
                        .wait_timeout(pool, POLL_INTERVAL)
                        .expect("pool poisoned");
                    pool = p;
                }
            };
            self.running.fetch_add(1, Ordering::Relaxed);
            if let Some(stall) = self.worker_stall {
                std::thread::sleep(stall);
            }
            let cancel = match job.deadline {
                Some(deadline) => CancelToken::with_deadline(deadline),
                None => CancelToken::new(),
            };
            // Workers are the pool's concurrency unit, so a portfolio
            // anneals its starts on this worker's thread.
            let result = execute_job_full(
                &job.spec,
                &job.name,
                &job.quadrant,
                &cancel,
                self.profile.as_ref(),
                1,
                &mut NoopRecorder,
            );
            if result.is_ok() && job.spec.exchange && job.spec.prev.is_some() {
                self.record_event(&Event::QuadrantWarmed {
                    name: job.name.clone(),
                });
            }
            match &result {
                Ok(_) => {
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind == ErrorKind::Timeout => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.counters.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            let shared = result.map(Arc::new);
            // Fulfil before pushing: by the time the reactor sees the
            // completion, coalesced lookups already resolve as hits.
            self.cache.fulfil(job.key, shared.clone());
            completions.push(job.key, shared);
            self.running.fetch_sub(1, Ordering::Release);
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] consumes it and
/// blocks until a `shutdown` request drains the pool.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the listener, opens the result cache (including the disk
    /// tier when `cache_dir` is set), and prepares the pool (no threads
    /// start until [`Server::run`]). Use port `0` for an ephemeral port
    /// and read it back from [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, ...) and
    /// cache-directory errors (unreadable, not creatable, ...).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let cache = ResultCache::with_config(&CacheConfig {
            mem_limit_bytes: config.cache_mem_limit,
            disk_dir: config.cache_dir.clone(),
        })?;
        let inner = Arc::new(Inner {
            workers,
            queue_capacity: config.queue_capacity.max(1),
            default_timeout: config.default_timeout,
            worker_stall: config.worker_stall,
            cache,
            pool: Mutex::new(PoolState::default()),
            queue_signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            running: AtomicU32::new(0),
            counters: Counters::default(),
            events: Mutex::new(TraceBuffer::new()),
            profile: config.profile,
        });
        Ok(Self { listener, inner })
    }

    /// The bound address (the actual port when bound to port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon until a client sends `shutdown`: the calling
    /// thread becomes the reactor, workers execute jobs, and the whole
    /// process is `workers + 1` threads no matter how many clients
    /// connect. On shutdown the queues drain, every thread joins, and
    /// the lifetime summary is returned.
    ///
    /// # Errors
    ///
    /// Propagates listener/poll failures; per-connection errors only
    /// drop that connection and never abort the daemon.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        // The waker: a loopback pair whose read end sits in the poll
        // set, so a worker finishing a job interrupts the poll instead
        // of waiting out the tick.
        let (waker_rx, waker_tx) = waker_pair()?;
        let completions = Arc::new(CompletionQueue::new(waker_tx));
        let mut pool = Vec::with_capacity(self.inner.workers);
        for index in 0..self.inner.workers {
            let inner = Arc::clone(&self.inner);
            let completions = Arc::clone(&completions);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("copack-serve-worker-{index}"))
                    .spawn(move || inner.worker_loop(&completions))?,
            );
        }
        let reactor = Reactor::new(
            Arc::clone(&self.inner),
            Arc::clone(&completions),
            self.listener,
            waker_rx,
        );
        let run_result = reactor.run();
        // Reactor exit implies drain mode; make sure parked workers see
        // it even if the poll error path got here without a shutdown
        // request.
        self.inner.pool.lock().expect("pool poisoned").draining = true;
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.queue_signal.notify_all();
        for worker in pool {
            let _ = worker.join();
        }
        run_result?;
        let status = self.inner.snapshot();
        let cache = self.inner.cache.stats();
        let mut events: Vec<Event> = self
            .inner
            .events
            .lock()
            .expect("event buffer poisoned")
            .events()
            .to_vec();
        events.push(Event::ServeCache {
            mem_hits: cache.mem_hits,
            disk_hits: cache.disk_hits,
            misses: cache.misses,
            evictions: cache.evictions,
            quarantined: cache.quarantined,
            disk_entries: cache.disk_entries,
        });
        events.push(Event::ServePool {
            workers: status.workers,
            queue_capacity: status.queue_capacity,
            submitted: status.submitted,
            completed: status.completed,
            cache_hits: status.cache_hits,
            coalesced: status.coalesced,
            rejected: status.rejected,
            timeouts: status.timeouts,
        });
        Ok(ServeSummary {
            status,
            cache,
            events,
        })
    }
}

/// Builds the loopback waker pair: both ends nonblocking, write end for
/// workers, read end for the reactor's poll set. A TCP pair is the
/// std-only stand-in for a self-pipe.
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let rendezvous = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(rendezvous.local_addr()?)?;
    let (rx, _) = rendezvous.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((rx, tx))
}
