//! The wire protocol: newline-delimited JSON frames over a local TCP
//! socket.
//!
//! Each frame is one JSON object on one line (`\n`-terminated; a
//! trailing `\r` is tolerated). Requests carry an `"op"` tag (`plan`,
//! `batch`, `replan`, `status`, `shutdown`); responses carry `"ok"` plus either
//! the payload or a typed error object. Frames are capped at
//! [`MAX_FRAME`] bytes — an oversized frame is discarded up to its
//! terminating newline and answered with a typed `oversized` error,
//! leaving the connection usable for the next frame.
//!
//! Batch submissions stream: one `batch` request is answered by one
//! `item` frame *per job, in completion order*, each tagged with the
//! job's zero-based `seq` in the submitted list, closed by a single
//! `batch` summary frame. Clients needing submission order sort by
//! `seq` after the summary arrives — the tags make the final ordering
//! deterministic without forcing the server to buffer.

use copack_core::{AssignMethod, PortfolioMode};
use std::fmt::Write as _;
use std::io::Read;

use crate::error::{ErrorKind, ServeError};
use crate::job::{JobClass, JobSpec};
use crate::json::{write_json_str, Json};

/// Hard cap on one frame's size in bytes (1 MiB). The largest Table 1
/// circuit serializes to well under 64 KiB, so this bounds hostile or
/// corrupted input, not legitimate work.
pub const MAX_FRAME: usize = 1 << 20;

/// Hard cap on jobs in one `batch` request.
pub const MAX_BATCH: usize = 1024;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Plan the embedded circuit.
    Plan(JobSpec),
    /// Plan every embedded circuit, streaming per-job `item` frames as
    /// they finish. The class applies to all jobs in the batch.
    Batch {
        /// Admission class for every job in the batch.
        class: JobClass,
        /// The jobs, in submission order (their `seq` tags).
        jobs: Vec<JobSpec>,
    },
    /// Incrementally re-plan every embedded quadrant after an ECO edit,
    /// streaming `item` frames exactly like a batch. Untouched
    /// quadrants (specs whose key is already cached) are answered from
    /// the cache and counted as reused; dirty quadrants run the warm
    /// executor path when their spec carries a previous plan.
    Replan {
        /// Admission class for every job in the replan.
        class: JobClass,
        /// The jobs, in submission order (their `seq` tags).
        jobs: Vec<JobSpec>,
    },
    /// Report pool counters and queue occupancy.
    Status,
    /// Drain and stop the daemon.
    Shutdown,
}

/// A successful plan, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// How the cache answered: `"miss"`, `"hit"`, `"disk"`, or
    /// `"coalesced"`.
    pub cache: String,
    /// The content-addressed cache key.
    pub key: u64,
    /// The circuit's header name.
    pub name: String,
    /// Human-readable report lines (what `copack plan` prints).
    pub report: String,
    /// Assignment file bytes (what `copack plan --out` writes).
    pub assignment: String,
    /// Wall-clock seconds from admission to response.
    pub seconds: f64,
}

/// The closing frame of a streamed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Jobs in the batch (one `item` frame was sent for each).
    pub jobs: u32,
    /// Items that completed with a plan.
    pub ok: u32,
    /// Items that completed with a typed error.
    pub failed: u32,
}

/// A point-in-time view of the pool, served by `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusSnapshot {
    /// Worker threads in the pool.
    pub workers: u32,
    /// Bounded queue capacity (per admission class).
    pub queue_capacity: u32,
    /// Jobs currently executing.
    pub running: u32,
    /// Jobs waiting in the queues (both classes).
    pub queued: u32,
    /// Plan requests received (including rejected ones).
    pub submitted: u64,
    /// Jobs that executed to completion.
    pub completed: u64,
    /// Requests answered from the result cache (memory tier).
    pub cache_hits: u64,
    /// Requests that coalesced onto an in-flight duplicate.
    pub coalesced: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Jobs cancelled at their wall-clock budget.
    pub timeouts: u64,
    /// Jobs whose planner run failed.
    pub failed: u64,
    /// Requests answered from the cache's disk tier.
    pub disk_hits: u64,
    /// Entries evicted from the cache's bounded memory tier.
    pub evictions: u64,
    /// Jobs waiting in the interactive queue.
    pub interactive_queued: u32,
    /// Jobs waiting in the bulk queue.
    pub bulk_queued: u32,
    /// Whether the daemon is draining.
    pub shutting_down: bool,
}

/// One decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed plan.
    Plan(PlanResponse),
    /// One finished job of a streamed batch.
    BatchItem {
        /// The job's zero-based position in the submitted batch.
        seq: u32,
        /// The job's own outcome; a failed item does not fail the
        /// stream (the frame itself is `ok`).
        result: Result<PlanResponse, ServeError>,
    },
    /// The closing summary of a streamed batch.
    BatchDone(BatchSummary),
    /// A status snapshot.
    Status(StatusSnapshot),
    /// Acknowledgement that the daemon is shutting down.
    Shutdown,
    /// A typed failure.
    Error(ServeError),
}

/// Writes a spec's job fields (everything but the `op`), preserving the
/// pre-v2 field order so existing peers keep decoding `plan` frames.
fn write_job_fields(out: &mut String, spec: &JobSpec) {
    out.push_str("\"circuit\":");
    write_json_str(out, &spec.circuit);
    match spec.method {
        AssignMethod::Dfa { slack } => {
            let _ = write!(out, ",\"method\":\"dfa\",\"slack\":{slack}");
        }
        AssignMethod::Ifa => out.push_str(",\"method\":\"ifa\""),
        AssignMethod::Random { seed } => {
            let _ = write!(out, ",\"method\":\"random\",\"seed\":{seed}");
        }
    }
    let _ = write!(
        out,
        ",\"exchange\":{},\"psi\":{},\"xseed\":{}",
        spec.exchange, spec.psi, spec.exchange_seed
    );
    // Portfolio fields travel only for true multi-start jobs, so
    // pre-portfolio peers keep understanding every K=1 frame. The
    // margin crosses as raw f64 bits — integer-exact, no decimal
    // rendering to round.
    if spec.starts > 1 {
        let _ = write!(
            out,
            ",\"starts\":{},\"prune_margin_bits\":{}",
            spec.starts, spec.prune_margin_bits
        );
        // Cooperative-mode fields travel only for a non-default mode,
        // so every pre-cooperative multi-start frame stays byte-stable.
        if spec.mode != PortfolioMode::Race {
            let _ = write!(
                out,
                ",\"mode\":\"{}\",\"kick_size\":{},\"ladder_ratio_bits\":{}",
                spec.mode.as_str(),
                spec.kick_size,
                spec.ladder_ratio_bits
            );
        }
    }
    // The replan extensions likewise travel only when live, so every
    // pre-replan frame stays byte-identical.
    if f64::from_bits(spec.margin_bits) != 0.0 {
        let _ = write!(out, ",\"margin_bits\":{}", spec.margin_bits);
    }
    if let Some(prev) = &spec.prev {
        out.push_str(",\"prev\":");
        write_json_str(out, prev);
    }
    // The profile flag travels only when set, so pre-profile frames
    // stay byte-identical.
    if spec.profile {
        out.push_str(",\"profile\":true");
    }
    if let Some(ms) = spec.timeout_ms {
        let _ = write!(out, ",\"timeout_ms\":{ms}");
    }
    // The class travels only when non-default, keeping interactive
    // frames byte-identical to pre-class frames.
    if spec.class != JobClass::Interactive {
        let _ = write!(out, ",\"class\":\"{}\"", spec.class);
    }
}

/// Writes a `batch`/`replan` request body: the op, the non-default
/// class, and the job array (per-item class tags are omitted — the
/// request-level class governs every job).
fn write_job_array(out: &mut String, op: &str, class: JobClass, jobs: &[JobSpec]) {
    let _ = write!(out, "{{\"op\":\"{op}\"");
    if class != JobClass::Interactive {
        let _ = write!(out, ",\"class\":\"{class}\"");
    }
    out.push_str(",\"jobs\":[");
    for (index, spec) in jobs.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push('{');
        write_job_fields(
            out,
            &JobSpec {
                class: JobClass::Interactive,
                ..spec.clone()
            },
        );
        out.push('}');
    }
    out.push_str("]}");
}

/// Encodes a request as one frame line (no trailing newline).
#[must_use]
pub fn encode_request(request: &Request) -> String {
    let mut out = String::new();
    match request {
        Request::Plan(spec) => {
            out.push_str("{\"op\":\"plan\",");
            write_job_fields(&mut out, spec);
            out.push('}');
        }
        Request::Batch { class, jobs } => write_job_array(&mut out, "batch", *class, jobs),
        Request::Replan { class, jobs } => write_job_array(&mut out, "replan", *class, jobs),
        Request::Status => out.push_str("{\"op\":\"status\"}"),
        Request::Shutdown => out.push_str("{\"op\":\"shutdown\"}"),
    }
    out
}

/// Decodes the job fields of a `plan` request (or one batch item) from
/// a JSON object.
fn decode_job_fields(json: &Json) -> Result<JobSpec, ServeError> {
    let circuit = json.get("circuit").and_then(Json::as_str).ok_or_else(|| {
        ServeError::new(ErrorKind::BadRequest, "plan requires a string `circuit`")
    })?;
    let mut spec = JobSpec::new(circuit);
    let field_u64 = |name: &str| -> Result<Option<u64>, ServeError> {
        match json.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                ServeError::new(
                    ErrorKind::BadRequest,
                    format!("`{name}` must be a non-negative integer"),
                )
            }),
        }
    };
    spec.method = match json.get("method").and_then(Json::as_str).unwrap_or("dfa") {
        "dfa" => {
            let slack = field_u64("slack")?.unwrap_or(1);
            let slack = u32::try_from(slack)
                .map_err(|_| ServeError::new(ErrorKind::BadRequest, "`slack` is out of range"))?;
            AssignMethod::Dfa { slack }
        }
        "ifa" => AssignMethod::Ifa,
        "random" => AssignMethod::Random {
            seed: field_u64("seed")?.unwrap_or(42),
        },
        other => {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                format!("unknown method `{other}` (dfa|ifa|random)"),
            ))
        }
    };
    if let Some(exchange) = json.get("exchange") {
        spec.exchange = exchange.as_bool().ok_or_else(|| {
            ServeError::new(ErrorKind::BadRequest, "`exchange` must be a boolean")
        })?;
    }
    if let Some(psi) = field_u64("psi")? {
        spec.psi = u8::try_from(psi).ok().filter(|p| *p >= 1).ok_or_else(|| {
            ServeError::new(ErrorKind::BadRequest, "`psi` must be between 1 and 255")
        })?;
    }
    if let Some(xseed) = field_u64("xseed")? {
        spec.exchange_seed = xseed;
    }
    if let Some(starts) = field_u64("starts")? {
        spec.starts = u32::try_from(starts)
            .ok()
            .filter(|s| *s >= 1)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorKind::BadRequest,
                    "`starts` must be between 1 and 4294967295",
                )
            })?;
    }
    if let Some(bits) = field_u64("prune_margin_bits")? {
        spec.prune_margin_bits = bits;
    }
    match json.get("mode") {
        None | Some(Json::Null) => {}
        Some(value) => {
            spec.mode = value
                .as_str()
                .and_then(PortfolioMode::parse)
                .ok_or_else(|| {
                    ServeError::new(
                        ErrorKind::BadRequest,
                        "`mode` must be \"race\", \"coop\" or \"temper\"",
                    )
                })?;
        }
    }
    if let Some(kick) = field_u64("kick_size")? {
        spec.kick_size = u32::try_from(kick)
            .ok()
            .filter(|k| *k >= 1)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorKind::BadRequest,
                    "`kick_size` must be between 1 and 4294967295",
                )
            })?;
    }
    if let Some(bits) = field_u64("ladder_ratio_bits")? {
        spec.ladder_ratio_bits = bits;
    }
    if let Some(bits) = field_u64("margin_bits")? {
        spec.margin_bits = bits;
    }
    match json.get("prev") {
        None | Some(Json::Null) => {}
        Some(value) => {
            spec.prev = Some(
                value
                    .as_str()
                    .ok_or_else(|| {
                        ServeError::new(ErrorKind::BadRequest, "`prev` must be a string")
                    })?
                    .to_owned(),
            );
        }
    }
    if let Some(profile) = json.get("profile") {
        spec.profile = profile
            .as_bool()
            .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, "`profile` must be a boolean"))?;
    }
    spec.timeout_ms = field_u64("timeout_ms")?;
    spec.class = decode_class(json)?;
    Ok(spec)
}

/// Decodes an optional `class` tag (defaulting to interactive).
fn decode_class(json: &Json) -> Result<JobClass, ServeError> {
    match json.get("class") {
        None | Some(Json::Null) => Ok(JobClass::Interactive),
        Some(value) => value.as_str().and_then(JobClass::parse_tag).ok_or_else(|| {
            ServeError::new(
                ErrorKind::BadRequest,
                "`class` must be \"interactive\" or \"bulk\"",
            )
        }),
    }
}

/// Decodes one frame line into a request.
///
/// # Errors
///
/// [`ErrorKind::BadFrame`] when the line is not a JSON object;
/// [`ErrorKind::BadRequest`] when it parses but the contents are
/// unusable (missing/unknown op, bad method, out-of-range field).
pub fn decode_request(line: &str) -> Result<Request, ServeError> {
    let json = Json::parse(line)
        .map_err(|m| ServeError::new(ErrorKind::BadFrame, format!("not a valid frame: {m}")))?;
    if !matches!(json, Json::Obj(_)) {
        return Err(ServeError::new(
            ErrorKind::BadFrame,
            "a frame must be a JSON object",
        ));
    }
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::BadRequest, "missing string field `op`"))?;
    match op {
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "plan" => Ok(Request::Plan(decode_job_fields(&json)?)),
        "batch" => {
            let (class, jobs) = decode_job_array(&json, "batch")?;
            Ok(Request::Batch { class, jobs })
        }
        "replan" => {
            let (class, jobs) = decode_job_array(&json, "replan")?;
            Ok(Request::Replan { class, jobs })
        }
        other => Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("unknown op `{other}` (plan|batch|replan|status|shutdown)"),
        )),
    }
}

/// Decodes the shared body of a `batch`/`replan` request: the class tag
/// and the bounded job array, with the request-level class landing on
/// every decoded spec.
fn decode_job_array(json: &Json, op: &str) -> Result<(JobClass, Vec<JobSpec>), ServeError> {
    let class = decode_class(json)?;
    let Some(Json::Arr(items)) = json.get("jobs") else {
        return Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("{op} requires an array `jobs`"),
        ));
    };
    if items.is_empty() {
        return Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("{op} requires at least one job"),
        ));
    }
    if items.len() > MAX_BATCH {
        return Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("{op} exceeds the {MAX_BATCH}-job limit"),
        ));
    }
    let mut jobs = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        if !matches!(item, Json::Obj(_)) {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                format!("{op} job {index} must be a JSON object"),
            ));
        }
        let mut spec = decode_job_fields(item)
            .map_err(|e| ServeError::new(e.kind, format!("{op} job {index}: {}", e.message)))?;
        spec.class = class;
        jobs.push(spec);
    }
    Ok((class, jobs))
}

/// Writes a plan's payload fields (shared by `plan` responses and batch
/// `item` frames).
fn write_plan_fields(out: &mut String, plan: &PlanResponse) {
    out.push_str("\"cache\":");
    write_json_str(out, &plan.cache);
    let _ = write!(out, ",\"key\":\"{:016x}\",\"name\":", plan.key);
    write_json_str(out, &plan.name);
    out.push_str(",\"report\":");
    write_json_str(out, &plan.report);
    out.push_str(",\"assignment\":");
    write_json_str(out, &plan.assignment);
    let _ = write!(out, ",\"seconds\":{}", plan.seconds);
}

fn write_error_object(out: &mut String, error: &ServeError) {
    out.push_str("{\"kind\":");
    write_json_str(out, error.kind.as_str());
    out.push_str(",\"message\":");
    write_json_str(out, &error.message);
    out.push('}');
}

/// Encodes a response as one frame line (no trailing newline).
#[must_use]
pub fn encode_response(response: &Response) -> String {
    let mut out = String::new();
    match response {
        Response::Plan(plan) => {
            out.push_str("{\"ok\":true,");
            write_plan_fields(&mut out, plan);
            out.push('}');
        }
        Response::BatchItem { seq, result } => {
            // The frame is `ok` either way: a failed item is a valid
            // answer about one job, not a protocol failure.
            let _ = write!(out, "{{\"ok\":true,\"item\":{{\"seq\":{seq},");
            match result {
                Ok(plan) => write_plan_fields(&mut out, plan),
                Err(error) => {
                    out.push_str("\"error\":");
                    write_error_object(&mut out, error);
                }
            }
            out.push_str("}}");
        }
        Response::BatchDone(summary) => {
            let _ = write!(
                out,
                "{{\"ok\":true,\"batch\":{{\"jobs\":{},\"ok\":{},\"failed\":{}}}}}",
                summary.jobs, summary.ok, summary.failed
            );
        }
        Response::Status(s) => {
            let _ = write!(
                out,
                "{{\"ok\":true,\"status\":{{\"workers\":{},\"queue_capacity\":{},\
                 \"running\":{},\"queued\":{},\"submitted\":{},\"completed\":{},\
                 \"cache_hits\":{},\"coalesced\":{},\"rejected\":{},\"timeouts\":{},\
                 \"failed\":{},\"disk_hits\":{},\"evictions\":{},\
                 \"interactive_queued\":{},\"bulk_queued\":{},\"shutting_down\":{}}}}}",
                s.workers,
                s.queue_capacity,
                s.running,
                s.queued,
                s.submitted,
                s.completed,
                s.cache_hits,
                s.coalesced,
                s.rejected,
                s.timeouts,
                s.failed,
                s.disk_hits,
                s.evictions,
                s.interactive_queued,
                s.bulk_queued,
                s.shutting_down
            );
        }
        Response::Shutdown => out.push_str("{\"ok\":true,\"shutdown\":true}"),
        Response::Error(e) => {
            out.push_str("{\"ok\":false,\"error\":");
            write_error_object(&mut out, e);
            out.push('}');
        }
    }
    out
}

/// Decodes a typed error object (`{"kind":..,"message":..}`).
fn decode_error_object(
    error: &Json,
    bad: impl Fn(String) -> ServeError,
) -> Result<ServeError, ServeError> {
    let kind_tag = error
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("error object is missing `kind`".to_owned()))?;
    let message = error
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    let kind = ErrorKind::parse_tag(kind_tag).unwrap_or(ErrorKind::Protocol);
    Ok(ServeError::new(kind, message))
}

/// Decodes a plan payload from a JSON object holding plan fields.
fn decode_plan_fields(
    json: &Json,
    bad: impl Fn(String) -> ServeError,
) -> Result<PlanResponse, ServeError> {
    let field_str = |name: &str| -> Result<String, ServeError> {
        json.get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad(format!("plan response is missing string `{name}`")))
    };
    let cache = field_str("cache")?;
    let key = u64::from_str_radix(&field_str("key")?, 16)
        .map_err(|_| bad("plan response has a malformed `key`".to_owned()))?;
    Ok(PlanResponse {
        cache,
        key,
        name: field_str("name")?,
        report: field_str("report")?,
        assignment: field_str("assignment")?,
        seconds: json.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Decodes one frame line into a response.
///
/// # Errors
///
/// [`ErrorKind::Protocol`] when the line is not a well-formed response
/// frame of any known shape.
pub fn decode_response(line: &str) -> Result<Response, ServeError> {
    let bad = |why: String| ServeError::new(ErrorKind::Protocol, why);
    let json = Json::parse(line).map_err(|m| bad(format!("not a valid response frame: {m}")))?;
    let ok = json
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| bad("response is missing boolean `ok`".to_owned()))?;
    if !ok {
        let error = json
            .get("error")
            .ok_or_else(|| bad("failure response is missing `error`".to_owned()))?;
        return Ok(Response::Error(decode_error_object(error, bad)?));
    }
    if json.get("shutdown").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::Shutdown);
    }
    if let Some(item) = json.get("item") {
        let seq = item
            .get("seq")
            .and_then(Json::as_u64)
            .and_then(|s| u32::try_from(s).ok())
            .ok_or_else(|| bad("batch item is missing `seq`".to_owned()))?;
        let result = match item.get("error") {
            Some(error) => Err(decode_error_object(error, bad)?),
            None => Ok(decode_plan_fields(item, bad)?),
        };
        return Ok(Response::BatchItem { seq, result });
    }
    if let Some(batch) = json.get("batch") {
        let u32_of = |name: &str| {
            batch
                .get(name)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .unwrap_or(0)
        };
        return Ok(Response::BatchDone(BatchSummary {
            jobs: u32_of("jobs"),
            ok: u32_of("ok"),
            failed: u32_of("failed"),
        }));
    }
    if let Some(status) = json.get("status") {
        let u64_of = |name: &str| status.get(name).and_then(Json::as_u64).unwrap_or(0);
        let u32_of = |name: &str| u32::try_from(u64_of(name)).unwrap_or(u32::MAX);
        return Ok(Response::Status(StatusSnapshot {
            workers: u32_of("workers"),
            queue_capacity: u32_of("queue_capacity"),
            running: u32_of("running"),
            queued: u32_of("queued"),
            submitted: u64_of("submitted"),
            completed: u64_of("completed"),
            cache_hits: u64_of("cache_hits"),
            coalesced: u64_of("coalesced"),
            rejected: u64_of("rejected"),
            timeouts: u64_of("timeouts"),
            failed: u64_of("failed"),
            disk_hits: u64_of("disk_hits"),
            evictions: u64_of("evictions"),
            interactive_queued: u32_of("interactive_queued"),
            bulk_queued: u32_of("bulk_queued"),
            shutting_down: status.get("shutting_down").and_then(Json::as_bool) == Some(true),
        }));
    }
    Ok(Response::Plan(decode_plan_fields(&json, bad)?))
}

/// What [`LineReader::next_frame`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// One complete line (newline stripped).
    Line(String),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// A read timed out with no complete frame buffered; poll state and
    /// call again.
    Idle,
}

/// Incremental line framer over any [`Read`].
///
/// Carries partial frames across reads, tolerates read timeouts and
/// nonblocking `WouldBlock` (so both a timeout-polling server and the
/// v2 reactor's nonblocking sockets can share it), and survives
/// oversized frames by discarding bytes up to the terminating newline
/// before reporting a single typed [`ErrorKind::Oversized`] error.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    buffer: Vec<u8>,
    discarding: bool,
}

impl<R: Read> LineReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buffer: Vec::new(),
            discarding: false,
        }
    }

    /// Produces the next frame, EOF, or idle tick.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Oversized`] once per oversized frame (the
    /// connection stays usable); [`ErrorKind::BadFrame`] for non-UTF-8
    /// lines; [`ErrorKind::Io`] for transport failures, including a
    /// peer that disconnects mid-frame.
    pub fn next_frame(&mut self) -> Result<Frame, ServeError> {
        loop {
            if let Some(pos) = self.buffer.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buffer.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if self.discarding || line.len() > MAX_FRAME {
                    self.discarding = false;
                    return Err(ServeError::new(
                        ErrorKind::Oversized,
                        format!("frame exceeds the {MAX_FRAME}-byte limit"),
                    ));
                }
                let text = String::from_utf8(line).map_err(|_| {
                    ServeError::new(ErrorKind::BadFrame, "frame is not valid UTF-8")
                })?;
                return Ok(Frame::Line(text));
            }
            if self.discarding {
                self.buffer.clear();
            } else if self.buffer.len() > MAX_FRAME + 1 {
                // Only past MAX_FRAME + 1 is the frame *provably*
                // oversized without its newline in sight: a buffer of
                // exactly MAX_FRAME + 1 bytes can still be a maximal
                // frame whose `\r\n` terminator was split across reads
                // (content + `\r` buffered, `\n` still in flight), and
                // the drain path above would rightly accept it.
                self.buffer.clear();
                self.discarding = true;
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.buffer.is_empty() && !self.discarding {
                        return Ok(Frame::Eof);
                    }
                    self.buffer.clear();
                    self.discarding = false;
                    return Err(ServeError::new(
                        ErrorKind::Io,
                        "the peer disconnected mid-frame",
                    ));
                }
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Idle)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Whether a complete line is already buffered (the caller can take
    /// another frame without touching the transport). The reactor uses
    /// this to drain pipelined frames before re-polling.
    #[must_use]
    pub fn has_buffered_line(&self) -> bool {
        self.buffer.contains(&b'\n')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let specs = [
            Request::Plan(JobSpec::new("quadrant a\nrow 1 2\n")),
            Request::Plan(JobSpec {
                method: AssignMethod::Random { seed: u64::MAX },
                exchange: true,
                psi: 3,
                exchange_seed: 7,
                timeout_ms: Some(250),
                ..JobSpec::new("quadrant b\nrow 3 1 2\n")
            }),
            Request::Plan(JobSpec {
                method: AssignMethod::Ifa,
                ..JobSpec::new("quadrant c\nrow 1\n")
            }),
            Request::Plan(JobSpec {
                exchange: true,
                starts: 8,
                prune_margin_bits: 0.125f64.to_bits(),
                ..JobSpec::new("quadrant d\nrow 2 1\n")
            }),
            Request::Plan(JobSpec {
                exchange: true,
                starts: 6,
                mode: PortfolioMode::Coop,
                kick_size: 7,
                ..JobSpec::new("quadrant d2\nrow 2 1\n")
            }),
            Request::Plan(JobSpec {
                exchange: true,
                starts: 4,
                mode: PortfolioMode::Temper,
                ladder_ratio_bits: 2.0f64.to_bits(),
                ..JobSpec::new("quadrant d3\nrow 1 2\n")
            }),
            Request::Plan(JobSpec {
                class: JobClass::Bulk,
                ..JobSpec::new("quadrant e\nrow 1 2\n")
            }),
            Request::Plan(JobSpec {
                exchange: true,
                profile: true,
                ..JobSpec::new("quadrant e2\nrow 1 2\n")
            }),
            Request::Batch {
                class: JobClass::Bulk,
                jobs: vec![
                    JobSpec {
                        class: JobClass::Bulk,
                        ..JobSpec::new("quadrant f\nrow 1\n")
                    },
                    JobSpec {
                        exchange: true,
                        starts: 4,
                        class: JobClass::Bulk,
                        ..JobSpec::new("quadrant g\nrow 2 1\n")
                    },
                ],
            },
            Request::Batch {
                class: JobClass::Interactive,
                jobs: vec![JobSpec::new("quadrant h\nrow 1\n")],
            },
            Request::Replan {
                class: JobClass::Bulk,
                jobs: vec![
                    JobSpec {
                        exchange: true,
                        prev: Some("assignment i\norder 2 1\n".to_owned()),
                        margin_bits: 0.25f64.to_bits(),
                        class: JobClass::Bulk,
                        ..JobSpec::new("quadrant i\nrow 1 2\n")
                    },
                    JobSpec {
                        exchange: true,
                        class: JobClass::Bulk,
                        ..JobSpec::new("quadrant j\nrow 2 1\n")
                    },
                ],
            },
            Request::Status,
            Request::Shutdown,
        ];
        for request in specs {
            let line = encode_request(&request);
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(decode_request(&line).unwrap(), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let plan = PlanResponse {
            cache: "miss".to_owned(),
            key: 0x0123_4567_89ab_cdef,
            name: "demo".to_owned(),
            report: "demo: dfa(n=1) -> ...\norder: 1,2\n".to_owned(),
            assignment: "assignment demo\norder 1,2\n".to_owned(),
            seconds: 0.25,
        };
        let responses = [
            Response::Plan(plan.clone()),
            Response::BatchItem {
                seq: 3,
                result: Ok(PlanResponse {
                    cache: "disk".to_owned(),
                    ..plan
                }),
            },
            Response::BatchItem {
                seq: 9,
                result: Err(ServeError::new(ErrorKind::Timeout, "budget spent")),
            },
            Response::BatchDone(BatchSummary {
                jobs: 10,
                ok: 8,
                failed: 2,
            }),
            Response::Status(StatusSnapshot {
                workers: 4,
                queue_capacity: 64,
                running: 2,
                queued: 3,
                submitted: 10,
                completed: 7,
                cache_hits: 2,
                coalesced: 1,
                rejected: 3,
                timeouts: 1,
                failed: 1,
                disk_hits: 5,
                evictions: 4,
                interactive_queued: 1,
                bulk_queued: 2,
                shutting_down: true,
            }),
            Response::Shutdown,
            Response::Error(ServeError::new(ErrorKind::QueueFull, "queue is full (64)")),
        ];
        for response in responses {
            let line = encode_response(&response);
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(decode_response(&line).unwrap(), response);
        }
    }

    #[test]
    fn bad_frames_and_bad_requests_are_distinguished() {
        assert_eq!(
            decode_request("this is not json").unwrap_err().kind,
            ErrorKind::BadFrame
        );
        assert_eq!(
            decode_request("[1,2]").unwrap_err().kind,
            ErrorKind::BadFrame
        );
        assert_eq!(
            decode_request("{\"op\":\"fly\"}").unwrap_err().kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"plan\"}").unwrap_err().kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"plan\",\"circuit\":\"x\",\"psi\":0}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"plan\",\"circuit\":\"x\",\"starts\":0}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"plan\",\"circuit\":\"x\",\"class\":\"vip\"}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"plan\",\"circuit\":\"x\",\"mode\":\"sprint\"}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"plan\",\"circuit\":\"x\",\"kick_size\":0}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn malformed_batches_are_bad_requests_with_the_item_named() {
        assert_eq!(
            decode_request("{\"op\":\"batch\"}").unwrap_err().kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"batch\",\"jobs\":[]}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            decode_request("{\"op\":\"batch\",\"jobs\":\"x\"}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        let err = decode_request("{\"op\":\"batch\",\"jobs\":[{\"circuit\":\"x\"},{\"psi\":1}]}")
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("batch job 1"), "{}", err.message);
    }

    #[test]
    fn the_batch_class_overrides_every_item() {
        // Items never carry their own class tag; the batch-level class
        // lands on each decoded spec.
        let line = "{\"op\":\"batch\",\"class\":\"bulk\",\"jobs\":[{\"circuit\":\"a\"},{\"circuit\":\"b\"}]}";
        let Request::Batch { class, jobs } = decode_request(line).expect("decodes") else {
            panic!("not a batch");
        };
        assert_eq!(class, JobClass::Bulk);
        assert!(jobs.iter().all(|j| j.class == JobClass::Bulk));
    }

    #[test]
    fn single_start_frames_omit_portfolio_fields() {
        // K=1 frames are byte-identical to pre-portfolio frames, so
        // older peers (and golden files) keep working unchanged.
        let line = encode_request(&Request::Plan(JobSpec {
            exchange: true,
            ..JobSpec::new("quadrant a\nrow 1 2\n")
        }));
        assert!(!line.contains("starts"));
        assert!(!line.contains("prune_margin_bits"));
        // The cooperative-mode fields are likewise invisible at the
        // default `race` mode, even on a multi-start frame.
        let race_line = encode_request(&Request::Plan(JobSpec {
            exchange: true,
            starts: 4,
            ..JobSpec::new("quadrant a\nrow 1 2\n")
        }));
        assert!(!race_line.contains("mode"));
        assert!(!race_line.contains("kick_size"));
        assert!(!race_line.contains("ladder_ratio_bits"));
        // The default class is likewise invisible on the wire, and so
        // are the replan extensions when unused.
        assert!(!line.contains("class"));
        assert!(!line.contains("margin_bits"));
        assert!(!line.contains("prev"));
        // The profile flag is invisible unless set.
        assert!(!line.contains("profile"));
        // Multi-start frames carry both, and the margin's bits survive
        // the round trip exactly.
        let spec = JobSpec {
            exchange: true,
            starts: 3,
            prune_margin_bits: 0.1f64.to_bits(),
            ..JobSpec::new("quadrant a\nrow 1 2\n")
        };
        let Request::Plan(decoded) =
            decode_request(&encode_request(&Request::Plan(spec.clone()))).expect("round trip")
        else {
            panic!("not a plan");
        };
        assert_eq!(decoded, spec);
        assert_eq!(
            f64::from_bits(decoded.prune_margin_bits).to_bits(),
            0.1f64.to_bits()
        );
    }

    #[test]
    fn the_line_reader_carries_partial_frames() {
        // A reader that yields the stream in awkward 3-byte pieces.
        struct Drip<'a>(&'a [u8]);
        impl Read for Drip<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(3).min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut reader = LineReader::new(Drip(b"{\"op\":\"status\"}\r\nnext line\n"));
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Line("{\"op\":\"status\"}".to_owned())
        );
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Line("next line".to_owned())
        );
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_frames_are_discarded_then_reported_once() {
        let mut stream = vec![b'x'; MAX_FRAME + 10];
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"op\":\"status\"}\n");
        let mut reader = LineReader::new(stream.as_slice());
        assert_eq!(reader.next_frame().unwrap_err().kind, ErrorKind::Oversized);
        // The connection is still usable for the following frame.
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Line("{\"op\":\"status\"}".to_owned())
        );
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    /// A reader scripted as explicit segments: each `read` returns
    /// bytes from the current segment only, never merging across the
    /// boundary — precise control over what lands in one read.
    struct Script {
        segments: Vec<Vec<u8>>,
        at: usize,
    }

    impl Script {
        fn new(segments: Vec<Vec<u8>>) -> Self {
            Self { segments, at: 0 }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.at < self.segments.len() && self.segments[self.at].is_empty() {
                self.at += 1;
            }
            let Some(segment) = self.segments.get_mut(self.at) else {
                return Ok(0);
            };
            let n = segment.len().min(buf.len());
            buf[..n].copy_from_slice(&segment[..n]);
            segment.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn an_oversized_tail_and_the_next_frame_in_one_read_keep_the_frame() {
        // Recovery invariant: when the discard window ends and the same
        // read also carries the *next* frame, that frame must survive.
        // The oversized junk's tail (`xxxx\n`) and a complete valid
        // frame arrive together in the final read.
        let mut reader = LineReader::new(Script::new(vec![
            vec![b'x'; MAX_FRAME + 100],
            b"xxxx\n{\"op\":\"status\"}\n".to_vec(),
        ]));
        assert_eq!(reader.next_frame().unwrap_err().kind, ErrorKind::Oversized);
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Line("{\"op\":\"status\"}".to_owned())
        );
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn a_maximal_frame_with_a_split_crlf_terminator_is_not_discarded() {
        // Regression: a frame of exactly MAX_FRAME content bytes ending
        // in `\r\n`, with the `\r` buffered but the `\n` still in
        // flight, sits at MAX_FRAME + 1 buffered bytes. The discard
        // heuristic used to fire at `> MAX_FRAME`, throwing away a
        // frame the drain path accepts (it strips the `\r` before the
        // size check). The reader must wait for the newline instead.
        let mut reader = LineReader::new(Script::new(vec![
            vec![b'y'; MAX_FRAME],
            b"\r".to_vec(),
            b"\n".to_vec(),
        ]));
        match reader.next_frame().unwrap() {
            Frame::Line(line) => {
                assert_eq!(line.len(), MAX_FRAME);
                assert!(line.bytes().all(|b| b == b'y'));
            }
            other => panic!("a maximal CRLF frame must be accepted, got {other:?}"),
        }
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);

        // One byte more and the frame is provably oversized even with a
        // split terminator: the discard path must still engage.
        let mut reader = LineReader::new(Script::new(vec![
            vec![b'z'; MAX_FRAME + 1],
            b"\r".to_vec(),
            b"\n".to_vec(),
        ]));
        assert_eq!(reader.next_frame().unwrap_err().kind, ErrorKind::Oversized);
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn a_mid_frame_disconnect_is_a_typed_io_error() {
        let mut reader = LineReader::new(&b"{\"op\":\"sta"[..]);
        assert_eq!(reader.next_frame().unwrap_err().kind, ErrorKind::Io);
    }

    #[test]
    fn buffered_lines_are_visible_without_touching_the_transport() {
        let mut reader = LineReader::new(&b"{\"op\":\"status\"}\n{\"op\":\"shutdown\"}\n"[..]);
        assert!(!reader.has_buffered_line());
        let _ = reader.next_frame().unwrap();
        assert!(
            reader.has_buffered_line(),
            "the second frame rode in on the first read"
        );
    }
}
