//! The resident simulation daemon: a long-running service on a Unix
//! socket that keeps the scenario harness, the worker pool, and one
//! in-memory result-cache front warm across requests.
//!
//! Every other front end in this crate is a one-shot batch bin; the paper's
//! LeaseOS is a long-lived OS service fielding continuous lease decisions,
//! and this module is that serving shape for the harness — concurrent
//! clients multiplexed across one [`WorkerPool`], with repeated cell
//! queries answered from memory (no process startup, no disk) and served
//! byte-identically to the batch path.
//!
//! # Protocol (version 1)
//!
//! Newline-delimited JSON over a Unix stream socket; one request object per
//! line, one response object per line, in order, per connection. Requests
//! longer than [`MAX_REQUEST_BYTES`] are answered with a structured error
//! and the connection is closed (the line framing can no longer be
//! trusted); any other malformed line gets a structured error and the
//! connection stays usable.
//!
//! Request: `{"v":1, "id":<any>, "cmd":"<command>", ...command fields}`.
//! The optional `id` is echoed verbatim in the response.
//!
//! Response: `{"v":1, "id":<echo>, "ok":true, "result":{...}}` or
//! `{"v":1, "id":<echo>, "ok":false, "error":"..."}`.
//!
//! Commands:
//!
//! | cmd | fields (defaults) | result |
//! |---|---|---|
//! | `ping` | — | `{"protocol":1,"pid":N}` |
//! | `run-cell` | `app` (required), `policy` (`leaseos`), `seed` (42), `arm` (`control`), `minutes` (30), `mean_secs` (300), `cold_restart` (false) | the cell's conformance summary ([`CellOutcome::summary_json`]) |
//! | `dumpsys` | `app` (`Facebook`), `policy` (`vanilla`), `seed` (42), `minutes` (30), `format` (`text`) | `{"scenario","violations":N,"output"}` |
//! | `explore` | `app`, `policy`, `device`, `minutes`, `seed`, `trace`, `spans` ([`ExploreParams::default`]) | `{"output"}` |
//! | `metrics` | — | `{"output":"<prometheus text>"}` |
//! | `shutdown` | — | `{"draining":true}`; then drain in-flight, refuse new connections, exit |
//!
//! # Single-flight semantics
//!
//! Identical concurrent cold requests (same cache key) execute **once**:
//! the first caller becomes the leader, runs the cell on the pool, and
//! publishes the result (or its error) to every waiter; later callers of a
//! published key hit the in-memory front without touching the pool. Each
//! `run-cell` is accounted to exactly one of
//! `daemon_cell_mem_hits_total`, `daemon_cell_joined_total`,
//! `daemon_cell_disk_loads_total`, or `daemon_cell_executions_total`.

use std::collections::HashMap;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use leaseos_apps::buggy::table5_case;
use leaseos_simkit::metrics::{Counter, Gauge, HistogramHandle};
use leaseos_simkit::{FaultPlan, JsonValue, MetricsRegistry, SimDuration};

use crate::cache::{build_rev, CacheKey, CacheStats, KeyBuilder, ResultCache};
use crate::conformance::{
    cell_key, corpus_cell_key, resolve_case, run_cell, CellOutcome, FaultArm,
};
use crate::dumpsys::{self, Format};
use crate::explore::{self, ExploreParams};
use crate::harness::WorkerPool;
use crate::{PolicyKind, ScenarioSpec};

/// The protocol version this daemon speaks (the request `v` field).
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one request line. Longer lines are rejected with a
/// structured error and the connection is closed.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How often blocked reads and the accept loop re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How many extra read polls a *partially received* request gets after
/// shutdown starts before the connection is abandoned (~1 s).
const SHUTDOWN_GRACE_POLLS: u32 = 40;

/// Everything one daemon needs to start, as data.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The Unix socket path to listen on.
    pub socket: PathBuf,
    /// Worker threads for cell execution (0 = available parallelism).
    pub threads: usize,
    /// On-disk cache directory; `None` serves from memory only.
    pub cache_dir: Option<PathBuf>,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl DaemonConfig {
    /// A daemon on `socket` with auto threads and the default disk cache.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            threads: 0,
            cache_dir: Some(ResultCache::default_dir()),
        }
    }

    /// The default socket path (`$TMPDIR/leaseos-daemon.sock`).
    pub fn default_socket() -> PathBuf {
        std::env::temp_dir().join("leaseos-daemon.sock")
    }

    /// A throwaway config for tests: a unique temp socket and a fresh,
    /// equally unique cache directory, two worker threads. Keep `tag`
    /// short — Unix socket paths have a ~100-byte budget.
    pub fn scratch(tag: &str) -> DaemonConfig {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let tmp = std::env::temp_dir();
        DaemonConfig {
            socket: tmp.join(format!("leaseos-{tag}-{pid}-{n}.sock")),
            threads: 2,
            cache_dir: Some(tmp.join(format!("leaseos-{tag}-cache-{pid}-{n}"))),
        }
    }
}

/// Per-key rendezvous for concurrent identical requests: the leader
/// publishes its result (success *or* error, so followers can never hang
/// on a failed leader) and wakes everyone.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<JsonValue>, String>>>,
    cv: Condvar,
}

/// How a single-flighted request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// Answered from the in-memory front.
    MemHit,
    /// Waited on another caller's in-flight execution.
    Joined,
    /// This caller was the leader and produced the value.
    Produced,
}

/// Registry handles pre-resolved once at startup so the per-request path
/// never takes the registry's slot-table lock.
struct DaemonCounters {
    requests: Counter,
    connections: Counter,
    errors: Counter,
    executions: Counter,
    mem_hits: Counter,
    joined: Counter,
    disk_loads: Counter,
    inflight: Gauge,
    wall_ms: HistogramHandle,
}

impl DaemonCounters {
    fn new(registry: &MetricsRegistry) -> DaemonCounters {
        DaemonCounters {
            requests: registry.counter("daemon_requests_total"),
            connections: registry.counter("daemon_connections_total"),
            errors: registry.counter("daemon_errors_total"),
            executions: registry.counter("daemon_cell_executions_total"),
            mem_hits: registry.counter("daemon_cell_mem_hits_total"),
            joined: registry.counter("daemon_cell_joined_total"),
            disk_loads: registry.counter("daemon_cell_disk_loads_total"),
            inflight: registry.gauge("daemon_requests_inflight"),
            wall_ms: registry.histogram("daemon_request_wall_ms"),
        }
    }
}

/// State shared by the accept loop, every connection handler, and the
/// [`DaemonHandle`]s the embedding process keeps.
struct Shared {
    registry: Arc<MetricsRegistry>,
    counters: DaemonCounters,
    cache: Option<ResultCache>,
    rev: String,
    mem: Mutex<HashMap<CacheKey, Arc<JsonValue>>>,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    pool: WorkerPool,
    shutdown: AtomicBool,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

fn lock<'a, T>(m: &'a Mutex<T>, what: &str) -> std::sync::MutexGuard<'a, T> {
    m.lock()
        .unwrap_or_else(|_| panic!("daemon {what} lock poisoned"))
}

/// Produce-once: the in-memory front, then join any in-flight execution of
/// the same key, then become the leader and run `produce`. Successful
/// values are published to the memory front before the flight is retired,
/// so a key is always answerable by exactly one of the three paths.
fn singleflight<F>(
    shared: &Shared,
    key: CacheKey,
    produce: F,
) -> (Result<Arc<JsonValue>, String>, Served)
where
    F: FnOnce() -> Result<JsonValue, String>,
{
    if let Some(hit) = lock(&shared.mem, "mem").get(&key) {
        return (Ok(hit.clone()), Served::MemHit);
    }
    let (flight, leader) = {
        let mut inflight = lock(&shared.inflight, "inflight");
        // Re-check under the inflight lock: a leader publishes to `mem`
        // before removing its flight, so missing both maps here really
        // means nobody is producing this key.
        if let Some(hit) = lock(&shared.mem, "mem").get(&key) {
            return (Ok(hit.clone()), Served::MemHit);
        }
        match inflight.get(&key) {
            Some(f) => (f.clone(), false),
            None => {
                let f = Arc::new(Flight::default());
                inflight.insert(key, f.clone());
                (f, true)
            }
        }
    };
    if !leader {
        let mut done = lock(&flight.done, "flight");
        while done.is_none() {
            done = flight
                .cv
                .wait(done)
                .unwrap_or_else(|_| panic!("daemon flight lock poisoned"));
        }
        let result = done.clone().expect("loop exits only when published");
        return (result, Served::Joined);
    }
    let result = produce().map(Arc::new);
    if let Ok(value) = &result {
        lock(&shared.mem, "mem").insert(key, value.clone());
    }
    *lock(&flight.done, "flight") = Some(result.clone());
    flight.cv.notify_all();
    lock(&shared.inflight, "inflight").remove(&key);
    (result, Served::Produced)
}

// ---- request decoding ----------------------------------------------------

fn get_str(doc: &JsonValue, key: &str, default: &str) -> Result<String, String> {
    match doc.get(key) {
        None => Ok(default.to_owned()),
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field {key:?} must be a string, got {other:?}")),
    }
}

fn get_u64(doc: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(JsonValue::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
            Ok(*n as u64)
        }
        Some(other) => Err(format!(
            "field {key:?} must be a non-negative integer, got {other:?}"
        )),
    }
}

fn get_bool(doc: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(other) => Err(format!("field {key:?} must be a boolean, got {other:?}")),
    }
}

/// One decoded `run-cell` request: a conformance-matrix cell coordinate.
#[derive(Debug, Clone)]
pub struct CellRequest {
    /// App-axis name: a Table 5 case or `corpus:SEED:INDEX`.
    pub app: String,
    /// Policy column.
    pub policy: PolicyKind,
    /// Kernel RNG seed.
    pub seed: u64,
    /// Fault arm.
    pub arm: FaultArm,
    /// Simulated minutes.
    pub minutes: u64,
    /// Mean fault inter-arrival, seconds.
    pub mean_secs: u64,
    /// Cold-restart semantics.
    pub cold_restart: bool,
}

impl CellRequest {
    /// Decodes a protocol request object (any `cmd`; only the cell fields
    /// are looked at).
    ///
    /// # Errors
    ///
    /// Reports a missing `app` or any mistyped/unparseable field.
    pub fn from_request(doc: &JsonValue) -> Result<CellRequest, String> {
        let app = match doc.get("app") {
            Some(JsonValue::Str(s)) => s.clone(),
            Some(other) => return Err(format!("field \"app\" must be a string, got {other:?}")),
            None => return Err("run-cell requires an \"app\" field".into()),
        };
        Ok(CellRequest {
            app,
            policy: PolicyKind::parse(&get_str(doc, "policy", "leaseos")?)?,
            seed: get_u64(doc, "seed", 42)?,
            arm: FaultArm::parse(&get_str(doc, "arm", "control")?)?,
            minutes: get_u64(doc, "minutes", 30)?,
            mean_secs: get_u64(doc, "mean_secs", 300)?,
            cold_restart: get_bool(doc, "cold_restart", false)?,
        })
    }

    /// Resolves the coordinate to a runnable scenario: the spec (with the
    /// canonical conformance label), the expanded fault plan, and the
    /// corpus fingerprint when the app is a generated case.
    ///
    /// # Errors
    ///
    /// Reports an app name the catalog and corpus do not know.
    pub fn resolve(&self) -> Result<(ScenarioSpec, FaultPlan, Option<String>), String> {
        let case = resolve_case(&self.app)?;
        let length = SimDuration::from_mins(self.minutes);
        let mean = SimDuration::from_secs(self.mean_secs);
        let plan = self.arm.plan(self.seed, length, mean);
        let policy = self.policy;
        let spec = ScenarioSpec {
            label: format!(
                "{}/{}/{}/{}",
                case.name,
                policy.cli_name(),
                self.arm.name(),
                self.seed
            ),
            app: case.build.clone(),
            policy: Arc::new(move || policy.build()),
            device: leaseos_simkit::DeviceProfile::pixel_xl(),
            env: case.env.clone(),
            seed: self.seed,
            length,
        };
        Ok((spec, plan, case.fingerprint))
    }

    /// Executes the cell in-process — the one-shot reference path the
    /// byte-identity tests compare daemon responses against.
    ///
    /// # Errors
    ///
    /// Reports an unresolvable app name.
    pub fn outcome(&self) -> Result<CellOutcome, String> {
        let (spec, plan, _) = self.resolve()?;
        Ok(run_cell(&spec, &plan, self.cold_restart))
    }
}

// ---- command handlers ----------------------------------------------------

impl Shared {
    fn run_cell_cmd(self: &Arc<Self>, doc: &JsonValue) -> Result<JsonValue, String> {
        let req = CellRequest::from_request(doc)?;
        let (spec, plan, fingerprint) = req.resolve()?;
        let key = match &fingerprint {
            Some(fp) => corpus_cell_key(&spec, fp, &plan, req.cold_restart, &self.rev),
            None => cell_key(&spec, &plan, req.cold_restart, &self.rev),
        };
        let pool_owner = self.clone();
        let inner = self.clone();
        let cold = req.cold_restart;
        let (result, served) = singleflight(self, key, move || {
            pool_owner.pool.run(move || {
                if let Some(cache) = &inner.cache {
                    if let Some(entry) = cache.load(key) {
                        if let Ok(outcome) = CellOutcome::from_summary(&entry.summary, entry.jsonl)
                        {
                            inner.counters.disk_loads.inc();
                            return outcome.summary_json();
                        }
                    }
                }
                let outcome = run_cell(&spec, &plan, cold);
                inner.counters.executions.inc();
                if let Some(cache) = &inner.cache {
                    if let Err(e) = cache.store(key, &outcome.summary_json(), &outcome.jsonl) {
                        eprintln!("warning: daemon cache store failed for {}: {e}", spec.label);
                    }
                }
                outcome.summary_json()
            })
        });
        match served {
            Served::MemHit => self.counters.mem_hits.inc(),
            Served::Joined => self.counters.joined.inc(),
            Served::Produced => {}
        }
        result.map(|arc| (*arc).clone())
    }

    fn dumpsys_cmd(self: &Arc<Self>, doc: &JsonValue) -> Result<JsonValue, String> {
        let app = get_str(doc, "app", "Facebook")?;
        let policy = PolicyKind::parse(&get_str(doc, "policy", "vanilla")?)?;
        let seed = get_u64(doc, "seed", 42)?;
        let minutes = get_u64(doc, "minutes", 30)?;
        let format = Format::parse(&get_str(doc, "format", "text")?)?;
        if table5_case(&app).is_none() {
            return Err(format!("unknown Table 5 app {app:?}"));
        }
        let key = KeyBuilder::new("daemon-dumpsys/v1")
            .field("app", &app)
            .field("policy", policy.cli_name())
            .field("seed", seed)
            .field("mins", minutes)
            .field("format", format!("{format:?}"))
            .field("rev", &self.rev)
            .finish();
        let pool_owner = self.clone();
        let (result, _) = singleflight(self, key, move || {
            pool_owner.pool.run(move || {
                let report = dumpsys::live_report(&app, policy, seed, minutes);
                JsonValue::Obj(vec![
                    ("scenario".into(), JsonValue::Str(report.scenario.clone())),
                    (
                        "violations".into(),
                        JsonValue::Num(report.violations.len() as f64),
                    ),
                    ("output".into(), JsonValue::Str(report.render(format))),
                ])
            })
        });
        result.map(|arc| (*arc).clone())
    }

    fn explore_cmd(self: &Arc<Self>, doc: &JsonValue) -> Result<JsonValue, String> {
        let defaults = ExploreParams::default();
        let params = ExploreParams {
            app: get_str(doc, "app", &defaults.app)?,
            policy: get_str(doc, "policy", &defaults.policy)?,
            device: get_str(doc, "device", &defaults.device)?,
            minutes: get_u64(doc, "minutes", defaults.minutes)?,
            seed: get_u64(doc, "seed", defaults.seed)?,
            trace: get_u64(doc, "trace", defaults.trace as u64)? as usize,
            spans: get_bool(doc, "spans", defaults.spans)?,
        };
        let key = KeyBuilder::new("daemon-explore/v1")
            .field("app", &params.app)
            .field("policy", &params.policy)
            .field("device", &params.device)
            .field("minutes", params.minutes)
            .field("seed", params.seed)
            .field("trace", params.trace)
            .field("spans", params.spans)
            .field("rev", &self.rev)
            .finish();
        let pool_owner = self.clone();
        let (result, _) = singleflight(self, key, move || {
            pool_owner.pool.run(move || {
                explore::render(&params)
                    .map(|output| JsonValue::Obj(vec![("output".into(), JsonValue::Str(output))]))
            })?
        });
        result.map(|arc| (*arc).clone())
    }
}

// ---- request dispatch ----------------------------------------------------

/// Renders one response line (without the trailing newline): fixed field
/// order `v`, `id` (when the request carried one), `ok`, then `result` or
/// `error`.
fn response(id: Option<&JsonValue>, outcome: Result<JsonValue, String>) -> String {
    let mut fields = vec![("v".to_owned(), JsonValue::Num(PROTOCOL_VERSION as f64))];
    if let Some(id) = id {
        fields.push(("id".to_owned(), id.clone()));
    }
    match outcome {
        Ok(result) => {
            fields.push(("ok".to_owned(), JsonValue::Bool(true)));
            fields.push(("result".to_owned(), result));
        }
        Err(error) => {
            fields.push(("ok".to_owned(), JsonValue::Bool(false)));
            fields.push(("error".to_owned(), JsonValue::Str(error)));
        }
    }
    JsonValue::Obj(fields).to_json()
}

/// Handles one framed request line end to end; returns the response line
/// and whether the daemon should begin shutting down after it is written.
fn handle_request(shared: &Arc<Shared>, raw: &[u8]) -> (String, bool) {
    shared.counters.requests.inc();
    shared.counters.inflight.inc();
    let start = Instant::now();
    let (id, outcome) = dispatch(shared, raw);
    shared
        .counters
        .wall_ms
        .observe(start.elapsed().as_secs_f64() * 1_000.0);
    shared.counters.inflight.dec();
    if outcome.is_err() {
        shared.counters.errors.inc();
    }
    let shutdown = matches!(outcome, Ok((_, true)));
    (response(id.as_ref(), outcome.map(|(r, _)| r)), shutdown)
}

#[allow(clippy::type_complexity)]
fn dispatch(
    shared: &Arc<Shared>,
    raw: &[u8],
) -> (Option<JsonValue>, Result<(JsonValue, bool), String>) {
    let text = match std::str::from_utf8(raw) {
        Ok(t) => t,
        Err(_) => return (None, Err("request is not UTF-8".into())),
    };
    let doc = match JsonValue::parse(text.trim()) {
        Ok(d) => d,
        Err(e) => return (None, Err(format!("request is not valid JSON: {e}"))),
    };
    if !matches!(doc, JsonValue::Obj(_)) {
        return (None, Err("request must be a JSON object".into()));
    }
    let id = doc.get("id").cloned();
    (id, dispatch_cmd(shared, &doc))
}

fn dispatch_cmd(shared: &Arc<Shared>, doc: &JsonValue) -> Result<(JsonValue, bool), String> {
    match doc.get("v").and_then(JsonValue::as_f64) {
        Some(v) if v == PROTOCOL_VERSION as f64 => {}
        Some(v) => {
            return Err(format!(
                "unsupported protocol version {v} (this daemon speaks {PROTOCOL_VERSION})"
            ))
        }
        None => {
            return Err(format!(
                "missing numeric \"v\" field (this daemon speaks protocol {PROTOCOL_VERSION})"
            ))
        }
    }
    let cmd = doc
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string \"cmd\" field".to_owned())?;
    match cmd {
        "ping" => Ok((
            JsonValue::Obj(vec![
                ("protocol".into(), JsonValue::Num(PROTOCOL_VERSION as f64)),
                ("pid".into(), JsonValue::Num(std::process::id() as f64)),
            ]),
            false,
        )),
        "metrics" => Ok((
            JsonValue::Obj(vec![(
                "output".into(),
                JsonValue::Str(shared.registry.render_prometheus()),
            )]),
            false,
        )),
        "shutdown" => Ok((
            JsonValue::Obj(vec![("draining".into(), JsonValue::Bool(true))]),
            true,
        )),
        "run-cell" => shared.run_cell_cmd(doc).map(|r| (r, false)),
        "dumpsys" => shared.dumpsys_cmd(doc).map(|r| (r, false)),
        "explore" => shared.explore_cmd(doc).map(|r| (r, false)),
        other => Err(format!(
            "unknown cmd {other:?} (run-cell, dumpsys, explore, metrics, ping, shutdown)"
        )),
    }
}

// ---- connection handling -------------------------------------------------

enum ReadOutcome {
    Line(Vec<u8>),
    Oversized,
    Closed,
    ShuttingDown,
}

/// Reads one newline-framed request with a hard size cap, polling the
/// shutdown flag between timed-out reads. Never allocates past
/// [`MAX_REQUEST_BYTES`] + one buffer.
fn read_request_line(
    reader: &mut BufReader<UnixStream>,
    shared: &Shared,
) -> io::Result<ReadOutcome> {
    let mut line: Vec<u8> = Vec::new();
    let mut grace_polls = 0u32;
    loop {
        if shared.is_shutting_down() {
            // An idle connection stops immediately; a half-received request
            // gets a short grace window to finish arriving.
            if line.is_empty() || grace_polls > SHUTDOWN_GRACE_POLLS {
                return Ok(ReadOutcome::ShuttingDown);
            }
            grace_polls += 1;
        }
        let (consumed, complete) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(ReadOutcome::Closed);
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&buf[..pos]);
                    (pos + 1, true)
                }
                None => {
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if line.len() > MAX_REQUEST_BYTES {
            return Ok(ReadOutcome::Oversized);
        }
        if complete {
            return Ok(ReadOutcome::Line(line));
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: UnixStream) {
    shared.counters.connections.inc();
    // The read timeout is what lets this thread notice the shutdown flag;
    // the write timeout keeps a stuck client from wedging the drain.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut write_line = |line: &str| -> bool {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_ok()
    };
    loop {
        match read_request_line(&mut reader, shared) {
            Ok(ReadOutcome::Line(bytes)) => {
                let (resp, shutdown) = handle_request(shared, &bytes);
                if !write_line(&resp) {
                    break;
                }
                if shutdown {
                    shared.request_shutdown();
                    break;
                }
            }
            Ok(ReadOutcome::Oversized) => {
                shared.counters.errors.inc();
                let resp = response(
                    None,
                    Err(format!("request exceeds {MAX_REQUEST_BYTES} bytes")),
                );
                let _ = write_line(&resp);
                // The line framing can no longer be trusted on this
                // connection; drop it rather than serve garbage.
                break;
            }
            Ok(ReadOutcome::Closed | ReadOutcome::ShuttingDown) | Err(_) => break,
        }
    }
}

// ---- the daemon ----------------------------------------------------------

/// A bound-but-not-yet-serving daemon. [`Daemon::bind`] claims the socket
/// (so a client started right after it returns will connect rather than
/// race), [`Daemon::serve`] runs the accept loop to completion.
pub struct Daemon {
    listener: UnixListener,
    shared: Arc<Shared>,
    socket: PathBuf,
}

/// A cloneable remote control for a running daemon (shutdown + metrics),
/// usable from any thread — e.g. a signal-watcher.
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    /// Begins graceful shutdown: in-flight requests complete, new
    /// connections are refused, the accept loop exits.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// The daemon's process-level metrics registry.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        self.shared.registry.clone()
    }

    /// The daemon's build revision (part of every cache key it computes).
    pub fn rev(&self) -> &str {
        &self.shared.rev
    }
}

impl Daemon {
    /// Binds the socket and builds the shared state (registry, disk cache,
    /// worker pool). A stale socket file left by a crashed daemon is
    /// detected (nothing accepts the probe connection) and replaced; a
    /// *live* daemon on the same path is an [`io::ErrorKind::AddrInUse`]
    /// error.
    ///
    /// # Errors
    ///
    /// Socket binding or cache-directory creation failures.
    pub fn bind(config: DaemonConfig) -> io::Result<Daemon> {
        let registry = Arc::new(MetricsRegistry::new());
        registry.enable();
        let cache = match config.cache_dir {
            Some(dir) => {
                let mut cache = ResultCache::open(dir)?;
                cache.attach_metrics(&registry);
                Some(cache)
            }
            None => None,
        };
        if config.socket.exists() {
            match UnixStream::connect(&config.socket) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "a daemon is already listening on {}",
                            config.socket.display()
                        ),
                    ));
                }
                Err(_) => {
                    std::fs::remove_file(&config.socket)?;
                }
            }
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        let counters = DaemonCounters::new(&registry);
        let pool = WorkerPool::new(config.threads, Some(registry.clone()));
        let shared = Arc::new(Shared {
            registry,
            counters,
            cache,
            rev: build_rev(),
            mem: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            pool,
            shutdown: AtomicBool::new(false),
        });
        Ok(Daemon {
            listener,
            shared,
            socket: config.socket,
        })
    }

    /// The socket this daemon is bound to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// A remote control for this daemon.
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: self.shared.clone(),
        }
    }

    /// Runs the accept loop until shutdown is requested, then drains: the
    /// listener closes (refusing new connections), the socket file is
    /// removed, every connection handler finishes its in-flight request,
    /// and the disk cache's final counters are returned.
    ///
    /// # Errors
    ///
    /// Unexpected accept-loop I/O failures (the socket file is still
    /// removed).
    pub fn serve(self) -> io::Result<CacheStats> {
        let Daemon {
            listener,
            shared,
            socket,
        } = self;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shared.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = shared.clone();
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(&shared, stream)
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    drop(listener);
                    let _ = std::fs::remove_file(&socket);
                    return Err(e);
                }
            }
            // Finished handlers detach on drop; only live ones are kept
            // for the drain join below.
            handlers.retain(|h| !h.is_finished());
        }
        drop(listener);
        let _ = std::fs::remove_file(&socket);
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(shared
            .cache
            .as_ref()
            .map(ResultCache::stats)
            .unwrap_or_default())
    }
}

// ---- client --------------------------------------------------------------

/// A blocking protocol client for one daemon connection.
pub struct DaemonClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl DaemonClient {
    /// Connects to a daemon socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(socket: &Path) -> io::Result<DaemonClient> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(DaemonClient {
            reader,
            writer: stream,
        })
    }

    /// Connects, retrying until `timeout` — for racing a daemon that is
    /// still binding.
    ///
    /// # Errors
    ///
    /// The last connection failure once the deadline passes.
    pub fn connect_retry(socket: &Path, timeout: Duration) -> io::Result<DaemonClient> {
        let deadline = Instant::now() + timeout;
        loop {
            match DaemonClient::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Sends one raw request line and returns the raw response line
    /// (newline stripped).
    ///
    /// # Errors
    ///
    /// I/O failures, including the daemon closing the connection.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        let sent = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush());
        match sent {
            Ok(()) => self.read_response(),
            // An oversized request makes the daemon answer with an error and
            // close while we are still writing; its answer is already in our
            // receive buffer, and it says more than the broken pipe does.
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.read_response().map_err(|_| e),
            Err(e) => Err(e),
        }
    }

    fn read_response(&mut self) -> io::Result<String> {
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Sends one request document and parses the response document.
    ///
    /// # Errors
    ///
    /// I/O failures or an unparseable response.
    pub fn request(&mut self, doc: &JsonValue) -> Result<JsonValue, String> {
        let line = self
            .request_line(&doc.to_json())
            .map_err(|e| format!("daemon io error: {e}"))?;
        JsonValue::parse(&line).map_err(|e| format!("unparseable daemon response: {e}"))
    }

    /// Builds a versioned `cmd` request with `fields`, sends it, and
    /// unwraps the envelope: `result` on `ok:true`, the daemon's `error`
    /// as `Err` otherwise.
    ///
    /// # Errors
    ///
    /// Transport failures or a daemon-side error response.
    pub fn call(
        &mut self,
        cmd: &str,
        fields: Vec<(String, JsonValue)>,
    ) -> Result<JsonValue, String> {
        let mut all = vec![
            ("v".to_owned(), JsonValue::Num(PROTOCOL_VERSION as f64)),
            ("cmd".to_owned(), JsonValue::Str(cmd.to_owned())),
        ];
        all.extend(fields);
        let resp = self.request(&JsonValue::Obj(all))?;
        match resp.get("ok") {
            Some(JsonValue::Bool(true)) => resp
                .get("result")
                .cloned()
                .ok_or_else(|| "daemon response missing \"result\"".to_owned()),
            Some(JsonValue::Bool(false)) => Err(resp
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified daemon error")
                .to_owned()),
            _ => Err("daemon response missing \"ok\"".to_owned()),
        }
    }
}

// ---- in-process spawn (tests, benchmarks) --------------------------------

/// A daemon serving on a background thread of this process.
pub struct RunningDaemon {
    socket: PathBuf,
    handle: DaemonHandle,
    thread: Option<std::thread::JoinHandle<io::Result<CacheStats>>>,
}

/// Binds and serves `config` on a background thread. The socket is bound
/// before this returns, so a client may connect immediately.
///
/// # Errors
///
/// Binding failures ([`Daemon::bind`]).
pub fn spawn(config: DaemonConfig) -> io::Result<RunningDaemon> {
    let daemon = Daemon::bind(config)?;
    let handle = daemon.handle();
    let socket = daemon.socket().to_owned();
    let thread = std::thread::spawn(move || daemon.serve());
    Ok(RunningDaemon {
        socket,
        handle,
        thread: Some(thread),
    })
}

impl RunningDaemon {
    /// The socket the daemon is serving on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's remote control.
    pub fn handle(&self) -> &DaemonHandle {
        &self.handle
    }

    /// A fresh client connection (retried for up to 2 s).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn client(&self) -> io::Result<DaemonClient> {
        DaemonClient::connect_retry(&self.socket, Duration::from_secs(2))
    }

    /// Requests shutdown and waits for the serve loop to drain and exit.
    ///
    /// # Errors
    ///
    /// Serve-loop I/O failures, or a panic on the serve thread.
    pub fn shutdown(mut self) -> io::Result<CacheStats> {
        self.handle.request_shutdown();
        let thread = self.thread.take().expect("shutdown consumes the thread");
        thread
            .join()
            .map_err(|_| io::Error::other("daemon serve thread panicked"))?
    }
}

impl Drop for RunningDaemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.request_shutdown();
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_ok(client: &mut DaemonClient) {
        let result = client.call("ping", Vec::new()).expect("ping succeeds");
        assert_eq!(
            result.get("protocol").and_then(JsonValue::as_f64),
            Some(PROTOCOL_VERSION as f64)
        );
        assert_eq!(
            result.get("pid").and_then(JsonValue::as_f64),
            Some(std::process::id() as f64)
        );
    }

    #[test]
    fn ping_metrics_and_id_echo_round_trip() {
        let mut config = DaemonConfig::scratch("ping");
        config.cache_dir = None;
        let daemon = spawn(config).expect("daemon binds");
        let mut client = daemon.client().expect("client connects");
        ping_ok(&mut client);
        // id is echoed verbatim, response field order is fixed.
        let line = client
            .request_line(r#"{"v":1,"id":7,"cmd":"ping"}"#)
            .expect("raw round trip");
        assert!(
            line.starts_with(r#"{"v":1,"id":7,"ok":true,"result":"#),
            "got {line}"
        );
        let metrics = client.call("metrics", Vec::new()).expect("metrics");
        let text = metrics.get("output").and_then(JsonValue::as_str).unwrap();
        assert!(text.contains("daemon_requests_total"), "got:\n{text}");
        assert!(text.contains("harness_threads"), "got:\n{text}");
        let stats = daemon.shutdown().expect("clean shutdown");
        assert_eq!(stats, CacheStats::default());
    }

    #[test]
    fn malformed_requests_get_structured_errors_and_the_connection_survives() {
        let mut config = DaemonConfig::scratch("proto");
        config.cache_dir = None;
        let daemon = spawn(config).expect("daemon binds");
        let mut client = daemon.client().expect("client connects");
        for (raw, want) in [
            ("not json at all", "not valid JSON"),
            ("[1,2,3]", "must be a JSON object"),
            (r#"{"cmd":"ping"}"#, "missing numeric \"v\""),
            (r#"{"v":2,"cmd":"ping"}"#, "unsupported protocol version"),
            (r#"{"v":1}"#, "missing string \"cmd\""),
            (r#"{"v":1,"cmd":"fly"}"#, "unknown cmd"),
            (r#"{"v":1,"cmd":"run-cell"}"#, "requires an \"app\""),
            (
                r#"{"v":1,"cmd":"run-cell","app":"Torch","seed":-1}"#,
                "non-negative integer",
            ),
        ] {
            let line = client.request_line(raw).expect("error response arrives");
            let resp = JsonValue::parse(&line).expect("response parses");
            assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)), "for {raw}");
            let error = resp.get("error").and_then(JsonValue::as_str).unwrap();
            assert!(error.contains(want), "for {raw}: got {error:?}");
            // The connection is still usable after every error.
            ping_ok(&mut client);
        }
        daemon.shutdown().expect("clean shutdown");
    }

    #[test]
    fn oversized_request_is_rejected_and_connection_closed() {
        let mut config = DaemonConfig::scratch("big");
        config.cache_dir = None;
        let daemon = spawn(config).expect("daemon binds");
        // Just over the cap, and far past it: the daemon answers and closes
        // while the client is still writing, so the reply must win over the
        // broken pipe.
        for pad in [MAX_REQUEST_BYTES, 4 << 20] {
            let mut client = daemon.client().expect("client connects");
            let huge = format!(r#"{{"v":1,"cmd":"ping","pad":"{}"}}"#, "x".repeat(pad));
            let line = client.request_line(&huge).expect("error response arrives");
            assert!(
                line.contains(&format!("request exceeds {MAX_REQUEST_BYTES} bytes")),
                "got {line}"
            );
            // The daemon dropped this connection.
            assert!(client.request_line(r#"{"v":1,"cmd":"ping"}"#).is_err());
        }
        // A fresh connection still works.
        let mut fresh = daemon.client().expect("fresh client connects");
        ping_ok(&mut fresh);
        daemon.shutdown().expect("clean shutdown");
    }

    #[test]
    fn run_cell_serves_and_remembers_byte_identical_summaries() {
        let daemon = spawn(DaemonConfig::scratch("cell")).expect("daemon binds");
        let mut client = daemon.client().expect("client connects");
        let fields = || {
            vec![
                ("app".to_owned(), JsonValue::Str("Torch".into())),
                ("minutes".to_owned(), JsonValue::Num(2.0)),
            ]
        };
        let cold = client.call("run-cell", fields()).expect("cold cell runs");
        let warm = client.call("run-cell", fields()).expect("warm cell hits");
        assert_eq!(cold.to_json(), warm.to_json(), "cold and warm bytes agree");
        // The daemon result is byte-identical to the one-shot path.
        let reference = CellRequest {
            app: "Torch".into(),
            policy: PolicyKind::LeaseOs,
            seed: 42,
            arm: FaultArm::Control,
            minutes: 2,
            mean_secs: 300,
            cold_restart: false,
        }
        .outcome()
        .expect("reference runs")
        .summary_json();
        assert_eq!(cold.to_json(), reference.to_json());
        assert_eq!(
            cold.get("label").and_then(JsonValue::as_str),
            Some("Torch/leaseos/control/42")
        );
        let registry = daemon.handle().registry();
        let snapshot = registry.render_prometheus();
        assert!(
            snapshot.contains("daemon_cell_executions_total 1"),
            "exactly one execution:\n{snapshot}"
        );
        assert!(
            snapshot.contains("daemon_cell_mem_hits_total 1"),
            "warm repeat was a mem hit:\n{snapshot}"
        );
        let stats = daemon.shutdown().expect("clean shutdown");
        assert_eq!(stats.stores, 1, "the cold cell was persisted");
    }

    #[test]
    fn second_daemon_on_same_cache_dir_loads_from_disk_without_executing() {
        let config = DaemonConfig::scratch("disk");
        let cache_dir = config.cache_dir.clone().unwrap();
        let socket_a = config.socket.clone();
        let fields = vec![
            ("app".to_owned(), JsonValue::Str("Torch".into())),
            ("minutes".to_owned(), JsonValue::Num(2.0)),
        ];
        let daemon_a = spawn(config).expect("daemon A binds");
        let first = daemon_a
            .client()
            .expect("client connects")
            .call("run-cell", fields.clone())
            .expect("cold cell runs");
        daemon_a.shutdown().expect("clean shutdown");
        assert!(!socket_a.exists(), "socket removed on shutdown");

        let mut config_b = DaemonConfig::scratch("disk");
        config_b.cache_dir = Some(cache_dir);
        let daemon_b = spawn(config_b).expect("daemon B binds");
        let second = daemon_b
            .client()
            .expect("client connects")
            .call("run-cell", fields)
            .expect("warm cell loads");
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "disk replay is identical"
        );
        let snapshot = daemon_b.handle().registry().render_prometheus();
        assert!(
            snapshot.contains("daemon_cell_executions_total 0"),
            "no re-execution:\n{snapshot}"
        );
        assert!(
            snapshot.contains("daemon_cell_disk_loads_total 1"),
            "served from disk:\n{snapshot}"
        );
        let stats = daemon_b.shutdown().expect("clean shutdown");
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 0),
            "warm run misses nothing"
        );
    }

    #[test]
    fn stale_socket_is_replaced_and_live_socket_is_refused() {
        let config = DaemonConfig::scratch("stale");
        // Plant a stale socket file nothing is listening on.
        drop(UnixListener::bind(&config.socket).expect("plant stale socket"));
        assert!(config.socket.exists());
        let daemon = spawn(config.clone()).expect("stale socket is replaced");
        let mut client = daemon.client().expect("client connects");
        ping_ok(&mut client);
        // A second daemon on the same live socket must refuse to start.
        let err = match Daemon::bind(config) {
            Ok(_) => panic!("live socket must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        daemon.shutdown().expect("clean shutdown");
    }
}
