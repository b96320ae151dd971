//! The service itself: accept loop, worker pool, routing, and graceful
//! shutdown.

use crate::api;
use crate::cache::digest;
use crate::http::{self, configure_stream, read_request, ChunkedResponse, Request, RequestError};
use crate::jobs::{Job, JobQueue, JobRegistry, JobSpec, JobStatus, LaneWeights};
use crate::metrics::{Gauges, Metrics};
use crate::shard::{Coordinator, ShardWork};
use crate::store::{DiskStore, TieredCache};
use dante::fleet::FleetSpec;
use dante::sweep::{SweepPoint, SweepSpec};
use dante_bench::json::Value;
use dante_sim::{EventObserver, TrialEvent};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs; [`ServerConfig::from_env`] reads the
/// `DANTE_SERVE_*` environment variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address (`DANTE_SERVE_ADDR`, default `127.0.0.1:7878`; use
    /// port 0 for an ephemeral port).
    pub addr: String,
    /// Sweep worker threads (`DANTE_SERVE_WORKERS`). `0` is accepted and
    /// means "no workers": jobs queue but never run — useful only for
    /// tests that need a deterministically full queue.
    pub workers: usize,
    /// Bounded queue depth (`DANTE_SERVE_QUEUE`); beyond it submissions
    /// get 429 + `Retry-After`.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (`DANTE_SERVE_CACHE`).
    pub cache_capacity: usize,
    /// Request body cap in bytes (`DANTE_SERVE_MAX_BODY`); beyond it 413.
    pub max_body_bytes: usize,
    /// Per-read socket timeout for idle keep-alive connections.
    pub read_timeout: Duration,
    /// Directory for the persistent result cache (`DANTE_SERVE_DATA_DIR`;
    /// unset disables the disk tier — results then live only in memory).
    pub data_dir: Option<PathBuf>,
    /// Backend peers (`DANTE_SERVE_PEERS`, comma-separated `host:port`).
    /// Non-empty turns this node into a shard coordinator: sweep and
    /// fleet jobs fan out across the peers and merge byte-identically.
    pub peers: Vec<String>,
    /// Weighted-round-robin lane weights (`DANTE_SERVE_LANE_WEIGHTS`,
    /// `"<interactive>,<bulk>"`).
    pub lane_weights: LaneWeights,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 2,
            queue_depth: 32,
            cache_capacity: 64,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(5),
            data_dir: None,
            peers: Vec::new(),
            lane_weights: LaneWeights::default(),
        }
    }
}

impl ServerConfig {
    /// Reads the `DANTE_SERVE_*` variables, rejecting unparsable values
    /// (same strictness policy as `DANTE_THREADS`: a mistyped knob should
    /// fail startup, not silently fall back).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending variable.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Ok(addr) = std::env::var("DANTE_SERVE_ADDR") {
            cfg.addr = addr;
        }
        let parse = |key: &str, min: usize| -> Result<Option<usize>, String> {
            match std::env::var(key) {
                Ok(raw) => raw
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= min)
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be an integer >= {min}, got {raw:?}")),
                Err(_) => Ok(None),
            }
        };
        if let Some(n) = parse("DANTE_SERVE_WORKERS", 1)? {
            cfg.workers = n;
        }
        if let Some(n) = parse("DANTE_SERVE_QUEUE", 1)? {
            cfg.queue_depth = n;
        }
        if let Some(n) = parse("DANTE_SERVE_CACHE", 0)? {
            cfg.cache_capacity = n;
        }
        if let Some(n) = parse("DANTE_SERVE_MAX_BODY", 64)? {
            cfg.max_body_bytes = n;
        }
        if let Ok(raw) = std::env::var("DANTE_SERVE_DATA_DIR") {
            let trimmed = raw.trim();
            cfg.data_dir = (!trimmed.is_empty()).then(|| PathBuf::from(trimmed));
        }
        if let Ok(raw) = std::env::var("DANTE_SERVE_PEERS") {
            let mut peers = Vec::new();
            for token in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                if !token.contains(':') {
                    return Err(format!(
                        "DANTE_SERVE_PEERS entries must be host:port, got {token:?}"
                    ));
                }
                peers.push(token.to_owned());
            }
            cfg.peers = peers;
        }
        if let Ok(raw) = std::env::var("DANTE_SERVE_LANE_WEIGHTS") {
            cfg.lane_weights = LaneWeights::parse(&raw)
                .map_err(|why| format!("DANTE_SERVE_LANE_WEIGHTS: {why}"))?;
        }
        Ok(cfg)
    }
}

/// State shared by the accept loop, connection threads, and workers.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    registry: JobRegistry,
    queue: JobQueue,
    cache: TieredCache,
    metrics: Arc<Metrics>,
    coordinator: Option<Coordinator>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
}

/// A running server: bound address plus the shutdown/join controls.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves port 0 to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown: stop accepting, cancel queued jobs,
    /// wake every waiter. In-flight jobs run to completion; call
    /// [`Self::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Cancel everything still queued so synchronous submitters and
        // pollers see a terminal state instead of hanging.
        for job in self.shared.queue.drain() {
            job.set_status(
                JobStatus::Cancelled,
                None,
                Some("server shutting down".to_owned()),
            );
            self.shared
                .metrics
                .jobs_failed
                .fetch_add(1, Ordering::Relaxed);
            self.shared.registry.retire(&job);
        }
        self.shared.queue.notify_all();
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Waits for the accept loop, workers (draining their in-flight jobs),
    /// and open connections to finish. Returns `true` on a clean drain,
    /// `false` if connections were still open after a 10 s grace period.
    #[must_use]
    pub fn join(mut self) -> bool {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }
}

/// Binds and starts the service.
///
/// # Errors
///
/// Propagates bind failures and disk-cache open failures
/// (`DANTE_SERVE_DATA_DIR` pointing somewhere unusable should fail
/// startup, not silently serve without persistence).
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let disk = match &config.data_dir {
        Some(dir) => Some(DiskStore::open(dir)?),
        None => None,
    };
    let coordinator = (!config.peers.is_empty()).then(|| Coordinator::new(config.peers.clone()));
    let shared = Arc::new(Shared {
        queue: JobQueue::with_weights(config.queue_depth, config.lane_weights),
        cache: TieredCache::new(config.cache_capacity, disk),
        registry: JobRegistry::new(),
        metrics: Arc::new(Metrics::new()),
        coordinator,
        shutdown: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
        config,
    });

    let worker_threads = (0..shared.config.workers)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("dante-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = shared.clone();
    let accept_thread = std::thread::Builder::new()
        .name("dante-serve-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        worker_threads,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): drop it.
                    drop(stream);
                    return;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("dante-serve-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    // Spawn failure: undo the accounting and drop the
                    // connection rather than wedging the accept loop.
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs queued jobs until shutdown. Each job streams its progress into
/// the job's event log via the sim-layer [`EventObserver`] bridge.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop(&shared.shutdown) {
        job.set_status(JobStatus::Running, None, None);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(shared, &job)));
        match outcome {
            Ok(body) => {
                let body = Arc::new(body);
                shared.cache.insert(job.digest.clone(), body.clone());
                // Count before publishing the terminal status: a client
                // woken by set_status may scrape /metrics immediately and
                // must see its own completed job.
                shared.metrics.record_completion(&job.spec);
                job.push_event(format!(r#"{{"event":"done","job":"{}"}}"#, job.id), true);
                job.set_status(JobStatus::Done, Some(body), None);
            }
            Err(panic) => {
                let why = panic_message(&*panic, "worker panicked");
                job.push_event(api::error_body(&why), true);
                job.set_status(JobStatus::Failed, None, Some(why));
                shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.registry.retire(&job);
    }
}

/// The message a caught panic carried, or `fallback` for a non-string
/// payload.
fn panic_message(panic: &(dyn std::any::Any + Send), fallback: &str) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| fallback.to_owned())
}

/// Executes one job, bridging trial hooks into events: sweeps run point by
/// point, fleets run die by die (one trial per die). When this node is a
/// coordinator (`DANTE_SERVE_PEERS`), bulk sweep/fleet jobs fan out across
/// the peers instead — per-trial event streaming is replaced by a single
/// `shard_fanout` event, but the merged response body stays byte-identical
/// to a local run.
fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) -> String {
    // The coordinator, when this node has peers, with the fan-out
    // announced on the job's event stream.
    let coordinator = || {
        shared.coordinator.as_ref().inspect(|coordinator| {
            job.push_event(
                format!(
                    r#"{{"event":"shard_fanout","job":"{}","peers":{}}}"#,
                    job.id,
                    coordinator.peers().len()
                ),
                true,
            );
        })
    };
    match &job.spec {
        JobSpec::Sweep(spec) => {
            let results = match coordinator() {
                Some(coordinator) => coordinator.run_sweep(spec, &shared.metrics),
                None => run_sweep_points(spec, job),
            };
            api::build_record(spec, &results).to_json_pretty()
        }
        JobSpec::Fleet(spec) => {
            let result = match coordinator() {
                Some(coordinator) => coordinator.run_fleet(spec, &shared.metrics),
                None => spec.solve_observed(&EventObserver::new(|event| {
                    if let Some(line) = api::fleet_event_line(&event) {
                        let force = matches!(event, TrialEvent::BatchComplete { .. });
                        job.push_event(line, force);
                    }
                })),
            };
            api::build_fleet_record(spec, &result).to_json_pretty()
        }
        // Iso solves are interactive-lane work: always computed locally
        // (seconds, not minutes — fan-out overhead would dominate).
        JobSpec::Iso(spec) => api::render_iso(spec, &spec.solve()),
        // Retraining always runs locally: the training loop is inherently
        // sequential (each epoch reads the previous epoch's weights), so
        // there is no window to fan out.
        JobSpec::Retrain(spec) => {
            let hardened = spec.run_observed(&mut |event| {
                job.push_event(api::retrain_event_line(event), false);
            });
            api::render_retrain(spec, &hardened)
        }
    }
}

/// Runs a sweep locally, point by point, streaming each trial's events.
fn run_sweep_points(spec: &SweepSpec, job: &Job) -> Vec<SweepPoint> {
    let prep = spec.prepare();
    let mut results = Vec::with_capacity(prep.point_count());
    for point in 0..prep.point_count() {
        let mv = spec.voltages_mv[point];
        let observer = EventObserver::new(|event| {
            if let Some(line) = api::event_line(point, mv, &event) {
                // Annotations (one per point, carrying the point's
                // energy) bypass the event cap so clients always see
                // them even on sweeps whose trial chatter overflows
                // the buffer.
                let force = matches!(event, TrialEvent::Annotation { .. });
                job.push_event(line, force);
            }
        });
        results.push(prep.run_point_observed(point, &observer));
    }
    results
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    configure_stream(&stream, shared.config.read_timeout);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    // Bounded keep-alive: a single connection cannot monopolize a thread
    // forever.
    for _ in 0..1000 {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(request) => request,
            Err(RequestError::Closed) => return,
            Err(error) => {
                respond_request_error(&mut write_half, shared, &error);
                return;
            }
        };
        shared
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let sent = route(&mut Exchange {
            stream: &mut write_half,
            shared,
            request: &request,
            keep_alive: request.keep_alive && !shared.shutdown.load(Ordering::SeqCst),
        });
        shared
            .metrics
            .record_response(sent.status, started.elapsed());
        if !sent.keep_alive {
            return;
        }
    }
}

fn respond_request_error(stream: &mut TcpStream, shared: &Arc<Shared>, error: &RequestError) {
    let (status, message) = match error {
        RequestError::Closed => return,
        RequestError::Io(m) => (400, m.clone()),
        RequestError::BadRequest(m) => (400, m.clone()),
        RequestError::HeadTooLarge => (
            431,
            format!("request head exceeds {} bytes", http::MAX_HEAD_BYTES),
        ),
        RequestError::BodyTooLarge(cap) => (413, format!("request body exceeds {cap} bytes")),
        RequestError::LengthRequired => (411, "requests must carry Content-Length".to_owned()),
    };
    shared.metrics.record_response(status, Duration::ZERO);
    let _ = http::write_response(
        stream,
        status,
        "application/json",
        &[],
        api::error_body(&message).as_bytes(),
        false,
    );
}

/// One request being answered: the connection it arrived on, the server
/// state, the request, and whether the connection may stay open after
/// the reply.
struct Exchange<'a> {
    stream: &'a mut TcpStream,
    shared: &'a Shared,
    request: &'a Request,
    keep_alive: bool,
}

/// What a handler sent: the status the response counters record, and
/// whether the connection stays open for another request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    status: u16,
    keep_alive: bool,
}

impl Exchange<'_> {
    /// Writes a fixed-length response. A 503 means the server is going
    /// away, so it always closes the connection.
    fn reply(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(&str, String)],
        body: &[u8],
    ) -> Sent {
        let keep_alive = self.keep_alive && status != 503;
        let _ = http::write_response(self.stream, status, content_type, extra, body, keep_alive);
        Sent { status, keep_alive }
    }

    /// Writes a JSON response.
    fn json(&mut self, status: u16, extra: &[(&str, String)], body: &str) -> Sent {
        self.reply(status, "application/json", extra, body.as_bytes())
    }

    /// Writes the `{"error": ...}` body every failure reply carries.
    fn error(&mut self, status: u16, message: &str) -> Sent {
        self.json(status, &[], &api::error_body(message))
    }
}

/// A handler for one fixed endpoint.
type Handler = fn(&mut Exchange) -> Sent;

/// Turns a request into the work it asks for; `Err` names the bad field.
type Decoder = fn(&Request) -> Result<JobSpec, String>;

/// Every fixed endpoint as `(method, path, handler)`. [`route`] dispatches
/// through it, and answers 405 for a listed path under another method.
const ROUTES: &[(&str, &str, Handler)] = &[
    ("POST", "/v1/sweep", |x| {
        submit(x, |r| api::decode_spec(&r.body).map(JobSpec::Sweep))
    }),
    ("POST", "/v1/fleet", |x| {
        submit(x, |r| api::decode_fleet_spec(&r.body).map(JobSpec::Fleet))
    }),
    ("POST", "/v1/retrain", |x| {
        submit(x, |r| {
            api::decode_retrain_spec(&r.body).map(JobSpec::Retrain)
        })
    }),
    ("POST", SweepSpec::PATH, shard_leg::<SweepSpec>),
    ("POST", FleetSpec::PATH, shard_leg::<FleetSpec>),
    ("GET", "/v1/iso-accuracy", |x| submit(x, decode_iso)),
    ("GET", "/healthz", |x| {
        x.reply(200, "text/plain", &[], b"ok\n")
    }),
    ("GET", "/metrics", get_metrics),
];

/// Dispatches one request: the fixed [`ROUTES`], then the per-job views
/// under `/v1/jobs/`, then 405 or 404.
fn route(x: &mut Exchange) -> Sent {
    let request = x.request;
    let (method, path) = (request.method.as_str(), request.path.as_str());
    if let Some(&(.., handler)) = ROUTES.iter().find(|r| r.0 == method && r.1 == path) {
        return handler(x);
    }
    match path.strip_prefix("/v1/jobs/") {
        Some(rest) if method == "GET" => job_view(x, rest),
        _ if ROUTES.iter().any(|r| r.1 == path) => x.error(405, "method not allowed"),
        _ => x.error(404, &format!("no such endpoint {path:?}")),
    }
}

fn get_metrics(x: &mut Exchange) -> Sent {
    let shared = x.shared;
    let (hits, misses) = shared.cache.stats();
    let (queue_interactive, queue_bulk) = shared.queue.lane_depths();
    let disk = shared.cache.disk_stats();
    let body = shared.metrics.render(&Gauges {
        queue_depth: shared.queue.depth(),
        queue_interactive,
        queue_bulk,
        cache_hits: hits,
        cache_misses: misses,
        disk_segments: disk.segments,
        disk_bytes: disk.bytes,
        disk_records: disk.records,
        disk_compactions: disk.compactions,
    });
    x.reply(200, "text/plain", &[], body.as_bytes())
}

/// `GET /v1/iso-accuracy` carries its spec in the query string. `mode` is
/// submission transport (sync vs async ticket), not part of the solve, so
/// it is stripped before the strict spec decode.
fn decode_iso(request: &Request) -> Result<JobSpec, String> {
    let spec_query: String = request
        .query
        .split('&')
        .filter(|pair| {
            let key = pair.split_once('=').map_or(*pair, |(k, _)| k);
            !pair.is_empty() && key != "mode"
        })
        .collect::<Vec<_>>()
        .join("&");
    api::decode_iso_query(&spec_query).map(JobSpec::Iso)
}

/// The one submission path for every job kind: decode (400 names the bad
/// field), cache lookup, dedup against an identical in-flight job, enqueue
/// (429 on a full queue), then either a 202 ticket (`?mode=async`) or a
/// synchronous wait. Every kind shares the queue, worker pool and result
/// cache; the canonical strings' per-kind prefixes keep the cache-key
/// families disjoint. Iso solves ride the interactive lane, so they never
/// wait behind a bulk backlog.
fn submit(x: &mut Exchange, decode: Decoder) -> Sent {
    let spec = match decode(x.request) {
        Ok(spec) => spec,
        Err(why) => return x.error(400, &why),
    };
    let shared = x.shared;
    let key = digest(&spec.canonical_string());
    if let Some(body) = shared.cache.get(&key) {
        shared.metrics.record_cache_hit(spec.kind());
        let headers = [("X-Dante-Cache", "hit".to_owned()), ("X-Dante-Digest", key)];
        return x.json(200, &headers, &body);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return x.error(503, "server shutting down");
    }

    // Attach to an identical in-flight job if one exists; otherwise create
    // and enqueue. Identical concurrent submissions thus cost one
    // simulation, and — determinism — receive byte-identical bodies.
    let job = match shared.registry.active_for_digest(&key) {
        Some(job) => job,
        None => {
            let job = shared.registry.create(spec, key, x.request.client.clone());
            if shared.queue.try_push(job.clone()).is_err() {
                job.set_status(JobStatus::Cancelled, None, Some("queue full".to_owned()));
                shared.registry.retire(&job);
                shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                let body = api::error_body(&format!(
                    "queue full ({} waiting); retry shortly",
                    shared.config.queue_depth
                ));
                return x.json(429, &[("Retry-After", "1".to_owned())], &body);
            }
            job
        }
    };

    if x.request.query_param("mode") == Some("async") {
        let body = Value::Object(BTreeMap::from([
            ("job".to_owned(), Value::String(job.id.clone())),
            ("digest".to_owned(), Value::String(job.digest.clone())),
            (
                "status".to_owned(),
                Value::String(job.status().token().to_owned()),
            ),
        ]))
        .to_string_compact();
        return x.json(202, &[], &body);
    }

    match job.wait_terminal(&shared.shutdown) {
        JobStatus::Done => {
            let state = job.state.lock().expect("job lock poisoned");
            let body = state.result.clone().expect("done job carries a result");
            drop(state);
            let headers = [
                ("X-Dante-Cache", "miss".to_owned()),
                ("X-Dante-Digest", job.digest.clone()),
            ];
            x.json(200, &headers, &body)
        }
        JobStatus::Failed => {
            let state = job.state.lock().expect("job lock poisoned");
            let why = state
                .error
                .clone()
                .unwrap_or_else(|| "sweep failed".to_owned());
            drop(state);
            x.error(500, &why)
        }
        _ => x.error(503, "cancelled by shutdown"),
    }
}

/// `POST /v1/shard/{sweep,fleet}`: a coordinator's fan-out leg. Runs the
/// request's window synchronously in the connection thread and returns
/// the raw per-trial (or per-die) results as exact bit patterns —
/// internal plumbing, deliberately uncached and unqueued (the coordinator
/// owns caching and scheduling for the whole job).
fn shard_leg<W: ShardWork>(x: &mut Exchange) -> Sent {
    let (spec, offset, count) = match W::decode_request(&x.request.body) {
        Ok(parts) => parts,
        Err(why) => return x.error(400, &why),
    };
    if x.shared.shutdown.load(Ordering::SeqCst) {
        return x.error(503, "server shutting down");
    }
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        W::encode_window(&spec.window_runner()(offset, count))
    }));
    match computed {
        Ok(body) => x.json(200, &[], &body),
        Err(panic) => x.error(500, &panic_message(&*panic, "shard window panicked")),
    }
}

/// `GET /v1/jobs/<id>`, `/v1/jobs/<id>/result` and `/v1/jobs/<id>/events`:
/// a job's status, its raw result, or its progress stream.
fn job_view(x: &mut Exchange, rest: &str) -> Sent {
    let (id, view) = match rest.rsplit_once('/') {
        Some((id, view @ ("events" | "result"))) => (id, view),
        _ => (rest, ""),
    };
    let Some(job) = x.shared.registry.get(id) else {
        return x.error(404, &format!("no such job {id:?}"));
    };
    match view {
        "events" => stream_job_events(x, &job),
        "result" => job_result(x, &job),
        _ => job_status(x, &job),
    }
}

fn job_status(x: &mut Exchange, job: &Job) -> Sent {
    let state = job.state.lock().expect("job lock poisoned");
    let mut obj = BTreeMap::from([
        ("id".to_owned(), Value::String(job.id.clone())),
        ("digest".to_owned(), Value::String(job.digest.clone())),
        (
            "status".to_owned(),
            Value::String(state.status.token().to_owned()),
        ),
        (
            "events".to_owned(),
            Value::Number(state.events.len() as f64),
        ),
        (
            "dropped_events".to_owned(),
            Value::Number(state.dropped_events as f64),
        ),
    ]);
    if let Some(seq) = state.finish_seq {
        // Process-wide completion order: lets clients (and the fairness
        // tests) observe which jobs finished first without timing races.
        obj.insert("finish_seq".to_owned(), Value::Number(seq as f64));
    }
    if let Some(result) = &state.result {
        // Embed the record as structure, not as an escaped string; the
        // byte-exact body lives at /result and in the POST response.
        if let Ok(parsed) = Value::parse(result) {
            obj.insert("result".to_owned(), parsed);
        }
    }
    if let Some(error) = &state.error {
        obj.insert("error".to_owned(), Value::String(error.clone()));
    }
    drop(state);
    x.json(200, &[], &Value::Object(obj).to_string_compact())
}

fn job_result(x: &mut Exchange, job: &Job) -> Sent {
    let state = job.state.lock().expect("job lock poisoned");
    let (result, status) = (state.result.clone(), state.status);
    drop(state);
    match result {
        Some(body) => x.json(200, &[("X-Dante-Digest", job.digest.clone())], &body),
        None => x.error(404, &format!("job is {}, no result", status.token())),
    }
}

/// Streams a job's progress events as one JSON line per chunk, replaying
/// history first and then following live until the job ends or the server
/// shuts down (which terminates the chunk stream cleanly with a final
/// `shutdown` event). A chunked stream always closes its connection.
fn stream_job_events(x: &mut Exchange, job: &Job) -> Sent {
    let streamed = Sent {
        status: 200,
        keep_alive: false,
    };
    let Ok(mut chunks) = ChunkedResponse::start(x.stream, 200, "application/x-ndjson") else {
        return streamed;
    };
    let mut cursor = 0usize;
    loop {
        // Snapshot new events under the lock, write them outside it.
        let (new_events, status) = {
            let state = job.state.lock().expect("job lock poisoned");
            (
                state.events[cursor.min(state.events.len())..].to_vec(),
                state.status,
            )
        };
        for event in &new_events {
            cursor += 1;
            let mut line = String::with_capacity(event.len() + 1);
            line.push_str(event);
            line.push('\n');
            if chunks.chunk(line.as_bytes()).is_err() {
                return streamed; // client went away
            }
        }
        if status.is_terminal() {
            let _ = chunks.chunk(
                format!("{{\"event\":\"end\",\"status\":\"{}\"}}\n", status.token()).as_bytes(),
            );
            break;
        }
        if x.shared.shutdown.load(Ordering::SeqCst) {
            let _ = chunks.chunk(b"{\"event\":\"shutdown\"}\n");
            break;
        }
        // Wait for more events (or a timeout tick to re-check shutdown).
        let state = job.state.lock().expect("job lock poisoned");
        if state.events.len() == cursor && !state.status.is_terminal() {
            let _ = job
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("job lock poisoned");
        }
    }
    let _ = chunks.finish();
    streamed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_rejects_garbage() {
        std::env::set_var("DANTE_SERVE_WORKERS", "lots");
        let err = ServerConfig::from_env().unwrap_err();
        assert!(err.contains("DANTE_SERVE_WORKERS"), "{err}");
        std::env::set_var("DANTE_SERVE_WORKERS", "0");
        assert!(ServerConfig::from_env().is_err(), "binary floor is 1");
        std::env::set_var("DANTE_SERVE_WORKERS", "3");
        std::env::set_var("DANTE_SERVE_QUEUE", "7");
        let cfg = ServerConfig::from_env().unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 7);
        std::env::remove_var("DANTE_SERVE_WORKERS");
        std::env::remove_var("DANTE_SERVE_QUEUE");
    }
}
