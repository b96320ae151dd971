//! `serve_mix`: an in-process `dante-serve` under a closed loop of two
//! keep-alive clients.
//!
//! * The bulk client sends cold MNIST-FC `/v1/sweep` requests (distinct
//!   seeds, a 3-point grid around the knee) and re-requests earlier ones.
//! * The interactive client sends cold toy `/v1/iso-accuracy` solves and
//!   re-requests from its working set, which outgrows the LRU tier, so some
//!   hits are served from the disk tier.
//!
//! This is the only workload where HTTP, the job queue, the cache tiers and
//! response rendering do a measurable share of the work. Both request
//! schedules are fixed by the seed and `--seconds`, so request and cache
//! counts repeat exactly.

use crate::report::{median, percentile, Outcome};
use crate::trace::{self, Tracer};
use crate::Config;
use dante_serve::jobs::JobSpec;
use dante_serve::{api, digest, DiskStore, ResultCache, ServerConfig, TieredCache};
use dante_sim::derive_seed;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LRU entries: far fewer than the interactive working set.
const LRU_CAPACITY: usize = 16;
/// Monte-Carlo trials per cold bulk sweep (about 0.5 s on the reference box).
const BULK_TRIALS: usize = 150;
/// Re-requests the interactive client sends after each cold solve.
const HITS_PER_COLD: usize = 10;
/// Cold bulk sweeps and cold interactive solves per second of `--seconds`.
/// The interactive schedule takes about a quarter of the bulk one on the
/// reference box, so the bulk client sets the schedule's wall clock: the
/// interactive rate swings with scheduler latency on a shared box, and
/// gating on it would gate on the box.
const BULK_PER_S: f64 = 1.0;
const ISO_PER_S: f64 = 20.0;
/// Boots timed for `setup_s`.
const SETUP_SAMPLES: usize = 25;
/// The interactive client reads `/metrics` every this many requests in the
/// traced run.
const METRICS_EVERY: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Bulk,
    Interactive,
}

/// One scheduled request: its class and the index of its spec.
#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    key: usize,
}

/// The seeded request schedule of one run.
#[derive(Debug)]
struct Plan {
    bulk_bodies: Vec<String>,
    iso_queries: Vec<String>,
    bulk: Vec<Req>,
    interactive: Vec<Req>,
}

impl Plan {
    fn new(config: &Config) -> Self {
        let root = config.unit_seed(0);
        let n_bulk = ((config.seconds as f64 * BULK_PER_S).round() as usize).max(2);
        let n_iso = ((config.seconds as f64 * ISO_PER_S).round() as usize).max(100);
        // Seeds stay below 2^53 so they survive the JSON number round trip.
        let seed = |site: u64, i: usize| derive_seed(root, site, i as u64) >> 11;
        let pick =
            |site: u64, i: usize, n: usize| (derive_seed(root, site, i as u64) % n as u64) as usize;
        let bulk_bodies = (0..n_bulk)
            .map(|i| {
                format!(
                    "{{\"seed\": {}, \"voltages_mv\": [460, 480, 500], \"trials\": {BULK_TRIALS}, \"network\": \"mnist_fc\"}}",
                    seed(1, i)
                )
            })
            .collect();
        let iso_queries = (0..n_iso).map(|j| format!("seed={}", seed(2, j))).collect();
        let mut bulk = Vec::new();
        for i in 0..n_bulk {
            bulk.push(Req {
                kind: Kind::Bulk,
                key: i,
            });
            bulk.push(Req {
                kind: Kind::Bulk,
                key: pick(3, i, i + 1),
            });
        }
        let mut interactive = Vec::new();
        for j in 0..n_iso {
            interactive.push(Req {
                kind: Kind::Interactive,
                key: j,
            });
            for r in 0..HITS_PER_COLD {
                let draw = j * HITS_PER_COLD + r;
                // Half from the recent few (LRU-resident), half from the
                // whole working set (mostly on disk).
                let key = if r % 2 == 0 {
                    j.saturating_sub(pick(4, draw, 8))
                } else {
                    pick(5, draw, j + 1)
                };
                interactive.push(Req {
                    kind: Kind::Interactive,
                    key,
                });
            }
        }
        Self {
            bulk_bodies,
            iso_queries,
            bulk,
            interactive,
        }
    }

    fn request(&self, req: Req) -> String {
        match req.kind {
            Kind::Bulk => {
                let body = &self.bulk_bodies[req.key];
                format!(
                    "POST /v1/sweep HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            }
            Kind::Interactive => format!(
                "GET /v1/iso-accuracy?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
                self.iso_queries[req.key]
            ),
        }
    }

    /// The client schedules: one per client, at most one client per core.
    fn clients(&self) -> Vec<Vec<Req>> {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if nproc >= 2 {
            return vec![self.bulk.clone(), self.interactive.clone()];
        }
        vec![self.merged()]
    }

    /// Both schedules interleaved in proportion: the order the cache replay
    /// walks, and the single client's order on a one-core box.
    fn merged(&self) -> Vec<Req> {
        let (nb, ni) = (self.bulk.len(), self.interactive.len());
        let mut out = Vec::with_capacity(nb + ni);
        let (mut b, mut i) = (0, 0);
        while b < nb || i < ni {
            if i >= ni || (b < nb && b * ni <= i * nb) {
                out.push(self.bulk[b]);
                b += 1;
            } else {
                out.push(self.interactive[i]);
                i += 1;
            }
        }
        out
    }
}

/// A parsed response.
#[derive(Debug)]
struct Response {
    status: u16,
    cache_hit: bool,
    body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 client on one connection.
#[derive(Debug)]
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// Sends `request` and reads the response. A reused connection the
    /// server has already closed is reopened once.
    fn send(&mut self, request: &str) -> std::io::Result<Response> {
        let reused = self.conn.is_some();
        match self.try_send(request) {
            Err(_) if reused => {
                self.conn = None;
                self.try_send(request)
            }
            other => other,
        }
    }

    fn try_send(&mut self, request: &str) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        conn.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            self.conn = None;
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let (mut length, mut cache_hit, mut close) = (0usize, false, false);
        loop {
            line.clear();
            conn.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = value.parse().map_err(std::io::Error::other)?;
                    }
                    "x-dante-cache" => cache_hit = value == "hit",
                    "connection" => close = value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok(Response {
            status,
            cache_hit,
            body,
        })
    }

    fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send(&format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
    }
}

/// One completed request as the client saw it.
#[derive(Debug)]
struct Record {
    req: Req,
    cold: bool,
    status: u16,
    ok: bool,
    cache_hit: bool,
    latency: f64,
}

/// One live run against a fresh server.
#[derive(Debug, Default)]
struct Live {
    records: Vec<Record>,
    /// Cold bodies by request class and spec index.
    bodies: HashMap<(Kind, usize), Vec<u8>>,
    /// Hits whose body differed from the cold body.
    mismatched: usize,
    wall: f64,
    /// Each client's own time to finish its schedule.
    client_walls: Vec<f64>,
    boot: f64,
    queue_bulk: Vec<f64>,
    queue_interactive: Vec<f64>,
    rejected: f64,
}

fn fresh_dir(config: &Config, tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    config
        .state_dir
        .join(format!("serve-data/{tag}-{}-{nanos}", std::process::id()))
}

/// Starts a server on a fresh data dir; returns it with its boot time
/// (start until the first `/healthz` 200).
fn boot(config: &Config, tag: &str) -> (dante_serve::ServerHandle, PathBuf, f64) {
    let dir = fresh_dir(config, tag);
    let t0 = Instant::now();
    let handle = dante_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_capacity: LRU_CAPACITY,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("start dante-serve on an ephemeral port");
    let mut client = Client::new(handle.addr());
    while !matches!(client.get("/healthz"), Ok(r) if r.status == 200) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "dante-serve never became healthy"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (handle, dir, t0.elapsed().as_secs_f64())
}

fn stop(handle: dante_serve::ServerHandle, dir: &Path) {
    handle.shutdown();
    if !handle.join() {
        eprintln!("serve_mix: server connections still open after shutdown");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The value of a `/metrics` line.
fn gauge(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Drives both client schedules against a fresh server. With a tracer,
/// every request is a span and the interactive client samples `/metrics`.
fn live(config: &Config, plan: &Plan, tracer: Option<&Tracer>) -> Live {
    let (handle, dir, boot_s) = boot(config, "live");
    let addr = handle.addr();
    let t0 = Instant::now();
    let results: Vec<Live> = std::thread::scope(|scope| {
        let workers: Vec<_> = plan
            .clients()
            .into_iter()
            .map(|schedule| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Live::default();
                    let started = Instant::now();
                    for (n, req) in schedule.into_iter().enumerate() {
                        let span = tracer.map(|t| t.open("serve.request", None));
                        let sent = Instant::now();
                        let response = client.send(&plan.request(req));
                        let latency = sent.elapsed().as_secs_f64();
                        if let (Some(t), Some(id)) = (tracer, span) {
                            t.close(id);
                        }
                        let cold = !out.bodies.contains_key(&(req.kind, req.key));
                        let (status, cache_hit) = match response {
                            Ok(r) if (200..300).contains(&r.status) => {
                                if cold {
                                    out.bodies.insert((req.kind, req.key), r.body);
                                } else if out.bodies[&(req.kind, req.key)] != r.body {
                                    out.mismatched += 1;
                                }
                                (r.status, r.cache_hit)
                            }
                            Ok(r) => (r.status, false),
                            Err(_) => (0, false),
                        };
                        out.records.push(Record {
                            req,
                            cold,
                            status,
                            ok: (200..300).contains(&status),
                            cache_hit,
                            latency,
                        });
                        if tracer.is_some()
                            && req.kind == Kind::Interactive
                            && n % METRICS_EVERY == 0
                        {
                            if let Ok(m) = client.get("/metrics") {
                                let text = String::from_utf8_lossy(&m.body);
                                out.queue_bulk
                                    .push(gauge(&text, "dante_serve_queue_depth_bulk"));
                                out.queue_interactive
                                    .push(gauge(&text, "dante_serve_queue_depth_interactive"));
                            }
                        }
                    }
                    out.client_walls.push(started.elapsed().as_secs_f64());
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let rejected = Client::new(addr).get("/metrics").map_or(0.0, |m| {
        gauge(
            &String::from_utf8_lossy(&m.body),
            "dante_serve_jobs_rejected_total",
        )
    });
    stop(handle, &dir);
    let mut merged = Live {
        wall,
        boot: boot_s,
        rejected,
        ..Live::default()
    };
    for r in results {
        merged.records.extend(r.records);
        merged.bodies.extend(r.bodies);
        merged.mismatched += r.mismatched;
        merged.client_walls.extend(r.client_walls);
        merged.queue_bulk.extend(r.queue_bulk);
        merged.queue_interactive.extend(r.queue_interactive);
    }
    merged
}

/// Latencies of the records `pick` selects; a failed request counts as
/// missing every limit.
fn latencies(live: &Live, pick: impl Fn(&Record) -> bool) -> Vec<f64> {
    live.records
        .iter()
        .filter(|r| pick(r))
        .map(|r| if r.ok { r.latency } else { f64::INFINITY })
        .collect()
}

/// Per-class latency figures of one live run.
struct Figures {
    hits: Vec<f64>,
    interactive: Vec<f64>,
    bulk: Vec<f64>,
    req_per_s: f64,
}

fn figures(live: &Live) -> Figures {
    Figures {
        hits: latencies(live, |r| !r.cold),
        interactive: latencies(live, |r| r.cold && r.req.kind == Kind::Interactive),
        bulk: latencies(live, |r| r.cold && r.req.kind == Kind::Bulk),
        req_per_s: live.records.len() as f64 / live.wall,
    }
}

/// Checks every response of a live run: a 2xx status, hits byte-identical
/// to their cold body, and a cache header matching the schedule.
fn check_live(out: &mut Outcome, live: &Live, label: &str) {
    for r in &live.records {
        out.check(r.ok && r.cache_hit != r.cold, || {
            format!(
                "{label}: {:?} request {} (cold={}) failed or had the wrong cache outcome",
                r.req.kind, r.req.key, r.cold
            )
        });
    }
    out.check(live.mismatched == 0, || {
        format!(
            "{label}: {} hits differed from their cold body",
            live.mismatched
        )
    });
}

/// What the library computes for the same specs, with its timings.
#[derive(Debug, Default)]
struct Library {
    /// `api::decode_spec` on each bulk body.
    decode_s: Vec<f64>,
    /// `api::build_record` plus JSON text for each bulk result.
    render_s: Vec<f64>,
    /// Client latency minus library compute time, per class.
    overhead_bulk: Vec<f64>,
    overhead_interactive: Vec<f64>,
}

/// Recomputes every cold response through the library and compares bytes:
/// sweeps via `PreparedSweep::run` + `api::build_record`, solves via
/// `IsoAccuracySpec::solve` + `api::render_iso`. `between` runs after every
/// `every`-th check.
fn check_library(
    out: &mut Outcome,
    plan: &Plan,
    live: &Live,
    every: usize,
    mut between: impl FnMut(),
) -> Library {
    let mut lib = Library::default();
    let cold = live.records.iter().filter(|r| r.cold && r.ok);
    for (n, r) in cold.enumerate() {
        if n % every.max(1) == every.max(1) - 1 {
            between();
        }
        let (overhead, compute_s, body) = match r.req.kind {
            Kind::Bulk => {
                let t0 = Instant::now();
                let spec = api::decode_spec(plan.bulk_bodies[r.req.key].as_bytes())
                    .expect("the benchmark's sweep bodies decode");
                let t1 = Instant::now();
                let points = spec.prepare().run();
                let t2 = Instant::now();
                let body = api::build_record(&spec, &points).to_json_pretty();
                lib.decode_s.push((t1 - t0).as_secs_f64());
                lib.render_s.push(t2.elapsed().as_secs_f64());
                (&mut lib.overhead_bulk, (t2 - t1).as_secs_f64(), body)
            }
            Kind::Interactive => {
                let spec = api::decode_iso_query(&plan.iso_queries[r.req.key])
                    .expect("the benchmark's iso queries decode");
                let t1 = Instant::now();
                let result = spec.solve();
                let compute_s = t1.elapsed().as_secs_f64();
                (
                    &mut lib.overhead_interactive,
                    compute_s,
                    api::render_iso(&spec, &result),
                )
            }
        };
        overhead.push(r.latency - compute_s);
        let same = live.bodies.get(&(r.req.kind, r.req.key)) == Some(&body.into_bytes());
        out.check(same, || {
            format!(
                "{:?} request {}: the served body differs from the library's",
                r.req.kind, r.req.key
            )
        });
    }
    lib
}

/// The cache key the server files a request under.
fn cache_key(plan: &Plan, req: Req) -> String {
    let spec = match req.kind {
        Kind::Bulk => JobSpec::Sweep(
            api::decode_spec(plan.bulk_bodies[req.key].as_bytes()).expect("sweep body decodes"),
        ),
        Kind::Interactive => JobSpec::Iso(
            api::decode_iso_query(&plan.iso_queries[req.key]).expect("iso query decodes"),
        ),
    };
    digest(&spec.canonical_string())
}

/// Replays the workload's key stream through a `TieredCache` of the same
/// capacity on a fresh disk tier: `(get seconds, insert seconds, hits,
/// misses, disk hits)`. A mirror LRU of the same capacity, fed the same
/// operations, tells memory hits from disk hits.
fn replay_cache(config: &Config, plan: &Plan, live: &Live) -> (Vec<f64>, Vec<f64>, u64, u64, u64) {
    let dir = fresh_dir(config, "replay");
    let cache = TieredCache::new(
        LRU_CAPACITY,
        Some(DiskStore::open(&dir).expect("open the replay disk tier")),
    );
    let mirror = ResultCache::new(LRU_CAPACITY);
    let (mut gets, mut inserts) = (Vec::new(), Vec::new());
    let (mut hits, mut misses, mut disk_hits) = (0, 0, 0);
    let keys: HashMap<(Kind, usize), String> = live
        .bodies
        .keys()
        .map(|&(kind, key)| ((kind, key), cache_key(plan, Req { kind, key })))
        .collect();
    for req in plan.merged() {
        let (Some(key), Some(body)) = (
            keys.get(&(req.kind, req.key)),
            live.bodies.get(&(req.kind, req.key)),
        ) else {
            continue;
        };
        let t0 = Instant::now();
        let found = cache.get(key);
        gets.push(t0.elapsed().as_secs_f64());
        if let Some(found) = found {
            hits += 1;
            if mirror.get(key).is_none() {
                disk_hits += 1;
                mirror.insert(key.clone(), found);
            }
        } else {
            misses += 1;
            let body = Arc::new(String::from_utf8_lossy(body).into_owned());
            let t1 = Instant::now();
            cache.insert(key.clone(), body.clone());
            inserts.push(t1.elapsed().as_secs_f64());
            mirror.insert(key.clone(), body);
        }
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    (gets, inserts, hits, misses, disk_hits)
}

pub fn run(config: &Config, trace: bool) -> Outcome {
    // Untimed warm-up of the bulk requests' network.
    let _ = dante::artifacts::trained_mnist_fc(1200, 100, 4);
    let plan = Plan::new(config);
    if trace {
        return traced(config, &plan);
    }
    crate::report::reset_peak_rss();
    let mut out = Outcome::default();
    let live = live(config, &plan, None);
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    check_live(&mut out, &live, "serve_mix");
    // Further boots are spread over the library check, so the median
    // samples the box over the whole run rather than one moment of it.
    let mut boots = vec![live.boot];
    let cold = live.records.iter().filter(|r| r.cold && r.ok).count();
    check_library(&mut out, &plan, &live, cold / SETUP_SAMPLES, || {
        let (handle, dir, boot_s) = boot(config, "boot");
        stop(handle, &dir);
        boots.push(boot_s);
    });

    let f = figures(&live);
    out.set("setup_s", median(&boots));
    out.set("work_per_s", f.req_per_s);
    out.set("wall_s", median(&f.bulk));
    let ms = |x: f64| x * 1e3;
    out.note(format!(
        "hit_p50_ms = {:?} ms, hit_p99_ms = {:?} ms (n = {})",
        ms(median(&f.hits)),
        ms(percentile(&f.hits, 0.99)),
        f.hits.len()
    ));
    out.note(format!(
        "interactive_p50_ms = {:?} ms, interactive_p90_ms = {:?} ms (n = {} cold iso solves)",
        ms(median(&f.interactive)),
        ms(percentile(&f.interactive, 0.90)),
        f.interactive.len()
    ));
    out.note(format!(
        "bulk_p50_s = {:?} s (n = {} cold sweeps); serve_req_per_s = {:?} 1/s over {:?} s (clients {:?} s)",
        median(&f.bulk),
        f.bulk.len(),
        f.req_per_s,
        live.wall,
        live.client_walls
    ));
    out.note(format!(
        "setup_s = {:?} s (boot until the first /healthz 200, median of {})",
        median(&boots),
        boots.len()
    ));
    out
}

fn traced(config: &Config, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let (plain, with, overhead) = trace::abba(
        1,
        || live(config, plan, None),
        || {
            let tracer = Tracer::new();
            let start = tracer.now();
            let run = live(config, plan, Some(&tracer));
            let end = tracer.now();
            (run, tracer, start, end)
        },
    );
    for (k, run) in plain
        .iter()
        .chain(with.iter().map(|(run, ..)| run))
        .enumerate()
    {
        check_live(&mut out, run, &format!("serve_mix run {k}"));
        out.check(run.bodies == plain[0].bodies, || {
            format!("serve_mix: run {k} of the untraced/traced pairs differs from the first")
        });
    }
    let (traced, tracer, start, end) = &with[0];
    tracer.save(config, "serve_mix");
    let lib = check_library(&mut out, plan, traced, usize::MAX, || ());
    let (gets, inserts, hits, misses, disk_hits) = replay_cache(config, plan, traced);

    let f = figures(traced);
    let count =
        |pick: &dyn Fn(&Record) -> bool| traced.records.iter().filter(|r| pick(r)).count() as f64;
    let us = |x: f64| x * 1e6;
    let ms = |x: f64| x * 1e3;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    out.set("serve.api.decode_us", us(median(&lib.decode_s)));
    out.set("serve.api.render_ms", ms(median(&lib.render_s)));
    out.set("serve.cache.get_us", us(median(&gets)));
    out.set(
        "serve.cache.disk_hit_frac",
        disk_hits as f64 / hits.max(1) as f64,
    );
    out.set("serve.store.insert_us", us(median(&inserts)));
    out.set("serve.overhead_ms.bulk", ms(median(&lib.overhead_bulk)));
    out.set(
        "serve.overhead_ms.interactive",
        ms(median(&lib.overhead_interactive)),
    );
    out.set("serve.jobs.queue_depth.bulk", mean(&traced.queue_bulk));
    out.set(
        "serve.jobs.queue_depth.interactive",
        mean(&traced.queue_interactive),
    );
    out.set(
        "serve.hit_frac",
        count(&|r| r.cache_hit) / traced.records.len() as f64,
    );
    out.set("serve.rejected", traced.rejected);
    out.set("serve.hit_p50_ms", ms(median(&f.hits)));
    out.set("serve.hit_p99_ms", ms(percentile(&f.hits, 0.99)));
    out.set("serve.interactive_p50_ms", ms(median(&f.interactive)));
    out.set(
        "serve.interactive_p90_ms",
        ms(percentile(&f.interactive, 0.90)),
    );
    out.set("serve.bulk_p50_s", median(&f.bulk));
    out.set("serve.req_per_s", f.req_per_s);
    out.set("trace.overhead_frac", overhead);
    out.set(
        "trace.residual_frac",
        tracer.residual(&["serve.request"], *start, *end),
    );
    out.set("serve.requests.sent", traced.records.len() as f64);
    out.set("serve.requests.succeeded", count(&|r| r.ok));
    out.set("serve.requests.failed", count(&|r| !r.ok));
    out.set("serve.requests.rejected", count(&|r| r.status == 429));
    out.set("serve.cache.hit", hits as f64);
    out.set("serve.cache.miss", misses as f64);
    out.set("serve.cache.disk_hit", disk_hits as f64);
    out.set("serve.hit_n", f.hits.len() as f64);
    out.set("serve.interactive_n", f.interactive.len() as f64);
    out.set("serve.bulk_n", f.bulk.len() as f64);
    out.note(format!("traced live runs: overhead {overhead:?}"));
    out
}
