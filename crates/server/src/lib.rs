//! `reshuffle-server`: the long-running synthesis service the ROADMAP's
//! production story asks for — [`Pipeline`] behind a hand-rolled
//! HTTP/1.1 layer on [`std::net::TcpListener`].
//!
//! Four pillars:
//!
//! 1. **Crash-safe persistent cache** — every run goes through one
//!    shared [`SynthCache`]; with a configured
//!    [`cache path`](ServerConfig::with_cache_path) the cache is
//!    recovered at startup as `snapshot + journal replay`, every newly
//!    executed synthesis is appended to an fsync'd journal the moment
//!    it lands, and a clean shutdown compacts the journal into a fresh
//!    snapshot — so a `kill -9` at any point loses zero completed
//!    syntheses. A [`byte bound`](ServerConfig::with_cache_bytes),
//!    2 MiB by default, caps the entries' charged heap estimate with
//!    LRU eviction, so throughput never turns into unbounded memory.
//! 2. **Keep-alive connections** — one accepted socket serves many
//!    requests (HTTP/1.1 semantics: reuse unless `Connection: close`
//!    or HTTP/1.0), bounded by an
//!    [`idle deadline`](ServerConfig::with_idle_timeout) between
//!    requests and a
//!    [`max-requests-per-connection`](ServerConfig::with_max_requests_per_conn)
//!    cap. Each request is read under an *absolute* deadline across
//!    head and body, so a byte-trickling client gets a `408` instead
//!    of holding a worker.
//! 3. **Batching + single-flight dedup** — connections land on a
//!    bounded accept queue drained by a worker pool sized by
//!    [`ServerConfig::with_threads`]; when the queue is full the service
//!    sheds load with `503` instead of stalling. Concurrent requests
//!    for the same spec × options (the [`reshuffle::run_cache_key`])
//!    coalesce into one pipeline execution whose result every waiter
//!    shares, with a per-request timeout.
//! 4. **Ops surface** — `GET /stats` reports
//!    connection/request/coalescing/shed/write-failure counters, cache
//!    hit/entry/eviction/journal counters, and accumulated per-stage
//!    wall times as JSON; `GET /metrics` serves the same counters plus
//!    log-bucketed latency histograms (request service time,
//!    accept-queue wait, coalesced-follower wait, per-stage wall time)
//!    in Prometheus text exposition format. Every response echoes an
//!    `X-Trace-Id` header — derived per request from the run cache key
//!    plus a nonce, or propagated verbatim from a parseable client
//!    `X-Trace-Id` — and with a
//!    [`trace level`](ServerConfig::with_trace_level) above zero the
//!    request, its pipeline stages and (at level 2) each BFS level are
//!    emitted as JSON span lines sharing that id.
//!
//! For horizontal deployment the same binary also runs as a
//! **fingerprint-sharded router** in front of N of these backends —
//! see [`router`] — reusing the connection-serving engine, and
//! exposing the same endpoint surface.
//!
//! # Endpoints
//!
//! | Method | Path | Body | Response |
//! |---|---|---|---|
//! | `POST` | `/synthesize` | `{"g": "<.g text>", "options": {…}}` | `{"cache_hit": b, "coalesced": b, "result": {…}}` |
//! | `GET`  | `/stats` | — | counters + stage timings |
//! | `GET`  | `/metrics` | — | Prometheus text exposition (0.0.4) |
//! | `GET`  | `/healthz` | — | `ok` |
//! | `POST` | `/shutdown` | — | `ok`, then the server drains and exits |
//!
//! `options` mirrors [`PipelineOptions`]: `"style"`
//! (`"complex-gate"`/`"gc"`), `"expand"`/`"reduce"` (`true`, an options
//! object, or `null`), `"csc"` (`{"max_signals", "rank_pool"}`) and
//! `"skip_verify"`. Malformed requests get `400`, a lapsed read
//! deadline `408`, oversized bodies `413`, pipeline failures `422`,
//! shed load `503`, and a coalesced wait past the timeout `504`.

#![warn(missing_docs)]

pub mod client;
mod engine;
mod flight;
mod http;
pub mod router;
pub mod shard;

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reshuffle::{
    run_cache_key, CscOptions, ExpansionOptions, FileStore, ImplStyle, Pipeline, PipelineOptions,
    ReduceOptions, Stage, SynthCache,
};
use reshuffle_bench::json::{self, Json};
use reshuffle_obs::{FieldVal, HistSnapshot, Histogram, PromWriter, Tracer};
use reshuffle_petri::parse_g;

use engine::{error_body, Engine, EngineConfig, EngineState, Response, Service};

pub use client::{ClientConn, ClientResponse};
pub use flight::{FlightResult, Follower, Join, LeaderGuard, SingleFlight};
pub use http::{write_response_with, Conn, HttpError, Request};
pub use reshuffle_obs::{RingSink, SinkHandle, TraceId};
pub use router::{Router, RouterConfig};

/// The default [`ServerConfig::cache_bytes`].
const DEFAULT_CACHE_BYTES: usize = 2 << 20;

/// How the service binds, pools, bounds and persists.
///
/// `#[non_exhaustive]`: build it with [`ServerConfig::new`] and the
/// `with_*` setters.
///
/// # Worked example
///
/// Bind to an ephemeral port, answer a health check, shut down:
///
/// ```
/// use reshuffle_server::{Server, ServerConfig};
/// use std::io::{Read, Write};
///
/// # fn main() -> std::io::Result<()> {
/// let cfg = ServerConfig::new()
///     .with_addr("127.0.0.1:0")
///     .with_threads(2)
///     .with_cache_bytes(Some(1 << 20));
/// let server = Server::start(cfg)?;
///
/// let mut conn = std::net::TcpStream::connect(server.addr())?;
/// conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")?;
/// let mut response = String::new();
/// conn.read_to_string(&mut response)?;
/// assert!(response.starts_with("HTTP/1.1 200"), "{response}");
///
/// server.stop()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` by default — an ephemeral port).
    pub addr: String,
    /// Worker threads; `0` (the default) resolves to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Accepted connections queued ahead of the workers; one more and
    /// the service sheds with `503`.
    pub queue_depth: usize,
    /// Per-request budget: the absolute deadline for reading one
    /// request (head + body — a trickling client gets `408`) and the
    /// wait bound for coalesced followers.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (`Connection: close` on the last response).
    pub max_requests_per_conn: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// LRU bound on the synthesis cache's charged bytes, an estimate
    /// of the entries' heap footprint (`None` = unbounded; 2 MiB by
    /// default).
    pub cache_bytes: Option<usize>,
    /// Snapshot file the cache is loaded from at startup and saved to
    /// at shutdown (`None` = in-memory only).
    pub cache_path: Option<PathBuf>,
    /// This backend's shard index in a sharded deployment, reported in
    /// `GET /stats` so a rollup can attribute numbers to backends
    /// (`None` = standalone).
    pub shard_id: Option<u64>,
    /// Trace verbosity: `0` disables tracing (one relaxed atomic load
    /// per would-be span), `1` traces requests and pipeline stages,
    /// `2` additionally traces each BFS level. Defaults to the
    /// `RESHUFFLE_TRACE` environment variable, or `0`.
    pub trace_level: u8,
    /// Where span JSON lines go when tracing is on (`None` = stderr).
    pub trace_sink: Option<SinkHandle>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 128,
            max_body_bytes: 1024 * 1024,
            cache_bytes: Some(DEFAULT_CACHE_BYTES),
            cache_path: None,
            shard_id: None,
            trace_level: std::env::var("RESHUFFLE_TRACE")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
            trace_sink: None,
        }
    }
}

impl ServerConfig {
    /// The default configuration (ephemeral localhost port, pool sized
    /// by available parallelism, 64-deep queue, 30 s request timeout,
    /// 5 s keep-alive idle deadline, 128 requests per connection,
    /// 1 MiB bodies, in-memory cache bounded at 2 MiB).
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-pool size (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> ServerConfig {
        self.threads = threads;
        self
    }

    /// Sets the accept-queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> ServerConfig {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-request timeout.
    pub fn with_request_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.request_timeout = timeout;
        self
    }

    /// Sets the keep-alive idle deadline between requests.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the per-connection request cap (min 1).
    pub fn with_max_requests_per_conn(mut self, max: usize) -> ServerConfig {
        self.max_requests_per_conn = max.max(1);
        self
    }

    /// Sets the request-body limit.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> ServerConfig {
        self.max_body_bytes = bytes;
        self
    }

    /// Bounds the synthesis cache's charged bytes (`None` =
    /// unbounded); see [`SynthCache::bytes`] for what is charged.
    /// [`Server::start`] rejects `Some(0)`.
    pub fn with_cache_bytes(mut self, bytes: Option<usize>) -> ServerConfig {
        self.cache_bytes = bytes;
        self
    }

    /// Persists the cache to `path` across restarts.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> ServerConfig {
        self.cache_path = Some(path.into());
        self
    }

    /// Reports this backend as shard `id` in `GET /stats`.
    pub fn with_shard_id(mut self, id: u64) -> ServerConfig {
        self.shard_id = Some(id);
        self
    }

    /// Sets the trace verbosity (`0` off, `1` requests + stages, `2`
    /// also BFS levels).
    pub fn with_trace_level(mut self, level: u8) -> ServerConfig {
        self.trace_level = level;
        self
    }

    /// Routes span JSON lines to `sink` instead of stderr.
    pub fn with_trace_sink(mut self, sink: SinkHandle) -> ServerConfig {
        self.trace_sink = Some(sink);
        self
    }
}

/// Counters owned by the synthesis service (the transport counters —
/// connections, requests, shed, timeouts on the read path — live in
/// the engine).
#[derive(Debug, Default)]
struct SynthStats {
    synth_requests: AtomicU64,
    executed: AtomicU64,
    coalesced: AtomicU64,
    timeouts: AtomicU64,
    /// Places removed by structural pre-reduction, summed over runs.
    prereduce_places: AtomicU64,
    /// Transitions removed by structural pre-reduction, summed over runs.
    prereduce_transitions: AtomicU64,
    /// Lattice restriction products served from the shared-prefix
    /// cache, summed over runs.
    lattice_prefix_hits: AtomicU64,
}

/// Number of reportable pipeline stages (the five real stages plus the
/// `cache_hit` pseudo-stage).
const NUM_STAGES: usize = 6;

/// Accumulated wall time and run count per pipeline stage.
#[derive(Debug, Default)]
struct StageTotals {
    totals: Mutex<[(u64, Duration); NUM_STAGES]>,
}

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::Parse => 0,
        Stage::Expand => 1,
        Stage::Reduce => 2,
        Stage::Resolve => 3,
        Stage::Synthesize => 4,
        Stage::CacheHit => 5,
    }
}

const STAGE_NAMES: [&str; NUM_STAGES] = [
    "parse",
    "expand",
    "reduce",
    "resolve",
    "synthesize",
    "cache_hit",
];

/// `Ok(stable result JSON)` or `Err((status, error message))` — what a
/// flight leader publishes to its followers.
type SynthOutcome = Result<String, (u16, String)>;

/// The synthesis backend: everything above the transport — the cache,
/// the single-flight registry, the pipeline, and the ops surface.
struct SynthService {
    cfg: ServerConfig,
    engine: Arc<EngineState>,
    cache: SynthCache,
    flights: SingleFlight<SynthOutcome>,
    stats: SynthStats,
    stage_totals: StageTotals,
    /// Coalesced-follower wait on the in-flight leader's publication.
    flight_wait: Histogram,
    /// Per-stage pipeline wall time, indexed by [`stage_index`].
    stage_hists: [Histogram; NUM_STAGES],
    tracer: Tracer,
}

impl SynthService {
    fn accumulate_stages(&self, diag: &reshuffle::Diagnostics) {
        let mut totals = self.stage_totals.totals.lock().unwrap();
        for report in &diag.stages {
            let i = stage_index(report.stage);
            let slot = &mut totals[i];
            slot.0 += 1;
            slot.1 += report.wall;
            self.stage_hists[i].record(report.wall);
        }
        drop(totals);
        self.stats
            .prereduce_places
            .fetch_add(diag.prereduce_places_removed, Ordering::Relaxed);
        self.stats
            .prereduce_transitions
            .fetch_add(diag.prereduce_transitions_removed, Ordering::Relaxed);
        self.stats
            .lattice_prefix_hits
            .fetch_add(diag.lattice_prefix_hits, Ordering::Relaxed);
    }
}

/// Maps a request's `options` member onto [`PipelineOptions`] — the
/// same vocabulary as the builder setters. The router parses options
/// with this too, so its routing key agrees with the backend's cache
/// key.
pub(crate) fn options_from_json(spec: Option<&Json>) -> Result<PipelineOptions, String> {
    let mut opts = PipelineOptions::new();
    let Some(spec) = spec else {
        return Ok(opts);
    };
    let Json::Obj(members) = spec else {
        return Err("options must be an object".into());
    };
    for (key, value) in members {
        match key.as_str() {
            "style" => {
                opts = opts.with_style(match value.as_str() {
                    Some("complex-gate") => ImplStyle::ComplexGate,
                    Some("gc") => ImplStyle::GeneralizedC,
                    _ => return Err("style must be \"complex-gate\" or \"gc\"".into()),
                });
            }
            "expand" => match value {
                Json::Null | Json::Bool(false) => {}
                Json::Bool(true) => opts = opts.with_expand(ExpansionOptions::default()),
                Json::Obj(_) => {
                    let mut eopts = ExpansionOptions::default();
                    if let Some(n) = value.get("max_reshufflings") {
                        eopts.max_reshufflings = num_field(n, "expand.max_reshufflings")? as usize;
                    }
                    opts = opts.with_expand(eopts);
                }
                _ => return Err("expand must be a bool, an object, or null".into()),
            },
            "reduce" => match value {
                Json::Null | Json::Bool(false) => {}
                Json::Bool(true) => opts = opts.with_reduce(ReduceOptions::default()),
                Json::Obj(_) => {
                    let mut ropts = ReduceOptions::default();
                    if let Some(v) = value.get("max_cycle_time") {
                        ropts.max_cycle_time = match v {
                            Json::Null => None,
                            _ => Some(num_field(v, "reduce.max_cycle_time")?),
                        };
                    }
                    if let Some(v) = value.get("max_moves") {
                        ropts.max_moves = num_field(v, "reduce.max_moves")? as usize;
                    }
                    if let Some(v) = value.get("max_expansions") {
                        ropts.max_expansions = num_field(v, "reduce.max_expansions")? as usize;
                    }
                    if let Some(v) = value.get("input_delay") {
                        ropts.input_delay = num_field(v, "reduce.input_delay")?;
                    }
                    if let Some(v) = value.get("gate_delay") {
                        ropts.gate_delay = num_field(v, "reduce.gate_delay")?;
                    }
                    opts = opts.with_reduce(ropts);
                }
                _ => return Err("reduce must be a bool, an object, or null".into()),
            },
            "csc" => {
                let Json::Obj(_) = value else {
                    return Err("csc must be an object".into());
                };
                let mut copts = CscOptions::default();
                if let Some(v) = value.get("max_signals") {
                    copts.max_signals = num_field(v, "csc.max_signals")? as usize;
                }
                if let Some(v) = value.get("rank_pool") {
                    copts.rank_pool = num_field(v, "csc.rank_pool")? as usize;
                }
                opts = opts.with_csc(copts);
            }
            "skip_verify" => match value {
                Json::Bool(b) => opts = opts.with_skip_verify(*b),
                _ => return Err("skip_verify must be a bool".into()),
            },
            other => return Err(format!("unknown option: {other}")),
        }
    }
    Ok(opts)
}

fn num_field(value: &Json, what: &str) -> Result<f64, String> {
    value
        .as_num()
        .filter(|n| *n >= 0.0)
        .ok_or_else(|| format!("{what} must be a non-negative number"))
}

impl Service for SynthService {
    fn route(&self, request: &Request) -> Response {
        // Propagate a parseable client-supplied trace id; otherwise
        // derive one from a fresh nonce (`/synthesize` upgrades its
        // derived id to carry the run cache key once it has computed
        // one).
        let nonce = self.engine.req_seq.fetch_add(1, Ordering::Relaxed);
        let client = request.trace_id.as_deref().and_then(TraceId::parse);
        let trace = client.unwrap_or_else(|| TraceId::derive(0, nonce));
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/synthesize") => self.handle_synthesize(&request.body, client, nonce),
            ("GET", "/stats") => Response::json(200, self.render_stats(), trace),
            ("GET", "/metrics") => Response {
                status: 200,
                content_type: "text/plain; version=0.0.4".to_string(),
                body: self.render_metrics().into_bytes(),
                trace,
                headers: Vec::new(),
            },
            ("GET", "/healthz") => Response::json(200, Json::Str("ok".into()).render(), trace),
            ("POST", "/shutdown") => Response::json(200, Json::Str("ok".into()).render(), trace),
            (_, "/synthesize" | "/stats" | "/metrics" | "/healthz" | "/shutdown") => {
                self.engine
                    .stats
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                Response::json(
                    405,
                    error_body(&format!("{} not allowed here", request.method)),
                    trace,
                )
            }
            (_, path) => {
                self.engine
                    .stats
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                Response::json(404, error_body(&format!("no such endpoint: {path}")), trace)
            }
        }
    }
}

impl SynthService {
    fn handle_synthesize(
        &self,
        body: &[u8],
        client_trace: Option<TraceId>,
        nonce: u64,
    ) -> Response {
        self.stats.synth_requests.fetch_add(1, Ordering::Relaxed);
        let bad_request = || {
            self.engine
                .stats
                .bad_requests
                .fetch_add(1, Ordering::Relaxed);
        };
        // Until the cache key exists, errors answer under a nonce-only
        // id.
        let early = client_trace.unwrap_or_else(|| TraceId::derive(0, nonce));
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(json::parse);
        let request = match parsed {
            Ok(v) => v,
            Err(e) => {
                bad_request();
                return Response::json(400, error_body(&format!("bad JSON: {e}")), early);
            }
        };
        let Some(g) = request.get("g").and_then(Json::as_str) else {
            bad_request();
            return Response::json(400, error_body("missing string member \"g\""), early);
        };
        let opts = match options_from_json(request.get("options")) {
            Ok(opts) => opts,
            Err(e) => {
                bad_request();
                return Response::json(400, error_body(&e), early);
            }
        };
        let stg = match parse_g(g) {
            Ok(stg) => stg,
            Err(e) => return Response::json(422, error_body(&format!("parse: {e}")), early),
        };
        let key = run_cache_key(&stg, &opts);
        let trace = client_trace.unwrap_or_else(|| TraceId::derive(key, nonce));
        let root = self.tracer.root(trace);
        let sp = root.span("request");

        let (status, body, coalesced) = match self.flights.join(key) {
            Join::Leader(guard) => {
                let outcome = self.run_pipeline(key, &stg, &opts, sp.ctx());
                guard.publish(outcome.clone().map(|(stable, _)| stable));
                match outcome {
                    Ok((stable, cache_hit)) => {
                        (200, synth_response(cache_hit, false, &stable), false)
                    }
                    Err((status, msg)) => (status, error_body(&msg), false),
                }
            }
            Join::Follower(follower) => {
                let t_wait = Instant::now();
                let result = follower.wait(self.cfg.request_timeout);
                self.flight_wait.record(t_wait.elapsed());
                match result {
                    FlightResult::Done(Ok(stable)) => {
                        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                        (200, synth_response(false, true, &stable), true)
                    }
                    FlightResult::Done(Err((status, msg))) => {
                        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                        (status, error_body(&msg), true)
                    }
                    FlightResult::Abandoned => {
                        (500, error_body("in-flight synthesis failed"), true)
                    }
                    FlightResult::TimedOut => {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        (
                            504,
                            error_body("timed out waiting for in-flight synthesis"),
                            true,
                        )
                    }
                }
            }
        };
        sp.end(&[
            ("status", FieldVal::U64(u64::from(status))),
            ("coalesced", FieldVal::U64(u64::from(coalesced))),
        ]);
        Response::json(status, body, trace)
    }

    /// Runs the pipeline under the shared cache, returning the stable
    /// result JSON (identical for every coalesced waiter) plus whether
    /// the run was a cache hit.
    fn run_pipeline(
        &self,
        key: u64,
        stg: &reshuffle::Stg,
        opts: &PipelineOptions,
        span: reshuffle_obs::SpanCtx,
    ) -> Result<(String, bool), (u16, String)> {
        let done = Pipeline::from_stg(stg)
            .with_cache(&self.cache)
            .with_trace(span)
            .run(opts)
            .map_err(|e| (422u16, e.to_string()))?;
        let cache_hit = done.diagnostics().cache_hits == 1;
        if !cache_hit {
            self.stats.executed.fetch_add(1, Ordering::Relaxed);
        }
        // Hit runs report too: the `cache_hit` pseudo-stage keeps the
        // hit path's lookup cost visible in `/stats` and `/metrics`.
        self.accumulate_stages(done.diagnostics());
        let s = done.synthesis();
        let strings =
            |items: &[String]| Json::Arr(items.iter().map(|i| Json::Str(i.clone())).collect());
        let result = Json::obj(vec![
            ("key", Json::Str(format!("{key:#018x}"))),
            ("model", Json::Str(s.stg.name.clone())),
            (
                "signals",
                Json::Arr(
                    s.netlist
                        .signals()
                        .iter()
                        .map(|sig| Json::Str(sig.name.clone()))
                        .collect(),
                ),
            ),
            ("inserted", strings(&s.inserted)),
            (
                "moves",
                Json::Arr(s.move_labels().map(|l| Json::Str(l.to_string())).collect()),
            ),
            ("expansion", strings(&s.expansion)),
            ("netlist", Json::Str(s.netlist.describe())),
        ]);
        Ok((result.render(), cache_hit))
    }

    fn render_stats(&self) -> String {
        let totals = self.stage_totals.totals.lock().unwrap();
        let stages = Json::Arr(
            STAGE_NAMES
                .iter()
                .zip(totals.iter())
                .filter(|(_, (runs, _))| *runs > 0)
                .map(|(name, (runs, wall))| {
                    Json::obj(vec![
                        ("stage", Json::Str(name.to_string())),
                        ("runs", Json::Num(*runs as f64)),
                        ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
                    ])
                })
                .collect(),
        );
        drop(totals);
        let stat = |counter: &AtomicU64| Json::Num(counter.load(Ordering::Relaxed) as f64);
        let cache = &self.cache;
        let e = &self.engine.stats;
        Json::obj(vec![
            ("role", Json::Str("backend".to_string())),
            (
                "shard_id",
                self.cfg
                    .shard_id
                    .map_or(Json::Null, |id| Json::Num(id as f64)),
            ),
            (
                "uptime_ms",
                Json::Num(self.engine.started.elapsed().as_secs_f64() * 1e3),
            ),
            ("connections", stat(&e.connections)),
            ("requests", stat(&e.requests)),
            ("synth_requests", stat(&self.stats.synth_requests)),
            ("executed", stat(&self.stats.executed)),
            ("coalesced", stat(&self.stats.coalesced)),
            ("shed", stat(&e.shed)),
            ("timeouts", stat(&self.stats.timeouts)),
            ("request_timeouts", stat(&e.request_timeouts)),
            ("bad_requests", stat(&e.bad_requests)),
            ("write_errors", stat(&e.write_errors)),
            ("in_flight", Json::Num(self.flights.in_flight() as f64)),
            (
                "prereduce_places_removed",
                stat(&self.stats.prereduce_places),
            ),
            (
                "prereduce_transitions_removed",
                stat(&self.stats.prereduce_transitions),
            ),
            ("lattice_prefix_hits", stat(&self.stats.lattice_prefix_hits)),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::Num(cache.len() as f64)),
                    ("bytes", Json::Num(cache.bytes() as f64)),
                    (
                        "byte_bound",
                        cache
                            .byte_bound()
                            .map_or(Json::Null, |b| Json::Num(b as f64)),
                    ),
                    ("hits", Json::Num(cache.hits() as f64)),
                    ("misses", Json::Num(cache.misses() as f64)),
                    ("shared_hits", Json::Num(cache.shared_hits() as f64)),
                    ("evictions", Json::Num(cache.evictions() as f64)),
                    ("journal_appends", Json::Num(cache.journal_appends() as f64)),
                    ("journal_errors", Json::Num(cache.journal_errors() as f64)),
                ]),
            ),
            ("stages", stages),
        ])
        .render()
    }

    /// The `GET /metrics` document: every `/stats` counter as a
    /// Prometheus counter/gauge, plus the latency histograms
    /// (`_bucket`/`_sum`/`_count`, bounds in seconds).
    fn render_metrics(&self) -> String {
        let mut w = PromWriter::new();
        let stat = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let e = &self.engine.stats;
        w.counter(
            "reshuffle_connections_total",
            "Connections accepted.",
            stat(&e.connections),
        );
        w.counter(
            "reshuffle_requests_total",
            "HTTP requests parsed off connections.",
            stat(&e.requests),
        );
        w.counter(
            "reshuffle_synth_requests_total",
            "POST /synthesize requests.",
            stat(&self.stats.synth_requests),
        );
        w.counter(
            "reshuffle_synth_executed_total",
            "Synthesize runs that executed the pipeline (cache misses).",
            stat(&self.stats.executed),
        );
        w.counter(
            "reshuffle_synth_coalesced_total",
            "Synthesize requests served by another request's in-flight run.",
            stat(&self.stats.coalesced),
        );
        w.counter(
            "reshuffle_shed_total",
            "Connections shed with 503 at the accept queue.",
            stat(&e.shed),
        );
        w.counter(
            "reshuffle_follower_timeouts_total",
            "Coalesced waits that lapsed the request timeout (504).",
            stat(&self.stats.timeouts),
        );
        w.counter(
            "reshuffle_request_timeouts_total",
            "Requests that lapsed the read deadline (408).",
            stat(&e.request_timeouts),
        );
        w.counter(
            "reshuffle_bad_requests_total",
            "Malformed, oversized or unroutable requests.",
            stat(&e.bad_requests),
        );
        w.counter(
            "reshuffle_write_errors_total",
            "Responses that failed to write (client gone).",
            stat(&e.write_errors),
        );
        w.counter(
            "reshuffle_prereduce_places_removed_total",
            "Places removed by structural pre-reduction before state-graph builds.",
            stat(&self.stats.prereduce_places),
        );
        w.counter(
            "reshuffle_prereduce_transitions_removed_total",
            "Transitions removed by structural pre-reduction (series dummy merges).",
            stat(&self.stats.prereduce_transitions),
        );
        w.counter(
            "reshuffle_lattice_prefix_hits_total",
            "Lattice restriction products served from the shared-prefix cache.",
            stat(&self.stats.lattice_prefix_hits),
        );
        let cache = &self.cache;
        w.counter(
            "reshuffle_cache_hits_total",
            "Synthesis-cache hits.",
            cache.hits(),
        );
        w.counter(
            "reshuffle_cache_misses_total",
            "Synthesis-cache misses.",
            cache.misses(),
        );
        w.counter(
            "reshuffle_cache_shared_hits_total",
            "Expansion candidates served from the shared cache.",
            cache.shared_hits(),
        );
        w.counter(
            "reshuffle_cache_evictions_total",
            "LRU evictions from the bounded cache.",
            cache.evictions(),
        );
        w.counter(
            "reshuffle_cache_journal_appends_total",
            "Syntheses appended to the crash journal.",
            cache.journal_appends(),
        );
        w.counter(
            "reshuffle_cache_journal_errors_total",
            "Failed journal appends.",
            cache.journal_errors(),
        );
        w.gauge(
            "reshuffle_cache_entries",
            "Entries resident in the synthesis cache.",
            cache.len() as f64,
        );
        w.gauge(
            "reshuffle_cache_bytes",
            "Charged bytes (heap estimate) resident in the synthesis cache.",
            cache.bytes() as f64,
        );
        w.gauge(
            "reshuffle_in_flight",
            "Synthesize flights currently executing.",
            self.flights.in_flight() as f64,
        );
        if let Some(id) = self.cfg.shard_id {
            w.gauge(
                "reshuffle_shard_id",
                "This backend's shard index in the sharded deployment.",
                id as f64,
            );
        }
        w.gauge(
            "reshuffle_uptime_seconds",
            "Seconds since the server started.",
            self.engine.started.elapsed().as_secs_f64(),
        );
        w.histogram(
            "reshuffle_request_duration_seconds",
            "Request service time, request parsed to response written.",
            &self.engine.request_hist.snapshot(),
        );
        w.histogram(
            "reshuffle_queue_wait_seconds",
            "Accepted-connection wait from accept-queue enqueue to worker pickup.",
            &self.engine.queue_wait_hist.snapshot(),
        );
        w.histogram(
            "reshuffle_flight_wait_seconds",
            "Coalesced follower wait on the in-flight leader.",
            &self.flight_wait.snapshot(),
        );
        let snaps: Vec<HistSnapshot> = self.stage_hists.iter().map(Histogram::snapshot).collect();
        let labels: Vec<[(&str, &str); 1]> = STAGE_NAMES.iter().map(|n| [("stage", *n)]).collect();
        let series: Vec<(&[(&str, &str)], &HistSnapshot)> = labels
            .iter()
            .zip(snaps.iter())
            .map(|(l, snap)| (l.as_slice(), snap))
            .collect();
        w.histogram_family(
            "reshuffle_stage_duration_seconds",
            "Per-stage pipeline wall time (cache_hit is the hit path's lookup latency).",
            &series,
        );
        w.finish()
    }
}

fn synth_response(cache_hit: bool, coalesced: bool, stable: &str) -> String {
    // `stable` is the leader's already-rendered result object; splice
    // it in verbatim so every coalesced response carries an identical
    // payload.
    format!("{{\"cache_hit\":{cache_hit},\"coalesced\":{coalesced},\"result\":{stable}}}")
}

/// A running service: accept thread plus worker pool.
///
/// Start with [`Server::start`]; take the service down with
/// [`Server::stop`] (or let a client `POST /shutdown` and pair it with
/// [`Server::wait_for_shutdown`] + `stop`, the binary's lifecycle).
pub struct Server {
    svc: Arc<SynthService>,
    engine: Engine,
}

impl Server {
    /// Binds, recovers the cache (snapshot + journal replay, when a
    /// path is configured), arms the fsync'd journal so every executed
    /// synthesis is immediately crash-durable, and spawns the accept
    /// thread plus worker pool.
    ///
    /// # Errors
    ///
    /// Bind failures and unreadable/corrupt cache snapshots or
    /// journals (a torn final journal record — a crash mid-append —
    /// is recovered from, not an error).
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        if cfg.cache_bytes == Some(0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the cache byte bound must be at least 1",
            ));
        }
        let cache = match &cfg.cache_path {
            Some(path) => SynthCache::recover(&FileStore::new(path))?.cache,
            None => SynthCache::new(),
        };
        // Bound the recovered entries before journaling resumes.
        cache.set_byte_bound(cfg.cache_bytes);
        if let Some(path) = &cfg.cache_path {
            cache.attach_journal(Arc::new(FileStore::new(path)));
        }
        let tracer = Tracer::new(
            cfg.trace_level,
            cfg.trace_sink.clone().unwrap_or_else(SinkHandle::stderr),
        );
        let state = Arc::new(EngineState::new(EngineConfig {
            addr: cfg.addr.clone(),
            threads: cfg.threads,
            queue_depth: cfg.queue_depth,
            request_timeout: cfg.request_timeout,
            idle_timeout: cfg.idle_timeout,
            max_requests_per_conn: cfg.max_requests_per_conn,
            max_body_bytes: cfg.max_body_bytes,
            role: None,
        }));
        let svc = Arc::new(SynthService {
            cfg,
            engine: state.clone(),
            cache,
            flights: SingleFlight::new(),
            stats: SynthStats::default(),
            stage_totals: StageTotals::default(),
            flight_wait: Histogram::new(),
            stage_hists: std::array::from_fn(|_| Histogram::new()),
            tracer,
        });
        let engine = Engine::start(state, svc.clone())?;
        Ok(Server { svc, engine })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// The service's synthesis cache.
    pub fn cache(&self) -> &SynthCache {
        &self.svc.cache
    }

    /// Blocks until a client posts `/shutdown`.
    pub fn wait_for_shutdown(&self) {
        self.engine.wait_for_shutdown();
    }

    /// Stops accepting, drains the pool, and compacts the cache — a
    /// fresh snapshot replacing the journal — when a path is
    /// configured.
    ///
    /// # Errors
    ///
    /// Snapshot write failures; the threads are already down by then
    /// (and the journal is left in place, so even a failed compaction
    /// loses nothing).
    pub fn stop(mut self) -> io::Result<()> {
        self.engine.join();
        if let Some(path) = &self.svc.cfg.cache_path {
            self.svc.cache.compact_to(&FileStore::new(path))?;
        }
        Ok(())
    }

    /// Tears the service down *without* the shutdown snapshot — the
    /// crash-simulation path (the in-process analogue of `kill -9`
    /// minus leaked threads): only the append-only journal survives,
    /// which is exactly what [`Server::start`] recovers from.
    pub fn abort(mut self) {
        self.engine.join();
    }
}
