//! The fingerprint-sharded router tier: `reshuffle-server --route
//! backend1,backend2,…` accepts the same `POST /synthesize` surface as
//! a backend, computes the content-addressed cache key locally
//! ([`reshuffle::source_cache_key`] — parse only, no pipeline), and
//! forwards the request to backend `key % N` over pooled keep-alive
//! connections, streaming the response through verbatim.
//!
//! **Routing invariant.** The key is a pure function of the spec's
//! canonical fingerprint and the option trail, so identical requests
//! always land on the same backend — which is exactly what preserves
//! per-shard single-flight coalescing (concurrent identical requests
//! meet in one backend's flight table and execute once, fleet-wide)
//! and cache locality (a spec's journal entry lives on one shard).
//!
//! **Failover semantics.** Forwards retry within a bounded attempt
//! budget (healing the benign keep-alive close race); when a backend
//! stays unreachable the router answers `503` itself — stamped
//! `X-Role: router` to distinguish it from a backend's own shed `503`
//! — and a background probe loop holds the backend's
//! `reshuffle_backend_up` gauge at 0 until its `/healthz` listener is
//! reachable again (a busy backend that accepts but answers slowly
//! stays up; only a vanished peer is down).
//! Proxied responses instead carry `X-Backend: <shard>` and the
//! backend's own payload, byte-for-byte. A client `X-Trace-Id` is
//! forwarded, so router and backend spans share one trace.
//!
//! **Resharding.** Journals replay anywhere, so `N → N+1` is an
//! operational procedure, not a migration: stop the fleet, restart
//! backends under the new list (each recovers its own journal), point
//! the router at the new list. Keys that moved shards re-execute once
//! (a clean miss) and refill; keys that stayed hit their journal.
//!
//! `GET /stats` and `GET /metrics` are fleet rollups: the router
//! scrapes every backend, merges counters by sum and histograms via
//! [`HistSnapshot::merge`], and adds its own `reshuffle_router_*`,
//! `reshuffle_routed_total{backend}`, `reshuffle_backend_errors_total
//! {backend}` and `reshuffle_backend_up{backend}` families.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use reshuffle::source_cache_key;
use reshuffle_bench::json::{self, Json};
use reshuffle_obs::{
    parse as prom_parse, FieldVal, HistSnapshot, PromDoc, PromWriter, SinkHandle, TraceId, Tracer,
};
use std::collections::HashMap;

use crate::client::{exchange_with_retry, ClientConn};
use crate::engine::{error_body, Engine, EngineConfig, EngineState, Response, Service};
use crate::http::Request;
use crate::options_from_json;
use crate::shard::ShardTable;

/// How the router binds, pools, bounds, routes and probes.
///
/// `#[non_exhaustive]`: build it with [`RouterConfig::new`] and the
/// `with_*` setters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` by default — an ephemeral port).
    pub addr: String,
    /// Backend addresses in shard order (`key % N` indexes this list;
    /// the order is part of the routing contract).
    pub backends: Vec<String>,
    /// Worker threads; `0` resolves to available parallelism.
    pub threads: usize,
    /// Accepted connections queued ahead of the workers; one more and
    /// the router sheds with `503`.
    pub queue_depth: usize,
    /// Per-request budget: the read deadline for one client request
    /// and the read timeout on forwarded backend exchanges.
    pub request_timeout: Duration,
    /// Keep-alive idle deadline between client requests.
    pub idle_timeout: Duration,
    /// Requests served over one client connection before close.
    pub max_requests_per_conn: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Total exchange attempts per forward (≥ 1); exhausting them
    /// answers `503` with `X-Role: router`.
    pub retries: usize,
    /// Dial deadline for backend connections and health probes.
    pub connect_timeout: Duration,
    /// Cadence of the background `/healthz` probe loop.
    pub health_interval: Duration,
    /// Trace verbosity, as on the backend (`RESHUFFLE_TRACE` default).
    pub trace_level: u8,
    /// Where span JSON lines go when tracing is on (`None` = stderr).
    pub trace_sink: Option<SinkHandle>,
}

impl RouterConfig {
    /// The default router configuration in front of `backends`
    /// (ephemeral localhost port, 64-deep queue, 30 s request budget,
    /// 2 forward attempts, 1 s dials, 500 ms health probes).
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends,
            threads: 0,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 128,
            max_body_bytes: 1024 * 1024,
            retries: 2,
            connect_timeout: Duration::from_secs(1),
            health_interval: Duration::from_millis(500),
            trace_level: std::env::var("RESHUFFLE_TRACE")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
            trace_sink: None,
        }
    }

    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> RouterConfig {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-pool size (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> RouterConfig {
        self.threads = threads;
        self
    }

    /// Sets the accept-queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> RouterConfig {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-request budget (client reads and backend waits).
    pub fn with_request_timeout(mut self, timeout: Duration) -> RouterConfig {
        self.request_timeout = timeout;
        self
    }

    /// Sets the keep-alive idle deadline between client requests.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> RouterConfig {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the per-connection request cap (min 1).
    pub fn with_max_requests_per_conn(mut self, max: usize) -> RouterConfig {
        self.max_requests_per_conn = max.max(1);
        self
    }

    /// Sets the request-body limit.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> RouterConfig {
        self.max_body_bytes = bytes;
        self
    }

    /// Sets the forward attempt budget (min 1).
    pub fn with_retries(mut self, attempts: usize) -> RouterConfig {
        self.retries = attempts.max(1);
        self
    }

    /// Sets the backend dial deadline.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> RouterConfig {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the health-probe cadence.
    pub fn with_health_interval(mut self, interval: Duration) -> RouterConfig {
        self.health_interval = interval;
        self
    }

    /// Sets the trace verbosity.
    pub fn with_trace_level(mut self, level: u8) -> RouterConfig {
        self.trace_level = level;
        self
    }

    /// Routes span JSON lines to `sink` instead of stderr.
    pub fn with_trace_sink(mut self, sink: SinkHandle) -> RouterConfig {
        self.trace_sink = Some(sink);
        self
    }
}

#[derive(Debug, Default)]
struct RouterStats {
    /// `POST /synthesize` requests routed (or attempted).
    synth_requests: AtomicU64,
    /// Extra dials beyond the first per forward — the keep-alive close
    /// race being healed, or a dying backend being retried.
    retries: AtomicU64,
}

/// The routing service behind the shared engine.
struct RouteService {
    cfg: RouterConfig,
    engine: Arc<EngineState>,
    table: ShardTable,
    stats: RouterStats,
    tracer: Tracer,
}

impl RouteService {
    /// Stamps a router-originated response: every response the router
    /// answers itself (rollups, errors, health) carries
    /// `X-Role: router`, while proxied responses carry `X-Backend`.
    fn local(&self, response: Response) -> Response {
        response.with_header("X-Role", "router")
    }

    fn bad_request(&self, status: u16, msg: &str, trace: TraceId) -> Response {
        self.engine
            .stats
            .bad_requests
            .fetch_add(1, Ordering::Relaxed);
        self.local(Response::json(status, error_body(msg), trace))
    }

    fn handle_synthesize(
        &self,
        body: &[u8],
        client_trace: Option<TraceId>,
        nonce: u64,
    ) -> Response {
        self.stats.synth_requests.fetch_add(1, Ordering::Relaxed);
        let early = client_trace.unwrap_or_else(|| TraceId::derive(0, nonce));
        // Parse just enough to compute the key the backend will derive:
        // the spec and the option trail. Malformed requests never reach
        // a backend.
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(json::parse);
        let request = match parsed {
            Ok(v) => v,
            Err(e) => return self.bad_request(400, &format!("bad JSON: {e}"), early),
        };
        let Some(g) = request.get("g").and_then(Json::as_str) else {
            return self.bad_request(400, "missing string member \"g\"", early);
        };
        let opts = match options_from_json(request.get("options")) {
            Ok(opts) => opts,
            Err(e) => return self.bad_request(400, &e, early),
        };
        let key = match source_cache_key(g, &opts) {
            Ok(key) => key,
            Err(e) => {
                return self.local(Response::json(
                    422,
                    error_body(&format!("parse: {e}")),
                    early,
                ))
            }
        };
        let shard = self.table.route(key);
        let trace = client_trace.unwrap_or_else(|| TraceId::derive(key, nonce));
        let root = self.tracer.root(trace);
        let sp = root.span("route");

        let response = self.forward(shard, body, trace);
        sp.end(&[
            ("backend", FieldVal::U64(shard as u64)),
            ("status", FieldVal::U64(u64::from(response.status))),
        ]);
        response
    }

    /// Forwards the raw body to shard `shard`, reusing a pooled
    /// keep-alive connection when one is idle, with the configured
    /// attempt budget. The backend sees the client's trace id, so
    /// spans share the trace across the hop.
    fn forward(&self, shard: usize, body: &[u8], trace: TraceId) -> Response {
        let backend = self.table.backend(shard);
        let head = format!(
            "POST /synthesize HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nX-Trace-Id: {trace}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);

        let mut slot = backend.take_conn();
        let pooled = slot.is_some();
        let dial = || {
            ClientConn::connect_timeout(
                backend.addr(),
                self.cfg.connect_timeout,
                self.cfg.request_timeout,
            )
        };
        match exchange_with_retry(&mut slot, dial, &request, self.cfg.retries) {
            Ok((response, dialed)) => {
                let extra_dials = (dialed + usize::from(pooled)).saturating_sub(1);
                if extra_dials > 0 {
                    self.stats
                        .retries
                        .fetch_add(extra_dials as u64, Ordering::Relaxed);
                }
                backend.note_routed();
                backend.set_up(true);
                if let Some(conn) = slot {
                    backend.put_conn(conn);
                }
                let content_type = response
                    .header("content-type")
                    .unwrap_or("application/json")
                    .to_string();
                Response {
                    status: response.status,
                    content_type,
                    body: response.body,
                    trace,
                    headers: vec![("X-Backend".to_string(), shard.to_string())],
                }
            }
            Err(_) => {
                backend.note_error();
                backend.set_up(false);
                self.local(Response::json(
                    503,
                    error_body(&format!(
                        "backend {} (shard {shard}) unavailable",
                        backend.addr()
                    )),
                    trace,
                ))
            }
        }
    }

    /// One `Connection: close` GET against a backend, under the dial
    /// and read deadlines.
    fn scrape(&self, addr: &str, path: &str) -> Option<(u16, String)> {
        let mut conn =
            ClientConn::connect_timeout(addr, self.cfg.connect_timeout, self.cfg.request_timeout)
                .ok()?;
        let request = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let response = conn.exchange(request.as_bytes()).ok()?;
        Some((response.status, response.body_str()))
    }

    /// The `/stats` rollup: router-local counters, per-backend
    /// attribution, each backend's own `/stats` document, and a
    /// recursive numeric sum of those documents under `"totals"`.
    fn render_stats(&self) -> String {
        let stat = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        let e = &self.engine.stats;
        let routed = Json::Arr(
            self.table
                .backends()
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    Json::obj(vec![
                        ("backend", Json::Num(i as f64)),
                        ("addr", Json::Str(b.addr().to_string())),
                        ("up", Json::Bool(b.is_up())),
                        ("routed", Json::Num(b.routed() as f64)),
                        ("errors", Json::Num(b.errors() as f64)),
                    ])
                })
                .collect(),
        );
        let mut docs: Vec<Json> = Vec::new();
        for backend in self.table.backends() {
            let doc = self
                .scrape(backend.addr(), "/stats")
                .filter(|(status, _)| *status == 200)
                .and_then(|(_, body)| json::parse(&body).ok());
            docs.push(doc.unwrap_or(Json::Null));
        }
        let mut totals = Json::Obj(Vec::new());
        for doc in docs.iter().filter(|d| !matches!(d, Json::Null)) {
            sum_numeric_into(&mut totals, doc);
        }
        Json::obj(vec![
            ("role", Json::Str("router".to_string())),
            ("backends_configured", Json::Num(self.table.len() as f64)),
            (
                "uptime_ms",
                Json::Num(self.engine.started.elapsed().as_secs_f64() * 1e3),
            ),
            ("connections", stat(&e.connections)),
            ("requests", stat(&e.requests)),
            ("synth_requests", stat(&self.stats.synth_requests)),
            ("shed", stat(&e.shed)),
            ("request_timeouts", stat(&e.request_timeouts)),
            ("bad_requests", stat(&e.bad_requests)),
            ("write_errors", stat(&e.write_errors)),
            ("retries", stat(&self.stats.retries)),
            ("routed", routed),
            ("backends", Json::Arr(docs)),
            ("totals", totals),
        ])
        .render()
    }

    /// The `/metrics` rollup: router-local families plus every backend
    /// family merged across the fleet — counters and gauges summed per
    /// label set, histograms rebuilt from their exposition and merged
    /// with [`HistSnapshot::merge`] — under the backends' original
    /// family names, so one scrape of the router sees fleet totals in
    /// the same vocabulary as one backend.
    fn render_metrics(&self) -> String {
        let mut w = PromWriter::new();
        let stat = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let e = &self.engine.stats;
        w.counter(
            "reshuffle_router_connections_total",
            "Client connections accepted by the router.",
            stat(&e.connections),
        );
        w.counter(
            "reshuffle_router_requests_total",
            "HTTP requests parsed off router connections.",
            stat(&e.requests),
        );
        w.counter(
            "reshuffle_router_synth_requests_total",
            "POST /synthesize requests routed (or attempted).",
            stat(&self.stats.synth_requests),
        );
        w.counter(
            "reshuffle_router_shed_total",
            "Connections shed with 503 at the router accept queue.",
            stat(&e.shed),
        );
        w.counter(
            "reshuffle_router_request_timeouts_total",
            "Client requests that lapsed the read deadline (408).",
            stat(&e.request_timeouts),
        );
        w.counter(
            "reshuffle_router_bad_requests_total",
            "Malformed, oversized or unroutable requests.",
            stat(&e.bad_requests),
        );
        w.counter(
            "reshuffle_router_write_errors_total",
            "Responses that failed to write (client gone).",
            stat(&e.write_errors),
        );
        w.counter(
            "reshuffle_router_retries_total",
            "Extra backend dials beyond the first per forward.",
            stat(&self.stats.retries),
        );
        let addrs: Vec<&str> = self.table.backends().iter().map(|b| b.addr()).collect();
        let labels: Vec<[(&str, &str); 1]> = addrs.iter().map(|a| [("backend", *a)]).collect();
        let routed: Vec<(&[(&str, &str)], u64)> = labels
            .iter()
            .zip(self.table.backends())
            .map(|(l, b)| (l.as_slice(), b.routed()))
            .collect();
        w.counter_family(
            "reshuffle_routed_total",
            "Requests forwarded per backend.",
            &routed,
        );
        let errors: Vec<(&[(&str, &str)], u64)> = labels
            .iter()
            .zip(self.table.backends())
            .map(|(l, b)| (l.as_slice(), b.errors()))
            .collect();
        w.counter_family(
            "reshuffle_backend_errors_total",
            "Forwards that exhausted their retries, per backend.",
            &errors,
        );
        let up: Vec<(&[(&str, &str)], f64)> = labels
            .iter()
            .zip(self.table.backends())
            .map(|(l, b)| (l.as_slice(), f64::from(u8::from(b.is_up()))))
            .collect();
        w.gauge_family(
            "reshuffle_backend_up",
            "Backend health as of the last probe or forward (1 = up).",
            &up,
        );
        w.gauge(
            "reshuffle_router_uptime_seconds",
            "Seconds since the router started.",
            self.engine.started.elapsed().as_secs_f64(),
        );
        w.histogram(
            "reshuffle_router_request_duration_seconds",
            "Router request service time, request parsed to response written.",
            &self.engine.request_hist.snapshot(),
        );
        w.histogram(
            "reshuffle_router_queue_wait_seconds",
            "Router accept-queue wait from enqueue to worker pickup.",
            &self.engine.queue_wait_hist.snapshot(),
        );

        // Merge the fleet: scrape every backend, keep the docs that
        // parse, and emit each family of the first doc summed across
        // all of them.
        let docs: Vec<PromDoc> = self
            .table
            .backends()
            .iter()
            .filter_map(|b| self.scrape(b.addr(), "/metrics"))
            .filter(|(status, _)| *status == 200)
            .filter_map(|(_, body)| prom_parse(&body).ok())
            .collect();
        if let Some(first) = docs.first() {
            for family in &first.families {
                // Per-process identity gauges do not sum meaningfully.
                if family.name == "reshuffle_uptime_seconds" || family.name == "reshuffle_shard_id"
                {
                    continue;
                }
                match family.ty.as_str() {
                    "counter" => {
                        let series = sum_series(&docs, &family.name);
                        let refs = label_refs(&series);
                        let rows: Vec<(&[(&str, &str)], u64)> = refs
                            .iter()
                            .zip(&series)
                            .map(|(l, (_, v))| (l.as_slice(), *v as u64))
                            .collect();
                        w.counter_family(&family.name, &family.help, &rows);
                    }
                    "gauge" => {
                        let series = sum_series(&docs, &family.name);
                        let refs = label_refs(&series);
                        let rows: Vec<(&[(&str, &str)], f64)> = refs
                            .iter()
                            .zip(&series)
                            .map(|(l, (_, v))| (l.as_slice(), *v))
                            .collect();
                        w.gauge_family(&family.name, &family.help, &rows);
                    }
                    "histogram" => {
                        let series = merge_histograms(&docs, &family.name);
                        let refs: Vec<Vec<(&str, &str)>> = series
                            .iter()
                            .map(|(labels, _)| {
                                labels
                                    .iter()
                                    .map(|(k, v)| (k.as_str(), v.as_str()))
                                    .collect()
                            })
                            .collect();
                        let rows: Vec<(&[(&str, &str)], &HistSnapshot)> = refs
                            .iter()
                            .zip(&series)
                            .map(|(l, (_, snap))| (l.as_slice(), snap))
                            .collect();
                        w.histogram_family(&family.name, &family.help, &rows);
                    }
                    _ => {}
                }
            }
        }
        w.finish()
    }
}

/// Adds `add`'s numeric leaves into `acc`, recursing through objects;
/// non-numeric leaves (strings, bools, arrays, nulls) are skipped —
/// totals carry only what sums meaningfully.
fn sum_numeric_into(acc: &mut Json, add: &Json) {
    let (Json::Obj(amem), Json::Obj(bmem)) = (acc, add) else {
        return;
    };
    for (key, value) in bmem {
        match value {
            Json::Num(n) => {
                if let Some((_, slot)) = amem.iter_mut().find(|(k, _)| k == key) {
                    if let Json::Num(total) = slot {
                        *total += n;
                    }
                } else {
                    amem.push((key.clone(), Json::Num(*n)));
                }
            }
            Json::Obj(_) => {
                if !amem.iter().any(|(k, _)| k == key) {
                    amem.push((key.clone(), Json::Obj(Vec::new())));
                }
                let slot = &mut amem.iter_mut().find(|(k, _)| k == key).unwrap().1;
                sum_numeric_into(slot, value);
            }
            _ => {}
        }
    }
}

/// Sums one family's samples across documents, keyed by label set, in
/// first-appearance order.
fn sum_series(docs: &[PromDoc], name: &str) -> Vec<(Vec<(String, String)>, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut map: HashMap<String, (Vec<(String, String)>, f64)> = HashMap::new();
    for doc in docs {
        let Some(family) = doc.family(name) else {
            continue;
        };
        for sample in &family.samples {
            let mut sorted = sample.labels.clone();
            sorted.sort();
            let key = format!("{sorted:?}");
            let entry = map.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (sample.labels.clone(), 0.0)
            });
            entry.1 += sample.value;
        }
    }
    order
        .into_iter()
        .map(|key| map.remove(&key).expect("keyed above"))
        .collect()
}

fn label_refs(series: &[(Vec<(String, String)>, f64)]) -> Vec<Vec<(&str, &str)>> {
    series
        .iter()
        .map(|(labels, _)| {
            labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect()
        })
        .collect()
}

/// Merges one histogram family across documents with
/// [`HistSnapshot::merge`], keyed by label set (minus `le`), in
/// first-appearance order. Documents whose buckets are off the log2
/// grid are skipped.
fn merge_histograms(docs: &[PromDoc], name: &str) -> Vec<(Vec<(String, String)>, HistSnapshot)> {
    let mut order: Vec<String> = Vec::new();
    let mut map: HashMap<String, (Vec<(String, String)>, HistSnapshot)> = HashMap::new();
    for doc in docs {
        let Some(snapshots) = doc
            .family(name)
            .and_then(|family| family.histogram_snapshots().ok())
        else {
            continue;
        };
        for (labels, snap) in snapshots {
            let mut sorted = labels.clone();
            sorted.sort();
            let key = format!("{sorted:?}");
            match map.get_mut(&key) {
                Some((_, merged)) => merged.merge(&snap),
                None => {
                    order.push(key.clone());
                    map.insert(key, (labels, snap));
                }
            }
        }
    }
    order
        .into_iter()
        .map(|key| map.remove(&key).expect("keyed above"))
        .collect()
}

impl Service for RouteService {
    fn route(&self, request: &Request) -> Response {
        let nonce = self.engine.req_seq.fetch_add(1, Ordering::Relaxed);
        let client = request.trace_id.as_deref().and_then(TraceId::parse);
        let trace = client.unwrap_or_else(|| TraceId::derive(0, nonce));
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/synthesize") => self.handle_synthesize(&request.body, client, nonce),
            ("GET", "/stats") => self.local(Response::json(200, self.render_stats(), trace)),
            ("GET", "/metrics") => self.local(Response {
                status: 200,
                content_type: "text/plain; version=0.0.4".to_string(),
                body: self.render_metrics().into_bytes(),
                trace,
                headers: Vec::new(),
            }),
            ("GET", "/healthz") => {
                self.local(Response::json(200, Json::Str("ok".into()).render(), trace))
            }
            ("POST", "/shutdown") => {
                self.local(Response::json(200, Json::Str("ok".into()).render(), trace))
            }
            (_, "/synthesize" | "/stats" | "/metrics" | "/healthz" | "/shutdown") => {
                self.bad_request(405, &format!("{} not allowed here", request.method), trace)
            }
            (_, path) => self.bad_request(404, &format!("no such endpoint: {path}"), trace),
        }
    }
}

/// A running router: accept thread, worker pool, health-probe loop.
///
/// Start with [`Router::start`]; take it down with [`Router::stop`]
/// (or let a client `POST /shutdown` and pair it with
/// [`Router::wait_for_shutdown`] + `stop`, the binary's lifecycle).
pub struct Router {
    svc: Arc<RouteService>,
    engine: Engine,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds and spawns the accept thread, worker pool, and the
    /// background `/healthz` probe loop.
    ///
    /// # Errors
    ///
    /// An empty backend list, and bind failures.
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
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
            role: Some("router"),
        }));
        let table = ShardTable::new(cfg.backends.iter().cloned());
        let svc = Arc::new(RouteService {
            cfg,
            engine: state.clone(),
            table,
            stats: RouterStats::default(),
            tracer,
        });
        let engine = Engine::start(state.clone(), svc.clone())?;
        let health = {
            let svc = svc.clone();
            std::thread::spawn(move || health_loop(&svc))
        };
        Ok(Router {
            svc,
            engine,
            health: Some(health),
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// The routing table (health and per-backend counters).
    pub fn shards(&self) -> &ShardTable {
        &self.svc.table
    }

    /// Blocks until a client posts `/shutdown`.
    pub fn wait_for_shutdown(&self) {
        self.engine.wait_for_shutdown();
    }

    /// Stops accepting, drains the pool, and joins the probe loop.
    ///
    /// # Errors
    ///
    /// None today; `io::Result` mirrors [`Server::stop`](crate::Server::stop)
    /// so binaries treat both tiers uniformly.
    pub fn stop(mut self) -> io::Result<()> {
        self.join();
        Ok(())
    }

    /// [`Router::stop`] without the result — the drop-everything path.
    pub fn abort(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.engine.join();
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
    }
}

/// Probes every backend's `/healthz` each interval, flipping the
/// per-backend `up` flag; exits when shutdown begins.
fn health_loop(svc: &RouteService) {
    loop {
        for backend in svc.table.backends() {
            let up = probe(svc, backend.addr());
            backend.set_up(up);
        }
        if svc.engine.wait_for_shutdown(Some(svc.cfg.health_interval)) {
            return;
        }
    }
}

fn probe(svc: &RouteService, addr: &str) -> bool {
    let Ok(mut conn) =
        ClientConn::connect_timeout(addr, svc.cfg.connect_timeout, svc.cfg.connect_timeout)
    else {
        return false;
    };
    match conn.exchange(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n") {
        Ok(response) => response.status == 200,
        // The listener accepted and the request queued, but no worker
        // answered within the deadline: that backend is *busy*, not
        // dead — on a small worker pool even one idle keep-alive
        // connection can pin every worker for a while. Only a vanished
        // peer (refused, reset, EOF) marks it down.
        Err(e) => matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
    }
}
