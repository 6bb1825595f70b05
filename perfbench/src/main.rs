//! The repository benchmark: runs one workload for a fixed time and
//! prints one JSON line of end-to-end metrics (untraced) or per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload corpus|scaled|service --seed N --seconds S --trace 0|1
//!           [--server-bin PATH] [--tmp DIR] [--trace-out FILE]
//! ```
//!
//! Exit status 0 when every op's output matched its reference, 1 when
//! some op failed (the JSON line is still printed), 2 when set-up
//! failed (nothing printed).

mod chain;
mod corpus;
mod scaled;
mod service;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use reshuffle_bench::json::{self, Json};

use trace::{Totals, Tracer};
use util::median;

/// Latency samples and totals of one run's untraced ops.
#[derive(Debug, Default)]
pub struct Samples {
    pub op_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub elapsed_s: f64,
    pub literals: f64,
    /// Peak RSS of the process doing the work, when that is not this
    /// process.
    pub peak_rss_mb: Option<f64>,
}

/// What `reshuffle-server` reported, seen from the client.
#[derive(Debug, Default)]
pub struct ServerLayers {
    pub first_byte_ms: f64,
    pub body_ms: f64,
    pub executed: f64,
    pub coalesced: f64,
    pub shed: f64,
    pub journal_appends: f64,
}

/// Per-layer figures measured outside the span trace.
#[derive(Debug, Default)]
pub struct Layers {
    pub untraced_op_ms: Vec<f64>,
    pub cache_hit_ratio: f64,
    pub cache_lookup_us: f64,
    pub journal_append_ms: f64,
    pub server: Option<ServerLayers>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub samples: Samples,
    pub layers: Layers,
}

impl Outcome {
    /// Counts one op; any problem fails it.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.problems.len() < 8 {
                    self.problems.push(p);
                }
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    tmp: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        tmp: std::env::temp_dir(),
        trace_out: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    for pair in raw.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--server-bin" => args.server_bin = Some(value.into()),
            "--tmp" => args.tmp = value.into(),
            "--trace-out" => args.trace_out = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The reference literal count recorded for `workload` in
/// `perfbench/reference.json`.
fn reference_literals(workload: &str) -> Result<u64, String> {
    let path = "perfbench/reference.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text)?
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("reference_literals"))
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("{path}: no reference_literals for {workload}"))
}

/// Set-up repetitions per run; the median is reported as `setup_s`.
const SETUP_REPS: usize = 5;

enum Workload {
    Corpus(corpus::Corpus),
    Scaled(scaled::Scaled),
    Service(service::Service),
}

fn setup(args: &Args, setup_s: &mut Vec<f64>) -> Result<Workload, String> {
    let lits = reference_literals(&args.workload)?;
    match args.workload.as_str() {
        "corpus" | "scaled" => {
            let mut last = None;
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                last = Some(if args.workload == "corpus" {
                    Workload::Corpus(corpus::Corpus::setup(args.seed, lits)?)
                } else {
                    Workload::Scaled(scaled::Scaled::setup(args.seed, lits)?)
                });
                setup_s.push(t.elapsed().as_secs_f64());
            }
            Ok(last.expect("at least one set-up"))
        }
        "service" => {
            let bin = args
                .server_bin
                .as_ref()
                .ok_or("service needs --server-bin")?;
            let tmp = args.tmp.join(format!("service-{}", std::process::id()));
            service::Service::setup(args.seed, bin, &tmp, lits, SETUP_REPS, setup_s)
                .map(Workload::Service)
        }
        other => Err(format!(
            "unknown workload {other:?} (corpus, scaled or service)"
        )),
    }
}

fn end_to_end(out: &Outcome, setup_s: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let s = &out.samples;
    let rss = s
        .peak_rss_mb
        .or_else(|| util::peak_rss_mb("self"))
        .unwrap_or(0.0);
    vec![
        ("setup_s", median(setup_s), "s"),
        ("op_p50_ms", median(&s.op_ms), "ms"),
        (
            "ops_per_s",
            s.op_ms.len() as f64 / s.elapsed_s.max(1e-9),
            "1/s",
        ),
        ("hit_p50_ms", median(&s.hit_ms), "ms"),
        ("miss_p50_ms", median(&s.miss_ms), "ms"),
        ("peak_rss_mb", rss, "MB"),
        ("literals", s.literals, "count"),
    ]
}

/// Per-layer metrics: span totals averaged per traced op, plus the
/// figures measured beside the trace.
fn per_layer(tr: &Tracer, out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let ops = tr.per_op();
    let n = ops.len().max(1) as f64;
    let mut all: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for op in &ops {
        for (name, t) in op {
            let a = all.entry(name).or_default();
            a.self_ms += t.self_ms;
            a.dur_ms += t.dur_ms;
            a.calls += t.calls;
            for (k, v) in &t.sums {
                *a.sums.entry(k).or_insert(0.0) += v;
            }
            for (k, v) in &t.maxes {
                let m = a.maxes.entry(k).or_insert(f64::MIN);
                *m = m.max(*v);
            }
        }
    }
    let none = Totals::default();
    let get = |name: &str| all.get(name).unwrap_or(&none);
    let per_op = |name: &str| get(name).self_ms / n;
    let sum = |name: &str, key: &str| get(name).sum(key) / n;
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let markings_ms = per_op("probe.markings");
    let build_ms = per_op("sg.build");
    let states = sum("sg.build", "states");
    let pipeline = get("core.pipeline");
    let op_ms: Vec<f64> = ops
        .iter()
        .filter_map(|o| o.get("op").map(|t| t.dur_ms))
        .collect();
    let traced_p50 = median(&op_ms);
    let untraced_p50 = median(&out.layers.untraced_op_ms);
    let server = out.layers.server.as_ref();
    let srv = |f: fn(&ServerLayers) -> f64| server.map_or(0.0, f);
    vec![
        ("petri.parse_ms", per_op("petri.parse"), "ms"),
        ("petri.prereduce_ms", per_op("petri.prereduce"), "ms"),
        (
            "petri.prereduce_removed",
            sum("petri.prereduce", "removed"),
            "count",
        ),
        ("petri.bfs_markings_ms", markings_ms, "ms"),
        ("petri.markings", sum("probe.markings", "markings"), "count"),
        (
            "petri.peak_frontier",
            get("probe.markings").max("peak_frontier"),
            "count",
        ),
        ("sg.build_ms", build_ms, "ms"),
        ("sg.bfs_encode_ms", (build_ms - markings_ms).max(0.0), "ms"),
        ("sg.states", states, "count"),
        ("sg.arcs", sum("sg.build", "arcs"), "count"),
        ("sg.us_per_state", div(build_ms * 1e3, states), "us"),
        ("sg.csc_analyze_ms", per_op("sg.csc_analyze"), "ms"),
        ("sg.si_check_ms", per_op("sg.si_check"), "ms"),
        ("handshake.expand_ms", per_op("handshake.expand"), "ms"),
        (
            "handshake.points",
            sum("handshake.expand", "points"),
            "count",
        ),
        (
            "handshake.restriction_products",
            sum("handshake.expand", "restriction_products"),
            "count",
        ),
        (
            "handshake.prefix_hit_ratio",
            div(
                sum("handshake.expand", "prefix_hits"),
                sum("handshake.expand", "chained_products"),
            ),
            "ratio",
        ),
        ("reduce.search_ms", per_op("reduce.search"), "ms"),
        (
            "reduce.moves_scored",
            sum("reduce.search", "scored"),
            "count",
        ),
        (
            "reduce.moves_accepted",
            sum("reduce.search", "accepted"),
            "count",
        ),
        ("synth.csc_resolve_ms", per_op("synth.csc_resolve"), "ms"),
        (
            "synth.csc_tried",
            sum("synth.csc_resolve", "tried"),
            "count",
        ),
        ("synth.derive_ms", per_op("probe.derive"), "ms"),
        (
            "synth.codes",
            get("probe.derive").max("codes").max(0.0),
            "count",
        ),
        ("synth.gates_ms", per_op("synth.gates"), "ms"),
        ("synth.verify_ms", per_op("synth.verify"), "ms"),
        (
            "synth.rank_literals_ms",
            per_op("synth.rank_literals"),
            "ms",
        ),
        ("timing.simulate_ms", per_op("timing.simulate"), "ms"),
        (
            "timing.simulate_calls",
            get("timing.simulate").calls as f64 / n,
            "count",
        ),
        ("core.pipeline_ms", pipeline.dur_ms / n, "ms"),
        (
            "core.accounted_share",
            div(pipeline.dur_ms - pipeline.self_ms, pipeline.dur_ms),
            "ratio",
        ),
        ("core.cache_lookup_us", out.layers.cache_lookup_us, "us"),
        ("core.cache_hit_ratio", out.layers.cache_hit_ratio, "ratio"),
        ("core.journal_append_ms", out.layers.journal_append_ms, "ms"),
        ("server.first_byte_ms", srv(|s| s.first_byte_ms), "ms"),
        ("server.body_ms", srv(|s| s.body_ms), "ms"),
        ("server.executed", srv(|s| s.executed), "count"),
        ("server.coalesced", srv(|s| s.coalesced), "count"),
        ("server.shed", srv(|s| s.shed), "count"),
        (
            "server.journal_appends",
            srv(|s| s.journal_appends),
            "count",
        ),
        ("trace.untraced_op_p50_ms", untraced_p50, "ms"),
        ("trace.traced_op_p50_ms", traced_p50, "ms"),
        (
            "trace.overhead_share",
            div(traced_p50 - untraced_p50, untraced_p50),
            "ratio",
        ),
    ]
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut setup_s = Vec::new();
    let workload = match setup(&args, &mut setup_s) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(epoch);
    let out = match workload {
        Workload::Corpus(w) => w.run(args.seconds, args.trace, &mut tr),
        Workload::Scaled(w) => w.run(args.seconds, args.trace, &mut tr),
        Workload::Service(w) => w.run(args.seconds, args.trace, &mut tr),
    };
    let metrics = if args.trace {
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tr.render()) {
                eprintln!("perfbench: {}: {e}", path.display());
            }
        }
        per_layer(&tr, &out)
    } else {
        end_to_end(&out, &setup_s)
    };
    for p in &out.problems {
        eprintln!("perfbench: failed op: {p}");
    }
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                let m = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name.to_string(), m)
            })
            .collect(),
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
