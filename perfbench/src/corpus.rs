//! `corpus`: one op is one cold pass, with a fresh `SynthCache`, over
//! the nine example specifications in every mode the `tables` report
//! has — default and reduce for complete specs; eager, lazy,
//! expand-selected and expand+reduce for partial ones: 22 pipeline
//! runs. A replay of every successful run against the filled cache
//! follows each pass, timing the library's cache-hit path. Every cell
//! is checked against the committed `BENCH_tables.json` golden rows.

use std::collections::HashMap;
use std::time::Instant;

use reshuffle::{ExpansionOptions, PipelineOptions, ReduceOptions, SynthCache, Synthesis};
use reshuffle_bench::json::{self, Json};
use reshuffle_handshake::expand_handshakes_stats;
use reshuffle_petri::{parse_g, Stg};
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::{build_state_graph, StateGraph};
use reshuffle_synth::literal_estimate;
use reshuffle_timing::{simulate, DelayModel, SimOptions};

use crate::chain::{self, Memo, Source};
use crate::trace::Tracer;
use crate::util::{ms, Rng};
use crate::{Layers, Outcome, Samples};

/// One path's golden cell: lits, cycle, sig, mv, chc.
#[derive(Debug, Clone)]
struct Cell {
    lits: u32,
    cycle: f64,
    sig: usize,
    mv: usize,
    chc: usize,
}

struct GoldenRow {
    states: usize,
    csc: usize,
    /// Path name → expected cell (`None`: the path fails).
    paths: HashMap<String, Option<Cell>>,
}

struct Golden {
    rows: HashMap<String, GoldenRow>,
    cache_entries: usize,
    replay_hits: u64,
}

fn num(v: Option<&Json>, what: &str) -> Result<f64, String> {
    v.and_then(Json::as_num)
        .ok_or_else(|| format!("BENCH_tables.json: missing number {what}"))
}

fn load_golden() -> Result<Golden, String> {
    let text = std::fs::read_to_string("BENCH_tables.json")
        .map_err(|e| format!("BENCH_tables.json: {e} (run from the repository root)"))?;
    let doc = json::parse(&text)?;
    let mut rows = HashMap::new();
    for row in doc.get("rows").and_then(Json::items).unwrap_or(&[]) {
        let model = row
            .get("model")
            .and_then(Json::as_str)
            .ok_or("BENCH_tables.json: row without model")?;
        let mut paths = HashMap::new();
        if let Some(Json::Obj(members)) = row.get("paths") {
            for (name, cell) in members {
                let cell = match cell {
                    Json::Null => None,
                    c => Some(Cell {
                        lits: num(c.get("lits"), "lits")? as u32,
                        cycle: num(c.get("cycle"), "cycle")?,
                        sig: num(c.get("sig"), "sig")? as usize,
                        mv: num(c.get("mv"), "mv")? as usize,
                        chc: num(c.get("chc"), "chc")? as usize,
                    }),
                };
                paths.insert(name.clone(), cell);
            }
        }
        let golden = GoldenRow {
            states: num(row.get("states"), "states")? as usize,
            csc: num(row.get("csc"), "csc")? as usize,
            paths,
        };
        rows.insert(model.to_string(), golden);
    }
    let cache = doc.get("cache");
    Ok(Golden {
        rows,
        cache_entries: num(cache.and_then(|c| c.get("entries")), "cache.entries")? as usize,
        replay_hits: num(
            cache.and_then(|c| c.get("replay_hits")),
            "cache.replay_hits",
        )? as u64,
    })
}

/// The tables report's per-path statistics, under the reduce stage's
/// delay model.
fn cell_of(s: &Synthesis, ropts: &ReduceOptions) -> Result<Cell, String> {
    let delays = DelayModel::uniform(&s.stg, ropts.input_delay, ropts.gate_delay);
    let run = simulate(&s.stg, &delays, &SimOptions::default()).map_err(|e| e.to_string())?;
    Ok(Cell {
        lits: literal_estimate(&s.sg),
        cycle: run.period,
        sig: s.inserted.len(),
        mv: s.moves.len(),
        chc: s.expansion.len(),
    })
}

/// A run of the pass, kept for the cache replay.
struct Replay {
    stg: Stg,
    sg: Option<StateGraph>,
    opts: PipelineOptions,
}

/// What an untraced run produced, for the traced replay to match.
type Fingerprints = HashMap<(usize, &'static str), Option<(String, u64)>>;

pub struct Corpus {
    specs: Vec<(&'static str, &'static str)>,
    golden: Golden,
    ropts: ReduceOptions,
    eopts: ExpansionOptions,
    reference_literals: u64,
}

/// What one pass produced.
struct Pass {
    problems: Vec<String>,
    literals: u64,
    run_ms: Vec<f64>,
    replay: Vec<Replay>,
}

impl Corpus {
    pub fn setup(seed: u64, reference_literals: u64) -> Result<Corpus, String> {
        let golden = load_golden()?;
        let mut specs = reshuffle_bench::examples::ALL.to_vec();
        Rng::new(seed).shuffle(&mut specs);
        let corpus = Corpus {
            specs,
            golden,
            ropts: ReduceOptions::default(),
            eopts: ExpansionOptions::default(),
            reference_literals,
        };
        // Warm-up: one full pass, checked like every timed one.
        let warm = corpus.pass(None, &mut HashMap::new(), None, &SynthCache::new());
        match warm.problems.first() {
            Some(p) => Err(format!("warm-up pass: {p}")),
            None => Ok(corpus),
        }
    }

    /// One cold pass. Untraced (`tr` is `None`), runs go through
    /// `Parsed::run` against `cache` and their outcomes are recorded
    /// in `fps`; traced, they are replayed span by span and must match
    /// the recorded outcomes.
    fn pass(
        &self,
        mut tr: Option<&mut Tracer>,
        fps: &mut Fingerprints,
        expect: Option<&Fingerprints>,
        cache: &SynthCache,
    ) -> Pass {
        let mut out = Pass {
            problems: Vec::new(),
            literals: 0,
            run_ms: Vec::new(),
            replay: Vec::new(),
        };
        let mut memo = Memo::new();
        for (i, &(name, src)) in self.specs.iter().enumerate() {
            let Some(golden) = self.golden.rows.get(name) else {
                out.problems.push(format!("{name}: no golden row"));
                continue;
            };
            let spec = match &mut tr {
                Some(t) => t.time("petri.parse", || parse_g(src)),
                None => parse_g(src),
            };
            let spec = match spec {
                Ok(stg) => stg,
                Err(e) => {
                    out.problems.push(format!("{name}: parse: {e}"));
                    continue;
                }
            };
            let spec = &spec;
            let spec_sg = match &mut tr {
                Some(t) => chain::traced_build(t, spec, reshuffle_petri::DEFAULT_STATE_BUDGET),
                None => build_state_graph(spec).map_err(|e| e.to_string()),
            };
            let spec_sg = match spec_sg {
                Ok(sg) => sg,
                Err(e) => {
                    out.problems.push(format!("{name}: build: {e}"));
                    continue;
                }
            };
            let csc = match &mut tr {
                Some(t) => t.time("sg.csc_analyze", || analyze_csc(&spec_sg)),
                None => analyze_csc(&spec_sg),
            }
            .num_csc_conflicts();
            if (spec_sg.num_states(), csc) != (golden.states, golden.csc) {
                out.problems.push(format!(
                    "{name}: states/csc {}/{csc}, golden {}/{}",
                    spec_sg.num_states(),
                    golden.states,
                    golden.csc
                ));
            }

            // (path name, pipeline input, options) in the report's order.
            let mut runs: Vec<(&'static str, Stg, Option<StateGraph>, PipelineOptions)> =
                Vec::new();
            if spec.is_partial() {
                let expansion = match &mut tr {
                    Some(t) => t.time("handshake.expand", || {
                        expand_handshakes_stats(spec, &self.eopts)
                    }),
                    None => expand_handshakes_stats(spec, &self.eopts),
                };
                let cands = match expansion {
                    Ok(e) if !e.reshufflings.is_empty() => e.reshufflings,
                    Ok(_) => {
                        out.problems.push(format!("{name}: empty lattice"));
                        continue;
                    }
                    Err(e) => {
                        out.problems.push(format!("{name}: expand: {e}"));
                        continue;
                    }
                };
                let last = cands.len() - 1;
                let default = PipelineOptions::default();
                let expand = PipelineOptions::new().with_expand(self.eopts.clone());
                runs.push((
                    "eager",
                    cands[0].stg.clone(),
                    Some(cands[0].sg.clone()),
                    default.clone(),
                ));
                runs.push((
                    "lazy",
                    cands[last].stg.clone(),
                    Some(cands[last].sg.clone()),
                    default,
                ));
                runs.push(("selected", spec.clone(), None, expand.clone()));
                runs.push((
                    "reduce",
                    spec.clone(),
                    None,
                    expand.with_reduce(self.ropts.clone()),
                ));
            } else {
                let reduce = PipelineOptions::new().with_reduce(self.ropts.clone());
                runs.push((
                    "default",
                    spec.clone(),
                    Some(spec_sg.clone()),
                    PipelineOptions::default(),
                ));
                runs.push(("reduce", spec.clone(), Some(spec_sg), reduce));
            }

            for (path, stg, sg, opts) in runs {
                let t = Instant::now();
                let result = match &mut tr {
                    Some(t) => {
                        chain::replay(t, Source::Parts(stg.clone(), sg.clone()), &opts, &mut memo)
                    }
                    None => {
                        chain::run_library(Source::Parts(stg.clone(), sg.clone()), &opts, cache)
                            .map(|(s, _)| s)
                    }
                };
                out.run_ms.push(ms(t.elapsed()));
                let seen = result
                    .as_ref()
                    .ok()
                    .map(|s| (s.netlist.describe(), s.sg.fingerprint()));
                match expect {
                    None => {
                        fps.insert((i, path), seen);
                    }
                    Some(expect) => {
                        if expect.get(&(i, path)) != Some(&seen) {
                            out.problems.push(format!(
                                "{name}/{path}: traced replay differs from Parsed::run"
                            ));
                        }
                    }
                }
                let cell = match &result {
                    Ok(s) => {
                        let cell = match &mut tr {
                            Some(t) => t.time("tables.path_stats", || cell_of(s, &self.ropts)),
                            None => cell_of(s, &self.ropts),
                        };
                        match cell {
                            Ok(c) => Some(c),
                            Err(e) => {
                                out.problems.push(format!("{name}/{path}: {e}"));
                                continue;
                            }
                        }
                    }
                    Err(_) => None,
                };
                let want = golden.paths.get(path).cloned().flatten();
                let same = match (&cell, &want) {
                    (Some(c), Some(w)) => {
                        (c.lits, c.sig, c.mv, c.chc) == (w.lits, w.sig, w.mv, w.chc)
                            && (c.cycle - w.cycle).abs() < 1e-9
                    }
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    out.problems
                        .push(format!("{name}/{path}: got {cell:?}, golden {want:?}"));
                }
                if let Ok(s) = result {
                    out.literals += crate::util::netlist_literals(&s.netlist);
                    out.replay.push(Replay { stg, sg, opts });
                }
            }
        }
        if out.literals != self.reference_literals {
            out.problems.push(format!(
                "netlist literals {} != reference {}",
                out.literals, self.reference_literals
            ));
        }
        out
    }

    /// Runs the closed loop for `seconds`. Traced, even ops run
    /// untraced and odd ops traced, so the run also measures the
    /// tracing overhead.
    pub fn run(&self, seconds: f64, traced: bool, tr: &mut Tracer) -> Outcome {
        let mut samples = Samples::default();
        let mut layers = Layers::default();
        let mut out = Outcome::default();
        let mut fps = Fingerprints::new();
        let (mut hits, mut lookups) = (0u64, 0u64);
        let start = Instant::now();
        let mut op = 0u64;
        while op < 1 + u64::from(traced) || start.elapsed().as_secs_f64() < seconds {
            let trace_this = traced && op % 2 == 1;
            let cache = SynthCache::new();
            let t = Instant::now();
            let pass = if trace_this {
                tr.begin_op(op);
                let root = tr.open("op");
                let pass = self.pass(Some(tr), &mut Fingerprints::new(), Some(&fps), &cache);
                tr.close(root);
                pass
            } else {
                fps.clear();
                self.pass(None, &mut fps, None, &cache)
            };
            let op_ms = ms(t.elapsed());
            let mut problems = pass.problems;
            if !trace_this {
                if cache.len() != self.golden.cache_entries {
                    problems.push(format!(
                        "cache entries {} != golden {}",
                        cache.len(),
                        self.golden.cache_entries
                    ));
                }
                // The replay pass: every successful run again, now a hit.
                let hits_before = cache.hits();
                for r in &pass.replay {
                    let t = Instant::now();
                    let res = chain::run_library(
                        Source::Parts(r.stg.clone(), r.sg.clone()),
                        &r.opts,
                        &cache,
                    );
                    samples.hit_ms.push(ms(t.elapsed()));
                    match res {
                        Ok((_, true)) => {}
                        Ok((_, false)) => problems.push("replay missed the cache".to_string()),
                        Err(e) => problems.push(format!("replay: {e}")),
                    }
                }
                if cache.hits() - hits_before != self.golden.replay_hits {
                    problems.push(format!(
                        "replay hits {} != golden {}",
                        cache.hits() - hits_before,
                        self.golden.replay_hits
                    ));
                }
                hits += cache.hits();
                lookups += cache.hits() + cache.misses();
                samples.op_ms.push(op_ms);
                samples.miss_ms.extend(&pass.run_ms);
                samples.literals = pass.literals as f64;
                if traced {
                    layers.untraced_op_ms.push(op_ms);
                }
            }
            out.record(problems);
            op += 1;
        }
        samples.elapsed_s = start.elapsed().as_secs_f64();
        layers.cache_hit_ratio = ratio(hits, lookups);
        layers.cache_lookup_us = crate::util::median(&samples.hit_ms) * 1e3;
        out.samples = samples;
        out.layers = layers;
        out
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
