//! The two ways an op runs a pipeline.
//!
//! Untraced, it calls [`Parsed::run`](reshuffle::Parsed::run) — what a
//! library user calls. Traced, it replays the chain of public layer
//! calls `Parsed::run` makes (parse → prereduce → build → expand /
//! reduce / resolve → gates → verify → rank / simulate), each wrapped
//! in a benchmark-side span. The replay runs candidates one after the
//! other where the pipeline runs them on worker threads, and it shares
//! finished candidates through a [`Memo`] keyed exactly like the
//! pipeline's `SynthCache` keys (spec fingerprint × option trail), so
//! it skips the same syntheses the cache lets the pipeline skip. Ops
//! compare the replay's netlist and state-graph fingerprint with the
//! untraced result, so the trace measures the same work.

use std::collections::HashMap;

use reshuffle::{ImplStyle, Pipeline, PipelineOptions, SynthCache, Synthesis};
use reshuffle_handshake::expand_handshakes_stats;
use reshuffle_petri::sharded::ExploreOptions;
use reshuffle_petri::{
    canonical_fingerprint, parse_g, prereduce, ReachabilityGraph, SignalKind, Stg,
};
use reshuffle_reduce::MoveStep;
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::props::speed_independence;
use reshuffle_sg::{build_state_graph_stats, BuildOptions, StateGraph};
use reshuffle_synth::{
    derive_all_functions, derive_gc_function, literal_estimate, resolve_csc_analyzed,
    synthesize_complex_gates, synthesize_gc, verify_against_sg, ConflictPolicy,
};
use reshuffle_timing::{simulate, DelayModel, SimOptions};

use crate::trace::Tracer;

/// What a pipeline starts from: `.g` text (parsed inside the run), or
/// a parsed specification with an optional pre-built state graph.
// Each value is built for one run and moved straight into it, so the
// size difference between the variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub enum Source<'a> {
    G(&'a str),
    Parts(Stg, Option<StateGraph>),
}

/// Finished syntheses by (canonical fingerprint, option trail).
pub type Memo = HashMap<(u64, String), Synthesis>;

/// Runs the pipeline the way a library caller does.
pub fn run_library(
    src: Source<'_>,
    opts: &PipelineOptions,
    cache: &SynthCache,
) -> Result<(Synthesis, bool), String> {
    let parsed = match src {
        Source::G(g) => Pipeline::from_g(g).map_err(|e| e.to_string())?,
        Source::Parts(stg, Some(sg)) => Pipeline::from_parts(stg, sg),
        Source::Parts(stg, None) => Pipeline::from_stg(&stg),
    };
    let done = parsed
        .with_cache(cache)
        .run(opts)
        .map_err(|e| e.to_string())?;
    let hit = done.diagnostics().cache_hits == 1;
    Ok((done.into_synthesis(), hit))
}

/// The option trail of a run key; `expand: false` gives the trail a
/// lattice candidate is keyed under (it continues as a complete
/// specification).
fn trail(opts: &PipelineOptions, expand: bool) -> String {
    let expand = match (&opts.expand, expand) {
        (Some(e), true) => format!("expand {}", e.max_reshufflings),
        _ => "complete".to_string(),
    };
    format!(
        "{}|{expand}|{:?}|{:?}|{:?}|{}",
        opts.prereduce, opts.reduce, opts.csc, opts.style, !opts.skip_verify
    )
}

struct Cand {
    stg: Stg,
    sg: StateGraph,
    fp: u64,
    choices: Vec<String>,
    moves: Vec<MoveStep>,
    inserted: Vec<String>,
    known_conflicts: Option<usize>,
}

type Slot<T> = Result<T, String>;

/// Fails when every candidate failed, with the first failure.
fn enforce_live<T>(slots: &[Slot<T>]) -> Result<(), String> {
    match slots.iter().find_map(|c| c.as_ref().err()) {
        Some(first) if slots.iter().all(Result::is_err) => Err(first.clone()),
        _ => Ok(()),
    }
}

fn err(e: impl ToString) -> String {
    e.to_string()
}

fn si_gate(tr: &mut Tracer, sg: &StateGraph) -> Result<(), String> {
    let si = tr.time("sg.si_check", || speed_independence(sg));
    if si.is_speed_independent() {
        Ok(())
    } else {
        Err("specification is not speed-independent".to_string())
    }
}

/// Builds a state graph under a `sg.build` span, preceded by a probe
/// that repeats the markings BFS the build runs first.
pub fn traced_build(tr: &mut Tracer, stg: &Stg, budget: usize) -> Result<StateGraph, String> {
    let probe = tr.open_probe("probe.markings");
    let rg = ReachabilityGraph::explore_opts(
        stg.net(),
        &stg.initial_marking(),
        &ExploreOptions::new(0, budget),
    );
    if let Ok(rg) = &rg {
        tr.count(probe, "markings", rg.len() as f64);
        tr.count(probe, "peak_frontier", rg.peak_frontier() as f64);
    }
    drop(rg);
    tr.close(probe);
    let id = tr.open("sg.build");
    let built = build_state_graph_stats(
        stg,
        &BuildOptions {
            state_budget: budget,
            ..Default::default()
        },
    );
    tr.close(id);
    let (sg, stats) = built.map_err(err)?;
    tr.count(id, "states", stats.states as f64);
    tr.count(id, "arcs", stats.arcs as f64);
    Ok(sg)
}

/// The traced replay of `Parsed::run` under one `core.pipeline` span.
pub fn replay(
    tr: &mut Tracer,
    src: Source<'_>,
    opts: &PipelineOptions,
    memo: &mut Memo,
) -> Result<Synthesis, String> {
    let root = tr.open("core.pipeline");
    let out = replay_inner(tr, src, opts, memo);
    tr.close(root);
    out
}

fn replay_inner(
    tr: &mut Tracer,
    src: Source<'_>,
    opts: &PipelineOptions,
    memo: &mut Memo,
) -> Result<Synthesis, String> {
    let (mut stg, prebuilt) = match src {
        Source::G(g) => (tr.time("petri.parse", || parse_g(g)).map_err(err)?, None),
        Source::Parts(stg, sg) => (stg, sg),
    };
    let spec_fp = canonical_fingerprint(&stg);
    let run_key = (spec_fp, trail(opts, true));
    if let Some(hit) = memo.get(&run_key) {
        return Ok(hit.clone());
    }

    // Expansion, or the complete-specification passthrough.
    let (mut cands, selecting) = match &opts.expand {
        Some(eopts) if stg.is_partial() => {
            let id = tr.open("handshake.expand");
            let expanded = expand_handshakes_stats(&stg, eopts);
            tr.close(id);
            let expansion = expanded.map_err(err)?;
            let st = &expansion.stats;
            tr.count(id, "points", st.points as f64);
            tr.count(id, "restriction_products", st.restriction_products as f64);
            tr.count(id, "prefix_hits", st.prefix_hits as f64);
            tr.count(id, "chained_products", st.chained_products as f64);
            let mut cands: Vec<Slot<Cand>> = Vec::new();
            for r in expansion.reshufflings {
                cands.push(si_gate(tr, &r.sg).map(|()| Cand {
                    fp: canonical_fingerprint(&r.stg),
                    stg: r.stg,
                    sg: r.sg,
                    choices: r.choices,
                    moves: Vec::new(),
                    inserted: Vec::new(),
                    known_conflicts: None,
                }));
            }
            enforce_live(&cands)?;
            (cands, true)
        }
        _ => {
            if stg.is_partial() {
                return Err("partial specification needs the expansion stage".to_string());
            }
            let sg = match prebuilt {
                Some(sg) => sg,
                None => {
                    if opts.prereduce {
                        let id = tr.open("petri.prereduce");
                        let stats = prereduce(&mut stg);
                        tr.close(id);
                        let stats = stats.map_err(err)?;
                        let removed = stats.places_removed + stats.transitions_removed;
                        tr.count(id, "removed", removed as f64);
                    }
                    traced_build(tr, &stg, opts.state_budget)?
                }
            };
            si_gate(tr, &sg)?;
            let cand = Cand {
                stg,
                sg,
                fp: spec_fp,
                choices: Vec::new(),
                moves: Vec::new(),
                inserted: Vec::new(),
                known_conflicts: None,
            };
            (vec![Ok(cand)], false)
        }
    };

    let delays = opts
        .reduce
        .as_ref()
        .map_or((2.0, 1.0), |r| (r.input_delay, r.gate_delay));
    if let Some(ropts) = &opts.reduce {
        cands = cands
            .into_iter()
            .map(|c| {
                let c = c?;
                let id = tr.open("reduce.search");
                let reduced = reshuffle_reduce::reduce_concurrency_from(&c.stg, c.sg, ropts);
                tr.close(id);
                let r = reduced.map_err(err)?;
                tr.count(id, "scored", r.scored as f64);
                tr.count(id, "accepted", r.steps.len() as f64);
                Ok(Cand {
                    stg: r.stg,
                    sg: r.sg,
                    fp: c.fp,
                    choices: c.choices,
                    moves: r.steps,
                    inserted: c.inserted,
                    known_conflicts: Some(r.csc_conflicts),
                })
            })
            .collect();
        enforce_live(&cands)?;
    }

    cands = cands
        .into_iter()
        .map(|c| {
            let c = c?;
            if c.known_conflicts == Some(0) {
                return Ok(c);
            }
            let analysis = tr.time("sg.csc_analyze", || analyze_csc(&c.sg));
            if analysis.has_csc() {
                return Ok(Cand {
                    known_conflicts: Some(0),
                    ..c
                });
            }
            let id = tr.open("synth.csc_resolve");
            let resolved = resolve_csc_analyzed(&c.stg, c.sg, &analysis, &opts.csc);
            tr.close(id);
            let r = resolved.map_err(err)?;
            tr.count(id, "tried", r.tried as f64);
            Ok(Cand {
                stg: r.stg,
                sg: r.sg,
                fp: c.fp,
                choices: c.choices,
                moves: c.moves,
                inserted: r.inserted,
                known_conflicts: Some(0),
            })
        })
        .collect();
    enforce_live(&cands)?;

    let cand_trail = trail(opts, false);
    let verify = !opts.skip_verify;
    let mut outcomes: Vec<Slot<(Synthesis, u64)>> = Vec::new();
    for c in cands {
        let outcome = c.and_then(|c| {
            let cand_key = (c.fp, cand_trail.clone());
            if selecting {
                if let Some(hit) = memo.get(&cand_key) {
                    let mut s = hit.clone();
                    s.expansion = c.choices;
                    let cycle = ranking_cycle(tr, &s, delays)?;
                    return Ok((s, cycle));
                }
            }
            derive_probe(tr, &c.sg, opts.style);
            let id = tr.open("synth.gates");
            let netlist = match opts.style {
                ImplStyle::ComplexGate => synthesize_complex_gates(&c.sg).map(|i| i.netlist),
                ImplStyle::GeneralizedC => synthesize_gc(&c.sg).map(|i| i.netlist),
            };
            tr.close(id);
            let netlist = netlist.map_err(err)?;
            if verify {
                tr.time("synth.verify", || verify_against_sg(&c.sg, &netlist))
                    .map_err(err)?;
            }
            let s = Synthesis {
                stg: c.stg,
                sg: c.sg,
                netlist,
                inserted: c.inserted,
                moves: c.moves,
                expansion: c.choices,
            };
            let cycle = if selecting {
                ranking_cycle(tr, &s, delays)?
            } else {
                0
            };
            if selecting {
                let mut stored = s.clone();
                stored.expansion = Vec::new();
                memo.insert(cand_key, stored);
            }
            Ok((s, cycle))
        });
        outcomes.push(outcome);
    }
    enforce_live(&outcomes)?;

    // The ranked selection: (state signals inserted, literal estimate,
    // timed cycle bits, enumeration index), earliest wins ties.
    let mut best: Option<((usize, u32, u64, usize), usize)> = None;
    for (i, outcome) in outcomes.iter().enumerate() {
        let Ok((s, cycle)) = outcome else {
            continue;
        };
        let lits = tr.time("synth.rank_literals", || literal_estimate(&s.sg));
        let score = (s.inserted.len(), lits, *cycle, i);
        if !matches!(best, Some((b, _)) if b <= score) {
            best = Some((score, i));
        }
    }
    let (_, winner) = best.expect("enforce_live leaves a live candidate");
    let (synthesis, _) = outcomes
        .into_iter()
        .nth(winner)
        .expect("winner index in range")
        .expect("winner is live");
    memo.insert(run_key, synthesis.clone());
    Ok(synthesis)
}

/// The timed cycle a pending selection ranks by.
fn ranking_cycle(tr: &mut Tracer, s: &Synthesis, delays: (f64, f64)) -> Result<u64, String> {
    let model = DelayModel::uniform(&s.stg, delays.0, delays.1);
    let run = tr
        .time("timing.simulate", || {
            simulate(&s.stg, &model, &SimOptions::default())
        })
        .map_err(err)?;
    Ok(run.period.to_bits())
}

/// Repeats the function derivation gate synthesis runs first (see the
/// probe note in [`crate::trace`]), counting the distinct reachable
/// codes: above 4096 the BDD interval minimizer runs, below it the
/// cube-list one.
fn derive_probe(tr: &mut Tracer, sg: &StateGraph, style: ImplStyle) {
    let id = tr.open_probe("probe.derive");
    let mut codes = sg.codes().to_vec();
    codes.sort_unstable();
    codes.dedup();
    tr.count(id, "codes", codes.len() as f64);
    match style {
        ImplStyle::ComplexGate => {
            let _ = std::hint::black_box(derive_all_functions(sg, ConflictPolicy::Reject));
        }
        ImplStyle::GeneralizedC => {
            for s in sg.signals().iter().enumerate() {
                if s.1.kind != SignalKind::Input {
                    let signal = reshuffle_petri::SignalId::from_index(s.0);
                    let _ = std::hint::black_box(derive_gc_function(sg, signal));
                }
            }
        }
    }
    tr.close(id);
}
