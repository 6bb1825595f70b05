//! Building a [`StateGraph`] from an [`Stg`]: one reachability
//! exploration that binary-encodes every state it visits.
//!
//! The exploration visits *(marking, parity)* pairs. The parity records
//! which toggle-edged (`a~`) signals have switched an odd number of
//! times, so a toggle-free STG visits each marking exactly once, and a
//! 2-phase specification unfolds into the `(marking, parity)` product it
//! means. Firing `a+` sets bit `a`, `a-` clears it, `a~` toggles it, and
//! dummies leave the code unchanged.
//!
//! Initial values are solved afterwards, in one pass over the explored
//! arcs: `a+` needs `a = 0` before it and `a-` needs `a = 1`, which
//! fixes every rise/fall signal that fires (explicit `.g` files rarely
//! declare initial values). A declared initial value must agree with
//! those arcs; a signal no arc constrains starts at 0. A signal with
//! both toggle and rise/fall edges is solved over the marking graph
//! instead, by constraint propagation in which its own toggle arcs
//! constrain nothing.
//!
//! Any disagreement is reported as [`SgError::Inconsistent`]: an edge
//! firing from the wrong value, or one marking reached under two codes
//! of a signal without toggle edges (petrify's semantics).

use std::collections::HashMap;

use reshuffle_obs::{FieldVal, SpanCtx};
use reshuffle_petri::sharded::{self, ExploreOptions};
use reshuffle_petri::{Marking, PetriError, Polarity, SignalId, Stg, TransitionId};

use crate::error::{Result, SgError};
use crate::sg::{EventId, EventInfo, StateGraph};

/// Options for state-graph construction.
///
/// A build that reaches more than `state_budget` states fails instead
/// of exhausting memory:
///
/// ```
/// use reshuffle_petri::parse_g;
/// use reshuffle_sg::{build_state_graph_with, BuildOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stg = parse_g(
///     ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///      x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///      .marking { <z-,x+> }\n.end\n",
/// )?;
/// let opts = |state_budget| BuildOptions { state_budget, ..Default::default() };
/// assert_eq!(build_state_graph_with(&stg, &opts(6))?.num_states(), 6);
/// assert!(build_state_graph_with(&stg, &opts(5)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Cap on the number of explored states.
    pub state_budget: usize,
    /// Trace context: the build opens a `bfs.encode` child span
    /// (level 1) and one `bfs.level` span per breadth-first level
    /// (level 2) under it. Disabled by default; never affects the
    /// built graph.
    pub span: SpanCtx,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            state_budget: reshuffle_petri::DEFAULT_STATE_BUDGET,
            span: SpanCtx::default(),
        }
    }
}

impl BuildOptions {
    /// Attach a trace context for the exploration spans.
    #[must_use]
    pub fn with_span(mut self, span: SpanCtx) -> BuildOptions {
        self.span = span;
        self
    }
}

/// What one state-graph build did, for diagnostics: sizes of the
/// result plus the exploration's peak frontier (a proxy for the
/// specification's concurrency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// States in the built graph.
    pub states: usize,
    /// Arcs in the built graph.
    pub arcs: usize,
    /// Distinct interned markings.
    pub interned_markings: usize,
    /// Largest breadth-first frontier of the exploration.
    pub peak_frontier: usize,
}

/// Builds the state graph of `stg` with default options.
///
/// # Errors
///
/// See [`build_state_graph_with`].
pub fn build_state_graph(stg: &Stg) -> Result<StateGraph> {
    build_state_graph_with(stg, &BuildOptions::default())
}

/// Builds the state graph of `stg`.
///
/// The construction runs one canonical breadth-first exploration
/// ([`reshuffle_petri::sharded`]) of *(marking, parity)* pairs: states
/// are numbered in discovery order, so building the same STG twice
/// gives byte-identical graphs. A single pass over the explored arcs
/// then solves the initial values, checks consistency (see the module
/// docs) and assembles the compressed CSR layout, with markings interned
/// into one shared arena.
///
/// # Errors
///
/// * [`SgError::Petri`] if the net is unsafe, has source transitions or
///   exceeds the state budget;
/// * [`SgError::TooManySignals`] for more than 64 signals;
/// * [`SgError::Inconsistent`] if no consistent binary encoding exists.
pub fn build_state_graph_with(stg: &Stg, opts: &BuildOptions) -> Result<StateGraph> {
    build_state_graph_stats(stg, opts).map(|(sg, _)| sg)
}

/// [`build_state_graph_with`], also reporting [`BuildStats`] (state,
/// arc, interned-marking and peak-frontier counters) for diagnostics.
///
/// # Errors
///
/// See [`build_state_graph_with`].
pub fn build_state_graph_stats(stg: &Stg, opts: &BuildOptions) -> Result<(StateGraph, BuildStats)> {
    stg.validate()?;
    if stg.num_signals() > 64 {
        return Err(SgError::TooManySignals(stg.num_signals()));
    }
    let net = stg.net();
    // Per transition, the code bit it switches and its polarity; then
    // the signals with toggle edges, rise/fall edges and declared
    // initial values.
    let (mut edges, mut toggled, mut rise_fall) = (Vec::new(), 0u64, 0u64);
    for t in stg.transitions() {
        let polarity = stg.edge_of(t).map(|e| e.polarity);
        let bit = stg.edge_of(t).map_or(0, |e| 1 << e.signal.index());
        match polarity {
            Some(Polarity::Toggle) => toggled |= bit,
            Some(_) => rise_fall |= bit,
            None => {}
        }
        edges.push((bit, polarity));
    }
    let (mut declared, mut initial) = (0u64, 0u64);
    for s in stg.signals() {
        if let Some(v) = stg.initial_value(s) {
            declared |= 1 << s.index();
            initial |= u64::from(v) << s.index();
        }
    }
    // The code bits the exploration key carries, as parities relative
    // to the initial code; every other bit must be a function of the
    // marking. A toggle-free STG carries none. With toggles, signals with
    // a declared initial value ride along, free like toggle signals to
    // take both values at one marking.
    let tracked = if toggled == 0 { 0 } else { toggled | declared };

    let sp = opts.span.span("bfs.encode");
    let explored = sharded::explore(
        (stg.initial_marking(), 0u64),
        &ExploreOptions {
            budget: opts.state_budget,
            span: sp.ctx(),
        },
        |(m, parity): &(Marking, u64), out: &mut Vec<(EventId, (Marking, u64))>| {
            for t in m.enabled_transitions(net) {
                let next = parity ^ (edges[t.index()].0 & tracked);
                out.push((EventId(t.0), (m.fire(net, t)?, next)));
            }
            Ok(())
        },
        |b| SgError::Petri(PetriError::StateBudgetExceeded(b)),
    )?;
    let (n, num_arcs) = (explored.keys.len(), explored.num_arcs());
    sp.end(&[
        ("states", FieldVal::U64(n as u64)),
        ("arcs", FieldVal::U64(num_arcs as u64)),
        (
            "peak_frontier",
            FieldVal::U64(explored.peak_frontier as u64),
        ),
    ]);

    // Intern markings in order of first appearance (without toggles,
    // every state has a marking of its own).
    let marking_ids: Vec<u32> = if tracked == 0 {
        (0..n as u32).collect()
    } else {
        let mut intern: HashMap<&Marking, u32> = HashMap::new();
        let mut id_of = |m| {
            let next = intern.len() as u32;
            *intern.entry(m).or_insert(next)
        };
        explored.keys.iter().map(|(m, _)| id_of(m)).collect()
    };
    let mut markings: Vec<Marking> = Vec::new();
    let mut parities: Vec<u64> = Vec::with_capacity(n);
    for ((m, parity), &id) in explored.keys.into_iter().zip(&marking_ids) {
        if id as usize == markings.len() {
            markings.push(m);
        }
        parities.push(parity);
    }
    let mixed = toggled & rise_fall & !declared;
    initial |= solve_mixed(stg, &edges, mixed, &marking_ids, &explored.succs)?;
    let mut solved = declared | mixed;

    // One pass in canonical order: derive the untracked parity of each
    // marking from the arc that first reaches it, solve rise/fall
    // initial values from the arcs, reject every disagreement, and lay
    // out the CSR arrays.
    let mut untracked: Vec<u64> = Vec::with_capacity(markings.len());
    untracked.push(0);
    let mut succ_offsets = Vec::with_capacity(n + 1);
    let mut arc_events = Vec::with_capacity(num_arcs);
    let mut arc_targets = Vec::with_capacity(num_arcs);
    succ_offsets.push(0);
    for (s, arcs) in explored.succs.into_iter().enumerate() {
        let parity = parities[s] | untracked[marking_ids[s] as usize];
        for (e, t) in arcs {
            let (flip, polarity) = edges[e.0 as usize];
            if let Some(polarity @ (Polarity::Rise | Polarity::Fall)) = polarity {
                // The initial value that lets the edge fire here: 0
                // before a rise, 1 before a fall.
                let fall = if polarity == Polarity::Fall { flip } else { 0 };
                let need = (parity & flip) ^ fall;
                if solved & flip == 0 {
                    solved |= flip;
                    initial |= need;
                } else if initial & flip != need {
                    let value = u8::from((initial ^ parity) & flip != 0);
                    let name = stg.transition_name(TransitionId(e.0));
                    return Err(inconsistent(stg, flip, |signal| {
                        format!("firing {name} while {signal} is already {value}")
                    }));
                }
            }
            let (mid, next) = (marking_ids[t as usize] as usize, (parity ^ flip) & !tracked);
            if mid == untracked.len() {
                untracked.push(next);
            } else if untracked[mid] != next {
                let marking = markings[mid].display(net);
                return Err(inconsistent(stg, untracked[mid] ^ next, |signal| {
                    format!("marking {marking} is reachable with both values of {signal}")
                }));
            }
            arc_events.push(e);
            arc_targets.push(t);
        }
        succ_offsets.push(arc_events.len() as u32);
    }
    let codes = parities
        .iter()
        .zip(&marking_ids)
        .map(|(parity, &mid)| initial ^ parity ^ untracked[mid as usize])
        .collect();

    let events: Vec<EventInfo> = stg
        .transitions()
        .map(|t| EventInfo {
            label: stg.transition_name(t).to_string(),
            edge: stg.edge_of(t),
        })
        .collect();
    let signals = (0..stg.num_signals())
        .map(|i| stg.signal(SignalId::from_index(i)).clone())
        .collect();
    let stats = BuildStats {
        states: n,
        arcs: num_arcs,
        interned_markings: markings.len(),
        peak_frontier: explored.peak_frontier,
    };
    let sg = StateGraph::from_csr(
        stg.name.clone(),
        signals,
        events,
        codes,
        succ_offsets,
        arc_events,
        arc_targets,
        marking_ids,
        markings,
        0,
    )?;
    Ok((sg, stats))
}

/// [`SgError::Inconsistent`] for the lowest signal in `bits`, with a
/// witness built from its name.
fn inconsistent(stg: &Stg, bits: u64, witness: impl FnOnce(&str) -> String) -> SgError {
    let signal = &stg
        .signal(SignalId::from_index(bits.trailing_zeros() as usize))
        .name;
    SgError::Inconsistent {
        signal: signal.clone(),
        witness: witness(signal),
    }
}

/// Initial values of the signals in `mixed`: those with both toggle and
/// rise/fall edges and no declared value. They keep the marking-level
/// rule of constraint propagation: every arc that does not switch the
/// signal joins its two markings into one class of equal value, `a+`
/// fixes 0 at its source marking and 1 at its target, `a-` the reverse,
/// and `a~` constrains nothing. The initial value is that of the
/// initial marking's class, or 0 if nothing fixes it; the arc pass then
/// checks it against every rise/fall edge.
///
/// # Errors
///
/// [`SgError::Inconsistent`] if one class must be both 0 and 1.
fn solve_mixed(
    stg: &Stg,
    edges: &[(u64, Option<Polarity>)],
    mixed: u64,
    marking_ids: &[u32],
    succs: &[Vec<(EventId, u32)>],
) -> Result<u64> {
    // Union-find root with path halving.
    fn root(parent: &mut [u32], mut m: u32) -> usize {
        while parent[m as usize] != m {
            parent[m as usize] = parent[parent[m as usize] as usize];
            m = parent[m as usize];
        }
        m as usize
    }
    let mut initial = 0u64;
    for bit in (0..stg.num_signals()).map(|i| 1u64 << i) {
        if mixed & bit == 0 {
            continue;
        }
        let num_markings = marking_ids.iter().max().map_or(0, |&m| m + 1);
        let mut parent: Vec<u32> = (0..num_markings).collect();
        let mut value: Vec<Option<bool>> = vec![None; num_markings as usize];
        for (s, arcs) in succs.iter().enumerate() {
            for &(e, t) in arcs {
                let src = root(&mut parent, marking_ids[s]);
                let tgt = root(&mut parent, marking_ids[t as usize]);
                let consistent = match edges[e.0 as usize] {
                    (b, Some(Polarity::Toggle)) if b == bit => true,
                    (b, Some(polarity)) if b == bit => {
                        let (pre, post) = (polarity == Polarity::Fall, polarity == Polarity::Rise);
                        *value[src].get_or_insert(pre) == pre
                            && *value[tgt].get_or_insert(post) == post
                    }
                    _ => {
                        let (a, b) = (value[src], value[tgt]);
                        parent[tgt] = src as u32;
                        value[src] = a.or(b);
                        a.zip(b).map_or(true, |(a, b)| a == b)
                    }
                };
                if !consistent {
                    return Err(inconsistent(stg, bit, |signal| {
                        format!("marking #{} requires {signal} = 0 and 1", marking_ids[s])
                    }));
                }
            }
        }
        if value[root(&mut parent, 0)] == Some(true) {
            initial |= bit;
        }
    }
    Ok(initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::{parse_g, SignalKind};

    const FIG1: &str = "\
.model fig1
.inputs Req
.outputs Ack
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

    #[test]
    fn fig1_has_five_states() {
        let stg = parse_g(FIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        assert_eq!(sg.num_states(), 5);
        // Initial state of Fig. 1(d) is 0*1 (Ack excited low, Req high).
        let init = sg.initial();
        let ack = sg.signal_by_name("Ack").unwrap();
        let req = sg.signal_by_name("Req").unwrap();
        assert!(!sg.value(init, ack));
        assert!(sg.value(init, req));
        let rendered = sg.render_state(init);
        assert!(rendered.contains('*'), "{rendered}");
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // a+ followed by a+ without a- in between.
        let src = "\
.model bad
.inputs a
.graph
a+ a+/2
a+/2 a+
.marking { <a+/2,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        let e = build_state_graph(&stg).unwrap_err();
        assert!(matches!(e, SgError::Inconsistent { .. }), "{e}");
    }

    #[test]
    fn toggle_signals_unfold_parity() {
        // A 2-phase cycle: the marking graph has 2 markings but the
        // state graph unfolds to 4 states tracking signal parity.
        let src = "\
.model t2
.inputs a
.outputs b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
";
        let stg = parse_g(src).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        assert_eq!(sg.num_states(), 4);
        let a = sg.signal_by_name("a").unwrap();
        assert!(!sg.value(0, a));
        let e = sg.event_by_label("a~").unwrap();
        let s1 = sg.step(0, e).unwrap();
        assert!(sg.value(s1, a));
        // Two toggles of a bring it back.
        let eb = sg.event_by_label("b~").unwrap();
        let s2 = sg.step(s1, eb).unwrap();
        let s3 = sg.step(s2, e).unwrap();
        assert!(!sg.value(s3, a));
    }

    #[test]
    fn explicit_initial_value_respected() {
        let src = "\
.model t2
.inputs a
.outputs b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
";
        let mut stg = parse_g(src).unwrap();
        let a = stg.signal_by_name("a").unwrap();
        stg.set_initial_value(a, true);
        let sg = build_state_graph(&stg).unwrap();
        assert!(sg.value(0, a));
    }

    #[test]
    fn constant_signal_defaults() {
        let mut stg = reshuffle_petri::Stg::new("c");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let _unused = stg.add_signal("quiet", SignalKind::Output).unwrap();
        let t1 = stg.add_edge_transition(a, reshuffle_petri::Polarity::Rise);
        let t2 = stg.add_edge_transition(a, reshuffle_petri::Polarity::Fall);
        stg.connect(t1, t2).unwrap();
        let p = stg.connect(t2, t1).unwrap();
        stg.set_initial_places(&[p]);
        let sg = build_state_graph(&stg).unwrap();
        let q = sg.signal_by_name("quiet").unwrap();
        for s in sg.state_ids() {
            assert!(!sg.value(s, q));
        }
    }

    #[test]
    fn codes_differ_by_one_bit_along_arcs() {
        let stg = parse_g(FIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        for s in sg.state_ids() {
            for (e, t) in sg.succ(s) {
                let diff = sg.code(s) ^ sg.code(t);
                if sg.event(e).edge.is_some() {
                    assert_eq!(diff.count_ones(), 1);
                } else {
                    assert_eq!(diff, 0);
                }
            }
        }
    }

    #[test]
    fn budget_respected() {
        let stg = parse_g(FIG1).unwrap();
        let e = build_state_graph_with(
            &stg,
            &BuildOptions {
                state_budget: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(e, SgError::Petri(_)));
    }

    #[test]
    fn initial_value_inference_fig1() {
        // Req must be inferred high: Req- fires before any Req+.
        let stg = parse_g(FIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let req = sg.signal_by_name("Req").unwrap();
        let ack = sg.signal_by_name("Ack").unwrap();
        assert!(sg.value(sg.initial(), req));
        assert!(!sg.value(sg.initial(), ack));
    }

    /// The signal an inconsistent `.g` source is rejected for.
    fn inconsistent_signal(stg: &Stg) -> String {
        match build_state_graph(stg).unwrap_err() {
            SgError::Inconsistent { signal, .. } => signal,
            e => panic!("expected an inconsistency, got {e}"),
        }
    }

    #[test]
    fn declared_value_contradicted_by_a_rise() {
        // a+ fires first, so a must start at 0; declaring 1 contradicts it.
        let src = ".model fp\n.inputs a\n.outputs b\n.graph\n\
                   a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";
        let mut stg = parse_g(src).unwrap();
        let a = stg.signal_by_name("a").unwrap();
        stg.set_initial_value(a, true);
        assert_eq!(inconsistent_signal(&stg), "a");
        // Declaring the value the arcs imply changes nothing.
        stg.set_initial_value(a, false);
        let declared = build_state_graph(&stg).unwrap();
        let inferred = build_state_graph(&parse_g(src).unwrap()).unwrap();
        assert_eq!(format!("{declared:?}"), format!("{inferred:?}"));
    }

    #[test]
    fn toggle_free_marking_under_two_codes() {
        // p1 is reached by a+ or by the dummy, so a is 1 or 0 there, and
        // no later edge of a tells the two apart.
        let src = ".model two\n.inputs a b\n.dummy eps\n.graph\np0 a+ eps\na+ p1\n\
                   eps p1\np1 b+\nb+ p2\np2 b-\nb- p1\n.marking { p0 }\n.end\n";
        assert_eq!(inconsistent_signal(&parse_g(src).unwrap()), "a");
    }

    #[test]
    fn toggle_spec_solves_its_rise_fall_signal() {
        // a toggles once per lap, so the 3-marking cycle unfolds into 6
        // states; b rises after a~ and starts at 0.
        let src = ".model mix\n.inputs a\n.outputs b\n.graph\n\
                   a~ b+\nb+ b-\nb- a~\n.marking { <b-,a~> }\n.end\n";
        let stg = parse_g(src).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        assert_eq!(sg.interned_markings().len(), 3);
        // Bit 0 is a, bit 1 is b, states in canonical BFS order.
        assert_eq!(sg.codes(), [0b00, 0b01, 0b11, 0b01, 0b00, 0b10]);
    }

    #[test]
    fn mixed_edge_signal_keeps_marking_level_inference() {
        // a- ends at the initial marking, fixing a = 0 there; then a~
        // raises a and a+ fires while a is already 1. (A start at 1
        // would fit every rise/fall arc, but not the marking rule.)
        let src = ".model mixed\n.inputs a\n.graph\n\
                   a~ a+\na+ a-\na- a~\n.marking { <a-,a~> }\n.end\n";
        assert_eq!(inconsistent_signal(&parse_g(src).unwrap()), "a");
    }
}
