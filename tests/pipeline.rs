//! Cross-crate integration: parse a `.g` STG, build the state graph,
//! check coding, derive next-state logic, and run the facade pipeline —
//! plus the golden-corpus regression suite that pins literal counts and
//! signal sets for every example in `reshuffle_bench::examples`.

mod common;

use reshuffle::{
    ExpansionOptions, Pipeline, PipelineError, PipelineOptions, ReduceOptions, Synthesis,
};
use reshuffle_bench::examples::{self, XYZ_G};
use reshuffle_logic::minimize_codes;
use reshuffle_petri::{parse_g, SignalId, SignalKind};
use reshuffle_sg::nextstate::implied_value;
use reshuffle_sg::{build_state_graph, csc::analyze_csc, props::speed_independence, StateGraph};
use reshuffle_synth::{
    check_against_sg, derive_all_functions, literal_estimate, synthesize_complex_gates,
    synthesize_gc, verify_against_sg, ConflictPolicy, GateType, Mismatch, Netlist, Node, NodeId,
    SignalFunction,
};
use reshuffle_timing::{simulate, DelayModel, SimOptions};

/// One-shot builder run of `.g` source text.
fn run(src: &str, opts: &PipelineOptions) -> reshuffle::Result<Synthesis> {
    Pipeline::from_g(src)?.run(opts).map(|d| d.into_synthesis())
}

#[test]
fn parse_to_netlist_step_by_step() {
    // Stage 1: parse.
    let stg = parse_g(XYZ_G).expect("parse");
    assert_eq!(stg.net().num_transitions(), 6);

    // Stage 2: state graph.
    let sg = build_state_graph(&stg).expect("state graph");
    assert_eq!(sg.num_states(), 6);
    assert!(speed_independence(&sg).is_speed_independent());

    // Stage 3: coding.
    let csc = analyze_csc(&sg);
    assert!(csc.has_csc(), "xyz must be CSC-clean");

    // Stage 4: next-state functions for the two outputs.
    let funcs = derive_all_functions(&sg, ConflictPolicy::Reject).expect("functions");
    assert_eq!(funcs.len(), 2);
    for f in &funcs {
        assert!(!f.cover.is_empty(), "empty cover for an output");
    }

    // Stage 5: mapped netlist, verified against the specification.
    let netlist = run(XYZ_G, &PipelineOptions::default())
        .expect("facade pipeline")
        .netlist;
    verify_against_sg(&sg, &netlist).expect("verification");

    // Stage 6: timing closes the loop (2+1 delays, 6-event cycle).
    let delays = DelayModel::uniform(&stg, 2.0, 1.0);
    let run = simulate(&stg, &delays, &SimOptions::default()).expect("timed run");
    assert_eq!(run.period, 8.0); // x+ x- are inputs (2.0), four outputs 1.0
    assert_eq!(run.input_events_on_cycle, 2);
}

#[test]
fn facade_rejects_malformed_sources_by_stage() {
    assert!(matches!(
        run(".model nothing\n.end\n", &PipelineOptions::default()),
        Err(PipelineError::Parse(_))
    ));
    // An inconsistent STG (b rises twice per cycle, never falls) fails
    // no later than the state-graph stage.
    let inconsistent = ".model bad\n.inputs a\n.outputs b\n.graph\n\
         a+ b+\nb+ b+/2\nb+/2 a-\na- a+\n.marking { <a-,a+> }\n.end\n";
    match run(inconsistent, &PipelineOptions::default()) {
        Err(PipelineError::Parse(_)) | Err(PipelineError::StateGraph(_)) => {}
        other => panic!("expected staged failure, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Golden-corpus regression suite.
//
// Every example in `reshuffle_bench::examples::ALL` is synthesized
// four ways — default pipeline, with the Section 4 concurrency-reduction
// stage, with the Section 3 handshake-expansion stage, and with both
// composed — and the outcome is rendered to one line per run: literal
// count, timed cycle, sorted signal set, inserted state signals, plus
// the serializing moves (reduce modes) and winning ordering choices
// (expand modes). Partial corpus entries error out of the non-expand
// modes by design; complete entries pass through the expand stage
// untouched. The lines must match `GOLDEN` exactly.
//
// To re-bless after an intentional change: run
//   cargo test -q golden_corpus -- --nocapture
// and replace the body of `GOLDEN` with the `actual:` block the
// failure prints (one copy-paste edit).
// ---------------------------------------------------------------------

/// The four pipeline modes pinned per corpus entry.
fn golden_modes() -> Vec<(&'static str, PipelineOptions)> {
    vec![
        ("default", PipelineOptions::new()),
        (
            "reduce",
            PipelineOptions::new().with_reduce(ReduceOptions::default()),
        ),
        (
            "expand",
            PipelineOptions::new().with_expand(ExpansionOptions::default()),
        ),
        (
            "exp+red",
            PipelineOptions::new()
                .with_expand(ExpansionOptions::default())
                .with_reduce(ReduceOptions::default()),
        ),
    ]
}

/// Expected outcome lines, one per (example, mode), in corpus order.
const GOLDEN: &[&str] = &[
    "toggle   default lits=1 cycle=6.0 signals=[a,b] inserted=[]",
    "toggle   reduce  lits=1 cycle=6.0 signals=[a,b] inserted=[] moves=[]",
    "toggle   expand  lits=1 cycle=6.0 signals=[a,b] inserted=[] choices=[]",
    "toggle   exp+red lits=1 cycle=6.0 signals=[a,b] inserted=[] moves=[] choices=[]",
    "xyz      default lits=2 cycle=8.0 signals=[x,y,z] inserted=[]",
    "xyz      reduce  lits=2 cycle=8.0 signals=[x,y,z] inserted=[] moves=[]",
    "xyz      expand  lits=2 cycle=8.0 signals=[x,y,z] inserted=[] choices=[]",
    "xyz      exp+red lits=2 cycle=8.0 signals=[x,y,z] inserted=[] moves=[] choices=[]",
    "lr       default lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[]",
    "lr       reduce  lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] moves=[]",
    "lr       expand  lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] choices=[]",
    "lr       exp+red lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] moves=[] choices=[]",
    "mmu      default lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[]",
    "mmu      reduce  lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[] moves=[]",
    "mmu      expand  lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[] choices=[]",
    "mmu      exp+red lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[] moves=[] choices=[]",
    "par      default lits=8 cycle=12.0 signals=[a1,a2,done,go,r1,r2] inserted=[]",
    "par      reduce  lits=3 cycle=18.0 signals=[a1,a2,done,go,r1,r2] inserted=[] moves=[a1- -> r2-,a1+ -> r2+]",
    "par      expand  lits=8 cycle=12.0 signals=[a1,a2,done,go,r1,r2] inserted=[] choices=[]",
    "par      exp+red lits=3 cycle=18.0 signals=[a1,a2,done,go,r1,r2] inserted=[] moves=[a1- -> r2-,a1+ -> r2+] choices=[]",
    "mfig1    default error=synthesis: CSC resolution stalled with 1 conflicts after inserting 0 signals",
    "mfig1    reduce  lits=1 cycle=6.0 signals=[Ack,Req] inserted=[] moves=[Ack- -> Req+]",
    "mfig1    expand  error=synthesis: CSC resolution stalled with 1 conflicts after inserting 0 signals",
    "mfig1    exp+red lits=1 cycle=6.0 signals=[Ack,Req] inserted=[] moves=[Ack- -> Req+] choices=[]",
    "creq     default lits=11 cycle=8.0 signals=[Ack,Go,Req,csc0] inserted=[csc0]",
    "creq     reduce  lits=2 cycle=8.0 signals=[Ack,Go,Req] inserted=[] moves=[Go- -> Req+]",
    "creq     expand  lits=11 cycle=8.0 signals=[Ack,Go,Req,csc0] inserted=[csc0] choices=[]",
    "creq     exp+red lits=2 cycle=8.0 signals=[Ack,Go,Req] inserted=[] moves=[Go- -> Req+] choices=[]",
    "hslr     default error=expansion: specification is partial; run handshake expansion before synthesis",
    "hslr     reduce  error=expansion: specification is partial; run handshake expansion before synthesis",
    "hslr     expand  lits=18 cycle=12.0 signals=[csc0,csc1,la,lr,ra,rr] inserted=[csc0,csc1] choices=[]",
    "hslr     exp+red lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] moves=[ra- -> la-,lr- -> rr-] choices=[]",
    "pcreq    default error=expansion: specification is partial; run handshake expansion before synthesis",
    "pcreq    reduce  error=expansion: specification is partial; run handshake expansion before synthesis",
    "pcreq    expand  lits=6 cycle=9.0 signals=[Ack,Go,Req,csc0] inserted=[csc0] choices=[Go+ -> Req-,Go- -> Ack-]",
    "pcreq    exp+red lits=2 cycle=8.0 signals=[Ack,Go,Req] inserted=[] moves=[Go+ -> Req-,Ack- -> Go-] choices=[]",
];

use common::golden_line;

#[test]
fn golden_corpus() {
    let mut actual = Vec::new();
    for (name, src) in examples::ALL {
        for (mode, opts) in golden_modes() {
            actual.push(golden_line(name, mode, &run(src, &opts)));
        }
    }
    let expected: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        expected,
        "\n== golden corpus drifted; to re-bless, replace GOLDEN with ==\nactual:\n{}\n",
        actual.join("\n")
    );
}

#[test]
fn prereduce_is_outcome_neutral_across_corpus_and_modes() {
    // Structural pre-reduction may only rewrite the net, never the
    // behaviour: for every corpus entry and every pipeline mode, the
    // run with prereduce disabled must produce the identical golden
    // outcome line, and — where synthesis succeeds — the identical
    // final state-graph fingerprint.
    for (name, src) in examples::ALL {
        for (mode, opts) in golden_modes() {
            let on = run(src, &opts);
            let off = run(src, &opts.clone().with_prereduce(false));
            assert_eq!(
                golden_line(name, mode, &on),
                golden_line(name, mode, &off),
                "{name}/{mode}: prereduce changed the synthesis outcome"
            );
            if let (Ok(a), Ok(b)) = (&on, &off) {
                assert_eq!(
                    a.sg.fingerprint(),
                    b.sg.fingerprint(),
                    "{name}/{mode}: prereduce changed the final state graph"
                );
            }
        }
    }
}

#[test]
fn golden_corpus_netlists_verify() {
    // Golden literal counts alone could pin a wrong implementation;
    // every successfully synthesized netlist must also model-check
    // against its (possibly transformed) state graph.
    for (name, src) in examples::ALL {
        for (_, opts) in golden_modes() {
            if let Ok(s) = run(src, &opts) {
                verify_against_sg(&s.sg, &s.netlist)
                    .unwrap_or_else(|e| panic!("{name}: verification failed: {e}"));
            }
        }
    }
}

/// Every state graph the corpus produces: each spec's own graph (which
/// may carry CSC conflicts) and the final graph of every successful
/// pipeline mode, plus plain scaled controllers from 56 to 4,376 states
/// (56 < 64, and none of 164 / 488 / 4,376 is a multiple of 64, so the
/// verifier's partial last block is exercised; 4,376 codes also take
/// the BDD minimizer path).
fn corpus_state_graphs() -> Vec<(String, StateGraph)> {
    let mut out = Vec::new();
    for (name, src) in examples::ALL {
        let stg = parse_g(src).expect("corpus parses");
        if let Ok(sg) = build_state_graph(&stg) {
            out.push((format!("{name}/spec"), sg));
        }
        for (mode, opts) in golden_modes() {
            if let Ok(s) = run(src, &opts) {
                out.push((format!("{name}/{mode}"), s.sg));
            }
        }
    }
    for n in [3, 4, 5, 7] {
        let s = run(&examples::scaled_pipeline(n), &PipelineOptions::new()).expect("scaled");
        out.push((format!("scaled{n}"), s.sg));
    }
    out
}

/// One node of `nl` evaluated on one code, recursively from the node
/// table — deliberately independent of the netlist's own evaluator.
fn eval_one(nl: &Netlist, n: NodeId, code: u64) -> bool {
    match &nl.nodes()[n.0 as usize] {
        Node::SignalRef(s) => (code >> s.index()) & 1 == 1,
        Node::Const(b) => *b,
        Node::Gate(g, ins) => {
            let a = eval_one(nl, ins[0], code);
            match g {
                GateType::Inv => !a,
                GateType::And2 => a && eval_one(nl, ins[1], code),
                GateType::Or2 => a || eval_one(nl, ins[1], code),
            }
        }
        Node::GcLatch { set, reset, holds } => {
            if eval_one(nl, *set, code) {
                true
            } else if eval_one(nl, *reset, code) {
                false
            } else {
                (code >> holds.index()) & 1 == 1
            }
        }
    }
}

/// The per-state reference checker: every state, every driven
/// non-input signal, the implied value against a one-code evaluation.
fn reference_mismatches(sg: &StateGraph, nl: &Netlist) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s);
        let next = nl.next_code(code);
        for i in 0..sg.num_signals() {
            let sig = SignalId::from_index(i);
            let Some(d) = nl.driver(sig) else {
                continue;
            };
            if sg.signal(sig).kind == SignalKind::Input {
                continue;
            }
            let got = eval_one(nl, d, code);
            assert_eq!(
                (next >> i) & 1 == 1,
                got,
                "next_code disagrees at state {s}"
            );
            let expected = implied_value(sg, s, sig);
            if expected != got {
                out.push(Mismatch {
                    state: s,
                    signal: sg.signal(sig).name.clone(),
                    expected,
                    got,
                });
            }
        }
    }
    out
}

/// Rebuilds `nl` with `edit` applied to each node and `driver` picking
/// each signal's driver (given the original one and the new table).
fn rebuild(
    nl: &Netlist,
    edit: impl Fn(usize, &Node) -> Node,
    driver: impl Fn(usize, NodeId, &mut Netlist) -> NodeId,
) -> Netlist {
    let mut out = Netlist::new(nl.signals().to_vec());
    for (i, node) in nl.nodes().iter().enumerate() {
        out.add(edit(i, node));
    }
    for i in 0..nl.signals().len() {
        let sig = SignalId::from_index(i);
        if let Some(d) = nl.driver(sig) {
            let d = driver(i, d, &mut out);
            out.set_driver(sig, d).unwrap();
        }
    }
    out
}

/// Deliberately broken variants of a netlist, by kind: the first
/// AND/OR gate flipped, the first two distinct signal leaves swapped, a
/// latch holding the wrong signal, and the first driver tied to 0 or
/// to 1.
fn broken_variants(nl: &Netlist) -> Vec<(&'static str, Netlist)> {
    let nodes = nl.nodes();
    let keep = |_: usize, d: NodeId, _: &mut Netlist| d;
    let mut out = Vec::new();
    if let Some(at) = nodes
        .iter()
        .position(|n| matches!(n, Node::Gate(GateType::And2 | GateType::Or2, _)))
    {
        let flip = |i: usize, n: &Node| match n {
            Node::Gate(g, ins) if i == at => {
                let g = if *g == GateType::And2 {
                    GateType::Or2
                } else {
                    GateType::And2
                };
                Node::Gate(g, ins.clone())
            }
            n => n.clone(),
        };
        out.push(("flipped gate", rebuild(nl, flip, keep)));
    }
    let leaves: Vec<(usize, SignalId)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n {
            Node::SignalRef(s) => Some((i, *s)),
            _ => None,
        })
        .collect();
    if let Some(&(j, b)) = leaves.iter().find(|(_, s)| *s != leaves[0].1) {
        let (i, a) = leaves[0];
        let swap = |k: usize, n: &Node| match n {
            _ if k == i => Node::SignalRef(b),
            _ if k == j => Node::SignalRef(a),
            n => n.clone(),
        };
        out.push(("swapped inputs", rebuild(nl, swap, keep)));
    }
    let n = nl.signals().len();
    if let Some(at) = nodes.iter().position(|x| matches!(x, Node::GcLatch { .. })) {
        let rehold = |i: usize, x: &Node| match x {
            Node::GcLatch { set, reset, holds } if i == at => Node::GcLatch {
                set: *set,
                reset: *reset,
                holds: SignalId::from_index((holds.index() + 1) % n),
            },
            x => x.clone(),
        };
        out.push(("wrong hold", rebuild(nl, rehold, keep)));
    }
    if let Some(first) = (0..n).find(|&i| nl.driver(SignalId::from_index(i)).is_some()) {
        for level in [false, true] {
            let tie = move |i: usize, d: NodeId, out: &mut Netlist| {
                if i == first {
                    out.add(Node::Const(level))
                } else {
                    d
                }
            };
            out.push(("constant driver", rebuild(nl, |_, x| x.clone(), tie)));
        }
    }
    out
}

#[test]
fn word_parallel_checker_matches_per_state_reference() {
    let mut caught: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut checked = 0;
    for (name, sg) in corpus_state_graphs() {
        let mut netlists = Vec::new();
        if let Ok(imp) = synthesize_complex_gates(&sg) {
            netlists.push(("complex-gate", imp.netlist));
        }
        if let Ok(imp) = synthesize_gc(&sg) {
            netlists.push(("gC", imp.netlist));
        }
        for (style, nl) in netlists {
            let mut variants = vec![("as synthesized", nl.clone())];
            variants.extend(broken_variants(&nl));
            for (kind, nl) in variants {
                let want = reference_mismatches(&sg, &nl);
                let got = check_against_sg(&sg, &nl);
                assert_eq!(got, want, "{name} {style} {kind}: checkers disagree");
                match (verify_against_sg(&sg, &nl), want.first()) {
                    (Ok(()), None) => {}
                    (Err(e), Some(m)) => {
                        let msg = e.to_string();
                        assert!(
                            msg.contains(&format!("state {} (", m.state))
                                && msg.contains(&format!("signal `{}`", m.signal)),
                            "{name} {style} {kind}: {msg} does not report {m:?}"
                        );
                    }
                    (r, m) => panic!("{name} {style} {kind}: verify {r:?} vs first {m:?}"),
                }
                if kind == "as synthesized" {
                    assert!(want.is_empty(), "{name} {style}: synthesized netlist wrong");
                } else if !want.is_empty() {
                    *caught.entry(kind).or_default() += 1;
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} netlists checked");
    for kind in [
        "flipped gate",
        "swapped inputs",
        "wrong hold",
        "constant driver",
    ] {
        assert!(
            caught.get(kind).is_some_and(|&c| c > 0),
            "no {kind} mutant caught: {caught:?}"
        );
    }
}

#[test]
fn complex_gate_literals_equal_the_literal_estimate() {
    // The ranking scores a freshly synthesized complex-gate candidate
    // by the literal sum of its derived functions instead of calling
    // `literal_estimate` again; the two must agree wherever
    // complex-gate synthesis succeeds.
    let mut compared = 0;
    for (name, sg) in corpus_state_graphs() {
        if let Ok(imp) = synthesize_complex_gates(&sg) {
            let sum: u32 = imp.functions.iter().map(SignalFunction::literals).sum();
            assert_eq!(sum, literal_estimate(&sg), "{name}");
            compared += 1;
        }
    }
    assert!(compared > 20, "only {compared} graphs compared");
}

#[test]
fn shared_unreached_cover_gives_the_per_signal_covers() {
    // 4,376 codes put every signal on the BDD path; the cover derived
    // with the once-per-graph don't-care cubes must be the one each
    // signal's own on/off lists minimize to.
    let s = run(&examples::scaled_pipeline(7), &PipelineOptions::new()).expect("scaled");
    let funcs = derive_all_functions(&s.sg, ConflictPolicy::Reject).expect("conflict-free");
    assert!(funcs
        .iter()
        .all(|f| f.table.on.len() + f.table.off.len() > 4096));
    for f in &funcs {
        let own = minimize_codes(f.table.num_vars, &f.table.on, &f.table.off);
        assert_eq!(f.cover, own, "signal {}", s.sg.signal(f.signal).name);
    }
}
