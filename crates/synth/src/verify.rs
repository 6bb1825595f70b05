//! Implementation verification: does a netlist realize the state graph?
//!
//! For speed-independent complex-gate (and gC) implementations the
//! defining correctness condition is that, in every reachable state,
//! the next value computed by each signal's network equals the implied
//! value of that signal (rise-excited ⇒ 1, fall-excited ⇒ 0, stable ⇒
//! current value). This catches minimizer, factoring and mapping bugs.
//!
//! Every reachable state and every driven non-input signal is checked.
//! The check runs 64 states per machine word: each state's implied code
//! comes from one pass over its arcs ([`implied_code`]), and the
//! netlist is evaluated on a whole block of states by one forward sweep
//! of its node table.

use reshuffle_petri::{SignalId, SignalKind};
use reshuffle_sg::nextstate::implied_code;
use reshuffle_sg::{StateGraph, StateId};

use crate::error::{Result, SynthError};
use crate::netlist::Netlist;

/// A single verification mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// State where the netlist disagrees with the specification.
    pub state: reshuffle_sg::StateId,
    /// The signal computed wrongly.
    pub signal: String,
    /// Value the specification implies.
    pub expected: bool,
    /// Value the netlist computes.
    pub got: bool,
}

/// Checks the netlist against every reachable state of the graph.
///
/// Returns all mismatches (empty = correct), ordered by state and then
/// by signal index.
pub fn check_against_sg(sg: &StateGraph, netlist: &Netlist) -> Vec<Mismatch> {
    check_blocks(sg, netlist, false)
}

/// The bit-parallel checker: states are taken 64 at a time, each
/// signal's current and implied values for the block are transposed
/// into one `u64` word (lane `l` = state `base + l`), and the netlist is
/// evaluated on the whole block by one sweep of its node table. With
/// `first_block_only`, stops after the first block that has a mismatch.
fn check_blocks(sg: &StateGraph, netlist: &Netlist, first_block_only: bool) -> Vec<Mismatch> {
    let n = sg.num_signals();
    // (signal index, driving node) of every driven non-input signal:
    // the signals a netlist value is checked for.
    let checked: Vec<(usize, usize)> = (0..n)
        .filter_map(|i| {
            let sig = SignalId::from_index(i);
            match netlist.driver(sig) {
                Some(d) if sg.signal(sig).kind != SignalKind::Input => Some((i, d.0 as usize)),
                _ => None,
            }
        })
        .collect();
    let mut out = Vec::new();
    let (mut cur, mut implied) = (vec![0u64; n], vec![0u64; n]);
    let mut vals = Vec::with_capacity(netlist.nodes().len());
    let mut diffs = vec![0u64; checked.len()];
    let num_states = sg.num_states();
    for base in (0..num_states).step_by(64) {
        let lanes = (num_states - base).min(64);
        cur.fill(0);
        implied.fill(0);
        for lane in 0..lanes {
            let s = (base + lane) as StateId;
            let (code, next) = (sg.code(s), implied_code(sg, s));
            for i in 0..n {
                cur[i] |= ((code >> i) & 1) << lane;
                implied[i] |= ((next >> i) & 1) << lane;
            }
        }
        netlist.eval_lanes(&cur, &mut vals);
        // Lanes past the last state carry code 0; mask them out.
        let live = u64::MAX >> (64 - lanes);
        let mut any = 0;
        for (diff, &(i, node)) in diffs.iter_mut().zip(&checked) {
            *diff = (vals[node] ^ implied[i]) & live;
            any |= *diff;
        }
        if any == 0 {
            continue;
        }
        for lane in 0..lanes {
            for (diff, &(i, _)) in diffs.iter().zip(&checked) {
                if (diff >> lane) & 1 == 1 {
                    let expected = (implied[i] >> lane) & 1 == 1;
                    out.push(Mismatch {
                        state: (base + lane) as StateId,
                        signal: sg.signal(SignalId::from_index(i)).name.clone(),
                        expected,
                        got: !expected,
                    });
                }
            }
        }
        if first_block_only {
            break;
        }
    }
    out
}

/// Like [`check_against_sg`] but returns an error on the first mismatch.
///
/// # Errors
///
/// [`SynthError::VerificationFailed`] describing the first mismatch.
pub fn verify_against_sg(sg: &StateGraph, netlist: &Netlist) -> Result<()> {
    let mismatches = check_blocks(sg, netlist, true);
    match mismatches.first() {
        None => Ok(()),
        Some(m) => Err(SynthError::VerificationFailed(format!(
            "state {} ({}): signal `{}` computes {} but specification implies {}",
            m.state,
            sg.render_state(m.state),
            m.signal,
            m.got as u8,
            m.expected as u8
        ))),
    }
}

/// Verifies that every driven signal is *complete*: all non-input
/// signals of the graph have drivers in the netlist.
///
/// # Errors
///
/// [`SynthError::VerificationFailed`] naming the first undriven signal.
pub fn verify_complete(sg: &StateGraph, netlist: &Netlist) -> Result<()> {
    for i in 0..sg.num_signals() {
        let sig = SignalId::from_index(i);
        if sg.signal(sig).kind.is_noninput() && netlist.driver(sig).is_none() {
            return Err(SynthError::VerificationFailed(format!(
                "non-input signal `{}` has no driver",
                sg.signal(sig).name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexgate::synthesize_complex_gates;
    use crate::gc::synthesize_gc;
    use crate::netlist::GateType;
    use crate::netlist::Node;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    const CELEM: &str = "\
.model celem
.inputs a1 a2
.outputs b
.graph
a1+ b+
a2+ b+
b+ a1- a2-
a1- b-
a2- b-
b- a1+ a2+
.marking { <b-,a1+> <b-,a2+> }
.end
";

    #[test]
    fn complex_gate_and_gc_both_verify() {
        let sg = build_state_graph(&parse_g(CELEM).unwrap()).unwrap();
        let cg = synthesize_complex_gates(&sg).unwrap();
        verify_against_sg(&sg, &cg.netlist).unwrap();
        verify_complete(&sg, &cg.netlist).unwrap();
        let gc = synthesize_gc(&sg).unwrap();
        verify_against_sg(&sg, &gc.netlist).unwrap();
        verify_complete(&sg, &gc.netlist).unwrap();
    }

    #[test]
    fn wrong_netlist_caught() {
        let sg = build_state_graph(&parse_g(CELEM).unwrap()).unwrap();
        // Drive b with a1 AND NOT a2 — wrong.
        let mut nl = Netlist::new(sg.signals().to_vec());
        let a1 = nl.add(Node::SignalRef(SignalId(0)));
        let a2 = nl.add(Node::SignalRef(SignalId(1)));
        let na2 = nl.add(Node::Gate(GateType::Inv, vec![a2]));
        let and = nl.add(Node::Gate(GateType::And2, vec![a1, na2]));
        let b = sg.signal_by_name("b").unwrap();
        nl.set_driver(b, and).unwrap();
        let ms = check_against_sg(&sg, &nl);
        assert!(!ms.is_empty());
        assert!(verify_against_sg(&sg, &nl).is_err());
    }

    #[test]
    fn undriven_signal_caught() {
        let sg = build_state_graph(&parse_g(CELEM).unwrap()).unwrap();
        let nl = Netlist::new(sg.signals().to_vec());
        assert!(verify_complete(&sg, &nl).is_err());
        // But an empty netlist trivially passes value checks.
        assert!(check_against_sg(&sg, &nl).is_empty());
    }
}
