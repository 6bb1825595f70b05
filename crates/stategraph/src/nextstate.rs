//! Next-state functions of non-input signals.
//!
//! For each non-input signal `a`, every reachable state is classified:
//! the *implied value* of `a` is 1 if `a` is high and stable or low and
//! excited (rising), and 0 symmetrically. Binary codes reached by no
//! state form the external don't-care set. Codes that appear with both
//! implied values are *CSC-conflicting* for `a`; logic cannot be derived
//! for them, and the reduction cost function penalizes them.

use reshuffle_petri::{Polarity, SignalEdge, SignalId};

use crate::sg::StateGraph;

/// The on/off/conflict partition of binary codes for one signal.
#[derive(Debug, Clone)]
pub struct NextStateTable {
    /// The signal being implemented.
    pub signal: SignalId,
    /// Codes whose implied next value is 1 (minus conflicts).
    pub on: Vec<u64>,
    /// Codes whose implied next value is 0 (minus conflicts).
    pub off: Vec<u64>,
    /// Codes implied both 1 and 0 by different states (CSC conflicts
    /// affecting this signal).
    pub conflicting: Vec<u64>,
    /// Number of variables (signals) in each code.
    pub num_vars: usize,
}

impl NextStateTable {
    /// True if the function is well-defined on all reachable codes.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicting.is_empty()
    }
}

/// The implied next value of `sig` in state `s`.
pub fn implied_value(sg: &StateGraph, s: crate::sg::StateId, sig: SignalId) -> bool {
    let cur = sg.value(s, sig);
    let rise = SignalEdge {
        signal: sig,
        polarity: Polarity::Rise,
    };
    let fall = SignalEdge {
        signal: sig,
        polarity: Polarity::Fall,
    };
    if cur {
        // High: stays 1 unless a falling edge is excited.
        !sg.enables_edge(s, fall)
    } else {
        sg.enables_edge(s, rise)
    }
}

/// The implied next value of every signal in state `s` at once: bit
/// `i` equals [`implied_value`]`(sg, s, i)`. One pass over the state's
/// arcs collects the excited rising and falling signals.
pub fn implied_code(sg: &StateGraph, s: crate::sg::StateId) -> u64 {
    let (mut rise, mut fall) = (0u64, 0u64);
    for &ev in sg.succ(s).events() {
        if let Some(edge) = sg.event(ev).edge {
            match edge.polarity {
                Polarity::Rise => rise |= 1 << edge.signal.index(),
                Polarity::Fall => fall |= 1 << edge.signal.index(),
                Polarity::Toggle => {}
            }
        }
    }
    let code = sg.code(s);
    (code & !fall) | (!code & rise)
}

/// Builds the next-state table for one signal.
pub fn next_state_table(sg: &StateGraph, sig: SignalId) -> NextStateTable {
    let mut ons = Vec::new();
    let mut offs = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s);
        if implied_value(sg, s, sig) {
            ons.push(code);
        } else {
            offs.push(code);
        }
    }
    ons.sort_unstable();
    ons.dedup();
    offs.sort_unstable();
    offs.dedup();
    // One merge splits the codes in both lists out as conflicts.
    let mut on = Vec::with_capacity(ons.len());
    let mut off = Vec::with_capacity(offs.len());
    let mut conflicting = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < ons.len() && j < offs.len() {
        match ons[i].cmp(&offs[j]) {
            std::cmp::Ordering::Less => {
                on.push(ons[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                off.push(offs[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                conflicting.push(ons[i]);
                i += 1;
                j += 1;
            }
        }
    }
    on.extend_from_slice(&ons[i..]);
    off.extend_from_slice(&offs[j..]);
    NextStateTable {
        signal: sig,
        on,
        off,
        conflicting,
        num_vars: sg.num_signals(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_state_graph;
    use reshuffle_petri::parse_g;

    #[test]
    fn c_element_next_state() {
        // b = C(a1, a2): b+ after both inputs rise, b- after both fall.
        let src = "\
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
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        let t = next_state_table(&sg, b);
        assert!(t.is_conflict_free());
        // ON: code a1=1,a2=1 (any b) plus b=1 with not both low.
        // Verify the defining corners: (1,1,0) is ON, (0,0,1) is OFF.
        let a1 = sg.signal_by_name("a1").unwrap().index();
        let a2 = sg.signal_by_name("a2").unwrap().index();
        let bi = b.index();
        let on_code = (1 << a1) | (1 << a2);
        let off_code = 1 << bi;
        assert!(t.on.contains(&on_code), "{t:?}");
        assert!(t.off.contains(&off_code), "{t:?}");
        // Codes partition: on + off = reachable codes.
        assert_eq!(t.on.len() + t.off.len(), {
            let mut codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
            codes.sort_unstable();
            codes.dedup();
            codes.len()
        });
    }

    #[test]
    fn implied_code_matches_implied_value_bitwise() {
        let src = "\
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
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        for s in sg.state_ids() {
            let code = implied_code(&sg, s);
            for i in 0..sg.num_signals() {
                let v = implied_value(&sg, s, SignalId::from_index(i));
                assert_eq!((code >> i) & 1 == 1, v, "state {s} signal {i}");
            }
            assert_eq!(code >> sg.num_signals(), 0);
        }
    }

    #[test]
    fn conflicting_codes_detected() {
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
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        let ack = sg.signal_by_name("Ack").unwrap();
        let t = next_state_table(&sg, ack);
        // States 11* and 1*1 share a code but imply Ack=1 and Ack=0.
        assert_eq!(t.conflicting.len(), 1);
        assert!(!t.is_conflict_free());
        // The conflict is split out of both lists, which stay sorted.
        let c = t.conflicting[0];
        assert!(!t.on.contains(&c) && !t.off.contains(&c), "{t:?}");
        assert!(t.on.windows(2).all(|w| w[0] < w[1]), "{t:?}");
        assert!(t.off.windows(2).all(|w| w[0] < w[1]), "{t:?}");
    }
}
