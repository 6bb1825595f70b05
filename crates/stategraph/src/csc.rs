//! Complete State Coding (CSC) analysis.
//!
//! A consistent SG has *CSC* iff every pair of states with equal binary
//! codes enables the same set of non-input signal events (Section 2).
//! CSC is necessary and sufficient for deriving logic; the number of
//! remaining conflicts drives the cost function of the reduction search.

use std::collections::HashMap;

use crate::sg::{StateGraph, StateId};

/// A pair of equally-coded states witnessing a CSC conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodingConflict {
    /// First state (lower id).
    pub a: StateId,
    /// Second state.
    pub b: StateId,
    /// The shared binary code.
    pub code: u64,
}

/// Report of all CSC conflicts of a state graph.
#[derive(Debug, Clone, Default)]
pub struct CscReport {
    /// All CSC-violating pairs: equal codes, different non-input
    /// excitation.
    pub conflicts: Vec<CodingConflict>,
}

impl CscReport {
    /// Number of CSC-violating pairs.
    pub fn num_csc_conflicts(&self) -> usize {
        self.conflicts.len()
    }

    /// True if the graph satisfies CSC.
    pub fn has_csc(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Computes all CSC conflicts by bucketing states on their codes.
pub fn analyze_csc(sg: &StateGraph) -> CscReport {
    let mut buckets: HashMap<u64, Vec<StateId>> = HashMap::new();
    for s in sg.state_ids() {
        buckets.entry(sg.code(s)).or_default().push(s);
    }
    let mut conflicts = Vec::new();
    for (&code, states) in &buckets {
        if states.len() < 2 {
            continue;
        }
        let excited: Vec<_> = states
            .iter()
            .map(|&s| sg.enabled_noninput_edges(s))
            .collect();
        for (i, &a) in states.iter().enumerate() {
            for (j, &b) in states.iter().enumerate().skip(i + 1) {
                if excited[i] != excited[j] {
                    conflicts.push(CodingConflict {
                        a: a.min(b),
                        b: a.max(b),
                        code,
                    });
                }
            }
        }
    }
    conflicts.sort_by_key(|c| (c.a, c.b));
    CscReport { conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_state_graph;
    use reshuffle_petri::parse_g;

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
    fn fig1_has_one_csc_conflict() {
        // The paper: binary codes 11* and 1*1 correspond to different
        // states -> CSC violated.
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        let rep = analyze_csc(&sg);
        assert!(!rep.has_csc());
        assert_eq!(rep.num_csc_conflicts(), 1);
        let c = rep.conflicts[0];
        // One of the two states enables Ack- (an output), the other not.
        let ea = sg.enabled_noninput_edges(c.a);
        let eb = sg.enabled_noninput_edges(c.b);
        assert_ne!(ea, eb);
    }

    #[test]
    fn simple_pipeline_has_csc() {
        let src = "\
.model ok
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let rep = analyze_csc(&sg);
        assert!(rep.has_csc());
        assert!(rep.conflicts.is_empty());
    }

    #[test]
    fn usc_without_csc_conflict() {
        // Two states share code 10 but enable the same outputs (none):
        // after a+ (environment) the circuit is idle both times.
        // Construct: a+ b+ a- b- a+/2 ... a cycle revisiting code.
        let src = "\
.model usc
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+/2
a+/2 b+/2
b+/2 a-/2
a-/2 b-/2
b-/2 a+
.marking { <b-/2,a+> }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let rep = analyze_csc(&sg);
        // Eight states, four distinct codes, each shared by two states
        // with identical output excitation: USC fails, CSC holds.
        assert_eq!(sg.num_states(), 8);
        let mut codes = sg.codes().to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4);
        assert!(rep.conflicts.is_empty(), "{:?}", rep.conflicts);
        assert!(rep.has_csc());
    }
}
