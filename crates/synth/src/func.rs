//! Deriving minimized next-state functions from a state graph.

use std::cell::OnceCell;

use reshuffle_logic::{
    complement, minimize, minimize_codes, minimize_codes_with_dc, unreached_cubes, Cover, Cube,
};
use reshuffle_petri::SignalId;
use reshuffle_sg::nextstate::{next_state_table, NextStateTable};
use reshuffle_sg::StateGraph;

use crate::error::{Result, SynthError};

/// Above this many reachable codes per table the cube-list espresso
/// path (quadratic-or-worse in the minterm count) is replaced by the
/// BDD-backed interval minimizer [`minimize_codes`], whose cost tracks
/// the decision-diagram sizes instead. The corpus-sized functions stay
/// on the cube-list path so their covers — and the literal counts
/// pinned in `BENCH_tables.json` — are bit-for-bit unchanged.
const SCALABLE_MINTERM_THRESHOLD: usize = 4096;

/// The minimized next-state function of one signal.
#[derive(Debug, Clone)]
pub struct SignalFunction {
    /// The signal implemented.
    pub signal: SignalId,
    /// Minimized cover of the next-state function.
    pub cover: Cover,
    /// The raw on/off/conflict partition it was derived from.
    pub table: NextStateTable,
}

impl SignalFunction {
    /// Literal count of the minimized cover.
    pub fn literals(&self) -> u32 {
        self.cover.num_literals()
    }

    /// True if the function is a single positive literal of another
    /// signal (implementable as a plain wire).
    pub fn is_wire(&self) -> bool {
        self.cover.len() == 1 && {
            let c = self.cover.cubes()[0];
            c.num_literals() == 1 && c.pos.count_ones() == 1
        }
    }
}

/// How CSC conflicts are treated when deriving functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Fail with [`SynthError::CscViolation`] (synthesis).
    Reject,
    /// Treat conflicting codes as don't-cares (cost estimation — the
    /// paper notes estimates are inaccurate under CSC conflicts).
    DontCare,
}

/// Derives and minimizes the next-state function of `signal`.
///
/// The don't-care set is the binary codes reached by no state (plus
/// conflicting codes under [`ConflictPolicy::DontCare`]).
///
/// # Errors
///
/// [`SynthError::CscViolation`] if the signal has conflicting codes and
/// `policy` is [`ConflictPolicy::Reject`].
pub fn derive_function(
    sg: &StateGraph,
    signal: SignalId,
    policy: ConflictPolicy,
) -> Result<SignalFunction> {
    derive_with(sg, signal, policy, &OnceCell::new())
}

/// [`derive_function`] with the BDD path's unreached-code cubes held in
/// `unreached`, computed on first use: every conflict-free table of one
/// state graph has the same reachable codes, so they share one cover.
fn derive_with(
    sg: &StateGraph,
    signal: SignalId,
    policy: ConflictPolicy,
    unreached: &OnceCell<Vec<Cube>>,
) -> Result<SignalFunction> {
    let table = next_state_table(sg, signal);
    if !table.conflicting.is_empty() && policy == ConflictPolicy::Reject {
        return Err(SynthError::CscViolation {
            signal: sg.signal(signal).name.clone(),
            conflicts: table.conflicting.len(),
        });
    }
    let nv = table.num_vars;
    let reachable = table.on.len() + table.off.len() + table.conflicting.len();
    let cover = if reachable <= SCALABLE_MINTERM_THRESHOLD {
        let on = Cover::from_minterms(nv, &table.on);
        let off = Cover::from_minterms(nv, &table.off);
        // dc = everything not in on or off (unreachable codes + conflicts).
        let dc = complement(&on.or(&off));
        minimize(&on, &dc)
    } else if table.is_conflict_free() {
        // Million-state tables: same contract (on ⊆ f ⊆ on ∪ dc),
        // derived through BDDs so the cost does not explode with the
        // state count. Here on ∪ off is every reachable code.
        let dc = unreached.get_or_init(|| unreached_cubes(nv, sg.codes()));
        minimize_codes_with_dc(nv, &table.on, &table.off, dc)
    } else {
        // Conflicting codes are in neither list, i.e. don't-care —
        // identical to the cube-list path above.
        minimize_codes(nv, &table.on, &table.off)
    };
    Ok(SignalFunction {
        signal,
        cover,
        table,
    })
}

/// Derives functions for all non-input signals.
///
/// # Errors
///
/// Propagates the first [`SynthError::CscViolation`] under
/// [`ConflictPolicy::Reject`].
pub fn derive_all_functions(
    sg: &StateGraph,
    policy: ConflictPolicy,
) -> Result<Vec<SignalFunction>> {
    let unreached = OnceCell::new();
    let mut out = Vec::new();
    for i in 0..sg.num_signals() {
        let s = SignalId::from_index(i);
        if sg.signal(s).kind.is_noninput() {
            out.push(derive_with(sg, s, policy, &unreached)?);
        }
    }
    Ok(out)
}

/// Total literal count over all non-input signals — the logic-complexity
/// estimate used by the reduction search (conflicting codes as DC).
pub fn literal_estimate(sg: &StateGraph) -> u32 {
    derive_all_functions(sg, ConflictPolicy::DontCare)
        .map(|fs| fs.iter().map(SignalFunction::literals).sum())
        .unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    const PIPELINE: &str = "\
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

    #[test]
    fn buffer_becomes_wire() {
        let sg = build_state_graph(&parse_g(PIPELINE).unwrap()).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        let f = derive_function(&sg, b, ConflictPolicy::Reject).unwrap();
        // b's next value equals a: a single positive literal.
        assert!(f.is_wire(), "{}", f.cover);
        assert_eq!(f.literals(), 1);
    }

    #[test]
    fn csc_violation_rejected() {
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
        let e = derive_function(&sg, ack, ConflictPolicy::Reject).unwrap_err();
        assert!(matches!(e, SynthError::CscViolation { .. }));
        // Estimation mode still succeeds.
        let f = derive_function(&sg, ack, ConflictPolicy::DontCare).unwrap();
        assert!(f.literals() <= 2);
    }

    #[test]
    fn c_element_function() {
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
        let f = derive_function(&sg, b, ConflictPolicy::Reject).unwrap();
        // Classic majority: b' = a1 a2 + b (a1 + a2): 2-3 cubes.
        assert!(f.cover.len() <= 3, "{}", f.cover);
        // Must evaluate correctly on every reachable state.
        for s in sg.state_ids() {
            let implied = reshuffle_sg::nextstate::implied_value(&sg, s, b);
            assert_eq!(f.cover.covers_point(sg.code(s)), implied, "state {s}");
        }
        let est = literal_estimate(&sg);
        assert!((4..=8).contains(&est), "{est}");
    }
}
