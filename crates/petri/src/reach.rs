//! Reachability analysis on 1-safe nets.
//!
//! [`ReachabilityGraph`] is the raw marking graph: nodes are markings,
//! arcs are transition firings, with the queries its clients share
//! (deadlocks, safeness diagnosis, liveness of individual transitions).
//! The state-graph build explores markings paired with signal parities
//! on the same [`sharded`] breadth-first engine instead.

use crate::error::{PetriError, Result};
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;
use crate::sharded::{self, ExploreOptions};

/// Default cap on explored markings; generous for controller-sized nets.
pub const DEFAULT_STATE_BUDGET: usize = 1_000_000;

/// The reachability graph of a 1-safe net from a given initial marking.
///
/// Nodes are numbered canonically — breadth-first from the initial
/// marking, arcs in ascending transition order — so exploring the same
/// net twice gives byte-identical graphs.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    /// Outgoing arcs per node: `(fired transition, successor node)`.
    succs: Vec<Vec<(TransitionId, u32)>>,
    peak_frontier: usize,
}

impl ReachabilityGraph {
    /// Explores the reachability graph of `net` from `initial`.
    ///
    /// # Errors
    ///
    /// * [`PetriError::UnsafePlace`] if any reachable firing violates
    ///   1-safeness;
    /// * [`PetriError::StateBudgetExceeded`] if more than `budget`
    ///   markings are reachable;
    /// * [`PetriError::Structural`] if the net has source transitions.
    pub fn explore(net: &PetriNet, initial: &Marking, budget: usize) -> Result<Self> {
        let opts = ExploreOptions {
            budget,
            span: Default::default(),
        };
        Self::explore_opts(net, initial, &opts)
    }

    /// [`ReachabilityGraph::explore`] with explicit [`ExploreOptions`],
    /// optionally under a trace context for per-level `bfs.level`
    /// spans. Tracing does not change the result.
    ///
    /// # Errors
    ///
    /// Same as [`ReachabilityGraph::explore`].
    pub fn explore_opts(net: &PetriNet, initial: &Marking, opts: &ExploreOptions) -> Result<Self> {
        net.check_no_source_transitions()?;
        let explored = sharded::explore(
            initial.clone(),
            opts,
            |m: &Marking, out: &mut Vec<(TransitionId, Marking)>| {
                for t in m.enabled_transitions(net) {
                    out.push((t, m.fire(net, t)?));
                }
                Ok(())
            },
            PetriError::StateBudgetExceeded,
        )?;
        Ok(ReachabilityGraph {
            markings: explored.keys,
            succs: explored.succs,
            peak_frontier: explored.peak_frontier,
        })
    }

    /// Largest breadth-first frontier seen while exploring (a proxy for
    /// how much concurrency the net exposes).
    pub fn peak_frontier(&self) -> usize {
        self.peak_frontier
    }

    /// Explores with the [default budget](DEFAULT_STATE_BUDGET).
    ///
    /// # Errors
    ///
    /// Same as [`ReachabilityGraph::explore`].
    pub fn explore_default(net: &PetriNet, initial: &Marking) -> Result<Self> {
        Self::explore(net, initial, DEFAULT_STATE_BUDGET)
    }

    /// Number of reachable markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// True if the graph has no nodes (never the case after `explore`).
    pub fn is_empty(&self) -> bool {
        self.markings.is_empty()
    }

    /// The marking of node `s`.
    pub fn marking(&self, s: u32) -> &Marking {
        &self.markings[s as usize]
    }

    /// The outgoing arcs of node `s`.
    pub fn successors(&self, s: u32) -> &[(TransitionId, u32)] {
        &self.succs[s as usize]
    }

    /// Nodes with no outgoing arcs.
    pub fn deadlocks(&self) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&s| self.succs[s as usize].is_empty())
            .collect()
    }

    /// True if every transition of `net` fires somewhere in the graph.
    pub fn all_transitions_fire(&self, net: &PetriNet) -> bool {
        let mut fired = vec![false; net.num_transitions()];
        for arcs in &self.succs {
            for &(t, _) in arcs {
                fired[t.index()] = true;
            }
        }
        fired.into_iter().all(|b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two concurrent toggles: 4 reachable markings forming a diamond.
    fn diamond() -> (PetriNet, Marking) {
        let mut n = PetriNet::new();
        let pa0 = n.add_place("pa0");
        let pa1 = n.add_place("pa1");
        let pb0 = n.add_place("pb0");
        let pb1 = n.add_place("pb1");
        let a = n.add_transition("a");
        let a_back = n.add_transition("a'");
        let b = n.add_transition("b");
        let b_back = n.add_transition("b'");
        n.add_arc_pt(pa0, a).unwrap();
        n.add_arc_tp(a, pa1).unwrap();
        n.add_arc_pt(pa1, a_back).unwrap();
        n.add_arc_tp(a_back, pa0).unwrap();
        n.add_arc_pt(pb0, b).unwrap();
        n.add_arc_tp(b, pb1).unwrap();
        n.add_arc_pt(pb1, b_back).unwrap();
        n.add_arc_tp(b_back, pb0).unwrap();
        let m0 = Marking::with_tokens(4, &[pa0, pb0]);
        (n, m0)
    }

    #[test]
    fn diamond_has_four_states() {
        let (n, m0) = diamond();
        let g = ReachabilityGraph::explore_default(&n, &m0).unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.deadlocks().is_empty());
        assert!(g.all_transitions_fire(&n));
    }

    #[test]
    fn budget_is_enforced() {
        let (n, m0) = diamond();
        assert!(matches!(
            ReachabilityGraph::explore(&n, &m0, 2),
            Err(PetriError::StateBudgetExceeded(2))
        ));
    }

    #[test]
    fn deadlock_detected() {
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let a = n.add_transition("a");
        n.add_arc_pt(p0, a).unwrap();
        n.add_arc_tp(a, p1).unwrap();
        let m0 = Marking::with_tokens(2, &[p0]);
        let g = ReachabilityGraph::explore_default(&n, &m0).unwrap();
        assert_eq!(g.len(), 2);
        let dl = g.deadlocks();
        assert_eq!(dl.len(), 1);
        assert!(g.marking(dl[0]).contains(p1));
    }

    #[test]
    fn unsafe_net_rejected() {
        // Two producers into the same place with both sources marked.
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let q = n.add_place("q");
        let a = n.add_transition("a");
        let b = n.add_transition("b");
        n.add_arc_pt(p0, a).unwrap();
        n.add_arc_tp(a, q).unwrap();
        n.add_arc_pt(p1, b).unwrap();
        n.add_arc_tp(b, q).unwrap();
        let m0 = Marking::with_tokens(3, &[p0, p1]);
        assert!(matches!(
            ReachabilityGraph::explore_default(&n, &m0),
            Err(PetriError::UnsafePlace { .. })
        ));
    }
}
