//! Technology mapping: factored expressions into 2-input gates.
//!
//! The paper decomposes every next-state function into 2-input gates
//! while preserving speed independence; we implement the same
//! granularity with monotone AND/OR trees over (possibly inverted)
//! signal values. Input inverters are shared per signal.

use std::collections::HashMap;

use reshuffle_logic::Expr;
use reshuffle_petri::SignalId;

use crate::netlist::{GateType, Netlist, Node, NodeId};

/// Shared per-netlist mapping state: signal references and inverters.
#[derive(Debug, Default)]
pub struct Mapper {
    refs: HashMap<usize, NodeId>,
    invs: HashMap<usize, NodeId>,
}

impl Mapper {
    /// Creates a fresh mapper (one per netlist).
    pub fn new() -> Mapper {
        Mapper::default()
    }

    /// The node for a signal's current value.
    pub fn signal_ref(&mut self, nl: &mut Netlist, var: usize) -> NodeId {
        *self
            .refs
            .entry(var)
            .or_insert_with(|| nl.add(Node::SignalRef(SignalId::from_index(var))))
    }

    /// The (shared) inverter of a signal.
    pub fn inverter(&mut self, nl: &mut Netlist, var: usize) -> NodeId {
        if let Some(&n) = self.invs.get(&var) {
            return n;
        }
        let r = self.signal_ref(nl, var);
        let n = nl.add(Node::Gate(GateType::Inv, vec![r]));
        self.invs.insert(var, n);
        n
    }

    /// Maps an expression into the netlist, returning its root node.
    pub fn map_expr(&mut self, nl: &mut Netlist, e: &Expr) -> NodeId {
        match e {
            Expr::Const(b) => nl.add(Node::Const(*b)),
            Expr::Lit(v, true) => self.signal_ref(nl, *v),
            Expr::Lit(v, false) => self.inverter(nl, *v),
            Expr::And(xs) => {
                let kids: Vec<NodeId> = xs.iter().map(|x| self.map_expr(nl, x)).collect();
                self.balanced_tree(nl, GateType::And2, kids)
            }
            Expr::Or(xs) => {
                let kids: Vec<NodeId> = xs.iter().map(|x| self.map_expr(nl, x)).collect();
                self.balanced_tree(nl, GateType::Or2, kids)
            }
        }
    }

    /// Builds a balanced tree of 2-input gates over the children
    /// (balanced trees minimize depth, hence delay).
    fn balanced_tree(&mut self, nl: &mut Netlist, g: GateType, mut kids: Vec<NodeId>) -> NodeId {
        assert!(!kids.is_empty());
        while kids.len() > 1 {
            let mut next = Vec::with_capacity(kids.len().div_ceil(2));
            let mut it = kids.chunks(2);
            for pair in &mut it {
                match pair {
                    [a, b] => next.push(nl.add(Node::Gate(g, vec![*a, *b]))),
                    [a] => next.push(*a),
                    _ => unreachable!(),
                }
            }
            kids = next;
        }
        kids[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::{Signal, SignalKind};

    fn signals(n: usize) -> Vec<Signal> {
        (0..n)
            .map(|i| Signal {
                name: format!("x{i}"),
                kind: if i == n - 1 {
                    SignalKind::Output
                } else {
                    SignalKind::Input
                },
            })
            .collect()
    }

    #[test]
    fn maps_wide_and_balanced() {
        let mut nl = Netlist::new(signals(5));
        let mut m = Mapper::new();
        let e = Expr::and((0..4).map(|v| Expr::Lit(v, true)).collect());
        let root = m.map_expr(&mut nl, &e);
        nl.set_driver(SignalId(4), root).unwrap();
        // 4-input AND = 3 AND2 gates, depth 2 (balanced): the root ANDs
        // two AND2 gates over the literals.
        assert_eq!(nl.num_gates(), 3);
        let gate = |n: NodeId| match &nl.nodes()[n.0 as usize] {
            Node::Gate(GateType::And2, ins) => ins.clone(),
            other => panic!("expected an AND2, got {other:?}"),
        };
        for kid in gate(root) {
            for leaf in gate(kid) {
                assert!(matches!(nl.nodes()[leaf.0 as usize], Node::SignalRef(_)));
            }
        }
        // Evaluates correctly.
        assert_eq!(nl.next_code(0b01111) & 0b10000, 0b10000);
        assert_eq!(nl.next_code(0b00111) & 0b10000, 0);
    }

    #[test]
    fn inverters_are_shared() {
        let mut nl = Netlist::new(signals(3));
        let mut m = Mapper::new();
        // x0' x1 + x0' x1' uses x0' twice but should build one inverter.
        let e = Expr::or(vec![
            Expr::and(vec![Expr::Lit(0, false), Expr::Lit(1, true)]),
            Expr::and(vec![Expr::Lit(0, false), Expr::Lit(1, false)]),
        ]);
        let root = m.map_expr(&mut nl, &e);
        nl.set_driver(SignalId(2), root).unwrap();
        let inv_count = nl
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::Gate(GateType::Inv, _)))
            .count();
        assert_eq!(inv_count, 2); // x0' and x1', not three.
        assert_eq!(nl.num_gates(), 5); // 2 INV + 2 AND + 1 OR.
    }

    #[test]
    fn single_literal_is_wire() {
        let mut nl = Netlist::new(signals(2));
        let mut m = Mapper::new();
        let root = m.map_expr(&mut nl, &Expr::Lit(0, true));
        nl.set_driver(SignalId(1), root).unwrap();
        assert!(nl.is_wire(SignalId(1)));
        assert_eq!(nl.num_gates(), 0);
    }

    #[test]
    fn constants_map() {
        let mut nl = Netlist::new(signals(2));
        let mut m = Mapper::new();
        let root = m.map_expr(&mut nl, &Expr::Const(false));
        nl.set_driver(SignalId(1), root).unwrap();
        assert_eq!(nl.next_code(0b11) & 0b10, 0);
    }
}
