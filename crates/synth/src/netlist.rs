//! Gate-level netlists for speed-independent controllers.
//!
//! A [`Netlist`] drives each non-input signal with a DAG of [`GateType`]
//! gates over *signal values* (inputs and fed-back outputs). Sequential
//! behaviour comes from generalized-C latches ([`Node::GcLatch`]), or
//! implicitly from combinational feedback (a complex gate whose
//! function depends on its own output).

use std::fmt;

use reshuffle_petri::{Signal, SignalId, SignalKind};

use crate::error::{Result, SynthError};

/// Combinational primitives available to the mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateType {
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
}

impl GateType {
    /// Number of logic inputs.
    pub fn arity(self) -> usize {
        match self {
            GateType::Inv => 1,
            _ => 2,
        }
    }
}

/// Index of a node within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// One netlist node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// The current value of a signal (circuit input or feedback).
    SignalRef(SignalId),
    /// Constant 0 or 1.
    Const(bool),
    /// A library gate over other nodes.
    Gate(GateType, Vec<NodeId>),
    /// A generalized-C latch: output rises when `set`, falls when
    /// `reset`, otherwise holds the value of the signal it drives.
    GcLatch {
        /// Set network root.
        set: NodeId,
        /// Reset network root.
        reset: NodeId,
        /// The signal this latch drives (for the hold value).
        holds: SignalId,
    },
}

/// A mapped circuit: one driver per non-input signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    signals: Vec<Signal>,
    nodes: Vec<Node>,
    /// Driving node per signal (None for inputs).
    drivers: Vec<Option<NodeId>>,
}

impl Netlist {
    /// Creates an empty netlist over the given signal table.
    pub fn new(signals: Vec<Signal>) -> Netlist {
        let n = signals.len();
        Netlist {
            signals,
            nodes: Vec::new(),
            drivers: vec![None; n],
        }
    }

    /// The signal table.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(SignalId::from_index)
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// If a gate's operand count does not match its arity, or an
    /// operand is not already in the table (which keeps the table in
    /// topological order).
    pub fn add(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let operands: &[NodeId] = match &node {
            Node::Gate(g, ins) => {
                assert_eq!(g.arity(), ins.len(), "gate arity mismatch");
                ins
            }
            Node::GcLatch { set, reset, .. } => &[*set, *reset],
            Node::SignalRef(_) | Node::Const(_) => &[],
        };
        assert!(
            operands.iter().all(|o| o.0 < id.0),
            "operand added after its user"
        );
        self.nodes.push(node);
        id
    }

    /// The node table.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Sets the driver of a non-input signal.
    ///
    /// # Errors
    ///
    /// Rejects driving input signals or double-driving.
    pub fn set_driver(&mut self, s: SignalId, n: NodeId) -> Result<()> {
        if self.signals[s.index()].kind == SignalKind::Input {
            return Err(SynthError::Invalid(format!(
                "cannot drive input signal `{}`",
                self.signals[s.index()].name
            )));
        }
        if self.drivers[s.index()].is_some() {
            return Err(SynthError::Invalid(format!(
                "signal `{}` already driven",
                self.signals[s.index()].name
            )));
        }
        self.drivers[s.index()] = Some(n);
        Ok(())
    }

    /// The driver of a signal, if any.
    pub fn driver(&self, s: SignalId) -> Option<NodeId> {
        self.drivers[s.index()]
    }

    /// True if the signal is driven by a bare wire from another signal.
    pub fn is_wire(&self, s: SignalId) -> bool {
        match self.drivers[s.index()] {
            Some(n) => matches!(self.nodes[n.0 as usize], Node::SignalRef(_)),
            None => false,
        }
    }

    /// Number of gates (excluding wires and constants).
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Gate(..) | Node::GcLatch { .. }))
            .count()
    }

    /// Evaluates the next value of every signal given the current code
    /// (bit i = value of signal i). Inputs and undriven signals keep
    /// their current value.
    pub fn next_code(&self, code: u64) -> u64 {
        let cur: Vec<u64> = (0..self.signals.len()).map(|i| (code >> i) & 1).collect();
        let mut vals = Vec::with_capacity(self.nodes.len());
        self.eval_lanes(&cur, &mut vals);
        let mut next = code;
        for (i, d) in self.drivers.iter().enumerate() {
            if let Some(n) = d {
                next = (next & !(1 << i)) | ((vals[n.0 as usize] & 1) << i);
            }
        }
        next
    }

    /// Evaluates every node on 64 codes at once, one code per bit lane:
    /// `cur[i]` carries the current value of signal `i` in each lane,
    /// and on return `vals[n]` carries node `n`'s value in each lane.
    ///
    /// One forward sweep suffices because [`Netlist::add`] only accepts
    /// operands that are already in the table, so node order is a
    /// topological order.
    pub(crate) fn eval_lanes(&self, cur: &[u64], vals: &mut Vec<u64>) {
        vals.clear();
        for node in &self.nodes {
            let v = match node {
                Node::SignalRef(s) => cur[s.index()],
                Node::Const(b) => 0u64.wrapping_sub(u64::from(*b)),
                Node::Gate(g, ins) => {
                    let a = vals[ins[0].0 as usize];
                    match g {
                        GateType::Inv => !a,
                        GateType::And2 => a & vals[ins[1].0 as usize],
                        GateType::Or2 => a | vals[ins[1].0 as usize],
                    }
                }
                // Rises on set, falls on reset, otherwise holds.
                Node::GcLatch { set, reset, holds } => {
                    vals[set.0 as usize] | (!vals[reset.0 as usize] & cur[holds.index()])
                }
            };
            vals.push(v);
        }
    }

    /// Human-readable structural summary, one line per driven signal.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.drivers.iter().enumerate() {
            if let Some(n) = d {
                out.push_str(&format!(
                    "{} = {}\n",
                    self.signals[i].name,
                    self.render_node(*n)
                ));
            }
        }
        out
    }

    fn render_node(&self, n: NodeId) -> String {
        match &self.nodes[n.0 as usize] {
            Node::SignalRef(s) => self.signals[s.index()].name.clone(),
            Node::Const(b) => if *b { "1" } else { "0" }.into(),
            Node::Gate(g, ins) => {
                let parts: Vec<String> = ins.iter().map(|&i| self.render_node(i)).collect();
                match g {
                    GateType::Inv => format!("{}'", parts[0]),
                    GateType::And2 => format!("({} & {})", parts[0], parts[1]),
                    GateType::Or2 => format!("({} | {})", parts[0], parts[1]),
                }
            }
            Node::GcLatch { set, reset, .. } => format!(
                "gC[set={}, reset={}]",
                self.render_node(*set),
                self.render_node(*reset)
            ),
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_signal_table() -> Vec<Signal> {
        vec![
            Signal {
                name: "a".into(),
                kind: SignalKind::Input,
            },
            Signal {
                name: "b".into(),
                kind: SignalKind::Output,
            },
        ]
    }

    #[test]
    fn wire_costs_nothing() {
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        nl.set_driver(SignalId(1), a_ref).unwrap();
        assert!(nl.is_wire(SignalId(1)));
        assert_eq!(nl.num_gates(), 0);
        // b follows a.
        assert_eq!(nl.next_code(0b01) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b00) & 0b10, 0b00);
    }

    #[test]
    fn gate_evaluation_and_area() {
        // b = a AND b (self-feedback keeps b high once a high... only
        // while a stays high).
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let b_ref = nl.add(Node::SignalRef(SignalId(1)));
        let or = nl.add(Node::Gate(GateType::Or2, vec![a_ref, b_ref]));
        nl.set_driver(SignalId(1), or).unwrap();
        // Area in gates: the one OR.
        assert_eq!(nl.num_gates(), 1);
        // Once b=1, it stays 1 (OR feedback).
        assert_eq!(nl.next_code(0b10) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b01) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b00) & 0b10, 0b00);
    }

    #[test]
    fn gc_latch_holds() {
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let na = nl.add(Node::Gate(GateType::Inv, vec![a_ref]));
        let latch = nl.add(Node::GcLatch {
            set: a_ref,
            reset: na,
            holds: SignalId(1),
        });
        nl.set_driver(SignalId(1), latch).unwrap();
        // set when a=1, reset when a=0: b follows a.
        assert_eq!(nl.next_code(0b01) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b10) & 0b10, 0b00);
        // The inverter and the latch core.
        assert_eq!(nl.num_gates(), 2);
    }

    #[test]
    fn gate_arity() {
        assert_eq!(GateType::Inv.arity(), 1);
        assert_eq!(GateType::And2.arity(), 2);
        assert_eq!(GateType::Or2.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "operand added after its user")]
    fn operands_must_precede_their_user() {
        let mut nl = Netlist::new(two_signal_table());
        nl.add(Node::Gate(GateType::Inv, vec![NodeId(0)]));
    }

    #[test]
    fn lanes_evaluate_independently() {
        // b = gC(set = a, reset = a'), evaluated on all four codes at
        // once: lane l carries code l.
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let na = nl.add(Node::Gate(GateType::Inv, vec![a_ref]));
        let one = nl.add(Node::Const(true));
        let and = nl.add(Node::Gate(GateType::And2, vec![na, one]));
        let latch = nl.add(Node::GcLatch {
            set: a_ref,
            reset: and,
            holds: SignalId(1),
        });
        nl.set_driver(SignalId(1), latch).unwrap();
        let cur = [0b1010u64, 0b1100];
        let mut vals = Vec::new();
        nl.eval_lanes(&cur, &mut vals);
        for code in 0..4u64 {
            let lane = (vals[latch.0 as usize] >> code) & 1;
            assert_eq!(lane, (nl.next_code(code) >> 1) & 1, "code {code:02b}");
        }
    }

    #[test]
    fn cannot_drive_inputs_or_double_drive() {
        let mut nl = Netlist::new(two_signal_table());
        let c = nl.add(Node::Const(true));
        assert!(nl.set_driver(SignalId(0), c).is_err());
        nl.set_driver(SignalId(1), c).unwrap();
        assert!(nl.set_driver(SignalId(1), c).is_err());
    }

    #[test]
    fn describe_mentions_signals() {
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let inv = nl.add(Node::Gate(GateType::Inv, vec![a_ref]));
        nl.set_driver(SignalId(1), inv).unwrap();
        let d = nl.describe();
        assert!(d.contains("b = a'"));
    }
}
