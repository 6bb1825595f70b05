//! Maximum cycle ratio for timed marked graphs.
//!
//! When every place of the STG has exactly one producer and one consumer
//! (a *marked graph* — true for choice-free handshake controllers), the
//! steady-state period equals the maximum over directed cycles of
//! (sum of transition delays) / (sum of initial tokens). We compute it
//! by binary search on λ with Bellman–Ford positive-cycle detection —
//! an independent cross-check of the event-driven simulator.

use reshuffle_petri::{Stg, TransitionId};

use crate::delay::DelayModel;

/// True if the underlying net is a marked graph (every place has exactly
/// one producer and one consumer).
pub fn is_marked_graph(stg: &Stg) -> bool {
    stg.places()
        .all(|p| stg.net().producers(p).len() == 1 && stg.net().consumers(p).len() == 1)
}

/// Computes the maximum cycle ratio (period, in time units) of a marked
/// graph, or `None` if the STG is not a marked graph or has no cycles
/// carrying tokens.
///
/// Edges: for each place `p` with producer `t` and consumer `u`, an edge
/// `t → u` with delay weight `d(u)` and token weight `m0(p)`.
pub fn max_cycle_ratio(stg: &Stg, delays: &DelayModel) -> Option<f64> {
    if !is_marked_graph(stg) {
        return None;
    }
    let n = stg.net().num_transitions();
    if n == 0 {
        return None;
    }
    let m0 = stg.initial_marking();
    let mut edges: Vec<(usize, usize, f64, f64)> = Vec::new(); // (from, to, delay, tokens)
    for p in stg.places() {
        let t = stg.net().producers(p)[0];
        let u = stg.net().consumers(p)[0];
        let d = delays.to_units(delays.ticks(u));
        let m = if m0.contains(p) { 1.0 } else { 0.0 };
        edges.push((t.index(), u.index(), d, m));
    }
    // A cycle with zero tokens would deadlock; with tokens, ratio =
    // Σd/Σm. Binary search λ: is there a cycle with Σ(d - λ·m) > 0?
    let hi0: f64 = edges.iter().map(|e| e.2).sum::<f64>().max(1.0);
    let (mut lo, mut hi) = (0.0f64, hi0);
    // Verify some token-carrying cycle exists: λ=∞ fails, λ=0 must have
    // a positive cycle (any cycle with positive delay).
    if !has_positive_cycle(n, &edges, 0.0) {
        return None;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if has_positive_cycle(n, &edges, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Bellman–Ford style detection of a cycle with positive total weight
/// `Σ(delay - λ·tokens)`.
fn has_positive_cycle(n: usize, edges: &[(usize, usize, f64, f64)], lambda: f64) -> bool {
    // Longest-path relaxation; if it still relaxes after n rounds there
    // is a positive cycle.
    let mut dist = vec![0.0f64; n];
    for round in 0..=n {
        let mut changed = false;
        for &(a, b, d, m) in edges {
            let w = d - lambda * m;
            if dist[a] + w > dist[b] + 1e-12 {
                dist[b] = dist[a] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    false
}

/// The critical transitions: events on some cycle achieving the maximum
/// ratio (within tolerance). Returns an empty vector for non-marked
/// graphs.
pub fn critical_transitions(stg: &Stg, delays: &DelayModel) -> Vec<TransitionId> {
    let Some(lambda) = max_cycle_ratio(stg, delays) else {
        return Vec::new();
    };
    // Edges with reduced weight ≈ 0 participate in critical cycles;
    // collect transitions on cycles of the tight subgraph.
    let n = stg.net().num_transitions();
    let m0 = stg.initial_marking();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Recompute potentials via many relaxation rounds at λ slightly
    // above the optimum so no positive cycle exists.
    let mut dist = vec![0.0f64; n];
    let edges: Vec<(usize, usize, f64)> = stg
        .places()
        .map(|p| {
            let t = stg.net().producers(p)[0].index();
            let u = stg.net().consumers(p)[0];
            let d = delays.to_units(delays.ticks(u));
            let m = if m0.contains(p) { 1.0 } else { 0.0 };
            (t, u.index(), d - (lambda + 1e-9) * m)
        })
        .collect();
    for _ in 0..=n {
        for &(a, b, w) in &edges {
            if dist[a] + w > dist[b] {
                dist[b] = dist[a] + w;
            }
        }
    }
    for &(a, b, w) in &edges {
        if (dist[a] + w - dist[b]).abs() < 1e-6 {
            adj[a].push(b);
        }
    }
    // Transitions on cycles of the tight graph: nodes reachable from
    // themselves.
    let mut out = Vec::new();
    for v in 0..n {
        if reaches(&adj, v, v) {
            out.push(TransitionId(v as u32));
        }
    }
    out
}

fn reaches(adj: &[Vec<usize>], from: usize, target: usize) -> bool {
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if w == target {
                return true;
            }
            if !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimOptions};
    use reshuffle_petri::parse_g;

    const HANDSHAKE: &str = "\
.model hs
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
    fn matches_simulation_on_handshake() {
        let stg = parse_g(HANDSHAKE).unwrap();
        assert!(is_marked_graph(&stg));
        let delays = DelayModel::uniform(&stg, 2.0, 1.0);
        let mcr = max_cycle_ratio(&stg, &delays).unwrap();
        let run = simulate(&stg, &delays, &SimOptions::default()).unwrap();
        assert!(
            (mcr - run.period).abs() < 1e-6,
            "mcr={mcr} sim={}",
            run.period
        );
    }

    #[test]
    fn matches_simulation_on_fork() {
        let src = "\
.model fork
.inputs a
.outputs b c d
.graph
a+ b+ c+
c+ d+
b+ a-
d+ a-
a- b- c-
c- d-
b- a+
d- a+
.marking { <b-,a+> <d-,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        let delays = DelayModel::uniform(&stg, 2.0, 1.0);
        let mcr = max_cycle_ratio(&stg, &delays).unwrap();
        let run = simulate(&stg, &delays, &SimOptions::default()).unwrap();
        assert!((mcr - run.period).abs() < 1e-6);
        // Critical transitions: the longer branch a+ c+ d+ a- c- d-.
        let crit = critical_transitions(&stg, &delays);
        let names: Vec<&str> = crit.iter().map(|&t| stg.transition_name(t)).collect();
        assert!(names.contains(&"c+"), "{names:?}");
        assert!(names.contains(&"d+"), "{names:?}");
    }

    #[test]
    fn choice_nets_are_not_marked_graphs() {
        let src = "\
.model choice
.inputs a b
.graph
p0 a+ b+
a+ a-
b+ b-
a- p0
b- p0
.marking { p0 }
.end
";
        let stg = parse_g(src).unwrap();
        assert!(!is_marked_graph(&stg));
        let delays = DelayModel::uniform(&stg, 1.0, 1.0);
        assert_eq!(max_cycle_ratio(&stg, &delays), None);
    }

    #[test]
    fn pipeline_two_tokens() {
        // Two tokens in a 4-stage ring halve the period.
        let src = "\
.model ring
.outputs w x y z
.graph
w+ x+
x+ y+
y+ z+
z+ w+
.marking { <w+,x+> <y+,z+> }
.end
";
        let stg = parse_g(src).unwrap();
        let delays = DelayModel::uniform(&stg, 2.0, 1.0);
        let mcr = max_cycle_ratio(&stg, &delays).unwrap();
        // 4 events of delay 1 over 2 tokens -> period 2.
        assert!((mcr - 2.0).abs() < 1e-6, "{mcr}");
    }
}
