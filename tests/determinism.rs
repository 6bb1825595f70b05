//! Canonical numbering of the state-graph build, and equivalence of
//! the CSR incremental product with a full rebuild.
//!
//! Golden pins, `canonical_fingerprint`-keyed caches and committed
//! bench baselines all assume one canonical graph per specification:
//! states numbered breadth-first from the initial state, each state's
//! arcs followed in event order.

use std::collections::VecDeque;

use reshuffle_bench::examples;
use reshuffle_petri::{parse_g, structural};
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::{build_state_graph, EventId, StateGraph};

/// Asserts that a breadth-first search over `sg.succ()` from state 0,
/// whose arcs must come in event order, discovers the states as 0, 1,
/// 2, … and reaches all of them.
fn assert_canonical_bfs(name: &str, sg: &StateGraph) {
    let n = sg.num_states();
    assert_eq!(sg.initial(), 0, "{name}: initial state is not state 0");
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([0]);
    seen[0] = true;
    let mut next = 1;
    while let Some(s) = queue.pop_front() {
        let arcs = sg.succ(s);
        assert!(
            arcs.events().windows(2).all(|w| w[0] < w[1]),
            "{name}: arcs of state {s} are not in event order"
        );
        for (_, t) in arcs {
            if !seen[t as usize] {
                assert_eq!(t, next, "{name}: state {next} discovered as {t}");
                seen[t as usize] = true;
                queue.push_back(t);
                next += 1;
            }
        }
    }
    assert_eq!(next as usize, n, "{name}: unreachable states");
}

#[test]
fn build_numbering_is_canonical_bfs() {
    for (name, src) in examples::ALL {
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        assert_canonical_bfs(name, &sg);
    }
    for n in [5, 9] {
        let sg = build_state_graph(&parse_g(&examples::scaled_pipeline(n)).unwrap()).unwrap();
        assert_eq!(sg.num_states(), 2 * 3usize.pow(n as u32) + 2);
        assert_canonical_bfs(&format!("scaled_pipeline({n})"), &sg);
    }
}

#[test]
fn restrict_on_csr_matches_full_rebuild_across_corpus() {
    // For every complete corpus entry and every legal serializing
    // direction of every concurrent pair, the incremental CSR product
    // must be isomorphic to rebuilding the rewritten STG from scratch.
    let mut checked = 0usize;
    for (name, src) in examples::ALL {
        let stg = parse_g(src).unwrap();
        if stg.is_partial() {
            continue;
        }
        let sg = build_state_graph(&stg).unwrap();
        for (a, b) in concurrent_pairs(&sg) {
            for (from, to) in [(a, b), (b, a)] {
                // Same legality conditions the reduction search uses:
                // never delay an input, single-instance edges only.
                if !sg.signals()[to.signal.index()].kind.is_noninput() {
                    continue;
                }
                let &[from_t] = stg.transitions_of_edge(from).as_slice() else {
                    continue;
                };
                let &[to_t] = stg.transitions_of_edge(to).as_slice() else {
                    continue;
                };
                let Ok(product) =
                    restrict_with_place(&sg, &[EventId(from_t.0)], &[EventId(to_t.0)])
                else {
                    continue; // the rewrite would be unsafe
                };
                let mut stg2 = stg.clone();
                structural::insert_causal_place(&mut stg2, from_t, to_t).unwrap();
                let rebuilt = build_state_graph(&stg2).unwrap();
                assert_eq!(
                    product.fingerprint(),
                    rebuilt.fingerprint(),
                    "{name}: product for {from:?} -> {to:?} drifted from a full rebuild"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "too few serializations exercised: {checked}");
}

#[test]
fn marking_arena_is_consistent_with_per_state_views() {
    for (name, src) in examples::ALL {
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        assert!(
            sg.num_interned_markings() > 0,
            "{name}: built graph lost its markings"
        );
        assert!(
            sg.num_interned_markings() <= sg.num_states(),
            "{name}: arena larger than the state set"
        );
        // Every per-state view points into the interned arena (no
        // clones), and the arena holds no duplicate markings.
        let arena = sg.interned_markings();
        assert_eq!(arena.len(), sg.num_interned_markings());
        for s in sg.state_ids() {
            let id = sg
                .marking_id(s)
                .unwrap_or_else(|| panic!("{name}: state {s} lost its marking"));
            let via_arena = &arena[id.index()];
            let via_state = sg
                .marking_of(s)
                .unwrap_or_else(|| panic!("{name}: state {s} lost its marking"));
            assert!(
                std::ptr::eq(via_arena, via_state),
                "{name}: state {s} marking is not a view into the arena"
            );
        }
        for (i, a) in arena.iter().enumerate() {
            for b in &arena[i + 1..] {
                assert_ne!(a, b, "{name}: arena holds a duplicate marking");
            }
        }
    }
}
