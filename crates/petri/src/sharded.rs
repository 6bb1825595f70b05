//! Canonical breadth-first exploration.
//!
//! [`explore`] grows a graph from an initial key with one FIFO
//! breadth-first search. States are numbered in discovery order, each
//! state's successors followed in the order the callback produced them,
//! so the result is *canonical*: two explorations of the same system
//! return byte-identical graphs — the property the state-graph build
//! relies on to keep golden corpora, fingerprints and cache keys
//! stable.
//!
//! The engine is generic over the key type (markings for the raw
//! reachability graph, `(marking, toggle parity)` pairs for the state
//! graph build) and reports the level-synchronous peak frontier width
//! for diagnostics.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use reshuffle_obs::{FieldVal, SpanCtx};

/// Tuning for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Cap on the number of explored states.
    pub budget: usize,
    /// Trace context for one `bfs.level` span per breadth-first level
    /// (level index, frontier width, arcs produced) at verbosity
    /// level 2. Defaults to disabled, in which case each level pays a
    /// single branch. Tracing never affects the explored graph.
    pub span: SpanCtx,
}

impl ExploreOptions {
    /// Options with the given budget and no trace context. The first
    /// argument is ignored: it was the worker count of an earlier
    /// multi-threaded engine.
    #[deprecated(
        note = "build `ExploreOptions { budget, span }` directly; the first argument is ignored"
    )]
    pub fn new(_threads: usize, budget: usize) -> ExploreOptions {
        ExploreOptions {
            budget,
            span: SpanCtx::default(),
        }
    }
}

/// The explored graph, canonically numbered in BFS order from state 0
/// (the initial key).
#[derive(Debug, Clone)]
pub struct Explored<K, L> {
    /// The key of each state, indexed by canonical id.
    pub keys: Vec<K>,
    /// Outgoing arcs per state, in the order the successor callback
    /// produced them.
    pub succs: Vec<Vec<(L, u32)>>,
    /// Largest level-synchronous frontier seen during exploration.
    pub peak_frontier: usize,
}

impl<K, L> Explored<K, L> {
    /// Total number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.succs.iter().map(|s| s.len()).sum()
    }
}

/// Explores the graph reachable from `initial`, calling `succ` to list
/// each state's labelled successors, and returns it canonically
/// numbered (see the module docs). `budget_err` builds the error
/// reported when more than `opts.budget` states are reachable.
///
/// # Errors
///
/// The first error `succ` returns, in breadth-first order, or
/// `budget_err(opts.budget)` on exhaustion (always for a zero budget).
pub fn explore<K, L, E>(
    initial: K,
    opts: &ExploreOptions,
    mut succ: impl FnMut(&K, &mut Vec<(L, K)>) -> Result<(), E>,
    budget_err: impl FnOnce(usize) -> E,
) -> Result<Explored<K, L>, E>
where
    K: Clone + Eq + Hash,
{
    if opts.budget == 0 {
        return Err(budget_err(0));
    }
    let mut index: HashMap<K, u32> = HashMap::new();
    index.insert(initial.clone(), 0);
    let mut keys = vec![initial];
    let mut succs: Vec<Vec<(L, u32)>> = Vec::new();
    let mut buf: Vec<(L, K)> = Vec::new();
    let mut peak_frontier = 0usize;
    let mut level = 0u64;

    // Ids are handed out in discovery order, so each level is the
    // contiguous id range found while expanding the one before it.
    while succs.len() < keys.len() {
        let (start, end) = (succs.len(), keys.len());
        peak_frontier = peak_frontier.max(end - start);
        let sp = opts.span.span_at(2, "bfs.level");
        let mut arcs = 0usize;
        for s in start..end {
            succ(&keys[s], &mut buf)?;
            let mut out = Vec::with_capacity(buf.len());
            for (label, key) in buf.drain(..) {
                let id = match index.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        if keys.len() == opts.budget {
                            return Err(budget_err(opts.budget));
                        }
                        let id = keys.len() as u32;
                        keys.push(e.key().clone());
                        *e.insert(id)
                    }
                };
                out.push((label, id));
            }
            arcs += out.len();
            succs.push(out);
        }
        sp.end(&[
            ("level", FieldVal::U64(level)),
            ("frontier", FieldVal::U64((end - start) as u64)),
            ("arcs", FieldVal::U64(arcs as u64)),
        ]);
        level += 1;
    }

    // One fresh allocation per key, in canonical order, made before the
    // index is dropped: the graph keeps no storage interleaved with the
    // index's clones.
    let keys = keys.to_vec();
    drop(index);
    Ok(Explored {
        keys,
        succs,
        peak_frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(budget: usize) -> ExploreOptions {
        ExploreOptions {
            budget,
            span: SpanCtx::default(),
        }
    }

    /// Successors on a hypercube: states are bitmasks below 2^k, arcs
    /// set one unset bit (label = bit index).
    fn cube_succ(k: u32) -> impl Fn(&u32, &mut Vec<(u32, u32)>) -> Result<(), String> {
        move |&s, out| {
            for b in 0..k {
                if s & (1 << b) == 0 {
                    out.push((b, s | (1 << b)));
                }
            }
            Ok(())
        }
    }

    fn cube(k: u32, budget: usize) -> Result<Explored<u32, u32>, String> {
        explore(0u32, &opts(budget), cube_succ(k), |b| format!("budget {b}"))
    }

    #[test]
    fn cube_counts_and_canonical_order() {
        let e = cube(4, 1 << 20).unwrap();
        assert_eq!(e.keys.len(), 16);
        assert_eq!(e.num_arcs(), 32); // 4 * 2^3 directed set-bit arcs
        assert_eq!(e.keys[0], 0);
        // BFS from 0 following bit order: first level is 1,2,4,8.
        assert_eq!(&e.keys[1..5], &[1, 2, 4, 8]);
        // The widest level holds the six two-bit masks.
        assert_eq!(e.peak_frontier, 6);
    }

    #[test]
    fn budget_is_enforced() {
        assert_eq!(cube(4, 7).unwrap_err(), "budget 7");
        // Exactly enough budget succeeds.
        assert_eq!(cube(4, 16).unwrap().keys.len(), 16);
        assert_eq!(cube(4, 15).unwrap_err(), "budget 15");
        assert_eq!(cube(4, 0).unwrap_err(), "budget 0");
    }

    #[test]
    fn callback_errors_propagate() {
        let r = explore(
            0u32,
            &opts(1000),
            |&s, out: &mut Vec<(u32, u32)>| {
                if s == 3 {
                    return Err("boom".to_string());
                }
                if s < 5 {
                    out.push((0, s + 1));
                }
                Ok(())
            },
            |_| "budget".to_string(),
        );
        assert_eq!(r.unwrap_err(), "boom");
    }

    #[test]
    fn shard_spans_report_frontier_sizes() {
        use reshuffle_obs::{RingSink, Sink, SinkHandle, TraceId, Tracer};
        use std::sync::Arc;
        let ring = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(2, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        let trace = TraceId::derive(0xabcd, 1);
        let traced_opts = ExploreOptions {
            span: tracer.root(trace),
            ..opts(1 << 20)
        };
        let traced = explore(0u32, &traced_opts, cube_succ(4), |b| format!("budget {b}")).unwrap();
        let plain = cube(4, 1 << 20).unwrap();
        assert_eq!(traced.keys, plain.keys, "tracing must not change the graph");
        assert_eq!(traced.succs, plain.succs);
        let lines = ring.lines();
        // Levels 0..=4 of the 4-cube: 1, 4, 6, 4, 1 states.
        assert_eq!(lines.len(), 5, "level-2 tracing emits one span per level");
        let hex = trace.to_string();
        for (line, width) in lines.iter().zip([1, 4, 6, 4, 1]) {
            assert!(line.contains("\"name\":\"bfs.level\""), "{line}");
            assert!(line.contains(&format!("\"trace\":\"{hex}\"")), "{line}");
            assert!(line.contains(&format!("\"frontier\":{width}")), "{line}");
            assert!(line.contains("\"arcs\":"), "{line}");
        }
        // At level 1 the level spans are gated off entirely.
        let quiet = Arc::new(RingSink::new(16));
        let t1 = Tracer::new(1, SinkHandle::new(quiet.clone() as Arc<dyn Sink>));
        let quiet_opts = ExploreOptions {
            span: t1.root(trace),
            ..opts(1 << 20)
        };
        explore(
            0u32,
            &quiet_opts,
            |&s: &u32, out: &mut Vec<(u32, u32)>| {
                if s < 3 {
                    out.push((0, s + 1));
                }
                Ok(())
            },
            |b| format!("budget {b}"),
        )
        .unwrap();
        assert!(quiet.lines().is_empty());
    }
}
