//! Benchmark-side spans: opened and closed around each call into a
//! layer's public function, kept in memory, aggregated into per-layer
//! self times and written out as JSON lines when the run ends.
//!
//! A *probe* span times a call the pipeline makes internally but the
//! benchmark cannot reach on its own (the markings BFS inside the
//! state-graph build, function derivation inside gate synthesis), by
//! repeating that call next to the chain. Probe time is extra work, so
//! it is taken out of every enclosing span's duration: op latencies,
//! pipeline times and self times all read as if the probe never ran.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    probe: bool,
    counters: Vec<(&'static str, f64)>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Summed self time, ms (probe time excluded).
    pub self_ms: f64,
    /// Summed duration net of probes, ms.
    pub dur_ms: f64,
    /// Spans of this name.
    pub calls: u64,
    /// Counters summed over the spans.
    pub sums: BTreeMap<&'static str, f64>,
    /// Counters' maxima over the spans.
    pub maxes: BTreeMap<&'static str, f64>,
}

impl Totals {
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn max(&self, key: &str) -> f64 {
        self.maxes.get(key).copied().unwrap_or(0.0)
    }
}

/// One op's aggregate: totals per span name.
pub type OpTotals = BTreeMap<&'static str, Totals>;

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<SpanId>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_kind(&mut self, name: &'static str, probe: bool) -> SpanId {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            probe,
            counters: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        self.open_kind(name, false)
    }

    /// Opens a probe span (see the module docs).
    pub fn open_probe(&mut self, name: &'static str) -> SpanId {
        self.open_kind(name, true)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attaches a counter to a span.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].counters.push((key, value));
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Starts op `op`: every span opened until the next call belongs
    /// to it.
    pub fn begin_op(&mut self, op: u64) {
        debug_assert!(self.stack.is_empty(), "an op starts with no open span");
        self.op = op;
    }

    /// Aggregates the spans of every op into per-op totals, in op
    /// order.
    pub fn per_op(&self) -> Vec<OpTotals> {
        let n = self.spans.len();
        let mut probe_in = vec![0u64; n];
        let mut child_eff = vec![0u64; n];
        let mut eff = vec![0u64; n];
        // Children open after their parent, so a reverse sweep sees
        // every child before the parent it folds into.
        for i in (0..n).rev() {
            let s = &self.spans[i];
            let dur = s.end_ns.saturating_sub(s.start_ns);
            eff[i] = if s.probe {
                dur
            } else {
                dur.saturating_sub(probe_in[i])
            };
            if let Some(p) = s.parent {
                if s.probe {
                    probe_in[p] += dur;
                } else {
                    probe_in[p] += probe_in[i];
                    child_eff[p] += eff[i];
                }
            }
        }
        let mut ops: BTreeMap<u64, OpTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = ops.entry(s.op).or_default().entry(s.name).or_default();
            let self_ns = if s.probe {
                eff[i]
            } else {
                eff[i].saturating_sub(child_eff[i])
            };
            t.self_ms += self_ns as f64 / 1e6;
            t.dur_ms += eff[i] as f64 / 1e6;
            t.calls += 1;
            for &(k, v) in &s.counters {
                *t.sums.entry(k).or_insert(0.0) += v;
                let m = t.maxes.entry(k).or_insert(f64::MIN);
                *m = m.max(v);
            }
        }
        ops.into_values().collect()
    }

    /// The spans as JSON lines: name, op id, parent index, start and
    /// end (ns since the run began), probe flag and counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"probe\":{}",
                s.name, s.op, s.start_ns, s.end_ns, s.probe
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}
