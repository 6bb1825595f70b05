//! Small shared helpers: the seeded generator, the median, peak memory,
//! and the netlist literal count every workload checks.

use std::time::Duration;

use reshuffle::Netlist;
use reshuffle_synth::Node;

/// SplitMix64: a tiny deterministic generator, so one seed always
/// yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5151_f00d_cafe_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The median of `samples` (the mean of the middle two for an even
/// count); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of a process, in MB, from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Literal occurrences in a mapped netlist: the signal references at
/// the leaves of every driven signal's gate tree, counted as the tree
/// is rendered by [`Netlist::describe`] (a shared subtree counts once
/// per use).
pub fn netlist_literals(netlist: &Netlist) -> u64 {
    fn leaves(netlist: &Netlist, node: reshuffle_synth::NodeId) -> u64 {
        match &netlist.nodes()[node.0 as usize] {
            Node::SignalRef(_) => 1,
            Node::Const(_) => 0,
            Node::Gate(_, ins) => ins.iter().map(|&i| leaves(netlist, i)).sum(),
            Node::GcLatch { set, reset, .. } => leaves(netlist, *set) + leaves(netlist, *reset),
        }
    }
    (0..netlist.signals().len())
        .filter_map(|i| netlist.driver(reshuffle_petri::SignalId::from_index(i)))
        .map(|n| leaves(netlist, n))
        .sum()
}
