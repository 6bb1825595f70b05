//! Fixed log2-bucketed latency histograms.
//!
//! Values are durations in integer microseconds. Bucket `i` (for
//! `i < FINITE_BUCKETS`) counts values `v` with `v <= 2^i` µs that did not
//! fit an earlier bucket, i.e. the upper bounds run 1µs, 2µs, 4µs, …,
//! 2^26µs (~67s). Everything larger lands in the final `+Inf` bucket.
//!
//! Recording is lock-free: a [`Histogram`] holds a small number of shards
//! of atomic counters and each recording thread picks a shard once (via a
//! thread-local round-robin assignment), so concurrent workers rarely
//! contend on the same cache lines. Reading merges all shards into a
//! [`HistSnapshot`], which supports further merging (associative and
//! commutative) and quantile extraction.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of finite buckets: upper bounds `2^0 ..= 2^(FINITE_BUCKETS-1)` µs.
pub const FINITE_BUCKETS: usize = 27;
/// Total bucket count including the trailing `+Inf` bucket.
pub const NUM_BUCKETS: usize = FINITE_BUCKETS + 1;

/// Upper bound of finite bucket `i`, in microseconds.
#[inline]
pub fn bucket_bound_micros(i: usize) -> u64 {
    debug_assert!(i < FINITE_BUCKETS);
    1u64 << i
}

/// Bucket index for a value in microseconds.
#[inline]
pub fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let i = 64 - (micros - 1).leading_zeros() as usize;
    i.min(FINITE_BUCKETS)
}

struct Shard {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent log2-bucketed histogram of microsecond durations.
pub struct Histogram {
    shards: Box<[Shard]>,
}

/// How many atomic shards each histogram carries. Small and fixed: enough
/// to spread a handful of server workers, cheap enough to merge on read.
const HIST_SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread records into one shard, assigned round-robin on first use.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS;
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            shards: (0..HIST_SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Record one observation, in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let shard = &self.shards[MY_SHARD.with(|s| *s)];
        shard.counts[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(micros, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Record one observation from a [`Duration`] (saturating to u64 µs).
    pub fn record(&self, d: Duration) {
        self.record_micros(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Merge all shards into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::default();
        for shard in self.shards.iter() {
            for (i, c) in shard.counts.iter().enumerate() {
                snap.counts[i] += c.load(Ordering::Relaxed);
            }
            snap.sum_micros += shard.sum.load(Ordering::Relaxed);
            snap.count += shard.count.load(Ordering::Relaxed);
            snap.max_micros = snap.max_micros.max(shard.max.load(Ordering::Relaxed));
        }
        snap
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable merged view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts; index [`FINITE_BUCKETS`] is the `+Inf` bucket.
    pub counts: [u64; NUM_BUCKETS],
    /// Sum of all observations, in microseconds.
    pub sum_micros: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest single observation, in microseconds.
    pub max_micros: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; NUM_BUCKETS],
            sum_micros: 0,
            count: 0,
            max_micros: 0,
        }
    }
}

impl HistSnapshot {
    /// Fold another snapshot into this one. Merging is associative and
    /// commutative, so snapshots from any partition of recorders agree.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.sum_micros += other.sum_micros;
        self.count += other.count;
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) in microseconds by linear
    /// interpolation inside the owning bucket. The `+Inf` bucket reports the
    /// recorded maximum (the histogram has no upper bound to interpolate
    /// toward). Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                if i >= FINITE_BUCKETS {
                    return self.max_micros;
                }
                let lo = if i == 0 {
                    0
                } else {
                    bucket_bound_micros(i - 1)
                } as f64;
                let hi = (bucket_bound_micros(i) as f64)
                    .min(self.max_micros as f64)
                    .max(lo);
                let into = (rank - seen) as f64 / c as f64;
                return (lo + (hi - lo) * into).round() as u64;
            }
            seen += c;
        }
        self.max_micros
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        // v <= 2^i goes to the first such bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 0..FINITE_BUCKETS {
            let bound = bucket_bound_micros(i);
            assert_eq!(
                bucket_index(bound),
                i,
                "bound {bound} must be inside bucket {i}"
            );
            assert_eq!(
                bucket_index(bound + 1),
                (i + 1).min(FINITE_BUCKETS),
                "bound+1 must spill to the next bucket"
            );
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record_micros(u64::MAX);
        h.record_micros(bucket_bound_micros(FINITE_BUCKETS - 1) + 1);
        let s = h.snapshot();
        assert_eq!(s.counts[FINITE_BUCKETS], 2);
        assert_eq!(s.count, 2);
        assert_eq!(s.max_micros, u64::MAX);
        // Quantiles from the +Inf bucket report the recorded max rather
        // than inventing an upper bound.
        assert_eq!(s.quantile(0.99), u64::MAX);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record_micros(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[100, 2000]);
        let c = mk(&[70_000_000, 3]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut c_ba = c.clone();
        c_ba.merge(&b);
        c_ba.merge(&a);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, c_ba);
        assert_eq!(ab_c.count, 7);
        assert_eq!(ab_c.sum_micros, 1 + 5 + 9 + 100 + 2000 + 70_000_000 + 3);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        // 100 observations: 1..=100 µs.
        for v in 1..=100 {
            h.record_micros(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.quantile(0.50);
        let p90 = s.quantile(0.90);
        let p99 = s.quantile(0.99);
        // Log buckets interpolate, so allow bucket-level tolerance:
        // p50's true value is 50, inside bucket (32, 64].
        assert!((33..=64).contains(&p50), "p50={p50}");
        assert!((65..=100).contains(&p90), "p90={p90}");
        assert!((65..=100).contains(&p99), "p99={p99}");
        assert!(p50 <= p90 && p90 <= p99, "monotone quantiles");
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.max_micros, 100);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_micros(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.max_micros, 7999);
    }
}
