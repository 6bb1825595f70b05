//! The synthesis cache: fingerprint-keyed memoization of whole
//! pipeline runs.
//!
//! A [`SynthCache`] maps `(canonical STG fingerprint, option trail)`
//! keys to finished [`Synthesis`] results, so re-synthesizing an
//! identical specification under identical options is an O(1) lookup
//! instead of a pipeline run — the ROADMAP's persistent-netlist-cache
//! step toward serving repeated requests. The spec half of the key is
//! [`reshuffle_petri::canonical_fingerprint`] (declaration-order
//! invariant); the option half is accumulated hash-by-hash as the
//! staged builder commits each stage's options, so a [`run`] shortcut
//! and the equivalent manual stage chain produce the same key. The
//! key a `run` will use is exposed as
//! [`run_cache_key`](crate::run_cache_key) for callers (like the
//! `reshuffle-server` single-flight registry) that deduplicate work
//! *before* starting a pipeline.
//!
//! Entries are stored as `Arc<Synthesis>`: a hit hands out a shared
//! reference, so nothing is deep-copied while the lock is held, and a
//! caller that only borrows the result
//! ([`Synthesized::synthesis`](crate::Synthesized::synthesis)) copies
//! nothing at all. Taking ownership
//! ([`Synthesized::into_synthesis`](crate::Synthesized::into_synthesis))
//! deep-copies only while the cache still holds the entry.
//!
//! The handle is cheaply cloneable and thread-safe; hit/miss totals
//! are cumulative over the cache's lifetime, while per-run counts are
//! surfaced on [`Diagnostics`](crate::Diagnostics). A cache built
//! [`with_byte_bound`](SynthCache::with_byte_bound) charges every entry
//! an estimate of its heap footprint (state-graph arrays and marking
//! arena, STG net, netlist nodes) and evicts least recently used
//! entries until the charged total fits the bound; caches persist
//! across processes via [`compact_to`](SynthCache::compact_to) /
//! [`recover`](SynthCache::recover) and a
//! [`CacheStore`](crate::CacheStore).
//!
//! [`run`]: crate::Parsed::run

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, Mutex};

use reshuffle_petri::Marking;
use reshuffle_synth::Node;

use crate::store::journal_record;
use crate::{CacheStore, Synthesis};

/// Folds stage-transition parts into an options-trail hash. Every
/// staged transition calls this with a distinct tag plus its options'
/// canonical words, so different chains (or different options) never
/// collide by construction order.
pub(crate) fn mix(seed: u64, tag: &str, parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    tag.hash(&mut h);
    parts.hash(&mut h);
    h.finish()
}

/// The bytes an entry is charged against the bound: an estimate of its
/// heap footprint counted from element totals, so charging costs no
/// pass over the data. Per state a code, a CSR offset and a marking id;
/// per arc an event and a target; per interned marking its bitset
/// words; per place and transition of the STG a name and adjacency
/// lists; per netlist node the node and its inputs; per signal its
/// three named copies (STG, state graph, netlist) and per event its
/// rendered label.
fn charge(s: &Synthesis) -> usize {
    let sg = &s.sg;
    let words = sg
        .interned_markings()
        .first()
        .map_or(0, |m| m.num_places().div_ceil(64).max(1));
    let graph = sg.num_states() * (8 + 4 + 4)
        + sg.num_arcs() * (4 + 4)
        + sg.num_interned_markings() * (size_of::<Marking>() + 8 * words);
    let net = s.stg.net();
    let net_arcs: usize = net
        .transitions()
        .map(|t| net.preset(t).len() + net.postset(t).len())
        .sum();
    // A name plus two adjacency lists per node; each arc is listed
    // twice (transition side and place side).
    let stg = (net.num_places() + net.num_transitions()) * 96 + net_arcs * 2 * 4;
    let netlist = s.netlist.nodes().len() * (size_of::<Node>() + 8);
    let tables = sg.num_signals() * 3 * 48 + sg.num_events() * 64;
    size_of::<Synthesis>() + graph + stg + netlist + tables
}

/// A shared, thread-safe cache of finished pipeline runs.
///
/// ```
/// use reshuffle::{Pipeline, PipelineOptions, SynthCache};
///
/// # fn main() -> Result<(), reshuffle::PipelineError> {
/// let src = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///            x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///            .marking { <z-,x+> }\n.end\n";
/// let cache = SynthCache::new();
/// let opts = PipelineOptions::default();
///
/// // First run does the work and fills the cache ...
/// let first = Pipeline::from_g(src)?.with_cache(&cache).run(&opts)?;
/// assert_eq!((cache.hits(), cache.misses()), (0, 1));
///
/// // ... the second run on the identical spec is a lookup.
/// let second = Pipeline::from_g(src)?.with_cache(&cache).run(&opts)?;
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// assert_eq!(second.diagnostics().cache_hits, 1);
/// assert_eq!(
///     first.synthesis().netlist.describe(),
///     second.synthesis().netlist.describe(),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SynthCache {
    inner: Arc<Mutex<Inner>>,
}

/// One cached run, its charge, and its last-used tick (the LRU
/// recency stamp).
#[derive(Debug)]
struct Entry {
    synthesis: Arc<Synthesis>,
    bytes: usize,
    tick: u64,
}

/// An attached journal sink (newtype so `Inner` keeps deriving
/// `Debug` over the un-`Debug`-able trait object).
struct Journal {
    store: Arc<dyn CacheStore + Send + Sync>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Journal(..)")
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Monotonic recency clock: bumped on every lookup hit and insert.
    tick: u64,
    /// `None` = unbounded; `Some(n)` evicts least-recently-used entries
    /// until the charged total is at most `n` bytes.
    byte_bound: Option<usize>,
    /// Sum of the resident entries' charges.
    bytes: usize,
    /// When attached, every insert appends a durable journal record.
    journal: Option<Journal>,
    hits: u64,
    misses: u64,
    shared_hits: u64,
    evictions: u64,
    journal_appends: u64,
    journal_errors: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Makes `synthesis` resident under `key`, charged `bytes`,
    /// replacing (and un-charging) any previous entry for the key.
    fn put(&mut self, key: u64, synthesis: Arc<Synthesis>, bytes: usize, tick: u64) {
        self.bytes += bytes;
        let entry = Entry {
            synthesis,
            bytes,
            tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= old.bytes;
        }
    }

    /// Evicts least-recently-used entries until the charged total fits
    /// the bound.
    fn evict_to_bound(&mut self) {
        let Some(bound) = self.byte_bound else {
            return;
        };
        while self.bytes > bound {
            let coldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
                .expect("map is non-empty while over the bound");
            let gone = self.map.remove(&coldest).expect("coldest key is resident");
            self.bytes -= gone.bytes;
            self.evictions += 1;
        }
    }

    /// Hands out the entry under `key`, refreshing its recency.
    fn touch(&mut self, key: u64) -> Option<Arc<Synthesis>> {
        let tick = self.next_tick();
        let e = self.map.get_mut(&key)?;
        e.tick = tick;
        Some(Arc::clone(&e.synthesis))
    }
}

impl SynthCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> SynthCache {
        SynthCache::default()
    }

    /// Creates an empty cache whose entries' charged sizes total at
    /// most `bytes`, evicting least recently used entries when an
    /// insert would exceed it. An entry charged more than the whole
    /// bound is never stored (see [`SynthCache::bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 0 (use [`SynthCache::new`] for an
    /// unbounded cache).
    pub fn with_byte_bound(bytes: usize) -> SynthCache {
        let cache = SynthCache::new();
        cache.set_byte_bound(Some(bytes));
        cache
    }

    /// Changes the byte bound: `None` is unbounded, `Some(n)` evicts
    /// least recently used entries until the charged total is at most
    /// `n`, immediately and on every future insert.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is `Some(0)`.
    pub fn set_byte_bound(&self, bytes: Option<usize>) {
        assert!(bytes != Some(0), "cache capacity must be at least 1 byte");
        let mut inner = self.inner.lock().unwrap();
        inner.byte_bound = bytes;
        inner.evict_to_bound();
    }

    /// The current byte bound (`None` = unbounded).
    pub fn byte_bound(&self) -> Option<usize> {
        self.inner.lock().unwrap().byte_bound
    }

    /// The resident entries' total charge: each entry is charged an
    /// estimate of its heap footprint, counted from its state, arc,
    /// marking, place, transition and netlist-node totals. Under a
    /// bound this never exceeds [`SynthCache::byte_bound`]: an entry
    /// charged more than the whole bound is dropped on insert (counted
    /// as one eviction, not journaled) and the resident entries stay.
    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap().bytes
    }

    /// Cumulative lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.lock().unwrap().hits
    }

    /// Cumulative lookups that missed (and ran the pipeline).
    pub fn misses(&self) -> u64 {
        self.inner.lock().unwrap().misses
    }

    /// Cumulative *candidate-level* hits: expansion candidates whose
    /// synthesis was shared from this cache during a partial-spec run
    /// (counted separately from the whole-run [`SynthCache::hits`]).
    pub fn shared_hits(&self) -> u64 {
        self.inner.lock().unwrap().shared_hits
    }

    /// Cumulative entries evicted by the byte bound.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Arms incremental persistence: from now on, every insert encodes
    /// the new entry as a journal record and hands it to
    /// [`CacheStore::append`] *before* the insert returns — with a
    /// durable store (like [`FileStore`](crate::FileStore), which
    /// fsyncs each append), a `kill -9` at any point loses no
    /// completed synthesis. Recover the entries with
    /// [`SynthCache::recover`]; fold the journal back into a snapshot
    /// with [`SynthCache::compact_to`].
    ///
    /// An append failure never fails the insert (the synthesis result
    /// is still correct and cached in memory); it is counted on
    /// [`SynthCache::journal_errors`] instead.
    pub fn attach_journal(&self, store: Arc<dyn CacheStore + Send + Sync>) {
        self.inner.lock().unwrap().journal = Some(Journal { store });
    }

    /// Cumulative journal records successfully appended.
    pub fn journal_appends(&self) -> u64 {
        self.inner.lock().unwrap().journal_appends
    }

    /// Cumulative journal appends that failed (the entries stayed
    /// cached in memory but are not crash-durable).
    pub fn journal_errors(&self) -> u64 {
        self.inner.lock().unwrap().journal_errors
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached results (the hit/miss totals stay).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Looks up a finished run, counting a hit or a miss.
    pub(crate) fn lookup(&self, key: u64) -> Option<Arc<Synthesis>> {
        let mut inner = self.inner.lock().unwrap();
        let found = inner.touch(key);
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Looks up a shared candidate synthesis without touching the
    /// whole-run hit/miss counters (a candidate miss is not a pipeline
    /// miss — the run itself may still hit or miss on its own key).
    pub(crate) fn lookup_shared(&self, key: u64) -> Option<Arc<Synthesis>> {
        let mut inner = self.inner.lock().unwrap();
        let found = inner.touch(key);
        if found.is_some() {
            inner.shared_hits += 1;
        }
        found
    }

    /// Stores a finished run under its key, evicting least recently
    /// used entries until the byte bound holds. With a journal
    /// attached, the entry is appended durably first — the lock is
    /// held across the append, so the journal's record order matches
    /// the recency-tick order. An entry charged more than the whole
    /// bound is neither journaled nor stored; it counts as one
    /// eviction.
    pub(crate) fn insert(&self, key: u64, synthesis: Arc<Synthesis>) {
        let bytes = charge(&synthesis);
        let mut inner = self.inner.lock().unwrap();
        if inner.byte_bound.is_some_and(|bound| bytes > bound) {
            inner.evictions += 1;
            return;
        }
        let tick = inner.next_tick();
        if let Some(journal) = &inner.journal {
            match journal.store.append(&journal_record(key, tick, &synthesis)) {
                Ok(()) => inner.journal_appends += 1,
                Err(_) => inner.journal_errors += 1,
            }
        }
        inner.put(key, synthesis, bytes, tick);
        inner.evict_to_bound();
    }

    /// Snapshot of every entry as `(key, recency tick, synthesis)`,
    /// sorted by key — the deterministic order the binary codec writes.
    pub(crate) fn export_entries(&self) -> Vec<(u64, u64, Arc<Synthesis>)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<(u64, u64, Arc<Synthesis>)> = inner
            .map
            .iter()
            .map(|(&k, e)| (k, e.tick, Arc::clone(&e.synthesis)))
            .collect();
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }

    /// Snapshot of the lifetime counters
    /// `(hits, misses, shared_hits, evictions)`.
    pub(crate) fn export_counters(&self) -> (u64, u64, u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses, inner.shared_hits, inner.evictions)
    }

    /// Rebuilds a cache from decoded entries and counters, restoring
    /// each entry's recency stamp so the LRU order survives a restart.
    /// A key listed twice keeps its later entry. Every entry is
    /// charged; the bound is *not* part of a snapshot, so the holder
    /// re-applies its own via [`SynthCache::set_byte_bound`].
    pub(crate) fn import(
        entries: Vec<(u64, u64, Synthesis)>,
        counters: (u64, u64, u64, u64),
    ) -> SynthCache {
        let mut inner = Inner {
            hits: counters.0,
            misses: counters.1,
            shared_hits: counters.2,
            evictions: counters.3,
            ..Inner::default()
        };
        for (key, tick, synthesis) in entries {
            inner.tick = inner.tick.max(tick);
            let bytes = charge(&synthesis);
            inner.put(key, Arc::new(synthesis), bytes, tick);
        }
        SynthCache {
            inner: Arc::new(Mutex::new(inner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStore, Pipeline, PipelineOptions};

    const XYZ_G: &str = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
        x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n.marking { <z-,x+> }\n.end\n";
    const TOGGLE_G: &str = ".model toggle\n.inputs a\n.outputs b\n.graph\n\
        a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";

    fn synthesis(src: &str) -> Arc<Synthesis> {
        let done = Pipeline::from_g(src)
            .unwrap()
            .run(&PipelineOptions::default())
            .unwrap();
        Arc::new(done.into_synthesis())
    }

    #[test]
    fn mix_separates_tags_and_parts() {
        let a = mix(0, "reduce", &[1, 2]);
        assert_eq!(a, mix(0, "reduce", &[1, 2]), "mix must be deterministic");
        assert_ne!(a, mix(0, "reduce", &[2, 1]));
        assert_ne!(a, mix(0, "resolve", &[1, 2]));
        assert_ne!(a, mix(1, "reduce", &[1, 2]));
        // Part boundaries matter: [1,2] vs [12] style collisions are
        // prevented by hashing the slice (length included).
        assert_ne!(mix(0, "t", &[1, 2]), mix(0, "t", &[1, 2, 0]));
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        SynthCache::with_byte_bound(0);
    }

    #[test]
    fn reinsert_replaces_the_charge_and_clear_zeroes_it() {
        let (xyz, toggle) = (synthesis(XYZ_G), synthesis(TOGGLE_G));
        let cache = SynthCache::new();
        cache.insert(1, Arc::clone(&xyz));
        assert_eq!(cache.bytes(), charge(&xyz));
        // The same key again, with a different payload: the old charge
        // is subtracted, not summed.
        cache.insert(1, Arc::clone(&toggle));
        assert_eq!(cache.bytes(), charge(&toggle));
        cache.insert(2, Arc::clone(&xyz));
        assert_eq!(cache.bytes(), charge(&toggle) + charge(&xyz));
        // A hit hands out the stored entry itself, not a copy.
        assert!(Arc::ptr_eq(&cache.lookup(2).unwrap(), &xyz));
        cache.clear();
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
    }

    #[test]
    fn an_entry_larger_than_the_bound_is_not_stored() {
        let (xyz, toggle) = (synthesis(XYZ_G), synthesis(TOGGLE_G));
        let (big, small) = if charge(&xyz) > charge(&toggle) {
            (xyz, toggle)
        } else {
            (toggle, xyz)
        };
        let store = Arc::new(MemStore::new());
        let cache = SynthCache::with_byte_bound(charge(&small));
        cache.attach_journal(store.clone());
        cache.insert(1, small);
        cache.insert(2, big);
        // The oversized entry is dropped on arrival and counted as an
        // eviction; the resident entry stays and nothing is journaled.
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert!(cache.lookup(1).is_some());
        assert_eq!(cache.journal_appends(), 1);
    }

    #[test]
    fn recovered_entries_are_charged() {
        let store = Arc::new(MemStore::new());
        let xyz = synthesis(XYZ_G);
        let cache = SynthCache::new();
        cache.insert(1, Arc::clone(&xyz));
        cache.compact_to(&*store).unwrap();
        // The journal repeats key 1 and adds key 2.
        let journaled = SynthCache::recover(&*store).unwrap().cache;
        journaled.attach_journal(store.clone());
        journaled.insert(1, Arc::clone(&xyz));
        journaled.insert(2, synthesis(TOGGLE_G));

        let recovered = SynthCache::recover(&*store).unwrap().cache;
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered.bytes(), journaled.bytes());
        recovered.set_byte_bound(Some(recovered.bytes() - 1));
        assert_eq!(recovered.len(), 1);
        assert!(recovered.bytes() <= recovered.byte_bound().unwrap());
    }
}
