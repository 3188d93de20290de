//! Structural-hash keyed evaluation cache.
//!
//! The search's rule vocabulary is full of inverse pairs (remat /
//! de-remat, swap-in / swap-out, F-Tree enable / disable), so the same
//! graph is routinely reached along several rewrite paths. The
//! seen-set only filters a duplicate *after* its evaluation has been
//! paid for; this cache remembers the evaluated [`MState`] keyed by
//! the Weisfeiler–Lehman hash of its overlay graph, letting a repeat
//! candidate skip scheduling and simulation entirely. One cache serves
//! one search, under the one memory objective of its evaluation
//! context, so the hash alone is the key.
//!
//! An entry is the evaluated child's one allocation, an `Arc` the
//! driver's frontier (a greedy queue entry, an MCTS node) holds too; a
//! hit hands out the same `Arc`. Nobody writes through a shared state:
//! a writer takes its own copy (`Arc::make_mut`), so a cached state is
//! never changed after its insert.
//!
//! Concurrency / determinism contract (see the `optimizer` module
//! docs): workers read a **frozen** cache during a fan-out — hits are
//! counted and new entries inserted only at the single-threaded merge,
//! in candidate order — so the search trajectory stays bit-identical
//! across thread counts. The cache is never persisted in checkpoints;
//! a resumed search starts cold.
//!
//! Eviction is **cost-weighted LRU by merge order**. A hit on a cheap
//! entry saves little (the evaluation it skips was fast); a hit on an
//! expensive one saves a full reschedule. Each entry therefore carries
//! a *cost class* — the log₂ bucket of how much scheduling work its
//! evaluation did (the incremental-eval window when the evaluation was
//! incremental, the full schedule length otherwise) — and the victim
//! is the least-recently-used entry of the **cheapest** live class.
//! The class is a pure function of the cached state, never of measured
//! wall time: wall time varies run to run and across thread counts,
//! and feeding it into eviction would break the bit-identity contract
//! below.
//!
//! Recency is a logical tick that advances only on `&mut` operations
//! ([`EvalCache::insert`] and [`EvalCache::touch`]), which the
//! optimizer performs exclusively at the single-threaded merge in
//! candidate order. Worker-side `get`s never update recency — they
//! can't (`&self`) — so eviction order is a pure function of the merge
//! sequence and thread count cannot perturb it. Entries carry the rule
//! family that created them so a quarantined family's results can be
//! purged — a cached state must not outlive the trust in the rule that
//! built it.

use crate::state::MState;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct CacheEntry {
    state: Arc<MState>,
    family: u8,
    /// Recompute-cost class (log₂ bucket of the scheduling work a hit
    /// saves). Fixed at insert; see [`cost_class`].
    class: u8,
    /// Logical recency: the tick of the last merge-thread touch/insert.
    last_used: u64,
}

/// Deterministic proxy for how expensive this state would be to
/// re-evaluate on a cache miss: the incremental scheduler's window
/// when the evaluation was incremental (most of the graph's schedule
/// was carried over), else the full schedule length. Bucketed to log₂
/// so near-equal costs share a class and LRU decides within it.
fn cost_class(state: &MState) -> u8 {
    let work = state
        .eval
        .inc
        .map(|i| i.window)
        .unwrap_or(state.eval.order.len())
        .max(1);
    (usize::BITS - 1 - work.leading_zeros()) as u8
}

/// A bounded map from overlay-graph hash to the evaluated state it
/// produced, evicting the least-recently-used entry of the cheapest
/// recompute-cost class. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct EvalCache {
    capacity: usize,
    entries: BTreeMap<u64, CacheEntry>,
    /// Inverse index `(cost class, tick) → hash` for O(log n)
    /// eviction: the first entry is the oldest member of the cheapest
    /// class. Every live entry has exactly one index slot; ticks are
    /// never reused.
    recency: BTreeMap<(u8, u64), u64>,
    tick: u64,
}

impl EvalCache {
    /// A cache holding at most `capacity` evaluated states
    /// (`0` disables caching entirely: every lookup misses and every
    /// insert is a no-op).
    pub fn new(capacity: usize) -> Self {
        EvalCache { capacity, entries: BTreeMap::new(), recency: BTreeMap::new(), tick: 0 }
    }

    /// The configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no states.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the evaluated state for an overlay-graph hash.
    /// Read-only: safe to call concurrently from evaluation workers
    /// while the merge thread owns the only `&mut`. Does **not**
    /// refresh recency — the merge thread records hits via
    /// [`Self::touch`].
    pub fn get(&self, hash: u64) -> Option<&Arc<MState>> {
        self.entries.get(&hash).map(|e| &e.state)
    }

    /// Marks `hash` as just used, moving it to the back of the
    /// eviction order. Called by the merge thread, in candidate order,
    /// for every cache hit it commits — the single place recency
    /// advances, which is what keeps eviction deterministic across
    /// thread counts. A key not present (e.g. purged earlier in the
    /// same merge) is a no-op.
    pub fn touch(&mut self, hash: u64) {
        let Some(e) = self.entries.get_mut(&hash) else { return };
        self.recency.remove(&(e.class, e.last_used));
        self.tick += 1;
        e.last_used = self.tick;
        self.recency.insert((e.class, self.tick), hash);
    }

    /// Inserts an evaluated state as most-recently-used within its cost
    /// class, evicting while over capacity (victim: oldest entry of the
    /// cheapest class). First insertion wins: a key already present is
    /// left untouched (the two states are hash-equal, and keeping the
    /// first matches what `threads == 1` would have produced). Returns
    /// the number of entries evicted.
    pub fn insert(&mut self, hash: u64, state: Arc<MState>, family: u8) -> usize {
        if self.capacity == 0 || self.entries.contains_key(&hash) {
            return 0;
        }
        self.tick += 1;
        let class = cost_class(&state);
        self.entries.insert(hash, CacheEntry { state, family, class, last_used: self.tick });
        self.recency.insert((class, self.tick), hash);
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let Some((&cheapest_oldest, &victim)) = self.recency.iter().next() else { break };
            self.recency.remove(&cheapest_oldest);
            if self.entries.remove(&victim).is_some() {
                evicted += 1;
            }
        }
        evicted
    }

    /// Removes every entry created by `family` (called when the family
    /// is quarantined: its cached evaluations must not resurrect
    /// results the search no longer trusts). Returns the number of
    /// entries purged.
    pub fn purge_family(&mut self, family: u8) -> usize {
        let before = self.entries.len();
        let entries = &mut self.entries;
        let recency = &mut self.recency;
        entries.retain(|_, e| {
            if e.family == family {
                recency.remove(&(e.class, e.last_used));
                false
            } else {
                true
            }
        });
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EvalContext;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn tiny_state() -> Arc<MState> {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([16], "x");
        let _ = b.relu(x);
        Arc::new(MState::initial(b.finish(), &EvalContext::default()))
    }

    #[test]
    fn hit_miss_and_first_insert_wins() {
        let s = tiny_state();
        let mut c = EvalCache::new(4);
        assert!(c.get(1).is_none());
        assert_eq!(c.insert(1, s.clone(), 2), 0);
        assert!(c.get(1).is_some());
        // Re-inserting the same key is a no-op (first wins).
        let mut dup = MState::clone(&s);
        dup.eval.peak_bytes += 1;
        assert_eq!(c.insert(1, Arc::new(dup), 3), 0);
        assert_eq!(c.get(1).unwrap().eval.peak_bytes, s.eval.peak_bytes);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_hit_is_the_inserted_allocation() {
        // One copy of each evaluated state: the entry is the `Arc` the
        // merge inserted (and the frontier holds), not a copy of it,
        // and every hit hands that same allocation back.
        let s = tiny_state();
        let mut c = EvalCache::new(4);
        c.insert(7, Arc::clone(&s), 0);
        assert!(Arc::ptr_eq(c.get(7).unwrap(), &s));
        assert_eq!(Arc::strong_count(&s), 2, "the caller's handle and the entry");
        // A writer to a hit copies it first; the entry stays as it was.
        let mut hit = Arc::clone(c.get(7).unwrap());
        Arc::make_mut(&mut hit).eval.latency = f64::NAN;
        assert!(Arc::ptr_eq(c.get(7).unwrap(), &s));
        assert_eq!(c.get(7).unwrap().eval.latency.to_bits(), s.eval.latency.to_bits());
        // Eviction drops the cache's handle only.
        c.purge_family(0);
        assert_eq!(Arc::strong_count(&s), 1);
    }

    #[test]
    fn evicts_least_recently_used_not_oldest_inserted() {
        let s = tiny_state();
        let mut c = EvalCache::new(2);
        assert_eq!(c.insert(1, s.clone(), 0), 0);
        assert_eq!(c.insert(2, s.clone(), 0), 0);
        // Refresh 1: the insertion-older entry is now recency-newer.
        c.touch(1);
        assert_eq!(c.insert(3, s.clone(), 0), 1);
        assert!(c.get(2).is_none(), "LRU entry evicted, not FIFO-oldest");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn untouched_reads_do_not_refresh_recency() {
        // `get` is &self and must not affect eviction: only the merge
        // thread's explicit `touch` does. This is the determinism
        // property — worker-side reads (any thread count, any order)
        // leave the eviction sequence unchanged.
        let s = tiny_state();
        let mut c = EvalCache::new(2);
        c.insert(1, s.clone(), 0);
        c.insert(2, s.clone(), 0);
        for _ in 0..100 {
            assert!(c.get(1).is_some()); // heavy read traffic, no touch
        }
        c.insert(3, s.clone(), 0);
        assert!(c.get(1).is_none(), "reads alone must not save an entry");
    }

    #[test]
    fn eviction_sequence_is_a_pure_function_of_merge_ops() {
        // Replay the same merge-order operation log twice (as if under
        // different thread counts: workers only ever issue &self gets,
        // which the log doesn't record because they can't mutate).
        let s = tiny_state();
        let ops: Vec<(u8, u64)> = vec![
            (0, 1),
            (0, 2),
            (1, 1), // touch
            (0, 3),
            (0, 4),
            (1, 3),
            (0, 5),
            (1, 42), // touch of a never-inserted hash: no-op
            (0, 6),
        ];
        let run = |c: &mut EvalCache| {
            let mut log = Vec::new();
            for &(kind, h) in &ops {
                match kind {
                    0 => {
                        let evicted = c.insert(h, s.clone(), 0);
                        log.push((h, evicted));
                    }
                    _ => c.touch(h),
                }
            }
            let mut live: Vec<u64> = Vec::new();
            for h in 0..50 {
                if c.get(h).is_some() {
                    live.push(h);
                }
            }
            (log, live)
        };
        let mut a = EvalCache::new(3);
        let mut b = EvalCache::new(3);
        // Simulated worker reads on `b` between merges: &self only.
        b.insert(0xdead, s.clone(), 0);
        b.purge_family(0); // drop it again so states match
        let ra = run(&mut a);
        let _ = (b.get(1), b.get(2), b.get(3));
        let rb = run(&mut b);
        assert_eq!(ra, rb, "same merge ops → same evictions and survivors");
    }

    #[test]
    fn cost_weighted_eviction_prefers_cheap_victims() {
        // A tiny state (2-node schedule) is cheap to re-evaluate; a
        // 40-deep chain is not. The cheap entry must be the victim even
        // when it is recency-newer than the expensive one — and within
        // one cost class, plain LRU still decides.
        let cheap = tiny_state();
        let mut b = GraphBuilder::new(DType::F32);
        let mut x = b.input([16], "x");
        for _ in 0..40 {
            x = b.relu(x);
        }
        let costly = Arc::new(MState::initial(b.finish(), &EvalContext::default()));
        assert!(
            super::cost_class(&costly) > super::cost_class(&cheap),
            "test premise: the chain state must land in a pricier class"
        );

        let mut c = EvalCache::new(2);
        c.insert(1, costly.clone(), 0);
        c.insert(2, cheap.clone(), 0);
        // Key 2 is more recent but cheaper to recompute: it is evicted.
        assert_eq!(c.insert(3, cheap.clone(), 0), 1);
        assert!(c.get(1).is_some(), "expensive entry survives");
        assert!(c.get(2).is_none(), "cheap, recency-newer entry evicted first");
        assert!(c.get(3).is_some());

        // Within one cost class, LRU still decides: refresh the
        // insertion-older cheap entry and the untouched one is the
        // victim — the expensive incumbent is never considered.
        let mut c = EvalCache::new(3);
        c.insert(1, costly.clone(), 0);
        c.insert(2, cheap.clone(), 0);
        c.insert(3, cheap.clone(), 0);
        c.touch(2);
        assert_eq!(c.insert(4, cheap.clone(), 0), 1);
        assert!(c.get(3).is_none(), "untouched cheap entry is the within-class victim");
        assert!(c.get(1).is_some() && c.get(2).is_some() && c.get(4).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let s = tiny_state();
        let mut c = EvalCache::new(0);
        assert_eq!(c.insert(1, s, 0), 0);
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
        c.touch(1); // no-op, must not panic
    }

    #[test]
    fn touch_after_purge_is_noop() {
        // Within one merge pass a hit can be recorded for a family that
        // a later candidate's strike purges — or vice versa. A touch on
        // a missing key must be silently ignored and leave eviction
        // state consistent.
        let s = tiny_state();
        let mut c = EvalCache::new(4);
        c.insert(1, s.clone(), 7);
        c.insert(2, s.clone(), 3);
        assert_eq!(c.purge_family(7), 1);
        c.touch(1); // purged above
        assert!(c.get(1).is_none());
        // Internal recency index stayed consistent: filling far past
        // capacity still caps the size and evicts cleanly.
        for h in 10..30 {
            c.insert(h, s.clone(), 3);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn purge_family_removes_only_that_family() {
        let s = tiny_state();
        let mut c = EvalCache::new(8);
        c.insert(1, s.clone(), 4);
        c.insert(2, s.clone(), 4);
        c.insert(3, s.clone(), 5);
        assert_eq!(c.purge_family(4), 2);
        assert!(c.get(1).is_none() && c.get(2).is_none());
        assert!(c.get(3).is_some());
        // Recency entries from the purge don't break later eviction.
        c.insert(4, s.clone(), 5);
        c.insert(5, s.clone(), 5);
        for h in 6..20 {
            c.insert(h, s.clone(), 5);
        }
        assert!(c.len() <= 8);
    }
}
