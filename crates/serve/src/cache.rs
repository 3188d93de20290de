//! Cross-request result cache.
//!
//! The service-level analogue of the search's structural-hash
//! `EvalCache`: repeat submissions of the same job (same model, same
//! objective, same budget knobs — see `JobSpec::cache_key`) are served
//! the completed result without re-running the search.
//!
//! **Only deterministic completions are cached.** A result whose stop
//! reason is wall-clock dependent (`deadline` — the job's one
//! wall-clock limit, `budget_ms`, ran out — or `cancelled`) is
//! different every run by nature; caching it would
//! make a repeat submission's answer depend on which run happened to
//! populate the cache. `StopReason::is_deterministic` gates insertion,
//! so a cache hit is bit-identical to what a fresh run would have
//! produced — the same-job-twice bit-identity contract holds whether
//! the second submission hits or misses.
//!
//! The in-search `EvalCache` is deliberately *not* shared live across
//! concurrent jobs: its contents would then depend on job interleaving
//! and the per-job trajectories would stop being reproducible.

use crate::protocol::JobResult;
use std::collections::HashMap;

/// Bounded FIFO map from job cache key to completed result.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<u64, JobResult>,
    order: std::collections::VecDeque<u64>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            entries: HashMap::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached result for `key`, if any.
    pub fn get(&self, key: u64) -> Option<&JobResult> {
        self.entries.get(&key)
    }

    /// Caches `result` under `key` (first insertion wins), evicting
    /// the oldest entry when over capacity. The caller is responsible
    /// for the determinism gate — only results whose stop reason is
    /// deterministic may be inserted.
    pub fn insert(&mut self, key: u64, result: JobResult) {
        if self.capacity == 0 || self.entries.contains_key(&key) {
            return;
        }
        self.entries.insert(key, result);
        self.order.push_back(key);
        while self.entries.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_obs::json::Json;

    fn result(stop: &str, peak: u64) -> JobResult {
        JobResult {
            peak_bytes: peak,
            latency: 1.0,
            planned_peak_bytes: None,
            stop_reason: stop.into(),
            deterministic: true,
            evaluated: 1,
            expanded: 1,
            resumed: false,
            pareto: vec![],
            trajectory_digest: 0,
            timeline: Json::Null,
        }
    }

    #[test]
    fn first_insert_wins_and_fifo_evicts() {
        let mut c = ResultCache::new(2);
        c.insert(1, result("eval-cap", 10));
        c.insert(1, result("eval-cap", 11)); // ignored
        assert_eq!(c.get(1).unwrap().peak_bytes, 10);
        c.insert(2, result("eval-cap", 20));
        c.insert(3, result("eval-cap", 30));
        assert!(c.get(1).is_none(), "oldest evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResultCache::new(0);
        c.insert(1, result("eval-cap", 10));
        assert!(c.is_empty());
    }
}
