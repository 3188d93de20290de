//! Memory-optimal topological ordering via dynamic programming over
//! executed-set states (the `DpSchedule` of Algorithm 2, following the
//! Serenity-style DP of Ahn et al., MLSys'20), with a beam cap so large
//! windows degrade gracefully to memory-aware list scheduling.
//!
//! States are keyed by the *set* of executed nodes: any two partial
//! schedules covering the same set leave identical residual problems
//! and identical live memory, so only the one with the lower peak needs
//! to survive — that is the DP. When the number of states at a level
//! exceeds the beam width, the worst states are dropped (quality knob
//! D6 in DESIGN.md).

use crate::task::SchedTask;

/// Tuning for the DP/beam scheduler.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Maximum states kept per level. Width 1 is greedy list
    /// scheduling; large widths approach exact DP. Zero behaves as 1.
    pub beam_width: usize,
    /// Above this window size the effective width shrinks
    /// proportionally to bound work (`width · budget / n`).
    pub node_budget: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { beam_width: 64, node_budget: 128 }
    }
}

impl SchedConfig {
    /// Effective beam width for a window of `n` nodes (at least 1).
    pub fn effective_width(&self, n: usize) -> usize {
        let width = if n <= self.node_budget {
            self.beam_width
        } else {
            self.beam_width * self.node_budget / n
        };
        width.max(1)
    }
}

/// Result of [`dp_schedule`].
#[derive(Debug, Clone)]
pub struct DpResult {
    /// Window schedule in local indices.
    pub order: Vec<usize>,
    /// Peak bytes within the window (including the window base).
    pub peak: u64,
    /// Number of DP states expanded (search effort metric).
    pub states_expanded: usize,
}

/// Schedules a window to minimize peak memory.
///
/// Returns a topological order of the window's local indices together
/// with the achieved peak (window-local, including boundary `base`).
pub fn dp_schedule(task: &SchedTask<'_>, cfg: &SchedConfig) -> DpResult {
    let n = task.len();
    if n == 0 {
        return DpResult { order: Vec::new(), peak: task.base, states_expanded: 0 };
    }
    let width = cfg.effective_width(n);
    // The window size picks only the executed-set key type. Word-array
    // keys live on the stack and cover every window up to 1024 nodes
    // (whole-model pieces at paper scale reach ~930); beyond that the
    // key is one boxed slice of exactly the words needed.
    let (order, peak, states_expanded) = match n.div_ceil(64) {
        1 => dp_on(task, width, [0u64; 1]),
        2 => dp_on(task, width, [0u64; 2]),
        3 => dp_on(task, width, [0u64; 3]),
        4 => dp_on(task, width, [0u64; 4]),
        5..=8 => dp_on(task, width, [0u64; 8]),
        9..=16 => dp_on(task, width, [0u64; 16]),
        words => dp_on(task, width, vec![0u64; words].into_boxed_slice()),
    };
    DpResult { order, peak, states_expanded }
}

/// An executed-set (or ready-set) key: a bitset over the window's local
/// indices, bit `i` in word `i / 64`. `[u64; W]` and `Box<[u64]>` both
/// qualify; both order lexicographically by word, so the level order —
/// and with it beam truncation and every tie-break — does not depend
/// on which one a window gets.
trait Key: Clone + Ord + AsRef<[u64]> + AsMut<[u64]> {
    #[inline]
    fn set(&mut self, i: usize) {
        self.as_mut()[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.as_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    fn contains(&self, other: &Self) -> bool {
        self.as_ref().iter().zip(other.as_ref()).all(|(a, b)| a & b == *b)
    }
}

impl<K: Clone + Ord + AsRef<[u64]> + AsMut<[u64]>> Key for K {}

/// A surviving DP state. The schedule itself is *not* stored per state
/// — each state records only the arena index of its `(parent,
/// last-node)` link, and the winning order is reconstructed by walking
/// parents at the end.
struct State<K> {
    executed: K,
    /// Nodes whose predecessors are all executed, not yet run. Pure
    /// function of `executed`, carried incrementally so a transition
    /// costs O(out-degree) instead of an O(n) scan.
    ready: K,
    mem: u64,
    peak: u64,
    /// Index into the parent-link arena (`u32::MAX` for the root).
    link: u32,
}

/// One transition out of a level, before dedup and truncation.
struct Trans<K> {
    executed: K,
    ready: K,
    peak: u64,
    mem: u64,
    parent: u32,
    last: u32,
}

/// The level loop of [`dp_schedule`] on keys shaped like `zero` (all
/// bits clear, at least `task.len()` bits wide): readiness and
/// root-freeing are mask tests, and a level is deduplicated by one
/// stable sort. Returns `(order, peak, transitions generated)`.
fn dp_on<K: Key>(task: &SchedTask<'_>, width: usize, zero: K) -> (Vec<usize>, u64, usize) {
    let n = task.len();
    debug_assert!(n <= 64 * zero.as_ref().len());
    let mask_of = |nodes: &[usize]| {
        let mut m = zero.clone();
        nodes.iter().for_each(|&i| m.set(i));
        m
    };
    let pred_mask: Vec<K> = task.preds.iter().map(&mask_of).collect();
    let root_users: Vec<K> = task.root_users.iter().map(&mask_of).collect();
    let mut ready0 = zero.clone();
    (0..n).filter(|&v| task.preds[v].is_empty()).for_each(|v| ready0.set(v));
    // Parent-link arena: one `(parent, last)` entry per state that
    // survives a level's truncation.
    let mut arena: Vec<(u32, u32)> = Vec::new();
    let mut level =
        vec![State { executed: zero, ready: ready0, mem: task.base, peak: task.base, link: u32::MAX }];
    let mut expanded = 0usize;
    let mut trans: Vec<Trans<K>> = Vec::new();
    for _ in 0..n {
        for st in &level {
            // Ready bits in ascending node order: low words, low bits
            // first.
            for (w, &word) in st.ready.as_ref().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    expanded += 1;
                    let mut executed = st.executed.clone();
                    executed.set(v);
                    let mut ready = st.ready.clone();
                    ready.clear(v);
                    for &s in &task.succs[v] {
                        if executed.contains(&pred_mask[s]) {
                            ready.set(s);
                        }
                    }
                    let mut mem = st.mem;
                    for &ri in &task.allocs[v] {
                        mem += task.roots[ri].bytes;
                    }
                    let peak = st.peak.max(mem);
                    // Free roots whose final user just executed.
                    for &ri in &task.uses[v] {
                        let r = &task.roots[ri];
                        if r.freeable && executed.contains(&root_users[ri]) {
                            mem -= r.bytes;
                        }
                    }
                    trans.push(Trans { executed, ready, peak, mem, parent: st.link, last: v as u32 });
                }
            }
        }
        // Dedup by a stable sort on the key, not a hash: the level
        // comes out in ascending-key order on every run, process and
        // thread count, and among transitions to the same executed set
        // the first-generated one wins (peak, mem) ties.
        trans.sort_by(|a, b| a.executed.cmp(&b.executed));
        trans.dedup_by(|t, best| {
            if t.executed != best.executed {
                return false;
            }
            if (t.peak, t.mem) < (best.peak, best.mem) {
                std::mem::swap(t, best);
            }
            true
        });
        if trans.len() > width {
            trans.sort_by_key(|t| (t.peak, t.mem));
            trans.truncate(width);
        }
        debug_assert!(!trans.is_empty(), "DAG window must always have a ready node");
        level = trans
            .drain(..)
            .map(|t| {
                let link = arena.len() as u32;
                arena.push((t.parent, t.last));
                State { executed: t.executed, ready: t.ready, mem: t.mem, peak: t.peak, link }
            })
            .collect();
    }
    let best = level
        .iter()
        .min_by_key(|s| (s.peak, s.mem))
        .expect("at least one complete schedule");
    // Reconstruct the winning order by walking the parent chain.
    let mut order = Vec::with_capacity(n);
    let mut cur = best.link;
    while cur != u32::MAX {
        let (parent, last) = arena[cur as usize];
        order.push(last as usize);
        cur = parent;
    }
    order.reverse();
    (order, best.peak, expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::is_topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory::memory_profile;

    /// Two parallel chains from one input: a long heavy chain and a
    /// short light one joining at the end. Greedy program order (heavy
    /// first then light) holds the heavy result while running the light
    /// chain; the optimal order interleaves to keep fewer live tensors.
    #[test]
    fn dp_beats_naive_order_on_fanout() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([1024], "x"); // 4 KiB
        // Wide fan-out: many independent consumers of x, each producing
        // a big tensor, all summed pairwise at the end. Naive order
        // computes all producers first (peak ~ k tensors); optimal
        // interleaves adds to free early.
        let k = 6;
        let mut prods = Vec::new();
        for _ in 0..k {
            prods.push(b.relu(x));
        }
        let mut acc = prods[0];
        for &p in &prods[1..] {
            acc = b.add_op(acc, p);
        }
        let g = b.finish();
        let task = SchedTask::whole_graph(&g);
        let naive_peak = memory_profile(&g, &magis_graph::algo::topo_order(&g)).peak_bytes;
        let res = dp_schedule(&task, &SchedConfig::default());
        let ids = task.to_node_ids(&res.order);
        assert!(is_topo_order(&g, &ids));
        let dp_peak = memory_profile(&g, &ids).peak_bytes;
        assert!(
            dp_peak < naive_peak,
            "dp {dp_peak} should beat naive {naive_peak}"
        );
        // DP's internal accounting must agree with the memory profiler.
        assert_eq!(dp_peak, res.peak);
    }

    #[test]
    fn beam_width_one_is_still_valid() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let _ = b.add_op(a, c);
        let g = b.finish();
        let task = SchedTask::whole_graph(&g);
        let cfg = SchedConfig { beam_width: 1, node_budget: 128 };
        let res = dp_schedule(&task, &cfg);
        let ids = task.to_node_ids(&res.order);
        assert!(is_topo_order(&g, &ids));
    }

    #[test]
    fn beam_width_zero_behaves_as_width_one() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let _ = b.add_op(a, c);
        let g = b.finish();
        let task = SchedTask::whole_graph(&g);
        // Both branches of `effective_width`: inside and above the
        // node budget.
        for node_budget in [128, 2] {
            let zero = dp_schedule(&task, &SchedConfig { beam_width: 0, node_budget });
            let one = dp_schedule(&task, &SchedConfig { beam_width: 1, node_budget });
            assert!(is_topo_order(&g, &task.to_node_ids(&zero.order)));
            assert_eq!(
                (zero.order, zero.peak, zero.states_expanded),
                (one.order, one.peak, one.states_expanded)
            );
        }
    }

    #[test]
    fn effective_width_shrinks() {
        let cfg = SchedConfig { beam_width: 64, node_budget: 128 };
        assert_eq!(cfg.effective_width(100), 64);
        assert_eq!(cfg.effective_width(256), 32);
        assert!(cfg.effective_width(100_000) >= 1);
    }

    #[test]
    fn empty_window() {
        let g = magis_graph::Graph::new();
        let task = SchedTask::whole_graph(&g);
        let res = dp_schedule(&task, &SchedConfig::default());
        assert!(res.order.is_empty());
    }

    #[test]
    fn dp_matches_profiler_on_random_small_graphs() {
        use magis_util::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut b = GraphBuilder::new(DType::F32);
            let x = b.input([rng.gen_range(64..512)], "x");
            let mut pool = vec![x];
            for _ in 0..rng.gen_range(3..10) {
                let pick = pool[rng.gen_range(0..pool.len())];
                let v = if rng.gen_bool(0.5) { b.relu(pick) } else { b.gelu(pick) };
                pool.push(v);
            }
            let g = b.finish();
            let task = SchedTask::whole_graph(&g);
            let res = dp_schedule(&task, &SchedConfig::default());
            let ids = task.to_node_ids(&res.order);
            assert!(is_topo_order(&g, &ids));
            assert_eq!(memory_profile(&g, &ids).peak_bytes, res.peak);
        }
    }
}
