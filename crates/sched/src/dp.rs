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

use crate::task::{Csr, SchedTask};
use std::cmp::Ordering;

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
/// qualify. A level is ordered by its keys compared lexicographically
/// by word (`key_cmp`), so the level order — and with it beam
/// truncation and every tie-break — does not depend on which one a
/// window gets.
trait Key: Clone + AsRef<[u64]> + AsMut<[u64]> {
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

impl<K: Clone + AsRef<[u64]> + AsMut<[u64]>> Key for K {}

/// One transition out of a level: state `parent` runs `node`. Its keys
/// are the parent's plus one bit, so none is built unless it survives;
/// a survivor is the next level's state. The schedule itself is *not*
/// stored per state — a state's arena entry holds only its `(parent,
/// last-node)` link, and the winning order is reconstructed by walking
/// parents at the end.
#[derive(Clone, Copy)]
struct Trans {
    peak: u64,
    mem: u64,
    /// The executed set's dedup hash: the XOR of [`salt`] over its nodes.
    hash: u64,
    parent: u32,
    node: u32,
}

/// Node `i`'s term in an executed set's hash: splitmix64's finaliser of
/// `i`, a fixed function, so the dedup table probes alike on every run.
fn salt(i: usize) -> u64 {
    let mut z = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compares the executed sets transitions `a` and `b` reach, word by
/// word from word 0, without building either.
fn key_cmp<K: Key>(executed: &[K], a: &Trans, b: &Trans) -> Ordering {
    let words = |t: &Trans| {
        let (w, bit) = (t.node as usize / 64, 1u64 << (t.node % 64));
        let key = executed[t.parent as usize].as_ref().iter().enumerate();
        key.map(move |(i, &x)| if i == w { x | bit } else { x })
    };
    words(a).cmp(words(b))
}

/// What the DP knows of a window's pin groups to free the roots they
/// keep.
struct Pinned<'a, K> {
    /// Per group row, its merges in the window.
    merge_mask: &'a [K],
    /// Per group row, the roots it keeps.
    pin_roots: &'a Csr,
    /// Per root, every user: edge readers and kept-by-group merges.
    root_users: &'a [K],
}

impl<K: Key> Pinned<'_, K> {
    /// Bytes of the roots a pin group keeps that `v`, just run (set in
    /// `exec`), frees: only when `v` is the last of the group's merges
    /// to run, each root once, and only those `v` does not read along
    /// an edge (those are `task.uses[v]`'s). `scratch` comes back empty.
    fn freed(&self, task: &SchedTask<'_>, v: usize, exec: &K, scratch: &mut Vec<usize>) -> u64 {
        for &k in task.pins.merge_of(v) {
            if exec.contains(&self.merge_mask[k]) {
                scratch.extend(&self.pin_roots[k]);
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        let freeable = |&&ri: &&usize| {
            let r = &task.roots[ri];
            r.freeable && task.uses[v].binary_search(&ri).is_err() && exec.contains(&self.root_users[ri])
        };
        let bytes = scratch.iter().filter(freeable).map(|&ri| task.roots[ri].bytes).sum();
        scratch.clear();
        bytes
    }
}

/// The level loop of [`dp_schedule`] on keys shaped like `zero` (all
/// bits clear, at least `task.len()` bits wide): readiness and
/// root-freeing are mask tests. A level's transitions are deduplicated
/// through an open-addressed table on the executed-set hash, every hash
/// match confirmed on the keys, and only the survivors of the beam
/// build keys. Returns `(order, peak, transitions generated)`.
fn dp_on<K: Key>(task: &SchedTask<'_>, width: usize, zero: K) -> (Vec<usize>, u64, usize) {
    let n = task.len();
    debug_assert!(n <= 64 * zero.as_ref().len());
    let mask_of = |nodes: &[usize]| {
        let mut m = zero.clone();
        nodes.iter().for_each(|&i| m.set(i));
        m
    };
    // A merge's mask also holds the inputs of each of its pin groups:
    // one group mask, OR'd in.
    let group_mask: Vec<K> = task.pins.inputs.iter().map(&mask_of).collect();
    let mut pred_mask: Vec<K> = task.preds.iter().map(&mask_of).collect();
    for (k, merges) in task.pins.merges.iter().enumerate() {
        for &m in merges {
            let words = pred_mask[m].as_mut().iter_mut().zip(group_mask[k].as_ref());
            words.for_each(|(w, g)| *w |= g);
        }
    }
    // A root's users are its edge readers and the merges of each pin
    // group that keeps it: one merge mask per group, OR'd in.
    let merge_mask: Vec<K> = task.pins.merges.iter().map(&mask_of).collect();
    let mut root_users: Vec<K> = task.root_users.iter().map(&mask_of).collect();
    for (users, groups) in root_users.iter_mut().zip(task.root_pins.iter()) {
        for &k in groups {
            users.as_mut().iter_mut().zip(merge_mask[k].as_ref()).for_each(|(w, m)| *w |= m);
        }
    }
    let pin_roots =
        if task.pins.is_empty() { Csr::default() } else { task.root_pins.transposed(task.pins.merges.len()) };
    let pinned = (!task.pins.is_empty())
        .then(|| Pinned { merge_mask: &merge_mask, pin_roots: &pin_roots, root_users: &root_users });
    let mut pinned_roots: Vec<usize> = Vec::new();
    let salts: Vec<u64> = (0..n).map(salt).collect();
    let mut ready0 = zero.clone();
    (0..n).filter(|&v| pred_mask[v].as_ref().iter().all(|&w| w == 0)).for_each(|v| ready0.set(v));
    // Parent-link arena: one `(parent, last)` entry per state that
    // survives a level's truncation, the root at 0; `level[i]`'s entry
    // is `first + i`.
    let mut arena: Vec<(u32, u32)> = vec![(0, 0)];
    let mut first = 0;
    let root = Trans { peak: task.base, mem: task.base, hash: 0, parent: 0, node: 0 };
    let (mut level, mut trans, mut slots) = (vec![root], Vec::new(), Vec::new());
    let (mut executed, mut ready) = (vec![zero], vec![ready0]);
    let (mut next_executed, mut next_ready) = (Vec::new(), Vec::new());
    let mut expanded = 0usize;
    for _ in 0..n {
        trans.clear();
        for (parent, (st, (exec, rdy))) in
            level.iter().zip(executed.iter_mut().zip(&ready)).enumerate()
        {
            // Ready bits in ascending node order: low words, low bits
            // first.
            for (w, &word) in rdy.as_ref().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let mut mem = st.mem;
                    for &ri in &task.allocs[v] {
                        mem += task.roots[ri].bytes;
                    }
                    let peak = st.peak.max(mem);
                    // Free roots whose final user just executed: `v` is
                    // run in place on the parent's key and taken back.
                    exec.set(v);
                    for &ri in &task.uses[v] {
                        let r = &task.roots[ri];
                        if r.freeable && exec.contains(&root_users[ri]) {
                            mem -= r.bytes;
                        }
                    }
                    if let Some(pinned) = &pinned {
                        mem -= pinned.freed(task, v, exec, &mut pinned_roots);
                    }
                    exec.clear(v);
                    let hash = st.hash ^ salts[v];
                    trans.push(Trans { peak, mem, hash, parent: parent as u32, node: v as u32 });
                }
            }
        }
        expanded += trans.len();
        // Dedup in generation order: the first transition to reach an
        // executed set holds its slot, and a later one takes it only
        // with a strictly lower (peak, mem).
        let mask = (2 * trans.len()).next_power_of_two() - 1;
        slots.clear();
        slots.resize(mask + 1, u32::MAX);
        let mut kept = 0;
        for i in 0..trans.len() {
            let t = trans[i];
            let mut slot = t.hash as usize & mask;
            loop {
                let held = slots[slot] as usize;
                if held == u32::MAX as usize {
                    slots[slot] = kept as u32;
                    trans[kept] = t;
                    kept += 1;
                    break;
                }
                let best = &mut trans[held];
                if best.hash == t.hash && key_cmp(&executed, best, &t).is_eq() {
                    if (t.peak, t.mem) < (best.peak, best.mem) {
                        *best = t;
                    }
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        trans.truncate(kept);
        // The level order is the key's; past the beam, the `width`
        // lowest (peak, mem) survive, ties to the lower key. Keys are
        // distinct, so both are total orders.
        if trans.len() > width {
            let by_score = |a: &Trans, b: &Trans| {
                (a.peak, a.mem).cmp(&(b.peak, b.mem)).then_with(|| key_cmp(&executed, a, b))
            };
            trans.select_nth_unstable_by(width, by_score);
            trans.truncate(width);
            trans.sort_unstable_by(by_score);
        } else {
            trans.sort_unstable_by(|a, b| key_cmp(&executed, a, b));
        }
        debug_assert!(!trans.is_empty(), "DAG window must always have a ready node");
        // Only the survivors build their keys.
        next_executed.clear();
        next_ready.clear();
        let parents = first;
        first = arena.len();
        for t in &trans {
            let (parent, v) = (t.parent as usize, t.node as usize);
            let mut exec = executed[parent].clone();
            exec.set(v);
            let mut rdy = ready[parent].clone();
            rdy.clear(v);
            for &s in &task.succs[v] {
                if exec.contains(&pred_mask[s]) {
                    rdy.set(s);
                }
            }
            // A group's merges are looked at only once its last input
            // has run.
            for &k in task.pins.input_of(v) {
                if exec.contains(&group_mask[k]) {
                    for &m in &task.pins.merges[k] {
                        if exec.contains(&pred_mask[m]) {
                            rdy.set(m);
                        }
                    }
                }
            }
            next_executed.push(exec);
            next_ready.push(rdy);
            arena.push(((parents + parent) as u32, t.node));
        }
        std::mem::swap(&mut level, &mut trans);
        std::mem::swap(&mut executed, &mut next_executed);
        std::mem::swap(&mut ready, &mut next_ready);
    }
    let (best, state) = level
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| (s.peak, s.mem))
        .expect("at least one complete schedule");
    // Reconstruct the winning order by walking the parent chain.
    let mut order = Vec::with_capacity(n);
    let mut cur = first + best;
    while cur != 0 {
        let (parent, last) = arena[cur];
        order.push(last as usize);
        cur = parent as usize;
    }
    order.reverse();
    (order, state.peak, expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::is_topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory_profile_checked;

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
        let naive = magis_graph::algo::topo_order(&g);
        let naive_peak = memory_profile_checked(&g, &naive).unwrap().peak_bytes;
        let res = dp_schedule(&task, &SchedConfig::default());
        let ids = task.to_node_ids(&res.order);
        assert!(is_topo_order(&g, &ids));
        let dp_peak = memory_profile_checked(&g, &ids).unwrap().peak_bytes;
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
            assert_eq!(memory_profile_checked(&g, &ids).unwrap().peak_bytes, res.peak);
        }
    }
}
