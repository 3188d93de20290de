//! The map-keyed memory DP as it was before `dp_schedule` became one
//! routine for every window size, kept as a test oracle: executed sets
//! as `Vec<u64>` keys of a per-level `BTreeMap`, and an O(n · degree)
//! readiness scan per state. Until then it ran every window above 256
//! nodes. `dp_identity.rs` holds `dp_schedule` to this code order for
//! order, peak for peak and transition count for transition count.
//! It reads only `SchedTask`'s public fields; nothing outside
//! `crates/sched/tests/` may call it.

use magis_sched::SchedTask;
use std::collections::BTreeMap;

/// A surviving DP state: its executed-set key plus running memory
/// figures. The schedule itself is *not* stored per state — each state
/// records only the arena index of its `(parent, last-node)` link, and
/// the winning order is reconstructed by walking parents at the end.
/// This keeps a transition O(degree) instead of O(window).
struct LevelState {
    executed: Vec<u64>,
    mem: u64,
    peak: u64,
    /// Index into the parent-link arena (`u32::MAX` for the root).
    link: u32,
}

/// Candidate value inside a level's dedup map, before truncation.
struct Cand {
    peak: u64,
    mem: u64,
    parent: u32,
    last: u32,
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// The old general path of `dp_schedule` at beam width `width`:
/// `(order, peak, states_expanded)`.
pub fn dp_map_keyed(task: &SchedTask<'_>, width: usize) -> (Vec<usize>, u64, usize) {
    let n = task.len();
    if n == 0 {
        return (Vec::new(), task.base, 0);
    }
    let words = n.div_ceil(64);
    // Parent-link arena: one `(parent, last)` entry per state that
    // survives a level's truncation.
    let mut arena: Vec<(u32, u32)> = Vec::new();
    let mut level: Vec<LevelState> =
        vec![LevelState { executed: vec![0; words], mem: task.base, peak: task.base, link: u32::MAX }];
    let mut scratch = vec![0u64; words];
    let mut expanded = 0usize;
    for _ in 0..n {
        // Keyed by the executed bitset. A BTreeMap (not HashMap) so
        // that level iteration order — and therefore beam truncation
        // and final tie-breaks among equal-(peak, mem) states — is
        // deterministic across runs, processes, and thread counts.
        let mut next: BTreeMap<Vec<u64>, Cand> = BTreeMap::new();
        for st in &level {
            for v in 0..n {
                if bit(&st.executed, v)
                    || !task.preds[v].iter().all(|&p| bit(&st.executed, p))
                {
                    continue;
                }
                expanded += 1;
                // Probe with a scratch key: the key Vec is only cloned
                // when the state is genuinely new.
                scratch.copy_from_slice(&st.executed);
                scratch[v / 64] |= 1 << (v % 64);
                let mut mem = st.mem;
                for &ri in &task.allocs[v] {
                    mem += task.roots[ri].bytes;
                }
                let peak = st.peak.max(mem);
                // Free roots whose final user just executed.
                for &ri in &task.uses[v] {
                    let r = &task.roots[ri];
                    if r.freeable && task.root_users[ri].iter().all(|&u| bit(&scratch, u)) {
                        mem -= r.bytes;
                    }
                }
                match next.get_mut(&scratch[..]) {
                    Some(prev) => {
                        if (peak, mem) < (prev.peak, prev.mem) {
                            *prev = Cand { peak, mem, parent: st.link, last: v as u32 };
                        }
                    }
                    None => {
                        next.insert(
                            scratch.clone(),
                            Cand { peak, mem, parent: st.link, last: v as u32 },
                        );
                    }
                }
            }
        }
        let mut states: Vec<(Vec<u64>, Cand)> = next.into_iter().collect();
        if states.len() > width {
            states.sort_by_key(|(_, c)| (c.peak, c.mem));
            states.truncate(width);
        }
        debug_assert!(!states.is_empty(), "DAG window must always have a ready node");
        level = states
            .into_iter()
            .map(|(executed, c)| {
                let link = arena.len() as u32;
                arena.push((c.parent, c.last));
                LevelState { executed, mem: c.mem, peak: c.peak, link }
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
