//! Offset-assigning memory planning over [`Lifetimes`] tables — the
//! fragmentation-aware second profiling stage behind the liveness-sum
//! profile (ROADMAP: "allocator-aware planning").
//!
//! The liveness profile scores a schedule by the *sum* of live tensor
//! bytes per step; a real runtime pays fragmentation on top of that,
//! because an allocator must place every tensor at a concrete address
//! and two free regions separated by a live tensor cannot serve one
//! large request. [`memory_plan`] runs a best-fit free-list allocator
//! with block coalescing over the tensor live intervals and reports
//! `planned_peak_bytes` — the high-water mark of the assigned address
//! space, always `>= peak_bytes` of the liveness profile.
//!
//! ## Determinism contract
//!
//! The plan is a pure function of the `(graph, order)` pair: live
//! intervals are resolved exactly as the liveness sweep resolves them,
//! allocation events are replayed in a canonical total order
//! (time, frees-before-allocs, root id), and the allocator state is
//! itself a pure function of the currently-occupied interval set (the
//! free list is kept maximally coalesced, and the high-water `top` is
//! always the maximum occupied end).

use crate::cost::CostError;
use crate::memory::{check_coverage, compute_lifetimes, Lifetimes};
use magis_graph::graph::{Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Which peak-memory figure the optimizer scores candidates by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemObjective {
    /// Sum of live tensor bytes per step (the paper's `M_peak`).
    #[default]
    Liveness,
    /// High-water mark of the best-fit allocator's address space —
    /// liveness plus fragmentation.
    Planned,
}

impl MemObjective {
    /// Parses a CLI spelling (`liveness` | `planned`).
    pub fn parse(s: &str) -> Option<MemObjective> {
        match s {
            "liveness" => Some(MemObjective::Liveness),
            "planned" => Some(MemObjective::Planned),
            _ => None,
        }
    }
}

impl std::fmt::Display for MemObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemObjective::Liveness => write!(f, "liveness"),
            MemObjective::Planned => write!(f, "planned"),
        }
    }
}

/// One tensor's placement in the plan: a storage root pinned to a
/// device-address interval for its live steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedAlloc {
    /// The storage root this placement belongs to.
    pub root: NodeId,
    /// Device bytes of the root's storage.
    pub bytes: u64,
    /// Assigned device offset.
    pub offset: u64,
    /// First schedule step at which the storage is live.
    pub alloc_step: usize,
    /// Last schedule step at which the storage is live (inclusive).
    pub free_step: usize,
}

/// The result of offset-assigning memory planning: every sized storage
/// root placed at a concrete address for its live interval.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// High-water mark of the assigned address space.
    pub planned_peak_bytes: u64,
    /// Peak of the liveness sum over the same intervals (equals the
    /// liveness profile's `peak_bytes`).
    pub liveness_peak_bytes: u64,
    steps: usize,
    allocs: Vec<PlannedAlloc>,
}

impl MemoryPlan {
    /// Schedule length the plan was computed against.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The placements, in canonical replay order (allocation step,
    /// then root id).
    pub fn allocations(&self) -> &[PlannedAlloc] {
        &self.allocs
    }

    /// Fragmentation overhead of the plan: `planned / liveness` peak
    /// (`1.0` when the graph is empty — nothing to fragment).
    pub fn fragmentation_ratio(&self) -> f64 {
        if self.liveness_peak_bytes == 0 {
            1.0
        } else {
            self.planned_peak_bytes as f64 / self.liveness_peak_bytes as f64
        }
    }

    fn empty() -> MemoryPlan {
        MemoryPlan { planned_peak_bytes: 0, liveness_peak_bytes: 0, steps: 0, allocs: Vec::new() }
    }
}

/// Event kinds, ordered so that at equal times frees happen before
/// allocations: a tensor dead at step `t` vacates its region before
/// the step-`t` allocations are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Free,
    Alloc,
}

/// One allocator event in the canonical replay order. Field order is
/// the sort key: time, frees-before-allocs, then root id as the
/// deterministic tiebreak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: usize,
    kind: EventKind,
    root: NodeId,
    bytes: u64,
}

/// Turns a lifetime table into the canonical event list: the free
/// event fires one step *after* the inclusive free step.
fn events_of(lt: &Lifetimes) -> Vec<Event> {
    let mut events = Vec::new();
    for (r, &bytes) in lt.bytes.iter().enumerate() {
        if bytes == 0 {
            continue;
        }
        let root = NodeId::from_index(r);
        events.push(Event { time: lt.alloc[r], kind: EventKind::Alloc, root, bytes });
        events.push(Event { time: lt.free[r] + 1, kind: EventKind::Free, root, bytes });
    }
    events.sort_unstable();
    events
}

/// Best-fit free list with block coalescing. The state invariant that
/// carries the whole determinism story: the free blocks are exactly
/// the maximal gaps of the occupied interval set below `top`, and
/// `top` is the maximum occupied end (0 when nothing is occupied).
/// Both follow from eager coalescing on free and top-truncation when
/// the highest region vacates.
struct FreeList {
    /// offset -> length of each free block.
    by_off: BTreeMap<u64, u64>,
    /// (length, offset) ordered for best-fit: smallest adequate block,
    /// lowest offset as tiebreak.
    by_size: BTreeSet<(u64, u64)>,
    /// High-water mark: maximum occupied end.
    top: u64,
}

impl FreeList {
    fn new() -> FreeList {
        FreeList { by_off: BTreeMap::new(), by_size: BTreeSet::new(), top: 0 }
    }

    /// Places `bytes` at the best-fitting free block, or grows `top`
    /// when no block is large enough.
    fn alloc(&mut self, bytes: u64, step: usize) -> Result<u64, CostError> {
        if let Some(&(len, off)) = self.by_size.range((bytes, 0)..).next() {
            self.by_size.remove(&(len, off));
            self.by_off.remove(&off);
            if len > bytes {
                self.by_off.insert(off + bytes, len - bytes);
                self.by_size.insert((len - bytes, off + bytes));
            }
            Ok(off)
        } else {
            let off = self.top;
            self.top = off.checked_add(bytes).ok_or(CostError::MemoryOverflow { step })?;
            Ok(off)
        }
    }

    /// Returns `[offset, offset + bytes)` to the free list, coalescing
    /// with both neighbors and truncating `top` when the merged block
    /// reaches it.
    fn free(&mut self, offset: u64, bytes: u64) {
        let mut start = offset;
        let mut len = bytes;
        if let Some((&p_off, &p_len)) = self.by_off.range(..offset).next_back() {
            if p_off + p_len == offset {
                self.by_off.remove(&p_off);
                self.by_size.remove(&(p_len, p_off));
                start = p_off;
                len += p_len;
            }
        }
        if let Some(&s_len) = self.by_off.get(&(offset + bytes)) {
            self.by_off.remove(&(offset + bytes));
            self.by_size.remove(&(s_len, offset + bytes));
            len += s_len;
        }
        if start + len == self.top {
            self.top = start;
        } else {
            self.by_off.insert(start, len);
            self.by_size.insert((len, start));
        }
    }
}

/// Liveness peak over the event list: fold the running live sum in
/// replay order and take the maximum after each allocation. Equals the
/// liveness sweep's `peak_bytes` — asserted in debug builds by the
/// callers that hold both.
fn liveness_peak_of(events: &[Event]) -> Result<u64, CostError> {
    let mut cur: u64 = 0;
    let mut peak: u64 = 0;
    for e in events {
        match e.kind {
            EventKind::Alloc => {
                cur = cur.checked_add(e.bytes).ok_or(CostError::MemoryOverflow { step: e.time })?;
                peak = peak.max(cur);
            }
            EventKind::Free => cur -= e.bytes,
        }
    }
    Ok(peak)
}

/// Replays the table's events through a fresh allocator.
fn plan_from_parts(lt: &Lifetimes) -> Result<MemoryPlan, CostError> {
    if lt.steps == 0 {
        return Ok(MemoryPlan::empty());
    }
    let events = events_of(lt);
    let mut fl = FreeList::new();
    // root -> offset of its live placement.
    let mut live = BTreeMap::new();
    let mut allocs = Vec::with_capacity(events.len() / 2);
    for e in &events {
        match e.kind {
            EventKind::Alloc => {
                let offset = fl.alloc(e.bytes, e.time)?;
                live.insert(e.root, offset);
                allocs.push(PlannedAlloc {
                    root: e.root,
                    bytes: e.bytes,
                    offset,
                    alloc_step: e.time,
                    free_step: lt.free[e.root.index()],
                });
            }
            EventKind::Free => {
                let offset =
                    live.remove(&e.root).expect("free of a root that was never allocated");
                fl.free(offset, e.bytes);
            }
        }
    }
    debug_assert!(live.is_empty(), "every allocation is freed by its (inclusive) free step + 1");
    let planned_peak_bytes = allocs.iter().map(|a| a.offset + a.bytes).max().unwrap_or(0);
    let liveness_peak_bytes = liveness_peak_of(&events)?;
    Ok(MemoryPlan { planned_peak_bytes, liveness_peak_bytes, steps: lt.steps, allocs })
}

/// Plans device offsets for `g` executed in `order`: best-fit free-list
/// allocation with block coalescing over the tensor live intervals.
///
/// # Errors
///
/// Returns [`CostError::BadSchedule`] when `order` does not cover the
/// graph and [`CostError::MemoryOverflow`] when the address space
/// exceeds `u64`.
pub fn memory_plan(g: &Graph, order: &[NodeId]) -> Result<MemoryPlan, CostError> {
    check_coverage(g, order)?;
    plan_from_parts(&compute_lifetimes(g, order))
}

/// [`memory_plan`] over an already-computed [`Lifetimes`] table (the
/// one `memory_profile_lifetimes` returned for this same `(g, order)`
/// pair), skipping the lifetime recomputation.
pub fn plan_from_lifetimes(
    g: &Graph,
    order: &[NodeId],
    lt: &Lifetimes,
) -> Result<MemoryPlan, CostError> {
    check_coverage(g, order)?;
    plan_from_parts(lt)
}

// Still named by `benchmark/src/replay.rs`, which this repository may
// not edit outside a benchmark PR: a from-scratch plan, the parent
// plan ignored. Goes when the benchmark stops naming it.
#[doc(hidden)]
pub fn memory_plan_delta(
    g: &Graph,
    order: &[NodeId],
    lt: &Lifetimes,
    _parent: &MemoryPlan,
) -> Result<MemoryPlan, CostError> {
    plan_from_lifetimes(g, order, lt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::memory_profile;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::graph::Graph;
    use magis_graph::tensor::DType;

    fn plan_of(g: &Graph) -> (MemoryPlan, Vec<NodeId>) {
        let order = topo_order(g);
        (memory_plan(g, &order).expect("plannable"), order)
    }

    #[test]
    fn empty_graph_plans_empty() {
        let g = Graph::new();
        let plan = memory_plan(&g, &[]).unwrap();
        assert_eq!(plan.planned_peak_bytes, 0);
        assert_eq!(plan.allocations().len(), 0);
        assert_eq!(plan.fragmentation_ratio(), 1.0);
    }

    #[test]
    fn chain_plan_matches_liveness() {
        // x -> relu -> relu: equal-size tensors, perfect reuse — no
        // fragmentation, planned == liveness.
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256], "x");
        for _ in 0..4 {
            cur = b.relu(cur);
        }
        let g = b.finish();
        let (plan, order) = plan_of(&g);
        let prof = memory_profile(&g, &order);
        assert_eq!(plan.liveness_peak_bytes, prof.peak_bytes);
        assert_eq!(plan.planned_peak_bytes, prof.peak_bytes, "chain reuse is exact");
        assert_eq!(plan.fragmentation_ratio(), 1.0);
    }

    #[test]
    fn planned_peak_dominates_liveness() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let w = b.weight([64, 64], "w");
        let h = b.matmul(x, w);
        let h2 = b.relu(h);
        let _y = b.matmul(h2, w);
        let g = b.finish();
        let (plan, order) = plan_of(&g);
        let prof = memory_profile(&g, &order);
        assert!(plan.planned_peak_bytes >= prof.peak_bytes);
        assert_eq!(plan.liveness_peak_bytes, prof.peak_bytes);
    }

    #[test]
    fn coalescing_reclaims_a_fully_freed_region() {
        // x (4160 B) and w (160 B) are adjacent; both die once m is
        // consumed, and `big` (4160 B) only fits at offset 0 if the two
        // freed neighbors were merged into one 4320 B block.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([26, 40], "x"); // 4160 B
        let w = b.weight([40, 1], "w"); // 160 B
        let m = b.matmul(x, w); // 104 B
        let w2 = b.weight([1, 40], "w2"); // 160 B
        let big = b.matmul(m, w2); // 4160 B
        let g = b.finish();
        let order = vec![x, w, w2, m, big];
        let plan = memory_plan(&g, &order).unwrap();
        let find = |n: NodeId| plan.allocations().iter().find(|a| a.root == n).unwrap();
        // Inputs are resident from step 0, placed in root-id order:
        // x@0, w@4160, w2@4320, then m@4480.
        assert_eq!(find(x).offset, 0);
        assert_eq!(find(w).offset, 4160);
        assert_eq!(find(w2).offset, 4320);
        assert_eq!(find(m).offset, 4480);
        // At big's step x and w are dead; their blocks coalesce into
        // [0, 4320) and best-fit places big there, not on top.
        assert_eq!(find(big).offset, 0, "coalesced region was reclaimed");
        assert_eq!(plan.planned_peak_bytes, 4480 + 104);
    }

    #[test]
    fn allocations_never_overlap_in_time_and_address() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([128, 128], "x");
        let w = b.weight([128, 128], "w");
        let h = b.matmul(x, w);
        let h2 = b.gelu(h);
        let h3 = b.add_op(h2, x);
        let _y = b.matmul(h3, w);
        let g = b.finish();
        let (plan, _) = plan_of(&g);
        let allocs = plan.allocations();
        for i in 0..allocs.len() {
            for j in i + 1..allocs.len() {
                let (a, c) = (&allocs[i], &allocs[j]);
                let time_overlap = a.alloc_step <= c.free_step && c.alloc_step <= a.free_step;
                let addr_overlap = a.offset < c.offset + c.bytes && c.offset < a.offset + a.bytes;
                assert!(
                    !(time_overlap && addr_overlap),
                    "{a:?} and {c:?} overlap in time x address"
                );
            }
        }
    }

    #[test]
    fn free_list_best_fit_and_coalescing() {
        let mut fl = FreeList::new();
        // Three appended blocks: a[0,100) b[100,50) c[150,200).
        assert_eq!(fl.alloc(100, 0).unwrap(), 0);
        assert_eq!(fl.alloc(50, 0).unwrap(), 100);
        assert_eq!(fl.alloc(200, 0).unwrap(), 150);
        assert_eq!(fl.top, 350);
        // Free a and b separately: they coalesce into [0, 150).
        fl.free(0, 100);
        fl.free(100, 50);
        assert_eq!(fl.by_off.len(), 1);
        assert_eq!(fl.by_off[&0], 150);
        // Best fit: a 40-byte request goes into the gap, not on top.
        assert_eq!(fl.alloc(40, 0).unwrap(), 0);
        // A too-large request appends at top.
        assert_eq!(fl.alloc(120, 0).unwrap(), 350);
        // Freeing the top block truncates `top` instead of listing it.
        fl.free(350, 120);
        assert_eq!(fl.top, 350);
        fl.free(150, 200);
        // [40,150) free + [150,350) free merge and truncate to 40.
        assert_eq!(fl.top, 40);
        assert!(fl.by_off.is_empty());
    }

    #[test]
    fn objective_parses_and_displays() {
        assert_eq!(MemObjective::parse("liveness"), Some(MemObjective::Liveness));
        assert_eq!(MemObjective::parse("planned"), Some(MemObjective::Planned));
        assert_eq!(MemObjective::parse("bogus"), None);
        assert_eq!(MemObjective::Planned.to_string(), "planned");
        assert_eq!(MemObjective::default(), MemObjective::Liveness);
    }
}
