//! Property and differential tests for the allocator-aware memory
//! planner ([`magis::sim::memory_plan`]).
//!
//! The planner assigns every sized storage root a concrete device
//! offset via a best-fit free list with block coalescing, and its
//! contracts are checked here from the outside:
//!
//! * **soundness** — no two placements ever overlap in
//!   (time × address) space;
//! * **dominance** — the planned high-water mark is never below the
//!   liveness-sum peak, and the plan's recorded liveness peak equals
//!   the profiler's;
//! * **reuse** — a fully-freed region is coalesced and reclaimed by a
//!   later allocation instead of growing the heap.

use magis::models::{random_dnn, RandomDnnConfig, Workload};
use magis::prelude::*;
use magis::sched::{full_schedule, SchedConfig};
use magis::sim::{memory_plan, memory_profile, MemoryPlan};

/// Schedules `g` and plans it, asserting the planner's internal
/// consistency along the way. Returns `(order, plan)`.
fn plan_of(g: &Graph) -> (Vec<NodeId>, MemoryPlan) {
    let order = full_schedule(g, &SchedConfig::default());
    let plan = memory_plan(g, &order).expect("plan");
    (order, plan)
}

/// The small graphs the property tests sweep: a few random NASNet-like
/// DNNs plus two bench workloads at small scale.
fn property_graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 3, blocks: 3 };
    for seed in 0..5u64 {
        out.push((format!("random_dnn(seed={seed})"), random_dnn(&cfg, seed)));
    }
    out.push(("unet@0.1".into(), Workload::UNet.build(0.1).graph));
    out.push(("bert@0.1".into(), Workload::BertBase.build(0.1).graph));
    out
}

#[test]
fn planned_allocations_never_overlap_in_time_and_address() {
    for (name, g) in property_graphs() {
        let (_, plan) = plan_of(&g);
        let allocs = plan.allocations();
        assert!(!allocs.is_empty(), "{name}: plan places something");
        for (i, a) in allocs.iter().enumerate() {
            assert!(a.bytes > 0, "{name}: only sized roots are placed");
            assert!(a.alloc_step <= a.free_step, "{name}: live interval is well-formed");
            assert!(
                a.offset + a.bytes <= plan.planned_peak_bytes,
                "{name}: every placement fits under the high-water mark"
            );
            for b in &allocs[i + 1..] {
                let time_overlap = a.alloc_step <= b.free_step && b.alloc_step <= a.free_step;
                if !time_overlap {
                    continue;
                }
                let addr_disjoint =
                    a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset;
                assert!(
                    addr_disjoint,
                    "{name}: roots {:?} and {:?} are live together but overlap in \
                     address space ([{}, {}) vs [{}, {}))",
                    a.root,
                    b.root,
                    a.offset,
                    a.offset + a.bytes,
                    b.offset,
                    b.offset + b.bytes
                );
            }
        }
    }
}

#[test]
fn planned_peak_dominates_liveness_peak() {
    for (name, g) in property_graphs() {
        let (order, plan) = plan_of(&g);
        let prof = memory_profile(&g, &order);
        assert_eq!(
            plan.liveness_peak_bytes, prof.peak_bytes,
            "{name}: the plan's liveness peak is the profiler's peak"
        );
        assert!(
            plan.planned_peak_bytes >= plan.liveness_peak_bytes,
            "{name}: fragmentation can only add memory ({} < {})",
            plan.planned_peak_bytes,
            plan.liveness_peak_bytes
        );
        assert!(plan.fragmentation_ratio() >= 1.0, "{name}: ratio >= 1");
        let max_end = plan.allocations().iter().map(|a| a.offset + a.bytes).max().unwrap_or(0);
        assert_eq!(plan.planned_peak_bytes, max_end, "{name}: peak is the max placement end");
    }
}

#[test]
fn coalescing_reclaims_a_fully_freed_region() {
    // A chain of equal-sized activations: once the first few tensors
    // die, their (coalesced) region must serve later allocations, so
    // offsets repeat and the heap stays bounded instead of growing by
    // one tensor per step.
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([1024], "x");
    let mut t = b.relu(x);
    for _ in 0..8 {
        t = b.relu(t);
    }
    let g = b.finish();
    let (_, plan) = plan_of(&g);
    let allocs = plan.allocations();
    let total: u64 = allocs.iter().map(|a| a.bytes).sum();
    assert!(
        plan.planned_peak_bytes < total,
        "offsets were reused: peak {} < total allocated {total}",
        plan.planned_peak_bytes
    );
    let reused = allocs.iter().enumerate().any(|(i, a)| {
        allocs[i + 1..].iter().any(|b| b.offset == a.offset && b.alloc_step > a.free_step)
    });
    assert!(reused, "some later allocation reoccupies a freed offset");
    // A pure same-size chain fragments nothing: best-fit lands each new
    // tensor exactly in the hole the dead one left.
    assert_eq!(
        plan.planned_peak_bytes, plan.liveness_peak_bytes,
        "equal-size chain plans without fragmentation"
    );
}
