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
//!   later allocation instead of growing the heap;
//! * **placement** — every plan of a fixed set of orders matches a
//!   committed digest, so no root moves to another offset unnoticed.

use magis::graph::algo::topo_order;
use magis::models::{random_dnn, RandomDnnConfig, Workload};
use magis::prelude::*;
use magis::sched::{full_schedule, stabilize_order, SchedConfig};
use magis::sim::{memory_plan, memory_profile_checked, MemoryPlan};
use magis_util::rng::{Rng, SeedableRng, SmallRng};

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
        let prof = memory_profile_checked(&g, &order).unwrap();
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

/// Plan digests captured at 3fb236b422fb53c51e6ce300142daf980ae47ff7
/// (the parent of the counting-sort / offset-ordered free-list
/// planner), debug and release equal.
const EXPECTED: [(&str, u64); 4] = [
    ("random_dnn", 0xa7dd_a967_415c_88c9),
    ("unet@0.15", 0x5222_695a_bdbd_6594),
    ("resnet50@0.25", 0x34e9_f85f_7a9e_79b7),
    ("bert@1.0", 0xd5f6_b0ac_77d3_b6c9),
];

/// FNV-1a over 64-bit words, a length in front of every sequence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Everything a plan holds: both peaks, its length, and every
    /// placement in order.
    fn plan(&mut self, plan: &MemoryPlan) {
        self.word(plan.planned_peak_bytes);
        self.word(plan.liveness_peak_bytes);
        self.word(plan.steps() as u64);
        self.word(plan.allocations().len() as u64);
        for a in plan.allocations() {
            self.word(a.root.index() as u64);
            self.word(a.bytes);
            self.word(a.offset);
            self.word(a.alloc_step as u64);
            self.word(a.free_step as u64);
        }
    }
}

/// Plans of `g` under its `full_schedule` order, its topological order,
/// and 32 `stabilize_order` repairs of shuffled topological orders.
fn plans_digest(h: &mut Fnv, g: &Graph, seed: u64) {
    let topo = topo_order(g);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut orders = vec![full_schedule(g, &SchedConfig::default()), topo.clone()];
    for _ in 0..32 {
        let mut shuffled = topo.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        orders.push(stabilize_order(g, &shuffled));
    }
    for order in &orders {
        h.plan(&memory_plan(g, order).expect("plannable order"));
    }
}

#[test]
fn plans_match_committed_fingerprints() {
    let random = {
        let mut h = Fnv::new();
        let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 3, blocks: 3 };
        for seed in 0..4u64 {
            plans_digest(&mut h, &random_dnn(&cfg, seed), seed);
        }
        h.0
    };
    let model = |w: Workload, scale: f64| {
        let mut h = Fnv::new();
        plans_digest(&mut h, &w.build(scale).graph, 7);
        h.0
    };
    let got = [
        ("random_dnn", random),
        ("unet@0.15", model(Workload::UNet, 0.15)),
        ("resnet50@0.25", model(Workload::ResNet50, 0.25)),
        ("bert@1.0", model(Workload::BertBase, 1.0)),
    ];
    // Shown in full on failure, in `EXPECTED`'s own syntax.
    for (name, digest) in got {
        println!("(\"{name}\", {digest:#018x}),");
    }
    assert_eq!(got, EXPECTED, "a digest moved: some root is placed differently");
}
