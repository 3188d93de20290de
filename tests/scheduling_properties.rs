//! Property-based tests of the scheduling stack over random
//! NASNet-like DNNs: full and incremental schedules are always valid
//! topological orders; the memory DP never does worse than naive
//! ordering; incremental scheduling stays close to full scheduling
//! (the §7.3 claim).

use magis::core::rules::{self, RuleConfig, Transform};
use magis::core::state::{EvalContext, MState};
use magis::prelude::*;
use magis::sched::{full_schedule, incremental_schedule_cached, IntervalParams, SchedConfig};
use magis::sim::memory_profile_checked;
use magis_graph::algo::{is_topo_order, topo_order};
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_util::prop::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn full_schedule_valid_and_no_worse_than_naive(seed in 0u64..500) {
        let cfg = RandomDnnConfig { cells: 4, ..RandomDnnConfig::default() };
        let g = random_dnn(&cfg, seed);
        let sched = full_schedule(&g, &SchedConfig::default());
        prop_assert!(is_topo_order(&g, &sched));
        let naive_peak = memory_profile_checked(&g, &topo_order(&g)).unwrap().peak_bytes;
        let dp_peak = memory_profile_checked(&g, &sched).unwrap().peak_bytes;
        prop_assert!(dp_peak <= naive_peak, "DP {dp_peak} <= naive {naive_peak}");
    }

    #[test]
    fn incremental_schedule_valid_after_random_transform(seed in 0u64..200) {
        let cfg = RandomDnnConfig { cells: 4, ..RandomDnnConfig::default() };
        let g = random_dnn(&cfg, seed);
        let ctx = EvalContext::default();
        let state = MState::initial(g, &ctx);
        let rcfg = RuleConfig { hotspot_filter: false, ..RuleConfig::default() };
        let cands: Vec<Transform> = rules::generate(&state, &rcfg);
        prop_assume!(!cands.is_empty());
        let t = &cands[seed as usize % cands.len()];
        let Ok(applied) = rules::apply(&state, t) else { return Ok(()); };
        let order = incremental_schedule_cached(
            &state.eval.graph,
            &applied.base,
            &applied.mutated,
            &state.eval.order,
            None,
            None,
            &SchedConfig::default(),
            &IntervalParams::default(),
            None,
        )
        .expect("memory accounting conserved")
        .order;
        prop_assert!(is_topo_order(&applied.base, &order));
        // Quality: incremental within 25% of scheduling from scratch.
        let fs = full_schedule(&applied.base, &SchedConfig::default());
        let is_peak = memory_profile_checked(&applied.base, &order).unwrap().peak_bytes as f64;
        let fs_peak = memory_profile_checked(&applied.base, &fs).unwrap().peak_bytes as f64;
        prop_assert!(is_peak <= fs_peak * 1.25, "IS {is_peak} vs FS {fs_peak}");
    }

    #[test]
    fn wl_hash_is_schedule_invariant(seed in 0u64..200) {
        // The graph hash must not depend on anything the scheduler
        // touches — only on structure.
        let cfg = RandomDnnConfig { cells: 3, ..RandomDnnConfig::default() };
        let g = random_dnn(&cfg, seed);
        let h1 = magis::graph::algo::graph_hash(&g);
        let g2 = g.clone();
        let _ = full_schedule(&g2, &SchedConfig::default());
        prop_assert_eq!(magis::graph::algo::graph_hash(&g2), h1);
    }

    #[test]
    fn memory_profile_matches_sum_of_live_tensors(seed in 0u64..100) {
        // Cross-check the sweep-based profiler against a quadratic
        // reference implementation on small graphs.
        let cfg = RandomDnnConfig { cells: 2, blocks: 3, ..RandomDnnConfig::default() };
        let g = random_dnn(&cfg, seed);
        let order = topo_order(&g);
        let prof = memory_profile_checked(&g, &order).unwrap();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        // Reference: per-step sum over storage roots with root-level
        // lifetimes (inputs from step 0; terminals to the end; aliases
        // extend their root).
        let n = order.len();
        let mut alloc = std::collections::HashMap::new();
        let mut free = std::collections::HashMap::new();
        for &v in &order {
            let root = magis::sim::storage_root(&g, v);
            if magis::sim::memory::device_bytes(&g, root) == 0 {
                continue;
            }
            let a = if g.node(root).op.is_input() { 0 } else { pos[&root] };
            let e = alloc.entry(root).or_insert(a);
            *e = (*e).min(a);
            let mut last = pos[&v];
            for s in g.suc(v) {
                last = last.max(pos[&s]);
            }
            if g.node(v).succs().is_empty() {
                last = n - 1;
            }
            let f = free.entry(root).or_insert(last);
            *f = (*f).max(last);
        }
        for (i, &m) in prof.step_bytes.iter().enumerate() {
            let expect: u64 = alloc
                .iter()
                .filter(|&(r, &a)| a <= i && i <= free[r])
                .map(|(&r, _)| magis::sim::memory::device_bytes(&g, r))
                .sum();
            prop_assert_eq!(m, expect, "step {}", i);
        }
    }
}
