//! Fault-injection suite for the hardened M-Optimizer.
//!
//! A seeded [`FaultPlan`] deterministically injects worker panics,
//! NaN/negative simulated costs, and corrupted rewrites into candidate
//! evaluation. For every plan the search must
//!
//! * complete without unwinding into the caller,
//! * return an incumbent whose graph and schedule validate cleanly,
//! * never do worse than the unoptimized seed state,
//! * account for every fault in the hardening counters, and
//! * stay bit-identical between `threads = 1` and `threads = 4`
//!   (fault keys derive from expansion number and sorted candidate
//!   index, never from thread identity).

use magis::core::driver::DriverKind;
use magis::core::optimizer::{self, Objective, OptimizerConfig, ParanoiaLevel, StopReason};
use magis::obs::trace::{self, BufferSink, FieldValue};
use magis::prelude::*;
use magis::sched::validate_schedule;
use magis_util::fault::{FaultPlan, FaultSite};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Injected panics are expected and caught by the sandbox; silence
/// their default-hook stderr spew while forwarding every real panic
/// (test assertion failures included) to the original hook.
fn silence_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn seed_state() -> (Graph, MState) {
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    (tg.graph, init)
}

fn capped(objective: Objective, threads: usize, plan: FaultPlan) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(threads)
        .with_fault_plan(plan)
}

/// Everything a fault-injected trajectory determines.
#[derive(Debug, PartialEq)]
struct Run {
    best: (u64, f64),
    history: Vec<(u64, f64)>,
    evaluated: usize,
    expanded: usize,
    panicked: usize,
    cost_rejections: usize,
    invariant_rejections: usize,
    quarantined_candidates: usize,
    strikes: Vec<(u8, u32)>,
    quarantined_families: Vec<u8>,
    stop: StopReason,
}

fn run(g: &Graph, objective: Objective, threads: usize, plan: FaultPlan) -> Run {
    let res = optimizer::optimize(g.clone(), &capped(objective, threads, plan));
    Run {
        best: res.best.cost(),
        history: res.history.iter().map(|p| (p.peak_bytes, p.latency)).collect(),
        evaluated: res.stats.evaluated,
        expanded: res.stats.expanded,
        panicked: res.stats.panicked,
        cost_rejections: res.stats.cost_rejections,
        invariant_rejections: res.stats.invariant_rejections,
        quarantined_candidates: res.stats.quarantined_candidates,
        strikes: res.stats.quarantine_strikes.clone(),
        quarantined_families: res.stats.quarantined_families.clone(),
        stop: res.stats.stop_reason,
    }
}

/// The core contract: for the given plan the search survives, returns
/// a valid incumbent no worse than the seed, accounts for the faults
/// consistently, and is thread-count invariant.
fn assert_survives(plan: FaultPlan) -> Run {
    silence_injected_panics();
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };

    let serial = run(&g, obj, 1, plan);
    let parallel = run(&g, obj, 4, plan);
    assert_eq!(serial, parallel, "fault trajectory must not depend on thread count");

    // Re-run to rebuild the state (Run carries only the cost); the
    // search is deterministic so this is the same incumbent.
    let res = optimizer::optimize(g.clone(), &capped(obj, 1, plan));
    res.best.eval.graph.validate().expect("incumbent graph validates");
    validate_schedule(&res.best.eval.graph, &res.best.eval.order)
        .expect("incumbent schedule validates");
    assert!(
        res.best.eval.peak_bytes <= init.eval.peak_bytes,
        "incumbent must be no worse than the seed: {} vs {}",
        res.best.eval.peak_bytes,
        init.eval.peak_bytes
    );

    // Accounting: every strike comes from a caught panic or an
    // invariant rejection, nothing else.
    let total_strikes: u32 = serial.strikes.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        total_strikes as usize,
        serial.panicked + serial.invariant_rejections,
        "strikes must equal panics + invariant rejections"
    );
    serial
}

#[test]
fn survives_every_single_site_plan() {
    for (i, site) in FaultSite::ALL.into_iter().enumerate() {
        let plan = FaultPlan::new(0xC0FFEE + i as u64).with_rate(site, 0.15);
        let r = assert_survives(plan);
        assert!(r.evaluated > 0, "{site:?}: the search still did real work");
    }
}

#[test]
fn survives_a_combined_plan() {
    let mut plan = FaultPlan::new(0xBAD5EED);
    for site in FaultSite::ALL {
        plan = plan.with_rate(site, 0.08);
    }
    let r = assert_survives(plan);
    assert!(r.evaluated > 0);
}

#[test]
fn panic_plan_counts_panics() {
    let plan = FaultPlan::new(7).with_rate(FaultSite::EvalPanic, 0.5);
    let r = assert_survives(plan);
    assert!(r.panicked > 0, "a 50% panic rate must trip the sandbox");
}

#[test]
fn bad_cost_plans_are_rejected_not_quarantined() {
    // NaN / negative latencies are caught by the always-on cost
    // validation; they reject the candidate but do not strike the
    // rule family (the rule is fine, the simulator output is not).
    for site in [FaultSite::NanCost, FaultSite::NegativeCost] {
        let plan = FaultPlan::new(11).with_rate(site, 0.5);
        let r = assert_survives(plan);
        assert!(r.cost_rejections > 0, "{site:?}: bad costs must be rejected");
        assert_eq!(r.panicked, 0, "{site:?}: bad costs are not panics");
    }
}

#[test]
fn corrupt_rewrites_are_caught_by_paranoia() {
    // A duplicated schedule entry is only visible to invariant
    // enforcement. Under `ParanoiaLevel::All` every corrupted
    // candidate is rejected and strikes its family.
    silence_injected_panics();
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let plan = FaultPlan::new(23).with_rate(FaultSite::CorruptRewrite, 0.5);
    let cfg = capped(obj, 1, plan).with_paranoia(ParanoiaLevel::All);
    let res = optimizer::optimize(g, &cfg);
    assert!(
        res.stats.invariant_rejections > 0,
        "50% corrupted rewrites must trip invariant enforcement"
    );
    res.best.eval.graph.validate().expect("incumbent graph validates");
    validate_schedule(&res.best.eval.graph, &res.best.eval.order)
        .expect("incumbent schedule validates");
    assert!(res.best.eval.peak_bytes <= init.eval.peak_bytes);
}

#[test]
fn total_panic_storm_quarantines_and_returns_the_seed() {
    // Rate 1.0: every candidate evaluation panics. After the strike
    // threshold every rule family is quarantined, the queue runs dry,
    // and the search reports a fault storm — with the seed state as
    // the (valid) incumbent.
    silence_injected_panics();
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let plan = FaultPlan::new(99).with_rate(FaultSite::EvalPanic, 1.0);
    for threads in [1, 4] {
        let res = optimizer::optimize(g.clone(), &capped(obj, threads, plan));
        assert_eq!(res.stats.stop_reason, StopReason::FaultStorm, "threads={threads}");
        assert!(res.stats.panicked > 0);
        assert!(!res.stats.quarantined_families.is_empty());
        assert_eq!(res.stats.evaluated, 0, "nothing survives a total storm");
        assert_eq!(res.best.cost(), init.cost(), "the seed remains the incumbent");
        res.best.eval.graph.validate().expect("seed graph validates");
    }
}

#[test]
fn quarantine_can_be_disabled() {
    // Threshold 0 disables quarantining: the same storm then burns the
    // whole eval budget on panics instead of shutting families down.
    silence_injected_panics();
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let plan = FaultPlan::new(99).with_rate(FaultSite::EvalPanic, 1.0);
    let cfg = capped(obj, 1, plan).with_quarantine_threshold(0);
    let res = optimizer::optimize(g, &cfg);
    assert_eq!(res.stats.quarantined_candidates, 0);
    assert!(res.stats.quarantined_families.is_empty());
    assert!(res.stats.panicked > 0);
    assert_eq!(res.best.cost(), init.cost());
}

#[test]
fn faultless_plan_changes_nothing() {
    // An all-zero-rate plan must be a no-op: identical trajectory to a
    // run with no plan at all.
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let with_plan = run(&g, obj, 1, FaultPlan::new(5));
    let cfg = OptimizerConfig::new(obj)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(1);
    let res = optimizer::optimize(g, &cfg);
    assert_eq!(with_plan.best, res.best.cost());
    assert_eq!(with_plan.evaluated, res.stats.evaluated);
    assert_eq!(with_plan.panicked, 0);
    assert_eq!(with_plan.cost_rejections, 0);
}

#[test]
fn injections_into_cache_hits_leave_the_cached_entry_clean() {
    // A cache hit hands its candidate the cached state itself, and a
    // fault injected into the hit copies it first. Written through to
    // the entry instead, a corrupted order or a NaN latency would
    // reject the next hit on that hash, where the plan injected
    // nothing. So the rejections of the injected kind fall on exactly
    // the candidates the plan injected: read off the merge's
    // per-candidate trace spans, whose (expansion, candidate) pair is
    // the fault key. MCTS, whose tree keeps transpositions, hits one
    // hash many times; at this seed, rate and cap both sites inject
    // into hits whose hash is hit again later.
    silence_injected_panics();
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    for (site, paranoia, reason) in [
        (FaultSite::NanCost, ParanoiaLevel::Incumbent, "bad-cost"),
        (FaultSite::CorruptRewrite, ParanoiaLevel::All, "invalid"),
    ] {
        let plan = FaultPlan::new(31).with_rate(site, 0.3);
        let cfg = capped(obj, 1, plan)
            .with_max_evals(600)
            .with_paranoia(paranoia)
            .with_quarantine_threshold(0)
            .with_driver(DriverKind::Mcts);
        let sink = Arc::new(BufferSink::new());
        let res = {
            let _scope = trace::scoped(sink.clone(), Vec::new());
            optimizer::optimize(g.clone(), &cfg)
        };
        assert!(res.stats.eval_cache_hits > 0, "{site:?}: the search hit its cache");
        let (mut injected, mut clean) = (0, 0);
        for span in sink.take().iter().filter(|e| e.target == "magis_core" && e.name == "candidate_eval") {
            let field = |key: &str| span.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
            let (Some(FieldValue::U64(expansion)), Some(FieldValue::U64(candidate)), Some(FieldValue::Str(outcome))) =
                (field("expansion"), field("candidate"), field("outcome"))
            else {
                panic!("candidate_eval span without its key fields: {span:?}");
            };
            if outcome == "apply-failed" {
                continue; // the injection point comes after apply
            }
            let hit = plan.should_inject(site, (expansion << 20) | (candidate & 0xfffff));
            assert_eq!(outcome == reason, hit, "{site:?}: expansion {expansion}, candidate {candidate}: {outcome}");
            if hit {
                injected += 1;
            } else {
                clean += 1;
            }
        }
        assert!(injected > 0 && clean > 0, "{site:?}: {injected} injected, {clean} clean");
    }
}
