//! End-to-end integration: build each workload family, run the
//! optimizer in both modes, and check the paper's headline properties
//! (peak reduction under a latency budget; constraint satisfaction;
//! schedule validity of the winning state).

use magis::prelude::*;
use magis::sim::evaluate_checked;
use std::time::Duration;

fn quick(objective: Objective) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(6))
        .with_max_evals(600)
}

fn check_state_consistency(s: &MState) {
    s.eval.graph.validate().expect("eval graph is well-formed");
    assert!(
        magis::graph::algo::is_topo_order(&s.eval.graph, &s.eval.order),
        "schedule is a valid topological order"
    );
    // Re-simulating the stored schedule reproduces the stored metrics.
    let ev = evaluate_checked(&s.eval.graph, &s.eval.order, &CostModel::default()).unwrap();
    assert_eq!(ev.peak_bytes, s.eval.peak_bytes);
    assert!((ev.latency - s.eval.latency).abs() < 1e-9);
}

fn run_memory_mode(w: Workload, scale: f64, lat_factor: f64) -> (f64, MState) {
    let tg = w.build(scale);
    let ctx = EvalContext::default();
    let init = MState::initial(tg.graph.clone(), &ctx);
    let cfg = quick(Objective::MinMemory { lat_limit: init.eval.latency * lat_factor });
    let res = optimize(tg.graph, &cfg);
    check_state_consistency(&res.best);
    assert!(
        res.best.eval.latency <= init.eval.latency * lat_factor * 1.0001,
        "{}: latency constraint respected",
        w.label()
    );
    (res.best.eval.peak_bytes as f64 / init.eval.peak_bytes as f64, res.best)
}

#[test]
fn unet_memory_mode_improves_strongly() {
    // The paper's strongest workload class for MAGIS (§7.2.1). At this
    // scale kernel-launch overheads weigh more than on the real card,
    // so the threshold is looser than the paper's 15-50%.
    let (ratio, _) = run_memory_mode(Workload::UNet, 0.3, 1.10);
    assert!(ratio < 0.85, "U-Net memory ratio {ratio} under 10% latency overhead");
}

#[test]
fn bert_memory_mode_improves() {
    let (ratio, _) = run_memory_mode(Workload::BertBase, 0.2, 1.10);
    assert!(ratio < 0.9, "BERT memory ratio {ratio}");
}

#[test]
fn resnet_memory_mode_improves() {
    let (ratio, _) = run_memory_mode(Workload::ResNet50, 0.15, 1.10);
    assert!(ratio < 0.95, "ResNet memory ratio {ratio}");
}

#[test]
fn latency_mode_meets_memory_limit() {
    let tg = Workload::UNet.build(0.3);
    let ctx = EvalContext::default();
    let init = MState::initial(tg.graph.clone(), &ctx);
    let limit = (init.eval.peak_bytes as f64 * 0.8) as u64;
    let cfg = quick(Objective::MinLatency { mem_limit: limit });
    let res = optimize(tg.graph, &cfg);
    check_state_consistency(&res.best);
    assert!(res.best.eval.peak_bytes <= limit, "memory constraint met");
}

#[test]
fn gpt_scaled_optimizes() {
    let (ratio, best) = run_memory_mode(Workload::GptNeo13B, 0.12, 1.15);
    assert!(ratio < 1.0, "GPT memory ratio {ratio}");
    // The LLM's famously huge logits/activations should appear in some
    // transformed form: swap, remat, or fission must have fired.
    let transformed = best.eval.graph.len() != best.base.len()
        || best
            .base
            .node_ids()
            .any(|v| best.base.node(v).op.is_swap() || best.base.node(v).name == "remat");
    assert!(transformed, "some transformation applied");
}

#[test]
fn pareto_points_are_consistent() {
    let tg = Workload::UNet.build(0.25);
    let ctx = EvalContext::default();
    let init = MState::initial(tg.graph.clone(), &ctx);
    let cfg = quick(Objective::MinMemory { lat_limit: init.eval.latency * 1.3 });
    let res = optimize(tg.graph, &cfg);
    let front = res.pareto.front();
    assert!(!front.is_empty());
    // The front must contain a point at least as good as the incumbent.
    assert!(front.iter().any(|&(m, _)| m <= res.best.eval.peak_bytes));
}
