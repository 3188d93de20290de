//! TVM-like and Torch-Inductor-like baselines (§7.1 baselines (5),
//! (6)): DNN compilers that perform "basic memory saving to reclaim
//! future-unused tensors" — no rematerialization or swapping — but
//! fuse elementwise chains, so at memory ratio 1.0 they are *faster*
//! than the PyTorch anchor (the below-axis points of Fig. 11).
//!
//! Fusion model: an elementwise operator whose (single-use) producer
//! is a compute op melts into that producer's epilogue — its kernel
//! launch and its input re-read disappear; only the fused output write
//! remains. This is the dominant effect of Relay/Triton fusion on the
//! modelled workloads.

use magis_graph::GraphView;
use crate::BaselineResult;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::OpKind;
use magis_sim::{memory_profile_checked, NodeCost};

/// Whether `v` can melt into its producer (elementwise epilogue).
fn fusable(g: &Graph, v: NodeId) -> bool {
    let n = g.node(v);
    let elementwise = matches!(
        n.op,
        OpKind::Unary(_) | OpKind::UnaryGrad(_) | OpKind::Binary(_)
    );
    if !elementwise {
        return false;
    }
    // Epilogue fusion: the producer's result is consumed from registers;
    // other users (e.g. the backward pass) read the materialized buffer,
    // so memory accounting is unchanged.
    let p = n.inputs()[0];
    let pn = g.node(p);
    !pn.op.is_input() && !pn.op.is_swap()
}

/// Latency of `g` under program order with elementwise fusion applied:
/// fused ops lose their launch overhead and input-read traffic.
pub fn fused_latency<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
    fusion_strength: f64,
) -> f64 {
    let mut total = 0.0;
    for &v in order {
        let base = cm.node_latency(g, v);
        if fusable(g, v) {
            // Keep only the output-write fraction of the kernel.
            let n = g.node(v);
            let write = n.size_bytes() as f64 / cm.device().mem_bandwidth
                * n.cost_repeat as f64;
            total += write + (1.0 - fusion_strength) * base;
        } else {
            total += base;
        }
    }
    total
}

fn run_compiler<C: NodeCost + ?Sized>(
    g: &Graph,
    budget: Option<u64>,
    cm: &C,
    fusion_strength: f64,
) -> BaselineResult {
    let order = crate::pytorch::program_order(g);
    let profile = memory_profile_checked(g, &order).expect("the program order covers the graph");
    let peak = profile.peak_bytes;
    let latency = fused_latency(g, &order, cm, fusion_strength);
    let feasible = budget.is_none_or(|b| peak <= b);
    BaselineResult { peak_bytes: peak, latency, feasible }
}

/// TVM/Relay-like: basic memory saving, moderate fusion.
pub fn run_tvm<C: NodeCost + ?Sized>(g: &Graph, budget: Option<u64>, cm: &C) -> BaselineResult {
    run_compiler(g, budget, cm, 0.8)
}

/// Torch-Inductor-like: basic memory saving, aggressive Triton fusion.
pub fn run_ti<C: NodeCost + ?Sized>(g: &Graph, budget: Option<u64>, cm: &C) -> BaselineResult {
    run_compiler(g, budget, cm, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_models::mlp::{mlp, MlpConfig};
    use magis_sim::CostModel;

    #[test]
    fn compilers_faster_than_anchor_same_memory() {
        let tg = mlp(&MlpConfig::default());
        let cm = CostModel::default();
        let anchor = crate::pytorch::run(&tg.graph, &cm);
        let tvm = run_tvm(&tg.graph, None, &cm);
        let ti = run_ti(&tg.graph, None, &cm);
        assert_eq!(tvm.peak_bytes, anchor.peak_bytes, "basic saving only");
        assert!(tvm.latency < anchor.latency, "fusion speeds up");
        assert!(ti.latency <= tvm.latency, "TI fuses harder");
    }

    #[test]
    fn tight_budget_infeasible() {
        let tg = mlp(&MlpConfig::default());
        let cm = CostModel::default();
        let r = run_tvm(&tg.graph, Some(1), &cm);
        assert!(!r.feasible, "compilers cannot reduce memory");
    }
}
