//! # magis-sim
//!
//! Device, cost, and memory simulation substrate for the MAGIS
//! reproduction. Substitutes for the paper's GPU profiling harness (see
//! DESIGN.md §2): an RTX-3090-like analytic [`DeviceSpec`], a roofline
//! [`CostModel`] with small-kernel utilization penalties, a step-level
//! memory profiler with hot-spot extraction, and a two-stream execution
//! simulator that overlaps swap transfers with compute.
//!
//! A pure library: it records no metric and no trace span. Whoever
//! calls it times and counts what it needs (`magis-core` at its merge,
//! `benchmark/` with its own recorder); `magis-obs` is a dependency for
//! [`calibrate`]'s JSON reader only.
//!
//! ```
//! use magis_graph::builder::GraphBuilder;
//! use magis_graph::tensor::DType;
//! use magis_graph::algo::topo_order;
//! use magis_sim::{CostModel, evaluate_checked};
//!
//! let mut b = GraphBuilder::new(DType::F32);
//! let x = b.input([512, 512], "x");
//! let w = b.weight([512, 512], "w");
//! let y = b.matmul(x, w);
//! let g = b.finish();
//! let order = topo_order(&g);
//! let ev = evaluate_checked(&g, &order, &CostModel::default())?;
//! assert!(ev.latency > 0.0 && ev.peak_bytes > 0);
//! # Ok::<(), magis_sim::CostError>(())
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod calibrate;
pub mod cost;
pub mod device;
pub mod exec;
pub mod memory;
pub mod plan;
pub mod profile;

pub use backend::{
    Backend, BackendRegistry, EfficiencyTable, OpClass, SpecError, DEFAULT_BACKEND,
};
pub use calibrate::{CalibrationError, TraceSample};
pub use cost::{CostError, CostModel, NodeCost};
pub use device::DeviceSpec;
pub use exec::{memory_timeline, simulate_checked, ExecTimeline};
pub use memory::{
    memory_profile_checked, memory_profile_lifetimes, storage_root, Lifetimes, MemoryProfile,
};
pub use plan::{memory_plan, plan_from_lifetimes, MemObjective, MemoryPlan, PlannedAlloc};
// The two names `benchmark/src/replay.rs` still calls; see their definitions.
#[doc(hidden)]
pub use {memory::memory_profile_delta, plan::memory_plan_delta};
pub use profile::{LatencyTable, PerfCache};

use magis_graph::graph::{Graph, NodeId};

/// Combined latency + memory evaluation of a scheduled graph.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// End-to-end latency in seconds (swap-overlap aware).
    pub latency: f64,
    /// Peak device memory in bytes (liveness sum — the paper's
    /// `M_peak`), regardless of the active objective.
    pub peak_bytes: u64,
    /// Allocator high-water mark when the planning stage ran
    /// ([`evaluate_with_plan`] with a plan), `None` otherwise.
    pub planned_peak_bytes: Option<u64>,
    /// Full memory profile (per-step usage, hot-spots).
    pub memory: MemoryProfile,
}

/// Evaluates a graph under a schedule: latency and peak memory, with
/// every failure mode surfaced as a typed [`CostError`] instead of a
/// panic or silent garbage: schedule coverage, per-node latency
/// validity (NaN / infinite / negative), total-latency finiteness, and
/// memory-accounting conservation are all checked.
///
/// Generic over any [`NodeCost`] source — the raw [`CostModel`] for a
/// registry [`Backend`], or the shared [`PerfCache`].
pub fn evaluate_checked<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
) -> Result<Evaluation, CostError> {
    // The memory check goes first: it establishes exact schedule
    // coverage, without which the simulation could index with an
    // unscheduled node's position and panic.
    let memory = memory::memory_profile_checked(g, order)?;
    evaluate_with_plan(g, order, cm, memory, None)
}

/// The checked latency half of [`evaluate_checked`], run over an
/// already-computed memory profile: per-node latency validation, the
/// two-stream simulation, and total-finiteness checks.
///
/// This is the evaluation pipeline's assembly point — the profile
/// comes from [`memory_profile_lifetimes`], which establishes exact
/// schedule coverage. Callers handing in a profile from anywhere else
/// must have validated coverage themselves: the simulation panics on
/// wrong-length orders but trusts `memory`.
///
/// With the optional planning stage — a [`MemoryPlan`] for the same
/// `(g, order)` pair, from [`memory_plan`] / [`plan_from_lifetimes`] —
/// the plan's allocator high-water mark is surfaced as
/// [`Evaluation::planned_peak_bytes`]; this function trusts the plan
/// the same way it trusts `memory`.
///
/// The latency source is any [`NodeCost`] — pass the shared
/// [`PerfCache`] to memoize per-operator latencies across candidates.
///
/// # Errors
///
/// Returns a typed [`CostError`] on NaN/infinite/negative per-node or
/// total latencies.
///
/// # Panics
///
/// Panics if `order` has the wrong length for `g`.
pub fn evaluate_with_plan<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
    memory: MemoryProfile,
    plan: Option<&MemoryPlan>,
) -> Result<Evaluation, CostError> {
    // Latencies are validated inline as the simulation consumes them,
    // so a defect is attributed to the node that produced it without a
    // separate whole-schedule pass over the cost source.
    let timeline = exec::simulate_checked(g, order, cm)?;
    if !timeline.total.is_finite() {
        return Err(CostError::NonFiniteLatency { node: None, value: timeline.total });
    }
    if timeline.total < 0.0 {
        return Err(CostError::NegativeLatency { node: None, value: timeline.total });
    }
    debug_assert!(
        plan.is_none_or(|p| p.liveness_peak_bytes == memory.peak_bytes),
        "the plan's liveness peak must agree with the profile it rides on"
    );
    Ok(Evaluation {
        latency: timeline.total,
        peak_bytes: memory.peak_bytes,
        planned_peak_bytes: plan.map(|p| p.planned_peak_bytes),
        memory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    #[test]
    fn evaluate_combines_both() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256, 256], "x");
        let w = b.weight([256, 256], "w");
        let h = b.matmul(x, w);
        let _y = b.relu(h);
        let g = b.finish();
        let order = topo_order(&g);
        let ev = evaluate_checked(&g, &order, &CostModel::default()).unwrap();
        assert!(ev.latency > 0.0);
        assert_eq!(ev.peak_bytes, ev.memory.peak_bytes);
        assert!(ev.peak_bytes >= 3 * 256 * 256 * 4);
    }

    #[test]
    fn evaluate_checked_rejects_bad_coverage() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let _ = b.relu(x);
        let g = b.finish();
        let err = evaluate_checked(&g, &[x], &CostModel::default()).unwrap_err();
        assert!(matches!(err, CostError::BadSchedule { expected: 2, got: 1 }));
        // Duplicate entries keep the length right but break coverage;
        // the conservation sweep catches the resulting double-free.
        let err = evaluate_checked(&g, &[x, x], &CostModel::default());
        assert!(err.is_err());
    }
}
