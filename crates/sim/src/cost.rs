//! Analytic operator cost model.
//!
//! Substitutes for the paper's profiled kernel latencies: a roofline
//! estimate `max(compute, bandwidth)` with a utilization penalty for
//! small kernels plus a fixed launch overhead. Relative behaviour — the
//! only thing the paper's experiments depend on — is preserved:
//!
//! * fission splits kernels into smaller, worse-utilized ones and
//!   re-reads shared operands per part (latency ↑),
//! * aggregation does the opposite,
//! * swap traffic costs PCIe time but can overlap compute,
//! * re-materialization re-pays exactly the producer's compute time.

use magis_graph::GraphView;
use crate::backend::Backend;
use crate::device::DeviceSpec;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::OpKind;
use magis_graph::tensor::TensorMeta;

/// A defect detected while computing or validating costs: the typed
/// alternative to letting NaN, negative, or overflowing values flow
/// silently into the search objective.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A latency came out NaN or infinite.
    NonFiniteLatency {
        /// Offending node, when attributable to one.
        node: Option<NodeId>,
        /// The bad value.
        value: f64,
    },
    /// A latency came out negative.
    NegativeLatency {
        /// Offending node, when attributable to one.
        node: Option<NodeId>,
        /// The bad value.
        value: f64,
    },
    /// Memory accounting over- or under-flowed the `u64`/`i64` range.
    MemoryOverflow {
        /// Schedule step at which the accumulator overflowed.
        step: usize,
    },
    /// Memory accounting went negative: more bytes freed than were
    /// ever allocated (a conservation violation).
    NegativeUsage {
        /// Schedule step at which usage went negative.
        step: usize,
        /// The negative running total.
        value: i64,
    },
    /// The schedule does not cover the graph (checked entry points
    /// return this instead of panicking).
    BadSchedule {
        /// Live nodes in the graph.
        expected: usize,
        /// Entries in the order.
        got: usize,
    },
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::NonFiniteLatency { node: Some(v), value } => {
                write!(f, "non-finite latency {value} at node {v:?}")
            }
            CostError::NonFiniteLatency { node: None, value } => {
                write!(f, "non-finite total latency {value}")
            }
            CostError::NegativeLatency { node: Some(v), value } => {
                write!(f, "negative latency {value} at node {v:?}")
            }
            CostError::NegativeLatency { node: None, value } => {
                write!(f, "negative total latency {value}")
            }
            CostError::MemoryOverflow { step } => {
                write!(f, "memory accounting overflowed at step {step}")
            }
            CostError::NegativeUsage { step, value } => {
                write!(f, "memory accounting went negative ({value} bytes) at step {step}")
            }
            CostError::BadSchedule { expected, got } => {
                write!(f, "schedule covers {got} nodes but the graph has {expected}")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// A source of per-node latencies: the seam that lets the execution
/// simulator and swap placement run against either the raw analytic
/// [`CostModel`] or the memoizing [`crate::PerfCache`].
///
/// Implementations must be **pure** per `(graph, node)` — the
/// optimizer's determinism contract and the `--paranoia all`
/// cross-check both assume a node's latency is the same every time it
/// is asked for. `PerfCache` qualifies because it stores exact model
/// outputs.
pub trait NodeCost {
    /// Latency of node `v` in seconds, including its fission
    /// `cost_repeat` multiplier.
    fn node_latency(&self, g: &Graph, v: NodeId) -> f64;

    /// The device the latencies model. Swap placement and the baseline
    /// runners need transfer times and bandwidths, not just per-node
    /// latencies, so the device travels with the cost source.
    fn device(&self) -> &DeviceSpec;

    /// [`Self::node_latency`] with the result validated: rejects NaN,
    /// infinite, and negative values with a typed [`CostError`]
    /// attributing the offending node.
    fn node_latency_checked(&self, g: &Graph, v: NodeId) -> Result<f64, CostError> {
        let t = self.node_latency(g, v);
        if !t.is_finite() {
            return Err(CostError::NonFiniteLatency { node: Some(v), value: t });
        }
        if t < 0.0 {
            return Err(CostError::NegativeLatency { node: Some(v), value: t });
        }
        Ok(t)
    }
}

impl NodeCost for CostModel {
    fn node_latency(&self, g: &Graph, v: NodeId) -> f64 {
        CostModel::node_latency(self, g, v)
    }

    fn device(&self) -> &DeviceSpec {
        self.backend.device()
    }
}

impl<T: NodeCost + ?Sized> NodeCost for &T {
    fn node_latency(&self, g: &Graph, v: NodeId) -> f64 {
        (**self).node_latency(g, v)
    }

    fn device(&self) -> &DeviceSpec {
        (**self).device()
    }
}

/// The analytic cost model over a fixed [`Backend`] (device spec +
/// per-op-class efficiency table).
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    backend: Backend,
}

impl CostModel {
    /// Creates a cost model for `device` with the default efficiency
    /// table (the historical constants). Unvalidated, for backward
    /// compatibility with raw specs; prefer [`CostModel::for_backend`]
    /// with a registry profile.
    pub fn new(device: DeviceSpec) -> Self {
        CostModel { backend: Backend::from_device(device) }
    }

    /// Creates a cost model for a (validated) registry backend.
    pub fn for_backend(backend: &Backend) -> Self {
        CostModel { backend: backend.clone() }
    }

    /// The backend this model targets.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The device this model targets.
    pub fn device(&self) -> &DeviceSpec {
        self.backend.device()
    }

    /// Latency in seconds of one execution of `op` on the given shapes
    /// (no fission repeat applied).
    pub fn op_latency(&self, op: &OpKind, inputs: &[TensorMeta], output: &TensorMeta) -> f64 {
        match op {
            // In-place SGD is an alias for memory purposes but has real
            // kernel cost; other aliases (reshape/slice views) are free.
            _ if op.is_input() || (op.is_alias() && !matches!(op, OpKind::SgdUpdate)) => 0.0,
            OpKind::Store | OpKind::Load => self.device().xfer_time(output.size_bytes()),
            _ => {
                let device = self.backend.device();
                let flops = op.flops(inputs, output);
                let bytes = op.bytes_accessed(inputs, output) as f64;
                let util = device.utilization(flops) * self.backend.class_efficiency(op);
                let compute = if flops > 0.0 { flops / (device.peak_flops * util) } else { 0.0 };
                let memory = bytes / device.mem_bandwidth;
                device.launch_overhead + compute.max(memory)
            }
        }
    }

    /// Latency of a graph node including its fission `cost_repeat`
    /// multiplier (`cost(v)` in the paper's notation).
    pub fn node_latency(&self, g: &Graph, v: NodeId) -> f64 {
        let n = g.node(v);
        let inputs: Vec<TensorMeta> =
            n.inputs().iter().map(|&i| g.node(i).meta.clone()).collect();
        self.op_latency(&n.op, &inputs, &n.meta) * n.cost_repeat as f64
    }

    /// `cost(G) ≈ Σ_v cost(v)` (§2.1), ignoring swap overlap. Use
    /// [`crate::exec::simulate_latency`] for the overlap-aware figure.
    pub fn graph_latency(&self, g: &Graph) -> f64 {
        g.node_ids().map(|v| self.node_latency(g, v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn meta(d: &[u64]) -> TensorMeta {
        TensorMeta::new(d, DType::F32)
    }

    #[test]
    fn bigger_matmul_costs_more() {
        let m = CostModel::default();
        let op = OpKind::MatMul { transpose_a: false, transpose_b: false };
        let small = {
            let i = [meta(&[64, 64]), meta(&[64, 64])];
            let o = op.infer(&i).unwrap();
            m.op_latency(&op, &i, &o)
        };
        let big = {
            let i = [meta(&[1024, 1024]), meta(&[1024, 1024])];
            let o = op.infer(&i).unwrap();
            m.op_latency(&op, &i, &o)
        };
        assert!(big > small * 5.0, "big {big} vs small {small}");
    }

    #[test]
    fn fission_increases_total_latency() {
        // One [1024,1024]x[1024,1024] matmul vs 4 sequential quarter
        // matmuls along m: the split version must be slower per the
        // utilization/locality penalty, but less than 4x slower.
        let m = CostModel::default();
        let op = OpKind::MatMul { transpose_a: false, transpose_b: false };
        let i_full = [meta(&[1024, 1024]), meta(&[1024, 1024])];
        let o_full = op.infer(&i_full).unwrap();
        let full = m.op_latency(&op, &i_full, &o_full);
        let i_part = [meta(&[256, 1024]), meta(&[1024, 1024])];
        let o_part = op.infer(&i_part).unwrap();
        let split = 4.0 * m.op_latency(&op, &i_part, &o_part);
        assert!(split > full * 1.01, "split {split} vs full {full}");
        assert!(split < full * 4.0);
    }

    #[test]
    fn swap_cost_is_transfer_bound() {
        let m = CostModel::default();
        let x = meta(&[1024, 1024]); // 4 MiB
        let t = m.op_latency(&OpKind::Store, std::slice::from_ref(&x), &x);
        let expected = m.device().xfer_time(x.size_bytes());
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    fn elementwise_is_bandwidth_bound() {
        let m = CostModel::default();
        let x = meta(&[4096, 4096]);
        let op = OpKind::Unary(magis_graph::op::UnaryKind::Relu);
        let t = m.op_latency(&op, std::slice::from_ref(&x), &x);
        let bw_time = (2 * x.size_bytes()) as f64 / m.device().mem_bandwidth;
        assert!(t >= bw_time && t < bw_time * 1.5);
    }

    #[test]
    fn graph_latency_sums_nodes() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([128, 128], "x");
        let w = b.weight([128, 128], "w");
        let h = b.matmul(x, w);
        let _ = b.relu(h);
        let g = b.finish();
        let m = CostModel::default();
        let sum: f64 = g.node_ids().map(|v| m.node_latency(&g, v)).sum();
        assert!((m.graph_latency(&g) - sum).abs() < 1e-15);
        assert!(sum > 0.0);
    }

    #[test]
    fn cost_repeat_multiplies() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([128, 128], "x");
        let r = b.relu(x);
        let g = b.finish();
        let m = CostModel::default();
        let one = m.node_latency(&g, r);
        let mut txn = magis_graph::GraphTxn::begin(&g);
        txn.set_cost_repeat(r, 3);
        let g = txn.commit().0;
        assert!((m.node_latency(&g, r) - 3.0 * one).abs() < 1e-15);
    }
}
