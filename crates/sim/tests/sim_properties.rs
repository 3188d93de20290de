//! Property tests of the simulator: cost-model monotonicity and
//! memory-profile invariants over random schedules.

use magis_graph::GraphView;
use magis_graph::builder::GraphBuilder;
use magis_graph::op::{Conv2dAttrs, OpKind};
use magis_graph::tensor::{DType, TensorMeta};
use magis_sim::{memory_profile_checked, CostModel, DeviceSpec};
use magis_util::prop::prelude::*;

proptest! {
    /// Bigger matmuls never get cheaper.
    #[test]
    fn matmul_cost_monotone_in_each_dim(m in 8u64..256, k in 8u64..256, n in 8u64..256) {
        let cm = CostModel::default();
        let op = OpKind::MatMul { transpose_a: false, transpose_b: false };
        let cost = |m: u64, k: u64, n: u64| {
            let i = [TensorMeta::new([m, k], DType::F32), TensorMeta::new([k, n], DType::F32)];
            let o = op.infer(&i).unwrap();
            cm.op_latency(&op, &i, &o)
        };
        let c = cost(m, k, n);
        prop_assert!(cost(m * 2, k, n) >= c);
        prop_assert!(cost(m, k * 2, n) >= c);
        prop_assert!(cost(m, k, n * 2) >= c);
    }

    /// A slower device never makes an op faster.
    #[test]
    fn device_dominance(m in 16u64..256) {
        let fast = CostModel::new(DeviceSpec::rtx3090());
        let slow = CostModel::new(DeviceSpec::mobile());
        let op = OpKind::Conv2d(Conv2dAttrs::same(1));
        let i = [
            TensorMeta::new([2, 8, m, m], DType::F32),
            TensorMeta::new([8, 8, 3, 3], DType::F32),
        ];
        let o = op.infer(&i).unwrap();
        prop_assert!(slow.op_latency(&op, &i, &o) >= fast.op_latency(&op, &i, &o));
    }

    /// Boundary invariants of the memory profile on training-shaped
    /// chains, for any depth/width.
    #[test]
    fn profile_boundary_invariants(layers in 1usize..8, width in 16u64..128) {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([width, width], "x");
        let x_bytes = width * width * 4;
        for i in 0..layers {
            let w = b.weight([width, width], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        let g = b.finish();
        let order = magis_graph::algo::topo_order(&g);
        let p = memory_profile_checked(&g, &order).unwrap();
        // Inputs (x + all weights) resident at step 0.
        let inputs: u64 = g
            .node_ids()
            .filter(|&v| g.node(v).op.is_input())
            .map(|v| g.node(v).size_bytes())
            .sum();
        prop_assert!(p.step_bytes[0] >= inputs);
        // Terminal tensor resident at the last step.
        prop_assert!(*p.step_bytes.last().unwrap() >= x_bytes);
        // Peak is the max of the trace.
        prop_assert_eq!(p.peak_bytes, p.step_bytes.iter().copied().max().unwrap());
        prop_assert!(!p.hotspots.is_empty());
    }

    /// Utilization is monotone in work and bounded by 1.
    #[test]
    fn utilization_monotone(w1 in 1.0f64..1e12, factor in 1.0f64..100.0) {
        let d = DeviceSpec::rtx3090();
        let u1 = d.utilization(w1);
        let u2 = d.utilization(w1 * factor);
        prop_assert!(u2 >= u1 - 1e-12);
        prop_assert!(u2 <= 1.0);
    }
}
