//! Window generators shared by the DP suites.

use magis_graph::builder::GraphBuilder;
use magis_graph::graph::Graph;
use magis_graph::tensor::DType;
use magis_graph::GraphView;
use magis_util::rng::{Rng, SeedableRng, SmallRng};

/// A DAG of exactly `n` nodes: chain steps, fans of 2–4 branches of
/// 1–3 unary ops each summed back pairwise, and occasional slices and
/// concats so tensor sizes (and view roots) differ along the way.
pub fn chain_fanout_dag(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(DType::F32);
    let mut len = 256u64;
    let mut cur = b.input([len], "x");
    while b.graph().len() < n {
        let room = n - b.graph().len();
        let fan = rng.gen_range(1..=4usize);
        // A fan of k branches of depth d costs k·d + (k − 1) nodes.
        let depth = rng.gen_range(1..=3usize);
        if fan >= 2 && fan * depth + fan - 1 <= room {
            let mut acc = None;
            for _ in 0..fan {
                let mut v = cur;
                for _ in 0..depth {
                    v = if rng.gen_bool(0.5) { b.relu(v) } else { b.gelu(v) };
                }
                acc = Some(match acc {
                    Some(a) => b.add_op(a, v),
                    None => v,
                });
            }
            cur = acc.expect("fan >= 2");
        } else {
            cur = match rng.gen_range(0..4u32) {
                0 if len >= 128 => {
                    len /= 2;
                    b.slice(cur, 0, 0, len)
                }
                1 if len <= 512 => {
                    len *= 2;
                    b.concat(&[cur, cur], 0)
                }
                _ => b.sigmoid(cur),
            };
        }
    }
    assert_eq!(b.graph().len(), n);
    b.finish()
}
