//! End-to-end export: optimize a training graph, then emit a PyTorch
//! program for the optimized graph (§7.1's code generation backend)
//! and a Graphviz rendering of the search's graph, as `--emit dot`
//! writes it. The program runs a fresh schedule of the optimized
//! graph, not the order the search found.
//!
//! ```sh
//! cargo run --release --example export_pytorch > optimized.py
//! ```

use magis::core::codegen::export_pytorch;
use magis::graph::io::to_dot;
use magis::prelude::*;
use std::time::Duration;

fn main() {
    let tg = magis::models::mlp::mlp(&magis::models::mlp::MlpConfig {
        batch: 512,
        hidden: 512,
        layers: 4,
        ..Default::default()
    });
    let ctx = EvalContext::default();
    let before = MState::initial(tg.graph.clone(), &ctx);
    let cfg = OptimizerConfig::new(Objective::MinMemory {
        lat_limit: before.eval.latency * 1.10,
    })
    .with_budget(Duration::from_secs(4));
    let res = optimize(tg.graph, &cfg);
    let best = &res.best;
    eprintln!(
        "optimized: {:.1}% of baseline peak, {:+.1}% latency",
        100.0 * best.eval.peak_bytes as f64 / before.eval.peak_bytes as f64,
        100.0 * (best.eval.latency / before.eval.latency - 1.0),
    );

    let code = export_pytorch(best, &CostModel::default()).expect("the incumbent exports");
    println!("{code}");
    eprintln!("--- also wrote optimized.dot ---");
    std::fs::write("optimized.dot", to_dot(&best.eval.graph)).expect("write dot");
}
