//! End-to-end export: optimize a training graph, then emit a PyTorch
//! program for the optimized graph (§7.1's code generation backend)
//! and a Graphviz rendering of it. The program runs a fresh schedule
//! of the optimized graph, not the order the search found.
//!
//! ```sh
//! cargo run --release --example export_pytorch > optimized.py
//! ```

use magis::core::codegen::generate_pytorch;
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

    // Fission regions (if any) must be materialized before export.
    let mut g = best.base.clone();
    for i in best.ftree.enabled_order() {
        g = magis::core::fission::apply_full(&g, &best.ftree.node(i).spec)
            .expect("enabled specs are valid");
    }
    let order = magis::sched::full_schedule(&g, &Default::default());
    let order = magis::sched::place_swaps(&g, &order, &CostModel::default());

    let code = generate_pytorch(&g, &order).expect("materialized graph exports");
    println!("{code}");
    eprintln!("--- also wrote optimized.dot ---");
    std::fs::write("optimized.dot", to_dot(&g)).expect("write dot");
}
