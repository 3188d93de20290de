//! Figure 15: optimization-time breakdown for a ViT (batch 64)
//! optimization run. The paper's table reports per-phase costs over a
//! 1-minute budget: transformation, scheduling, simulation, hash test,
//! plus the number of duplicate graphs the hash filter removes. Our
//! evaluation fuses overlay construction, (incremental) scheduling and
//! simulation into one phase, reported as "sched+sim"; "overlay" is the
//! overlay's share of that figure. "Analyze" is the M-Analyzer
//! (Algorithm 1), which the paper's table does not list: it runs on the
//! driver thread before an expansion's rules are generated.

use magis_bench::{anchor, print_table, ExpOpts};
use magis_core::optimizer::{optimize, Objective, OptimizerConfig};
use magis_models::Workload;

fn main() {
    let mut opts = ExpOpts::from_args();
    // The paper uses 1 minute here (vs 3 elsewhere): keep the ratio.
    opts.budget /= 3;
    let tg = Workload::VitBase.build(opts.scale);
    let (_, base_lat) = anchor(&tg.graph);
    let cfg = OptimizerConfig::new(Objective::MinMemory { lat_limit: base_lat * 1.10 })
        .with_budget(opts.budget);
    let res = optimize(tg.graph, &cfg);
    let s = &res.stats;
    let total = opts.budget.as_secs_f64();
    let other = (total
        - s.analyze_time.as_secs_f64()
        - s.trans_time.as_secs_f64()
        - s.sched_sim_time.as_secs_f64()
        - s.hash_time.as_secs_f64())
    .max(0.0);
    let rows = vec![
        vec![
            "count".to_string(),
            format!("{}", s.analyses),
            format!("{}", s.candidates),
            format!("{}", s.evaluated),
            format!("{}", s.evaluated),
            format!("{}", s.evaluated),
            format!("{}", s.expanded + s.evaluated),
            format!("{}", s.filtered),
            String::new(),
        ],
        vec![
            "cost (secs)".to_string(),
            format!("{:.2}", s.analyze_time.as_secs_f64()),
            format!("{:.2}", s.trans_time.as_secs_f64()),
            format!("{:.2}", s.sched_sim_time.as_secs_f64()),
            format!("{:.2}", s.overlay_time.as_secs_f64()),
            String::new(),
            format!("{:.2}", s.hash_time.as_secs_f64()),
            String::new(),
            format!("{:.2}", other),
        ],
    ];
    let header =
        ["", "Analyze", "Trans.", "Sched+Sim", "(Overlay)", "Simul.", "Hash", "Filtered", "Others"];
    print_table(
        &format!("Fig. 15: time breakdown, ViT, {:.0}s budget", total),
        &header,
        &rows,
    );
    opts.write_csv("fig15.csv", &header, &rows);
    println!(
        "\nsearch: {} expanded, {} evaluated, {} filtered by hash",
        s.expanded, s.evaluated, s.filtered
    );
    opts.write_metrics_snapshot("fig15_metrics.txt");
}
