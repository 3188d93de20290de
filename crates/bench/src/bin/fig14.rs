//! Figure 14: incremental scheduling (IS) vs full scheduling (FS) —
//! §7.3: "10 randomly generated DNNs with structures resembling
//! NASNet … 100 rounds of transformations (10 rounds per DNN) after an
//! initial scheduling", both using the same DP scheduler. Panel (a):
//! per-round speedup of IS over FS; panel (b): quality (peak memory of
//! IS ÷ peak of FS).

use magis_bench::{print_table, ExpOpts};
use magis_core::rules::{self, RuleConfig, Transform};
use magis_core::state::{EvalContext, MState};
use magis_sched::{full_schedule, incremental_schedule_cached, IntervalParams, SchedConfig};
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_sim::memory_profile;
use std::time::Instant;

fn main() {
    let opts = ExpOpts::from_args();
    let ctx = EvalContext::default();
    let sched_cfg = SchedConfig::default();
    let params = IntervalParams::default();
    let mut rule_cfg = RuleConfig { enable_taso: true, ..RuleConfig::default() };
    rule_cfg.hotspot_filter = false;

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut same_quality = 0usize;
    let mut total = 0usize;
    for seed in 0..10u64 {
        let g0 = random_dnn(&RandomDnnConfig::default(), seed);
        let mut state = MState::initial(g0, &ctx);
        for round in 0..10 {
            // Pick the first applicable TASO transform (rotating through
            // candidates per round for variety).
            let cands: Vec<Transform> = rules::generate(&state, &rule_cfg)
                .into_iter()
                .filter(|t| matches!(t, Transform::Taso(_)))
                .collect();
            if cands.is_empty() {
                break;
            }
            let t = &cands[round % cands.len()];
            let Ok(applied) = rules::apply(&state, t) else { continue };
            let g_new = applied.base.clone();

            // IS: reuse the previous schedule.
            let t0 = Instant::now();
            let is_order = incremental_schedule_cached(
                &state.eval.graph,
                &g_new,
                &applied.mutated,
                &state.eval.order,
                None,
                None,
                &sched_cfg,
                &params,
                None,
            )
            .expect("memory accounting conserved")
            .order;
            let is_time = t0.elapsed();

            // FS: schedule from scratch.
            let t0 = Instant::now();
            let fs_order = full_schedule(&g_new, &sched_cfg);
            let fs_time = t0.elapsed();

            let is_peak = memory_profile(&g_new, &is_order).peak_bytes;
            let fs_peak = memory_profile(&g_new, &fs_order).peak_bytes;
            let speedup = fs_time.as_secs_f64() / is_time.as_secs_f64().max(1e-9);
            let quality = is_peak as f64 / fs_peak as f64;
            speedups.push(speedup);
            total += 1;
            if quality <= 1.0 + 1e-9 {
                same_quality += 1;
            }
            rows.push(vec![
                format!("{seed}"),
                format!("{round}"),
                format!("{:.2}", speedup),
                format!("{:.4}", quality),
            ]);
            // Advance the state so rounds compound, as in the paper.
            if let Ok(next) = MState::from_applied(applied, &state, &ctx) {
                state = next;
            }
        }
    }
    let geomean =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let header = ["dnn", "round", "speedup", "quality(IS/FS)"];
    print_table("Fig. 14: incremental vs full scheduling", &header, &rows);
    println!(
        "\nspeedup geomean: {:.1}x over {} tests; IS matches FS quality in {}/{} tests",
        geomean, speedups.len(), same_quality, total
    );
    opts.write_csv("fig14.csv", &header, &rows);
    opts.write_csv(
        "fig14_summary.csv",
        &["geomean_speedup", "tests", "same_quality"],
        &[vec![format!("{geomean:.2}"), total.to_string(), same_quality.to_string()]],
    );
    opts.write_metrics_snapshot("fig14_metrics.txt");
}
