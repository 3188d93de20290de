//! Candidate-evaluation throughput: incremental evaluation
//! (incremental scheduling + the structural-hash evaluation cache, the
//! search's default) vs. full re-evaluation (every candidate
//! re-scheduled from scratch with the quality beam, cache off).
//!
//! All runs search the same workload under the same objective and the
//! same evaluation cap, single-threaded; the figure of merit is
//! candidates evaluated per second of wall-clock. Next to the headline
//! pair on the default `rtx3090` backend, the incremental mode also
//! runs on the `a100` backend (the registry's server-class profile —
//! throughput is backend-independent, so this guards the generic
//! `NodeCost` plumbing against regressions), and a `cow` column times
//! bare copy-on-write graph materialization.
//!
//! A second **drivers** table runs the search-strategy head-to-head:
//! greedy best-first (Algorithm 3) vs MCTS over the identical M-Rule
//! substrate, on every fig09–16 workload, steering on the `planned`
//! memory objective under the same eval cap. Columns are candidates
//! per second and the best planned peak each driver found, plus the
//! MCTS/greedy peak ratio — the acceptance bar is MCTS within 5% of
//! greedy (or better) on most models.
//!
//! Every timing is taken [`REPEATS`] times, repeats interleaved across
//! the columns, and reported as median (min–max). Threaded, planned
//! and served throughput are `benchmark/`'s (`unet_small_mt2`,
//! `resnet_planned_mcts`, `serve_mixed`), not this binary's.
//! Results print as tables, land in `results/eval_throughput.csv` and
//! `results/eval_drivers.csv`, and are recorded with the machine, build
//! profile and commit as `BENCH_eval.json` in the working directory
//! (committed at the repo root — see EXPERIMENTS.md for when to
//! regenerate it and how to read it).

use magis_bench::{print_table, ExpOpts};
use magis_core::driver::DriverKind;
use magis_core::optimizer::{optimize_from, Objective, OptimizeResult, OptimizerConfig};
use magis_core::state::{EvalContext, EvalMode, MState};
use magis_graph::graph::Graph;
use magis_models::Workload;
use magis_sim::{Backend, BackendRegistry, MemObjective, DEFAULT_BACKEND};
use std::time::Instant;

/// Evaluation cap shared by all modes: high enough that per-candidate
/// costs dominate, low enough that the full-evaluation baseline
/// finishes quickly at bench scale.
const MAX_EVALS: usize = 240;

/// Eval cap for the greedy-vs-MCTS head-to-head (per driver, per
/// model): enough for both strategies to find real reductions on
/// every fig09–16 workload, small enough to keep the whole sweep in
/// bench time.
const DRIVER_EVALS: usize = 160;

/// Timed repeats behind every reported figure.
const REPEATS: usize = 5;

/// Median, minimum and maximum of one figure's repeats.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread { median: samples[samples.len() / 2], min: samples[0], max: samples[samples.len() - 1] }
    }

    fn cell(&self) -> String {
        format!("{:.1} ({:.1}-{:.1})", self.median, self.min, self.max)
    }

    fn json(&self) -> String {
        format!("{{\"median\": {:.2}, \"min\": {:.2}, \"max\": {:.2}}}", self.median, self.min, self.max)
    }
}

/// One capped single-threaded search under a 1.25× (modes) or 1.10×
/// (drivers) latency leash; returns candidates per second of wall-clock
/// — seed evaluation included, once — and the result.
fn timed_search(g: &Graph, lat_factor: f64, cfg: &OptimizerConfig) -> (f64, OptimizeResult) {
    let t0 = Instant::now();
    let seed = MState::initial(g.clone(), &cfg.ctx);
    let mut cfg = cfg.clone();
    cfg.objective = Objective::relative("memory", Some(lat_factor), seed.cost()).expect("a mode");
    let res = optimize_from(seed, &cfg);
    let elapsed = t0.elapsed().as_secs_f64();
    (res.stats.evaluated as f64 / elapsed.max(1e-9), res)
}

fn mode_config(mode: EvalMode, backend: &Backend, opts: &ExpOpts) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default()
        .with_budget(opts.budget)
        .with_max_evals(MAX_EVALS)
        .with_threads(1);
    cfg.ctx = EvalContext::for_backend(backend);
    cfg.ctx.mode = mode;
    if mode == EvalMode::Full {
        // The baseline is brute force end to end: no memoized reuse of
        // duplicate candidates either.
        cfg = cfg.with_eval_cache(0);
    }
    cfg
}

/// One leg of the drivers head-to-head: minimize the allocator-planned
/// peak (`--objective planned`) under a 10% latency leash, single
/// thread (both drivers are thread-count independent; serial keeps the
/// throughput column honest), deterministic stop at [`DRIVER_EVALS`].
fn driver_config(driver: DriverKind, backend: &Backend, opts: &ExpOpts) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default()
        .with_budget(opts.budget)
        .with_max_evals(DRIVER_EVALS)
        .with_threads(1)
        .with_driver(driver);
    cfg.ctx = EvalContext::for_backend(backend);
    cfg.ctx.mem_objective = MemObjective::Planned;
    cfg
}

/// Work count for the CoW-materialization column: applies per model,
/// cycling over the state's candidate transforms.
const COW_APPLIES: usize = 4000;

/// Pure graph-materialization throughput of the copy-on-write layer:
/// how many candidate base graphs per second `rules::apply` can
/// clone-and-rewrite off a fixed parent state — no scheduling, no
/// simulation. This isolates the tentpole property of the paged
/// representation (clone is an `Arc` bump; a rewrite unshares only the
/// pages it touches), so regressions in clone cost show up here even
/// when the evaluation pipeline hides them.
fn run_cow(g: &Graph) -> f64 {
    use magis_core::rules::{self, RuleConfig};
    let state = MState::initial(g.clone(), &EvalContext::default());
    let cands = rules::generate(&state, &RuleConfig::default());
    if cands.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut made = 0usize;
    for i in 0..COW_APPLIES {
        if let Ok(a) = rules::apply(&state, &cands[i % cands.len()]) {
            std::hint::black_box(&a.base);
            made += 1;
        }
    }
    made as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// What only the shell knows about this build.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn main() {
    let opts = ExpOpts::from_args();
    let registry = BackendRegistry::builtin();
    let default_backend = registry.get(DEFAULT_BACKEND).expect("default backend registered");
    let alt_backend = registry.get("a100").expect("a100 backend registered");
    let mut rows = Vec::new();
    let mut json_models = Vec::new();
    for (w, rel) in [(Workload::UNet, 0.15), (Workload::BertBase, 0.1)] {
        // The default ExpOpts scale (0.5) maps to each model's bench
        // scale; --scale acts as a multiplier around it, capped at 2x.
        let scale = rel * (opts.scale / 0.5).min(2.0);
        let g = w.build(scale).graph;
        let configs = [
            mode_config(EvalMode::Full, default_backend, &opts),
            mode_config(EvalMode::Incremental, default_backend, &opts),
            mode_config(EvalMode::Incremental, alt_backend, &opts),
        ];
        let mut samples = [const { Vec::new() }; 4];
        let mut inc_stats = None;
        for _ in 0..REPEATS {
            for (column, cfg) in configs.iter().enumerate() {
                let (cps, res) = timed_search(&g, 1.25, cfg);
                samples[column].push(cps);
                if column == 1 {
                    inc_stats = Some(res.stats);
                }
            }
            samples[3].push(run_cow(&g));
        }
        let [full, inc, a100, cow] = samples.map(Spread::of);
        let stats = inc_stats.expect("at least one repeat");
        let speedup = inc.median / full.median.max(1e-9);
        rows.push(vec![
            w.label().to_string(),
            format!("{scale:.3}"),
            format!("{}", stats.evaluated),
            full.cell(),
            inc.cell(),
            a100.cell(),
            format!("{:.0} ({:.0}-{:.0})", cow.median, cow.min, cow.max),
            format!("{speedup:.2}x"),
            format!("{}", stats.eval_cache_hits),
        ]);
        json_models.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"scale\": {:.4}, \"evaluated\": {}, ",
                "\"eval_cache_hits\": {}, \"speedup\": {:.3},\n",
                "     \"full_cands_per_sec\": {},\n     \"incremental_cands_per_sec\": {},\n",
                "     \"a100_cands_per_sec\": {},\n     \"cow_cands_per_sec\": {}}}"
            ),
            w.label(),
            scale,
            stats.evaluated,
            stats.eval_cache_hits,
            speedup,
            full.json(),
            inc.json(),
            a100.json(),
            cow.json(),
        ));
        println!("  {} done ({speedup:.2}x)", w.label());
    }
    let header = [
        "model",
        "scale",
        "evaluated",
        "full c/s",
        "inc c/s",
        "a100 c/s",
        "cow c/s",
        "speedup",
        "cache hits",
    ];
    print_table(
        &format!("Candidate-evaluation throughput: incremental vs full, median (min-max) of {REPEATS}"),
        &header,
        &rows,
    );
    opts.write_csv("eval_throughput.csv", &header, &rows);

    // Search-strategy head-to-head: greedy vs MCTS on every fig09–16
    // workload, planned objective, same eval cap per driver. Scales
    // mirror each model's bench-time sweet spot (the transformer pair
    // runs smaller: their graphs are deep even at low scale).
    let driver_models = [
        (Workload::ResNet50, 0.1),
        (Workload::BertBase, 0.1),
        (Workload::VitBase, 0.1),
        (Workload::UNet, 0.15),
        (Workload::UNetPP, 0.1),
        (Workload::GptNeo13B, 0.05),
        (Workload::Btlm3B, 0.05),
    ];
    let mut drows = Vec::new();
    let mut json_drivers = Vec::new();
    let mut within = 0usize;
    for (w, rel) in driver_models {
        let scale = rel * (opts.scale / 0.5).min(2.0);
        let g = w.build(scale).graph;
        let configs = [DriverKind::Greedy, DriverKind::Mcts]
            .map(|driver| driver_config(driver, default_backend, &opts));
        let mut samples = [const { Vec::new() }; 2];
        // The found peak is a function of the capped trajectory, the
        // same on every repeat.
        let mut peaks = [0u64; 2];
        for _ in 0..REPEATS {
            for (column, cfg) in configs.iter().enumerate() {
                let (cps, res) = timed_search(&g, 1.10, cfg);
                samples[column].push(cps);
                peaks[column] = res.best.cost().0;
            }
        }
        let [greedy, mcts] = samples.map(Spread::of);
        let [greedy_peak, mcts_peak] = peaks;
        let ratio = mcts_peak as f64 / greedy_peak.max(1) as f64;
        let ok = ratio <= 1.05;
        within += usize::from(ok);
        drows.push(vec![
            w.label().to_string(),
            format!("{scale:.3}"),
            greedy.cell(),
            mcts.cell(),
            format!("{greedy_peak}"),
            format!("{mcts_peak}"),
            format!("{ratio:.3}{}", if ok { "" } else { " !" }),
        ]);
        json_drivers.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"scale\": {:.4}, ",
                "\"greedy_best_peak\": {}, \"mcts_best_peak\": {}, ",
                "\"mcts_over_greedy_peak\": {:.4}, \"within_5pct\": {},\n",
                "     \"greedy_cands_per_sec\": {},\n     \"mcts_cands_per_sec\": {}}}"
            ),
            w.label(),
            scale,
            greedy_peak,
            mcts_peak,
            ratio,
            ok,
            greedy.json(),
            mcts.json(),
        ));
        println!("  {} drivers done (mcts/greedy peak {ratio:.3})", w.label());
    }
    let dheader = [
        "model",
        "scale",
        "greedy c/s",
        "mcts c/s",
        "greedy peak",
        "mcts peak",
        "mcts/greedy",
    ];
    print_table(
        &format!("Search drivers head-to-head: greedy vs MCTS (planned peak), median (min-max) of {REPEATS}"),
        &dheader,
        &drows,
    );
    opts.write_csv("eval_drivers.csv", &dheader, &drows);
    println!("  {within}/{} models with MCTS within 5% of greedy", driver_models.len());

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"eval_throughput\",\n",
            "  \"env\": {{\"nproc\": {}, \"profile\": \"{}\", \"commit\": \"{}\"}},\n",
            "  \"repeats\": {},\n  \"max_evals\": {},\n",
            "  \"models\": [\n{}\n  ],\n",
            "  \"driver_evals\": {},\n  \"drivers\": [\n{}\n  ]\n}}\n"
        ),
        magis_util::parallel::available_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
        REPEATS,
        MAX_EVALS,
        json_models.join(",\n"),
        DRIVER_EVALS,
        json_drivers.join(",\n")
    );
    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    println!("  -> wrote BENCH_eval.json");
}
