//! Candidate-evaluation throughput: incremental evaluation
//! (incremental scheduling + the structural-hash evaluation cache, the
//! search's default) vs. full re-evaluation (every candidate
//! re-scheduled from scratch with the quality beam, cache off).
//!
//! All runs search the same workload under the same objective and the
//! same evaluation cap; the figure of merit is candidates evaluated
//! per second of evaluation wall-clock. Three incremental variants are
//! measured: single-threaded on the default `rtx3090` backend (the
//! headline against the full baseline), multi-threaded on the same
//! backend, and single-threaded on the `a100` backend (the registry's
//! server-class profile — throughput is backend-independent, so this
//! guards the generic `NodeCost` plumbing against regressions). A
//! fourth incremental run steers on the `planned` memory objective, so
//! the column tracks the cost of memory planning (best-fit offset
//! assignment per candidate) on top of profiling.
//!
//! A second **drivers** table runs the search-strategy head-to-head:
//! greedy best-first (Algorithm 3) vs MCTS over the identical M-Rule
//! substrate, on every fig09–16 workload, steering on the `planned`
//! memory objective under the same eval cap. Columns are candidates
//! per second and the best planned peak each driver found, plus the
//! MCTS/greedy peak ratio — the acceptance bar is MCTS within 5% of
//! greedy (or better) on most models.
//!
//! A final **service** column measures end-to-end requests per second
//! through an in-process `magis-serve` daemon: concurrent clients
//! submit short capped jobs over the line protocol (result cache off,
//! so every request runs a real search) — tracking the supervision
//! layer's overhead (admission, journaling, checkpointing, streaming)
//! on top of raw evaluation throughput.
//! Results print as a table, land in `results/eval_throughput.csv`,
//! and are recorded as `BENCH_eval.json` in the working directory
//! (committed at the repo root so the trajectory is tracked across
//! changes — see EXPERIMENTS.md for how to regenerate and read it).

use magis_bench::{print_table, ExpOpts};
use magis_core::driver::DriverKind;
use magis_core::optimizer::{optimize, Objective, OptimizerConfig, OptimizerStats};
use magis_core::state::{EvalContext, EvalMode, MState};
use magis_models::Workload;
use magis_sim::{Backend, BackendRegistry, MemObjective, DEFAULT_BACKEND};
use std::time::Instant;

/// Evaluation cap shared by all modes: high enough that per-candidate
/// costs dominate, low enough that the full-evaluation baseline
/// finishes quickly at bench scale.
const MAX_EVALS: usize = 240;

/// Service-mode measurement: how many jobs flow through the daemon,
/// and how large each job's search is (kept short so the per-request
/// supervision overhead is actually visible next to the search).
const SERVICE_REQUESTS: usize = 8;
const SERVICE_EVALS: usize = 40;

/// Eval cap for the greedy-vs-MCTS head-to-head (per driver, per
/// model): enough for both strategies to find real reductions on
/// every fig09–16 workload, small enough to keep the whole sweep in
/// bench time.
const DRIVER_EVALS: usize = 160;

struct ModeRun {
    cands_per_sec: f64,
    stats: OptimizerStats,
}

fn run_mode(
    g: &magis_graph::graph::Graph,
    mode: EvalMode,
    mem_objective: MemObjective,
    backend: &Backend,
    threads: usize,
    opts: &ExpOpts,
) -> ModeRun {
    let ctx = EvalContext::for_backend(backend);
    let init = MState::initial(g.clone(), &ctx);
    let mut cfg = OptimizerConfig::new(Objective::MinMemory {
        lat_limit: init.eval.latency * 1.25,
    })
    .with_budget(opts.budget)
    .with_max_evals(MAX_EVALS)
    .with_threads(threads);
    cfg.ctx = ctx;
    cfg.ctx.mode = mode;
    cfg.ctx.mem_objective = mem_objective;
    if mode == EvalMode::Full {
        // The baseline is brute force end to end: no memoized reuse of
        // duplicate candidates either.
        cfg = cfg.with_eval_cache(0);
    }
    let t0 = Instant::now();
    let res = optimize(g.clone(), &cfg);
    let elapsed = t0.elapsed().as_secs_f64();
    ModeRun { cands_per_sec: res.stats.evaluated as f64 / elapsed.max(1e-9), stats: res.stats }
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
fn run_cow(g: &magis_graph::graph::Graph) -> f64 {
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

struct DriverRun {
    cands_per_sec: f64,
    best_peak: u64,
}

/// One leg of the drivers head-to-head: minimize the allocator-planned
/// peak (`--objective planned`) under a 10% latency leash, single
/// thread (both drivers are thread-count independent; serial keeps the
/// throughput column honest), deterministic stop at [`DRIVER_EVALS`].
fn run_driver(
    g: &magis_graph::graph::Graph,
    driver: DriverKind,
    backend: &Backend,
    opts: &ExpOpts,
) -> DriverRun {
    let ctx = EvalContext::for_backend(backend);
    let init = MState::initial(g.clone(), &ctx);
    let mut cfg = OptimizerConfig::new(Objective::MinMemory {
        lat_limit: init.eval.latency * 1.10,
    })
    .with_budget(opts.budget)
    .with_max_evals(DRIVER_EVALS)
    .with_threads(1)
    .with_driver(driver);
    cfg.ctx = ctx;
    cfg.ctx.mem_objective = MemObjective::Planned;
    let t0 = Instant::now();
    let res = optimize(g.clone(), &cfg);
    let elapsed = t0.elapsed().as_secs_f64();
    DriverRun {
        cands_per_sec: res.stats.evaluated as f64 / elapsed.max(1e-9),
        best_peak: res.best.cost().0,
    }
}

/// End-to-end service throughput: an in-process daemon, `workers`
/// concurrent clients, `SERVICE_REQUESTS` capped jobs over the line
/// protocol. Returns completed requests per second of wall-clock.
fn run_service(workload: &str, scale: f64, workers: usize) -> f64 {
    use magis_serve::{Client, JobSpec, ServeConfig, Server};
    let state = std::env::temp_dir()
        .join(format!("magis_bench_serve_{}_{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state.clone(),
        workers,
        queue_capacity: SERVICE_REQUESTS + workers,
        client_cap: SERVICE_REQUESTS + workers,
        result_cache: 0, // every request must run a real search
        ..ServeConfig::default()
    })
    .expect("bind service bench daemon");
    let handle = server.handle().expect("server handle");
    let server_thread = std::thread::spawn(move || server.run());

    let addr = handle.addr();
    let spec = JobSpec {
        workload: Some(workload.to_string()),
        scale,
        max_candidates: Some(SERVICE_EVALS),
        budget_ms: 600_000,
        ..JobSpec::default()
    };
    let t0 = Instant::now();
    let clients: Vec<_> = (0..workers)
        .map(|i| {
            // Round-robin the request count over the client threads.
            let n = SERVICE_REQUESTS / workers + usize::from(i < SERVICE_REQUESTS % workers);
            let spec = JobSpec { client: format!("bench-{i}"), ..spec.clone() };
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect to bench daemon");
                for _ in 0..n {
                    let out = c.submit_and_wait(&spec).expect("submit bench job");
                    out.result.expect("bench job succeeds");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let per_sec = SERVICE_REQUESTS as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    handle.shutdown();
    server_thread.join().expect("server thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&state);
    per_sec
}

fn main() {
    let opts = ExpOpts::from_args();
    let registry = BackendRegistry::builtin();
    let default_backend = registry.get(DEFAULT_BACKEND).expect("default backend registered");
    let alt_backend = registry.get("a100").expect("a100 backend registered");
    let mt_threads = magis_util::parallel::available_threads().clamp(2, 4);
    let models = [(Workload::UNet, "unet", 0.15), (Workload::BertBase, "bert", 0.1)];
    let mut rows = Vec::new();
    let mut json_models = Vec::new();
    for (w, serve_name, rel) in models {
        // The default ExpOpts scale (0.5) maps to each model's bench
        // scale; --scale acts as a multiplier around it, capped at 2x.
        let scale = rel * (opts.scale / 0.5).min(2.0);
        let g = w.build(scale).graph;
        let lv = MemObjective::Liveness;
        let full = run_mode(&g, EvalMode::Full, lv, default_backend, 1, &opts);
        let inc = run_mode(&g, EvalMode::Incremental, lv, default_backend, 1, &opts);
        let inc_mt = run_mode(&g, EvalMode::Incremental, lv, default_backend, mt_threads, &opts);
        let inc_alt = run_mode(&g, EvalMode::Incremental, lv, alt_backend, 1, &opts);
        let inc_planned =
            run_mode(&g, EvalMode::Incremental, MemObjective::Planned, default_backend, 1, &opts);
        let cow_cps = run_cow(&g);
        let serve_rps = run_service(serve_name, scale, mt_threads);
        let speedup = inc.cands_per_sec / full.cands_per_sec.max(1e-9);
        rows.push(vec![
            w.label().to_string(),
            format!("{scale:.3}"),
            format!("{}", full.stats.evaluated),
            format!("{:.1}", full.cands_per_sec),
            format!("{:.1}", inc.cands_per_sec),
            format!("{:.1}", inc_mt.cands_per_sec),
            format!("{:.1}", inc_alt.cands_per_sec),
            format!("{:.1}", inc_planned.cands_per_sec),
            format!("{:.0}", cow_cps),
            format!("{:.2}", serve_rps),
            format!("{:.2}x", speedup),
            format!("{}", inc.stats.eval_cache_hits),
        ]);
        json_models.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"scale\": {:.4}, \"evaluated\": {}, ",
                "\"full_cands_per_sec\": {:.2}, \"incremental_cands_per_sec\": {:.2}, ",
                "\"incremental_mt_cands_per_sec\": {:.2}, \"mt_threads\": {}, ",
                "\"a100_cands_per_sec\": {:.2}, \"planned_cands_per_sec\": {:.2}, ",
                "\"cow_cands_per_sec\": {:.2}, ",
                "\"serve_requests_per_sec\": {:.3}, \"serve_requests\": {}, ",
                "\"serve_evals_per_request\": {}, ",
                "\"speedup\": {:.3}, \"eval_cache_hits\": {}}}"
            ),
            w.label(),
            scale,
            inc.stats.evaluated,
            full.cands_per_sec,
            inc.cands_per_sec,
            inc_mt.cands_per_sec,
            mt_threads,
            inc_alt.cands_per_sec,
            inc_planned.cands_per_sec,
            cow_cps,
            serve_rps,
            SERVICE_REQUESTS,
            SERVICE_EVALS,
            speedup,
            inc.stats.eval_cache_hits,
        ));
        println!("  {} done ({speedup:.2}x)", w.label());
    }
    let header = [
        "model",
        "scale",
        "evaluated",
        "full c/s",
        "inc c/s",
        "inc-mt c/s",
        "a100 c/s",
        "planned c/s",
        "cow c/s",
        "serve req/s",
        "speedup",
        "cache hits",
    ];
    print_table("Candidate-evaluation throughput: incremental vs full", &header, &rows);
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
        let greedy = run_driver(&g, DriverKind::Greedy, default_backend, &opts);
        let mcts = run_driver(&g, DriverKind::Mcts, default_backend, &opts);
        let ratio = mcts.best_peak as f64 / greedy.best_peak.max(1) as f64;
        let ok = ratio <= 1.05;
        within += usize::from(ok);
        drows.push(vec![
            w.label().to_string(),
            format!("{scale:.3}"),
            format!("{:.1}", greedy.cands_per_sec),
            format!("{:.1}", mcts.cands_per_sec),
            format!("{}", greedy.best_peak),
            format!("{}", mcts.best_peak),
            format!("{ratio:.3}{}", if ok { "" } else { " !" }),
        ]);
        json_drivers.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"scale\": {:.4}, ",
                "\"greedy_cands_per_sec\": {:.2}, \"mcts_cands_per_sec\": {:.2}, ",
                "\"greedy_best_peak\": {}, \"mcts_best_peak\": {}, ",
                "\"mcts_over_greedy_peak\": {:.4}, \"within_5pct\": {}}}"
            ),
            w.label(),
            scale,
            greedy.cands_per_sec,
            mcts.cands_per_sec,
            greedy.best_peak,
            mcts.best_peak,
            ratio,
            ok,
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
    print_table("Search drivers head-to-head: greedy vs MCTS (planned peak)", &dheader, &drows);
    opts.write_csv("eval_drivers.csv", &dheader, &drows);
    println!("  {within}/{} models with MCTS within 5% of greedy", driver_models.len());

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"eval_throughput\",\n  \"max_evals\": {},\n",
            "  \"models\": [\n{}\n  ],\n",
            "  \"driver_evals\": {},\n  \"drivers\": [\n{}\n  ]\n}}\n"
        ),
        MAX_EVALS,
        json_models.join(",\n"),
        DRIVER_EVALS,
        json_drivers.join(",\n")
    );
    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    println!("  -> wrote BENCH_eval.json");
}
