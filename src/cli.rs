//! Argument parsing and subcommand dispatch for the `magis` binary.
//! Flags are `--name value` pairs after a subcommand, read by the
//! workspace's one argv reader ([`Args`]) against the subcommand's
//! table of accepted flags ([`command`]).

use magis_baselines::BaselineKind;
use magis_core::codegen::export_pytorch;
use magis_core::optimizer::{CheckpointPolicy, OptimizeResult, ParanoiaLevel};
use magis_core::state::{EvalContext, EvalMode, MState};
use magis_graph::io::{to_dot, to_text};
use magis_graph::GraphView;
use magis_models::Workload;
use magis_serve::job::{backend_for, workload_by_name, Search, Seed};
use magis_serve::{Client, JobSpec, ServeConfig};
use magis_sim::{Backend, BackendRegistry, CostModel, MemObjective};
use magis_util::args::Args;
use std::path::Path;
use std::time::Duration;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
magis — MAGIS memory optimizer (ASPLOS'24 reproduction)

USAGE:
  magis list
  magis inspect  --workload NAME [--scale F] [--backend NAME]
                 [--calibrate FILE]
  magis optimize --workload NAME [--scale F] [--mode memory|latency]
                 [--limit F] [--budget-ms N] [--threads N]
                 [--max-candidates N]
                 [--backend NAME] [--calibrate FILE]
                 [--objective liveness|planned]
                 [--driver greedy|mcts]
                 [--paranoia off|incumbent|all]
                 [--eval incremental|full] [--eval-cache N]
                 [--checkpoint FILE] [--checkpoint-every N]
                 [--emit py|dot|text] [--out FILE]
                 [--trace-out FILE] [--metrics-out FILE]
  magis optimize --resume FILE [--mode memory|latency] [--limit F]
                 [--budget-ms N] [--threads N] [...]
  magis baseline --workload NAME --system pofo|dtr|xla|tvm|ti
                 [--scale F] [--budget-ratio F]
                 [--backend NAME] [--calibrate FILE]
  magis serve    [--addr HOST:PORT] [--state-dir DIR] [--workers N]
                 [--queue-capacity N] [--client-cap N] [--drain-timeout-ms N]
                 [--stall-after-ms N] [--result-cache N] [--port-file FILE]
                 [--trace-out FILE]
  magis submit   --addr HOST:PORT | --port-file FILE
                 --workload NAME [--scale F] [--mode memory|latency]
                 [--limit F] [--objective liveness|planned]
                 [--driver greedy|mcts]
                 [--backend NAME] [--budget-ms N]
                 [--max-candidates N] [--threads N] [--eval-cache N]
                 [--checkpoint-every N] [--client NAME] [--wait true|false]
  magis watch    --addr HOST:PORT | --port-file FILE  --id N
  magis top      --addr HOST:PORT | --port-file FILE
                 [--interval-ms N] [--iterations N]
  magis metrics  --addr HOST:PORT | --port-file FILE
  magis trace-check --trace FILE [--expect-job N]
  magis --backend-list

WORKLOADS: resnet50 bert vit unet unetpp gpt-neo btlm

BACKENDS:
  --backend NAME  cost-model backend profile (default: rtx3090).
                  `magis --backend-list` prints every registered
                  profile with its device spec and efficiencies.
  --calibrate F   refit the chosen backend against a measured JSONL
                  trace (one {\"class\",\"flops\",\"bytes\",\"latency_s\"}
                  object per line): per-class efficiencies and launch
                  overhead are re-estimated by least squares before
                  the backend is used.

MODES (optimize):
  memory   minimize peak memory; --limit is the allowed latency factor
           relative to unoptimized (default 1.10)
  latency  minimize latency; --limit is the allowed memory fraction of
           the unoptimized peak (default 0.8)

OPTIONS (optimize):
  --threads N     candidate-evaluation worker threads (default: all
                  cores; 1 = serial). Results are identical for every N.
  --budget-ms N   the search's one wall-clock limit (default 15000):
                  at N ms it stops and returns its best-so-far
                  incumbent with `stop reason: deadline` (anytime
                  semantics; wall-clock dependent, so not reproducible
                  run-to-run).
  --max-candidates N
                  hard cap on evaluated candidates — the deterministic
                  stopping knob (`stop reason: eval-cap-reached`),
                  cumulative across --resume.
  --objective O   memory accounting the search steers on: liveness
                  (default, sum of live tensor bytes per step) |
                  planned (allocator-planned high-water mark from a
                  best-fit free-list offset assignment over tensor
                  lifetimes — includes fragmentation). `planned` plans
                  every candidate and reports the fragmentation ratio
                  in the summary; results stay bit-identical for every
                  --threads value.
  --driver D      search strategy: greedy (default, the paper's
                  Algorithm 3 best-first queue) | mcts (seeded Monte
                  Carlo tree search over rewrite sequences — UCT
                  selection, RNG rollouts through the incremental
                  evaluator). Both are bit-identical for every
                  --threads value; checkpoints are driver-tagged, so
                  --resume restores the checkpoint's engine and
                  ignores this flag.
  --paranoia L    invariant enforcement: off | incumbent (default) |
                  all. `incumbent` cross-checks the incremental
                  evaluation of a would-be incumbent against a full
                  re-evaluation (bit-identical peak memory + latency);
                  `all` cross-checks every evaluated candidate.
  --eval M        candidate evaluation mode: incremental (default,
                  re-schedule only a window of the parent's order
                  around the rewrite) | full (re-schedule from scratch
                  — the baseline `eval_throughput` measures against).
  --eval-cache N  capacity of the structural-hash evaluation cache
                  (duplicate candidates reached via different rewrite
                  paths skip scheduling + simulation). 0 disables;
                  default 1024.
  --checkpoint F  write a search checkpoint to F every
                  --checkpoint-every evaluations (default 16) and at
                  search end. Written atomically (temp + rename).
  --resume F      continue a search from checkpoint F on the trajectory
                  the uninterrupted run takes (every checkpoint holds
                  the search frontier). Budget, thread count, mode,
                  limit, and backend come from the command line, not
                  the checkpoint (re-pass --backend if the original run
                  used one); the workload flag is not needed.

OBSERVABILITY (optimize):
  --trace-out F   record a structured trace of the search (spans for
                  seed evaluation / expansion / candidate evaluation /
                  final polish, events for accept / reject / quarantine
                  / checkpoint / resume / stop) as JSONL to F.
  --metrics-out F write a Prometheus-style text snapshot of all
                  magis_* counters, gauges, and histograms to F at
                  the end of the run.
  Count-type metrics and the trace event *set* are identical for every
  --threads value; only wall-time measurements vary.

MONITORING (serve):
  submit --wait   renders a live one-line ticker on a terminal (search
                  phase, expansions, evaluations, incumbent cost) from
                  the daemon's progress stream.
  watch --id N    attaches to a job already in flight (any number of
                  watchers, mid-flight attach) and streams the same
                  progress frames until the job settles.
  top             polls status + metrics into a refreshing terminal
                  summary (queue depth, running jobs, completions,
                  rejections, replays, cache hits, job wall-time).
                  --iterations N stops after N refreshes (0 = forever).
  metrics         prints the daemon's metric registry as Prometheus
                  text exposition — pipe it to a scraper.
  Every job journals its own trace to jobs/job-<id>/trace.jsonl on the
  daemon side; the trace id is the job id.

trace-check validates a --trace-out file: every line must parse back
as a trace record. Prints per-record-name counts. With --expect-job N
it additionally requires every record to carry a `job = N` correlation
field (use on a daemon's jobs/job-N/trace.jsonl).
";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (prints usage, exit code 2).
    Usage(String),
    /// Execution failure (exit code 1).
    Runtime(String),
}

impl From<String> for CliError {
    /// What the argv reader and the spec validation report is a usage
    /// error.
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

/// Flags that describe a job: `optimize` runs it here, `submit` sends
/// it to a daemon ([`job_spec`] reads them for both).
const JOB: &[&str] = &[
    "workload", "scale", "mode", "limit", "objective", "driver", "backend", "budget-ms",
    "max-candidates", "threads", "eval-cache", "checkpoint-every",
];
const BACKEND: &[&str] = &["backend", "calibrate"];
const DAEMON: &[&str] = &["addr", "port-file"];
/// Valueless flags, accepted by every subcommand and on their own.
const SWITCHES: &[&str] = &["backend-list"];

/// A subcommand: the `--name value` flags it accepts (anything else on
/// its command line is a usage error) and the function that runs it.
type Command = (&'static [&'static [&'static str]], fn(&Args) -> Result<(), CliError>);

fn command(name: &str) -> Option<Command> {
    Some(match name {
        // Flags with no subcommand in front: only a switch can follow.
        "" => (&[], |_| Err(CliError::Usage("missing subcommand".into()))),
        "list" => (&[], cmd_list),
        "inspect" => (&[&["workload", "scale"], BACKEND], inspect),
        "optimize" => (
            &[
                JOB,
                BACKEND,
                &["trace-out", "metrics-out", "resume", "paranoia", "eval", "checkpoint"],
                &["emit", "out"],
            ],
            cmd_optimize,
        ),
        "baseline" => (&[&["workload", "scale", "system", "budget-ratio"], BACKEND], cmd_baseline),
        "serve" => (&[ServeConfig::FLAGS, &["trace-out"]], cmd_serve),
        "submit" => (&[JOB, DAEMON, &["client", "wait"]], cmd_submit),
        "watch" => (&[DAEMON, &["id"]], cmd_watch),
        "top" => (&[DAEMON, &["interval-ms", "iterations"]], cmd_top),
        "metrics" => (&[DAEMON], cmd_metrics),
        "trace-check" => (&[&["trace", "expect-job"]], cmd_trace_check),
        _ => return None,
    })
}

fn workload(flags: &Args) -> Result<Workload, CliError> {
    Ok(workload_by_name(flags.required("workload")?)?)
}

/// The value of a flag that takes one of a closed set of `names`.
fn named<T>(
    flags: &Args,
    key: &str,
    names: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, CliError> {
    let parsed = flags.get(key).map(|v| {
        parse(v).ok_or_else(|| CliError::Usage(format!("--{key} expects {names}, got '{v}'")))
    });
    parsed.transpose()
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// The `--backend` profile (default `rtx3090`), refit by least squares
/// against the `--calibrate FILE` JSONL trace when that flag is present.
fn backend(flags: &Args) -> Result<Backend, CliError> {
    let base = backend_for(flags.get("backend"))?;
    let Some(path) = flags.get("calibrate") else { return Ok(base) };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
    let samples = magis_sim::calibrate::parse_trace(&text)
        .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    base.calibrated(format!("{}-calibrated", base.name()), &samples)
        .map_err(|e| CliError::Runtime(format!("calibrating against {path}: {e}")))
}

/// Prints the `--backend-list` table: every registered profile with
/// its headline device numbers and per-class efficiencies.
fn backend_list() {
    let reg = BackendRegistry::builtin();
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>9}  efficiencies (mm/bmm/conv/norm/other)",
        "backend", "TFLOP/s", "mem GB/s", "cap GiB", "launch µs"
    );
    for b in reg.iter() {
        let d = b.device();
        let e = b.efficiency();
        println!(
            "{:<10} {:>9.1} {:>9.0} {:>8.1} {:>9.2}  {:.2}/{:.2}/{:.2}/{:.2}/{:.2}",
            b.name(),
            d.peak_flops / 1e12,
            d.mem_bandwidth / 1e9,
            gib(d.mem_capacity),
            d.launch_overhead * 1e6,
            e.matmul,
            e.batch_matmul,
            e.conv,
            e.normalization,
            e.other
        );
    }
}

/// Entry point, separated from `main` for testability.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let (name, rest) = match args.split_first() {
        None => return Err(CliError::Usage("missing subcommand".into())),
        // A bare `magis --backend-list`.
        Some((first, _)) if first.starts_with("--") => ("", args),
        Some((name, rest)) => (name.as_str(), rest),
    };
    let (accepted, run) =
        command(name).ok_or_else(|| CliError::Usage(format!("unknown subcommand '{name}'")))?;
    let flags = Args::parse(rest, accepted, SWITCHES)?;
    if flags.switch("backend-list") {
        backend_list();
        return Ok(());
    }
    run(&flags)
}

fn cmd_list(_: &Args) -> Result<(), CliError> {
    println!("workload      batch  dtype  config");
    for w in Workload::all() {
        println!(
            "{:12}  {:>5}  {:>5}  {}",
            w.label(),
            w.batch(),
            w.dtype().to_string(),
            w.config_note()
        );
    }
    Ok(())
}

fn inspect(flags: &Args) -> Result<(), CliError> {
    let w = workload(flags)?;
    let scale = flags.value_or("scale", 0.5)?;
    let backend = backend(flags)?;
    let tg = w.build(scale);
    let g = &tg.graph;
    let ctx = EvalContext::for_backend(&backend);
    let state = MState::initial(g.clone(), &ctx);
    let params: u64 = g
        .node_ids()
        .filter(|&v| g.node(v).op.is_weight_input())
        .map(|v| g.node(v).size_bytes())
        .sum();
    println!("{} @ scale {scale}", w.label());
    println!("  nodes:       {}", g.len());
    println!("  parameters:  {:.3} GiB", gib(params));
    println!("  peak memory: {:.3} GiB (program order)", gib(state.eval.peak_bytes));
    println!(
        "  latency:     {:.2} ms (simulated {})",
        state.eval.latency * 1e3,
        backend.name()
    );
    println!("  hot-spots:   {}", state.eval.hotspots_base.len());
    Ok(())
}

/// Installs the `--trace-out` JSONL trace sink. Must run before the
/// search starts.
fn setup_obs(flags: &Args) -> Result<(), CliError> {
    if let Some(path) = flags.get("trace-out") {
        let sink = magis_obs::trace::JsonlSink::create(Path::new(path))
            .map_err(|e| CliError::Runtime(format!("creating trace file {path}: {e}")))?;
        magis_obs::trace::install(std::sync::Arc::new(sink));
    }
    Ok(())
}

/// Flushes the trace sink and writes the metrics snapshot. Runs after
/// the search (on success) so the snapshot covers the whole run.
fn finish_obs(flags: &Args) -> Result<(), CliError> {
    if flags.get("trace-out").is_some() {
        magis_obs::trace::uninstall();
    }
    if let Some(path) = flags.get("metrics-out") {
        let text = magis_obs::metrics::default_registry().render();
        std::fs::write(path, text)
            .map_err(|e| CliError::Runtime(format!("writing metrics to {path}: {e}")))?;
    }
    Ok(())
}

/// Prints the one-screen end-of-run summary table: headline result,
/// stop reason, search volume, per-phase timing, and the full
/// fault/hardening accounting from
/// [`magis_core::optimizer::OptimizerStats`].
fn print_summary(seed_cost: (u64, f64), res: &OptimizeResult) {
    let best = &res.best;
    let s = &res.stats;
    let secs = |d: Duration| format!("{:.3} s", d.as_secs_f64());
    let fam_names = |fams: &[u8]| -> String {
        if fams.is_empty() {
            "none".to_string()
        } else {
            fams.iter()
                .map(|&f| magis_core::rules::family_name(f))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    let rule = "─".repeat(62);
    let row = |k: &str, v: String| eprintln!("  {k:<24} {v}");
    eprintln!("{rule}");
    eprintln!("  magis search summary");
    eprintln!("{rule}");
    row(
        "peak memory",
        format!(
            "{:.3} GiB  ({:.1}% of baseline)",
            gib(best.eval.peak_bytes),
            100.0 * best.eval.peak_bytes as f64 / seed_cost.0 as f64
        ),
    );
    if let Some(plan) = &best.eval.plan {
        row(
            "planned peak",
            format!(
                "{:.3} GiB  (allocator high-water mark)",
                gib(plan.planned_peak_bytes)
            ),
        );
        row("fragmentation", format!("{:.4}x  (planned / liveness)", plan.fragmentation_ratio()));
    }
    row(
        "latency",
        format!(
            "{:.2} ms  ({:+.1}% vs baseline)",
            best.eval.latency * 1e3,
            100.0 * (best.eval.latency / seed_cost.1 - 1.0)
        ),
    );
    row("stop reason", s.stop_reason.to_string());
    row("resumed", (if s.resumed { "yes" } else { "no" }).to_string());
    row("driver", s.driver.to_string());
    row("threads", s.threads.to_string());
    row("expanded / evaluated", format!("{} / {}", s.expanded, s.evaluated));
    row("candidates generated", format!("{}  ({} duplicates filtered)", s.candidates, s.filtered));
    row(
        "eval cache",
        format!(
            "{} hits / {} misses  ({} evicted, {} purged)",
            s.eval_cache_hits, s.eval_cache_misses, s.eval_cache_evictions, s.eval_cache_purged
        ),
    );
    row("time:   analyze", format!("{}  ({} analyses)", secs(s.analyze_time), s.analyses));
    row("time: transform", secs(s.trans_time));
    row("time: sched + sim", secs(s.sched_sim_time));
    row("time:   overlay build", format!("{}  (part of sched + sim)", secs(s.overlay_time)));
    row("time: hash / filter", secs(s.hash_time));
    row("time: eval wall", secs(s.eval_wall_time));
    row("panics sandboxed", s.panicked.to_string());
    row("cost rejections", s.cost_rejections.to_string());
    row("invariant rejections", s.invariant_rejections.to_string());
    row("quarantined candidates", s.quarantined_candidates.to_string());
    row("quarantined families", fam_names(&s.quarantined_families));
    row(
        "checkpoints",
        format!("{} written, {} failed", s.checkpoints_written, s.checkpoint_failures),
    );
    eprintln!("{rule}");
}

/// The search `optimize` runs: the job its flags describe
/// ([`job_spec`], as `submit` would send it) built by the one
/// spec→search builder, plus what only the one-shot CLI offers —
/// `--calibrate`, `--paranoia`, `--eval`, `--checkpoint*`. Every flag is
/// read before the seed is evaluated.
fn optimize_search(flags: &Args) -> Result<(JobSpec, Backend, Search), CliError> {
    let spec = job_spec(flags, magis_util::parallel::available_threads())?;
    if flags.get("resume").is_none() {
        flags.required("workload")?;
    }
    let paranoia = named(flags, "paranoia", "off|incumbent|all", ParanoiaLevel::parse)?;
    let eval = named(flags, "eval", "incremental|full", |v| match v {
        "incremental" => Some(EvalMode::Incremental),
        "full" => Some(EvalMode::Full),
        _ => None,
    })?;
    let backend = backend(flags)?;
    // On resume everything about the search state comes from the
    // checkpoint; everything about *how to keep searching* (budget,
    // threads, mode, limit, paranoia) comes from the command line.
    let mut search = Search::build(&spec, &backend, flags.get("resume").map(Path::new))
        .map_err(CliError::Runtime)?;
    search.cfg.paranoia = paranoia.unwrap_or_default();
    // The seed has no parent to be incremental against, so the mode
    // only matters from here on.
    search.cfg.ctx.mode = eval.unwrap_or_default();
    search.cfg.checkpoint = flags
        .get("checkpoint")
        .map(|path| CheckpointPolicy::new(path).with_every(spec.checkpoint_every));
    Ok((spec, backend, search))
}

fn cmd_optimize(flags: &Args) -> Result<(), CliError> {
    setup_obs(flags)?;
    let out = cmd_optimize_inner(flags);
    // The trace is flushed and the metrics snapshot written even when
    // the search fails — a failing run is when you want them most.
    let obs = finish_obs(flags);
    out.and(obs)
}

fn cmd_optimize_inner(flags: &Args) -> Result<(), CliError> {
    let (spec, backend, search) = optimize_search(flags)?;
    // What the summary's percentages are against: the liveness peak of
    // the unoptimized graph under either memory objective (a checkpoint
    // remembers only the seed's `cost()`).
    let baseline = match &search.seed {
        Seed::Resumed(ckpt) => {
            eprintln!(
                "resuming from {}: incumbent {:.3} GiB / {:.2} ms after {} evaluations",
                flags.get("resume").unwrap_or_default(),
                gib(ckpt.best_cost.0),
                ckpt.best_cost.1 * 1e3,
                ckpt.counters.evaluated
            );
            ckpt.seed_cost
        }
        Seed::Fresh(init) => {
            let baseline = (init.eval.peak_bytes, init.eval.latency);
            eprintln!(
                "{}: {} nodes, baseline {:.3} GiB / {:.2} ms on {}; optimizing ({})…",
                workload(flags)?.label(),
                init.base.len(),
                gib(baseline.0),
                baseline.1 * 1e3,
                backend.name(),
                spec.mode
            );
            baseline
        }
    };
    let res = search.run().map_err(CliError::Runtime)?;
    print_summary(baseline, &res);
    if let Some(emit) = flags.get("emit") {
        let text = render(&res.best, emit, &CostModel::for_backend(&backend))?;
        match flags.get("out") {
            Some(path) => std::fs::write(path, text)
                .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?,
            None => println!("{text}"),
        }
    }
    Ok(())
}

fn render(best: &MState, emit: &str, cm: &CostModel) -> Result<String, CliError> {
    match emit {
        "dot" => Ok(to_dot(&best.eval.graph)),
        "text" => Ok(to_text(&best.eval.graph)),
        "py" => export_pytorch(best, cm).map_err(|e| CliError::Runtime(e.to_string())),
        other => Err(CliError::Usage(format!("unknown --emit format '{other}'"))),
    }
}

fn cmd_baseline(flags: &Args) -> Result<(), CliError> {
    let w = workload(flags)?;
    let scale = flags.value_or("scale", 0.5)?;
    let kind = match flags.required("system")?.to_lowercase().as_str() {
        "pofo" => BaselineKind::Pofo,
        "dtr" => BaselineKind::Dtr,
        "xla" => BaselineKind::Xla,
        "tvm" => BaselineKind::Tvm,
        "ti" | "torch-inductor" => BaselineKind::TorchInductor,
        other => return Err(CliError::Usage(format!("unknown system '{other}'"))),
    };
    let ratio = flags.value_or("budget-ratio", 0.8)?;
    let backend = backend(flags)?;
    let tg = w.build(scale);
    let cm = CostModel::for_backend(&backend);
    let anchor = magis_baselines::pytorch::run(&tg.graph, &cm);
    let r = kind.run(&tg.graph, Some((anchor.peak_bytes as f64 * ratio) as u64), &cm);
    println!(
        "{} on {} ({}) @ {:.0}% budget: peak {:.3} GiB ({:.1}%), latency {:+.1}%, {}",
        kind.label(),
        w.label(),
        backend.name(),
        ratio * 100.0,
        gib(r.peak_bytes),
        100.0 * r.peak_bytes as f64 / anchor.peak_bytes as f64,
        100.0 * (r.latency / anchor.latency - 1.0),
        if r.feasible { "feasible" } else { "FAILED to meet budget" }
    );
    Ok(())
}

/// `magis serve` — runs the supervised optimization daemon in the
/// foreground until SIGTERM/ctrl-c (then drains gracefully).
fn cmd_serve(flags: &Args) -> Result<(), CliError> {
    setup_obs(flags)?;
    let server = magis_serve::Server::bind(ServeConfig::from_args(flags)?)
        .map_err(|e| CliError::Runtime(format!("starting the server: {e}")))?;
    if let Ok(addr) = server.local_addr() {
        eprintln!("magis serve: listening on {addr}");
    }
    server.run().map_err(|e| CliError::Runtime(format!("serving: {e}")))
}

/// The job the [`JOB`] flags describe — what `submit` sends and
/// `optimize` runs — checked by the validation the daemon applies at
/// its protocol boundary. `default_threads` is the one default the two
/// commands do not share.
fn job_spec(flags: &Args, default_threads: usize) -> Result<JobSpec, CliError> {
    let d = JobSpec::default();
    let spec = JobSpec {
        workload: flags.get("workload").map(str::to_lowercase),
        scale: flags.value_or("scale", 0.5)?,
        mode: flags.value_or("mode", d.mode)?,
        limit: flags.value("limit")?,
        objective: named(flags, "objective", "liveness|planned", MemObjective::parse)?
            .unwrap_or(d.objective),
        backend: flags.value("backend")?,
        budget_ms: flags.value_or("budget-ms", d.budget_ms)?,
        max_candidates: flags.value("max-candidates")?,
        threads: flags.value_or("threads", default_threads)?.max(1),
        eval_cache: flags.value("eval-cache")?,
        checkpoint_every: flags.value_or("checkpoint-every", d.checkpoint_every)?.max(1),
        strategy: flags.value("driver")?,
        client: flags.value_or("client", d.client)?,
        graph: None,
    };
    spec.validate()?;
    Ok(spec)
}

/// Resolves the daemon address from `--addr` or `--port-file`.
fn serve_addr(flags: &Args) -> Result<String, CliError> {
    if let Some(a) = flags.get("addr") {
        return Ok(a.to_string());
    }
    if let Some(p) = flags.get("port-file") {
        let text = std::fs::read_to_string(p)
            .map_err(|e| CliError::Runtime(format!("reading {p}: {e}")))?;
        return Ok(text.trim().to_string());
    }
    Err(CliError::Usage("submit needs --addr or --port-file".into()))
}

fn connect(addr: &str) -> Result<Client, CliError> {
    Client::connect(addr).map_err(|e| CliError::Runtime(format!("connecting to {addr}: {e}")))
}

impl From<magis_serve::ServeError> for CliError {
    fn from(e: magis_serve::ServeError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

/// Renders one progress frame as the single-line live ticker body.
/// Search-snapshot frames show the deterministic expansion-boundary
/// numbers; heartbeat frames (queued / between expansions) show the
/// eval-beat counter.
fn ticker_line(frame: &magis_obs::json::Json) -> String {
    use magis_obs::json::Json;
    let u = |k: &str| frame.get(k).and_then(Json::as_u64);
    match frame.get("phase").and_then(Json::as_str) {
        Some(phase) => {
            let lat = match frame.get("best_latency") {
                Some(Json::Float(f)) => *f,
                Some(Json::UInt(n)) => *n as f64,
                _ => 0.0,
            };
            format!(
                "{phase:<6} exp {:>4}  eval {:>5}  best {:.3} GiB / {:.2} ms  frontier {}",
                u("expansion").unwrap_or(0),
                u("evaluated").unwrap_or(0),
                gib(u("best_peak_bytes").unwrap_or(0)),
                lat * 1e3,
                u("frontier").unwrap_or(0),
            )
        }
        None => format!(
            "{:<6} beats {:>6}  {:>6} ms",
            frame.get("state").and_then(Json::as_str).unwrap_or("…"),
            u("beats").unwrap_or(0),
            u("elapsed_ms").unwrap_or(0),
        ),
    }
}

/// Prints the end-of-stream summary shared by `submit --wait` and
/// `watch`, or turns a failed job into a [`CliError`].
fn report_wait_outcome(label: &str, out: magis_serve::WaitOutcome) -> Result<(), CliError> {
    match out.result {
        Err(e) => Err(CliError::Runtime(format!("job {} failed: {e}", out.id))),
        Ok(r) => {
            let rule = "─".repeat(62);
            let row = |k: &str, v: String| eprintln!("  {k:<24} {v}");
            eprintln!("{rule}");
            eprintln!("  magis {label}: job {} done", out.id);
            eprintln!("{rule}");
            row("peak memory", format!("{:.3} GiB", gib(r.peak_bytes)));
            if let Some(p) = r.planned_peak_bytes {
                row("planned peak", format!("{:.3} GiB", gib(p)));
            }
            row("latency", format!("{:.2} ms", r.latency * 1e3));
            row("stop reason", r.stop_reason.clone());
            row("expanded / evaluated", format!("{} / {}", r.expanded, r.evaluated));
            row("resumed", (if r.resumed { "yes" } else { "no" }).to_string());
            row("cached", (if out.cached { "yes" } else { "no" }).to_string());
            row("progress events", out.progress_events.to_string());
            eprintln!("{rule}");
            Ok(())
        }
    }
}

/// `magis submit` — sends one job to a running daemon and (by
/// default) waits for the result, rendering a live one-line ticker
/// from the progress stream when stderr is a terminal.
fn cmd_submit(flags: &Args) -> Result<(), CliError> {
    use std::io::IsTerminal;
    let addr = serve_addr(flags)?;
    flags.required("workload")?;
    let spec = job_spec(flags, 1)?;
    let wait = flags.bool_or("wait", true)?;
    let mut client = connect(&addr)?;
    if !wait {
        println!("submitted job {}", client.submit_nowait(&spec)?);
        return Ok(());
    }
    let live = std::io::stderr().is_terminal();
    let out = client.submit_and_wait_with(&spec, |frame| {
        if live {
            eprint!("\r\x1b[2K  {}", ticker_line(frame));
        }
    })?;
    if live {
        eprint!("\r\x1b[2K");
    }
    report_wait_outcome("submit", out)
}

/// `magis watch` — attaches to a job already submitted (mid-flight or
/// settled) and streams its progress frames until it settles.
fn cmd_watch(flags: &Args) -> Result<(), CliError> {
    use std::io::IsTerminal;
    let addr = serve_addr(flags)?;
    flags.required("id")?;
    let id: u64 = flags.value_or("id", 0)?;
    let mut client = connect(&addr)?;
    let live = std::io::stderr().is_terminal();
    let out = client.watch(id, |frame| {
        if live {
            eprint!("\r\x1b[2K  {}", ticker_line(frame));
        } else {
            eprintln!("  {}", ticker_line(frame));
        }
    })?;
    if live {
        eprint!("\r\x1b[2K");
    }
    report_wait_outcome("watch", out)
}

/// `magis metrics` — prints the daemon's metric registry as Prometheus
/// text exposition (the scrape surface).
fn cmd_metrics(flags: &Args) -> Result<(), CliError> {
    let addr = serve_addr(flags)?;
    let mut client = connect(&addr)?;
    print!("{}", client.metrics()?);
    Ok(())
}

/// Pulls one sample's value out of a Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        (it.next() == Some(name)).then(|| it.next()?.parse().ok())?
    })
}

/// `magis top` — polls `status` + `metrics` into a refreshing
/// terminal summary of the daemon.
fn cmd_top(flags: &Args) -> Result<(), CliError> {
    use std::io::IsTerminal;
    let addr = serve_addr(flags)?;
    let interval: u64 = flags.value_or("interval-ms", 1000)?;
    let iterations: usize = flags.value_or("iterations", 0)?;
    let mut client = connect(&addr)?;
    let clear = std::io::stdout().is_terminal();
    let mut n = 0usize;
    loop {
        let pong = client.ping()?;
        let text = client.metrics()?;
        let v = |name: &str| prom_value(&text, name).unwrap_or(0.0);
        if clear && n > 0 {
            print!("\x1b[2J\x1b[H");
        }
        let q = pong.get("queued").and_then(magis_obs::json::Json::as_u64).unwrap_or(0);
        let r = pong.get("running").and_then(magis_obs::json::Json::as_u64).unwrap_or(0);
        let rule = "─".repeat(62);
        println!("{rule}");
        println!("  magis top — {addr}");
        println!("{rule}");
        let row = |k: &str, val: String| println!("  {k:<24} {val}");
        row("queued / running", format!("{q} / {r}"));
        row(
            "jobs",
            format!(
                "{:.0} submitted, {:.0} accepted, {:.0} completed, {:.0} failed",
                v("magis_serve_jobs_submitted"),
                v("magis_serve_jobs_accepted"),
                v("magis_serve_jobs_completed"),
                v("magis_serve_jobs_failed"),
            ),
        );
        row(
            "rejected",
            format!(
                "{:.0} queue-full, {:.0} client-cap, {:.0} draining",
                v("magis_serve_rejected_queue_full"),
                v("magis_serve_rejected_client_cap"),
                v("magis_serve_rejected_draining"),
            ),
        );
        row("replays", format!("{:.0}", v("magis_serve_jobs_replayed")));
        row(
            "result cache",
            format!(
                "{:.0} hits / {:.0} misses",
                v("magis_serve_result_cache_hits"),
                v("magis_serve_result_cache_misses"),
            ),
        );
        let jobs_n = v("magis_serve_job_seconds_count");
        let wait_n = v("magis_serve_queue_wait_seconds_count");
        row(
            "job wall-time",
            if jobs_n > 0.0 {
                format!("{:.3} s avg over {jobs_n:.0} runs", v("magis_serve_job_seconds_sum") / jobs_n)
            } else {
                "no runs yet".to_string()
            },
        );
        row(
            "queue wait",
            if wait_n > 0.0 {
                format!(
                    "{:.3} s avg over {wait_n:.0} pickups",
                    v("magis_serve_queue_wait_seconds_sum") / wait_n
                )
            } else {
                "no pickups yet".to_string()
            },
        );
        row("watchdog stalls", format!("{:.0}", v("magis_serve_watchdog_stalls")));
        println!("{rule}");
        n += 1;
        if iterations != 0 && n >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// Validates a `--trace-out` JSONL file: every non-empty line must
/// parse back as a trace record. Prints per-record-name counts. With
/// `--expect-job N`, every record must additionally carry a `job = N`
/// correlation field — the shape `magis-serve` writes into a job
/// directory's `trace.jsonl`.
fn cmd_trace_check(flags: &Args) -> Result<(), CliError> {
    let path = flags.required("trace")?;
    let expect_job: Option<u64> = flags.value("expect-job")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
    let mut spans = 0usize;
    let mut events = 0usize;
    let mut names: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = magis_obs::trace::TraceEvent::parse_line(line)
            .map_err(|e| CliError::Runtime(format!("{path}:{}: {e}", no + 1)))?;
        if let Some(want) = expect_job {
            let tagged = ev.fields.iter().any(|(k, v)| {
                k == "job" && matches!(v, magis_obs::trace::FieldValue::U64(n) if *n == want)
            });
            if !tagged {
                return Err(CliError::Runtime(format!(
                    "{path}:{}: record {}/{} carries no job={want} field",
                    no + 1,
                    ev.target,
                    ev.name
                )));
            }
        }
        match ev.kind {
            magis_obs::trace::TraceKind::Span => spans += 1,
            magis_obs::trace::TraceKind::Event => events += 1,
        }
        *names.entry(format!("{}/{}", ev.target, ev.name)).or_default() += 1;
    }
    if spans + events == 0 {
        return Err(CliError::Runtime(format!("{path}: no trace records")));
    }
    println!("{path}: {} records OK ({spans} spans, {events} events)", spans + events);
    if let Some(want) = expect_job {
        println!("  every record carries job={want}");
    }
    for (name, n) in names {
        println!("  {name}: {n}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn list_runs() {
        run(&s(&["list"])).unwrap();
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&s(&[])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["inspect"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&s(&["inspect", "--workload", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--scale", "abc"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--threads", "two"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--eval", "sometimes"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--eval-cache", "lots"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--objective", "wishful"])),
            Err(CliError::Usage(_))
        ));
    }

    /// The `--flags` each subcommand's stanza of the USAGE synopsis
    /// names (the two `optimize` stanzas together).
    fn usage_stanzas() -> BTreeMap<String, BTreeSet<String>> {
        let synopsis = USAGE.split("WORKLOADS:").next().unwrap();
        let mut stanzas: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut cmd = String::new();
        for line in synopsis.lines() {
            if let Some(rest) = line.strip_prefix("  magis ") {
                cmd = rest.split_whitespace().next().unwrap().to_string();
            }
            if cmd.is_empty() || cmd.starts_with("--") {
                continue;
            }
            let named = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"));
            stanzas.entry(cmd.clone()).or_default().extend(named.map(str::to_string));
        }
        stanzas
    }

    #[test]
    fn usage_names_exactly_the_flags_each_subcommand_accepts() {
        let stanzas = usage_stanzas();
        assert_eq!(stanzas.len(), 10, "{:?}", stanzas.keys());
        for (cmd, named) in &stanzas {
            let accepted: BTreeSet<String> = command(cmd)
                .unwrap_or_else(|| panic!("USAGE documents unknown subcommand '{cmd}'"))
                .0
                .iter()
                .flat_map(|table| table.iter().map(|f| f.to_string()))
                .collect();
            assert_eq!(&accepted, named, "magis {cmd}: parser (left) vs USAGE (right)");
        }
    }

    #[test]
    fn usage_names_the_stop_reason_a_capped_search_prints() {
        let capped = magis_core::optimizer::StopReason::EvalCapReached.to_string();
        assert!(USAGE.contains(&format!("`stop reason: {capped}`")), "{capped}");
    }

    #[test]
    fn a_typo_or_a_bad_value_is_a_usage_error_on_every_subcommand() {
        let cases: &[&[&str]] = &[
            &["list", "--verbose", "1"],
            &["inspect", "--workload", "unet", "--sclae", "0.1"],
            &["optimize", "--workload", "unet", "--budgte-ms", "100"],
            &["optimize", "--workload", "unet", "--budget-ms", "soon"],
            &["optimize", "--workload", "unet", "--client", "me"],
            &["optimize", "--workload", "unet", "--mode", "vibes"],
            &["baseline", "--workload", "unet", "--system", "dtr", "--budget-ratoi", "0.5"],
            &["baseline", "--workload", "unet", "--system", "dtr", "--budget-ratio", "half"],
            &["serve", "--wrokers", "2"],
            &["serve", "--workers", "two"],
            &["serve", "--log-level", "warn"],
            &["submit", "--addr", "127.0.0.1:1", "--workload", "unet", "--max-candidate", "4"],
            &["submit", "--addr", "127.0.0.1:1", "--workload", "unet", "--threads", "two"],
            &["submit", "--addr", "127.0.0.1:1", "--workload", "unet", "--backend", "abacus"],
            &["submit", "--addr", "127.0.0.1:1", "--workload", "unet", "--paranoia", "all"],
            &["watch", "--addr", "127.0.0.1:1", "--di", "1"],
            &["watch", "--addr", "127.0.0.1:1", "--id", "seven"],
            &["top", "--addr", "127.0.0.1:1", "--iteration", "1"],
            &["top", "--addr", "127.0.0.1:1", "--iterations", "x"],
            &["metrics", "--adr", "127.0.0.1:1"],
            &["trace-check", "--trase", "/tmp/x.jsonl"],
            &["--backend-lits"],
            &["optimize", "--workload", "unet", "--budget-ms"],
            &["optimize", "workload", "unet"],
        ];
        for case in cases {
            assert!(matches!(run(&s(case)), Err(CliError::Usage(_))), "{case:?}");
        }
    }

    /// What `optimize` would run for `flags`, run.
    fn optimize_result(flags: &[&str]) -> OptimizeResult {
        let table = command("optimize").unwrap().0;
        let (_, _, search) = optimize_search(&Args::parse(&s(flags), table, SWITCHES).unwrap())
            .unwrap_or_else(|_| panic!("{flags:?} builds a search"));
        search.run().unwrap()
    }

    #[test]
    fn optimize_and_the_daemon_run_the_same_search_for_the_same_flags() {
        let flags = [
            "--workload", "unet", "--scale", "0.1", "--mode", "latency", "--limit", "0.9",
            "--objective", "planned", "--driver", "mcts", "--max-candidates", "60", "--threads", "1",
        ];
        let here = optimize_result(&flags);
        // `submit` sends exactly this spec; the daemon runs it with `run_job`.
        let spec = job_spec(&Args::parse(&s(&flags), command("submit").unwrap().0, SWITCHES).unwrap(), 1)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("magis_cli_same_search_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let there = magis_serve::job::run_job(&spec, &dir, Default::default(), None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            (here.best.eval.peak_bytes, here.best.eval.latency.to_bits()),
            (there.peak_bytes, there.latency.to_bits())
        );
        assert_eq!(
            (here.stats.evaluated as u64, here.stats.expanded as u64),
            (there.evaluated, there.expanded)
        );
        assert!(here.stats.evaluated >= 60, "the cap was the stop");
    }

    #[test]
    fn fresh_resumed_and_daemon_runs_of_one_spec_search_under_one_objective() {
        let dir = std::env::temp_dir().join(format!("magis_cli_one_objective_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join(magis_serve::journal::CKPT_FILE);
        // Latency mode under the planned objective: the limit is a
        // fraction of a peak, and the seed's two peaks differ.
        let flags = s(&[
            "--workload", "unet", "--scale", "0.1", "--mode", "latency", "--objective", "planned",
            "--max-candidates", "12", "--threads", "1", "--checkpoint", ckpt.to_str().unwrap(),
        ]);
        let table = command("optimize").unwrap().0;
        let (spec, backend, fresh) =
            optimize_search(&Args::parse(&flags, table, SWITCHES).unwrap()).unwrap();
        let Seed::Fresh(init) = &fresh.seed else { panic!("no --resume, no checkpoint") };
        assert_ne!(init.cost().0, init.eval.peak_bytes, "planned and liveness peaks differ");
        let objective = fresh.cfg.objective;
        assert_eq!(
            objective,
            magis_core::optimizer::Objective::MinLatency {
                mem_limit: (init.cost().0 as f64 * 0.8) as u64
            }
        );
        fresh.run().unwrap();

        let mut resume = flags.clone();
        resume.extend(s(&["--resume", ckpt.to_str().unwrap()]));
        let (_, _, resumed) =
            optimize_search(&Args::parse(&resume, table, SWITCHES).unwrap()).unwrap();
        assert!(matches!(resumed.seed, Seed::Resumed(_)));
        assert_eq!(resumed.cfg.objective, objective, "optimize --resume");
        // The daemon: a new job, and the same job found journaled with
        // a checkpoint after a crash.
        let new_job = Search::build(&spec, &backend, None).unwrap();
        assert_eq!(new_job.cfg.objective, objective, "run_job, fresh");
        let replayed = Search::build(&spec, &backend, Some(&ckpt)).unwrap();
        assert_eq!(replayed.cfg.objective, objective, "run_job, resumed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_committed_checkpoint_resumes_to_the_uninterrupted_result_through_both_doors() {
        // Written by `magis optimize --workload unet --scale 0.1
        // --max-candidates 40 --threads 1 --checkpoint F` in format v6.
        // Its v5 predecessor (`unet_cap40_v5.ckpt`, written by 65232b2
        // with `--checkpoint-frontier true`) resumed under 65232b2's
        // `magis optimize --resume F --max-candidates 120 --threads 1` to
        // the figures below, those of the uninterrupted 120-candidate
        // run, and this file must too.
        let fixture =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/unet_cap40_frontier.ckpt");
        let want = ((45_921_476, 0x3f61_4507_7ad3_fbe6), (139, 3));
        let figures = |r: &OptimizeResult| {
            ((r.best.eval.peak_bytes, r.best.eval.latency.to_bits()),
             (r.stats.evaluated, r.stats.expanded))
        };
        let here =
            optimize_result(&["--resume", fixture, "--max-candidates", "120", "--threads", "1"]);
        assert!(here.stats.resumed);
        assert_eq!(figures(&here), want);
        let uninterrupted = optimize_result(&[
            "--workload", "unet", "--scale", "0.1", "--max-candidates", "120", "--threads", "1",
        ]);
        assert_eq!(figures(&uninterrupted), want);
        // The daemon finds the same file in a job directory.
        let dir = std::env::temp_dir().join(format!("magis_cli_parent_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixture, dir.join(magis_serve::journal::CKPT_FILE)).unwrap();
        let spec = JobSpec {
            workload: Some("unet".into()),
            scale: 0.1,
            max_candidates: Some(120),
            ..JobSpec::default()
        };
        let there = magis_serve::job::run_job(&spec, &dir, Default::default(), None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(there.resumed);
        assert_eq!(
            ((there.peak_bytes, there.latency.to_bits()),
             (there.evaluated as usize, there.expanded as usize)),
            want
        );
    }

    #[test]
    fn a_retired_format_checkpoint_is_refused_by_name_through_both_doors() {
        let old = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/unet_cap40_v5.ckpt");
        let text = std::fs::read_to_string(old).unwrap();
        let header = format!("'{}'", text.lines().next().unwrap());
        let refused = |msg: &str| msg.contains("unsupported checkpoint version") && msg.contains(&header);
        let table = command("optimize").unwrap().0;
        let flags = s(&["--resume", old, "--max-candidates", "120", "--threads", "1"]);
        match optimize_search(&Args::parse(&flags, table, SWITCHES).unwrap()) {
            Err(CliError::Runtime(msg)) => assert!(refused(&msg), "{msg}"),
            Err(e) => panic!("optimize --resume: {e:?}"),
            Ok(_) => panic!("optimize --resume accepted a v5 checkpoint"),
        }
        // A job journaled with a v5 checkpoint by a daemon of the
        // format before fails on the first attempt, with the same words.
        let dir = std::env::temp_dir().join(format!("magis_cli_v5_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(old, dir.join(magis_serve::journal::CKPT_FILE)).unwrap();
        let spec = JobSpec { workload: Some("unet".into()), scale: 0.1, ..JobSpec::default() };
        let there = magis_serve::job::run_job(&spec, &dir, Default::default(), None);
        let _ = std::fs::remove_dir_all(&dir);
        match there {
            Err(msg) => assert!(refused(&msg), "{msg}"),
            Ok(_) => panic!("run_job resumed a v5 checkpoint"),
        }
    }

    #[test]
    fn inspect_runs_small() {
        run(&s(&["inspect", "--workload", "unet", "--scale", "0.1"])).unwrap();
    }

    #[test]
    fn backend_list_runs() {
        run(&s(&["--backend-list"])).unwrap();
        // Valueless flag works in any position, even mid-command.
        run(&s(&["inspect", "--backend-list"])).unwrap();
    }

    #[test]
    fn backend_selection_and_errors() {
        run(&s(&["inspect", "--workload", "unet", "--scale", "0.1", "--backend", "a100"]))
            .unwrap();
        run(&s(&[
            "baseline", "--workload", "bert", "--system", "tvm", "--scale", "0.1",
            "--backend", "mobile",
        ]))
        .unwrap();
        assert!(matches!(
            run(&s(&["inspect", "--workload", "unet", "--backend", "cray-1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["inspect", "--workload", "unet", "--calibrate", "/nonexistent.jsonl"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn calibrate_flag_round_trips() {
        use magis_sim::backend::OpClass;
        let reg = BackendRegistry::builtin();
        let tpu = reg.get("tpu").unwrap();
        let samples = magis_sim::calibrate::synthesize_trace(
            tpu,
            &[
                (OpClass::MatMul, 4.0e12, 3.0e7),
                (OpClass::MatMul, 8.0e12, 6.0e7),
                (OpClass::Conv, 2.0e12, 5.0e7),
                (OpClass::Conv, 6.0e12, 1.5e8),
                (OpClass::Other, 1.0e7, 4.0e8),
                (OpClass::Other, 2.0e7, 8.0e8),
            ],
        );
        let path = "/tmp/magis_cli_calibrate_test.jsonl";
        std::fs::write(path, magis_sim::calibrate::render_trace(&samples)).unwrap();
        // Calibrating the tpu profile against its own synthetic trace
        // must parse, fit, and run end-to-end.
        run(&s(&[
            "inspect", "--workload", "unet", "--scale", "0.1", "--backend", "tpu",
            "--calibrate", path,
        ]))
        .unwrap();
        let _ = std::fs::remove_file(path);
        // A defective trace is a runtime error, not a panic.
        let bad = "/tmp/magis_cli_calibrate_bad.jsonl";
        std::fs::write(bad, "{\"class\":\"warp-drive\",\"flops\":1,\"bytes\":1,\"latency_s\":1}\n")
            .unwrap();
        assert!(matches!(
            run(&s(&["inspect", "--workload", "unet", "--calibrate", bad])),
            Err(CliError::Runtime(_))
        ));
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn baseline_runs_small() {
        run(&s(&[
            "baseline",
            "--workload",
            "bert",
            "--system",
            "dtr",
            "--scale",
            "0.1",
            "--budget-ratio",
            "0.8",
        ]))
        .unwrap();
    }

    #[test]
    fn optimize_checkpoint_then_resume() {
        let ckpt = "/tmp/magis_cli_ckpt_test.ckpt";
        let _ = std::fs::remove_file(ckpt);
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "600",
            "--threads", "2", "--checkpoint", ckpt, "--checkpoint-every", "8",
        ]))
        .unwrap();
        assert!(Path::new(ckpt).exists(), "final checkpoint written");
        run(&s(&["optimize", "--resume", ckpt, "--budget-ms", "200", "--threads", "2"]))
            .unwrap();
        let _ = std::fs::remove_file(ckpt);
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--paranoia", "bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--resume", "/nonexistent/path.ckpt"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn optimize_checkpoints_at_the_cadence_of_the_job_it_describes() {
        use magis_serve::protocol::DEFAULT_CHECKPOINT_EVERY;
        let table = command("optimize").unwrap().0;
        let cases: [(&[&str], usize); 2] =
            [(&[], DEFAULT_CHECKPOINT_EVERY), (&["--checkpoint-every", "5"], 5)];
        for (extra, want) in cases {
            let mut flags = s(&[
                "--workload", "unet", "--scale", "0.1", "--threads", "1",
                "--checkpoint", "/nonexistent/never-written.ckpt",
            ]);
            flags.extend(s(extra));
            let (spec, _, search) =
                optimize_search(&Args::parse(&flags, table, SWITCHES).unwrap()).unwrap();
            let every = search.cfg.checkpoint.as_ref().map(|p| p.every_evals);
            assert_eq!((every, spec.checkpoint_every), (Some(want), want), "{extra:?}");
        }
        assert!(USAGE.contains(&format!("(default {DEFAULT_CHECKPOINT_EVERY})")));
        assert_eq!(CheckpointPolicy::new("p").every_evals, DEFAULT_CHECKPOINT_EVERY);
    }

    #[test]
    fn optimize_with_observability_outputs() {
        let trace = "/tmp/magis_cli_trace_test.jsonl";
        let metrics = "/tmp/magis_cli_metrics_test.txt";
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "400",
            "--threads", "2", "--trace-out", trace, "--metrics-out", metrics,
        ]))
        .unwrap();
        run(&s(&["trace-check", "--trace", trace])).unwrap();
        let m = std::fs::read_to_string(metrics).unwrap();
        assert!(m.contains("magis_core_expansions"), "metrics snapshot has core counters");
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
        assert!(matches!(
            run(&s(&["trace-check", "--trace", "/nonexistent.jsonl"])),
            Err(CliError::Runtime(_))
        ));
        // `--log-level` is an unknown flag: a usage error, exit 2.
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--log-level", "info"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn optimize_planned_objective() {
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "400",
            "--threads", "2", "--objective", "planned", "--paranoia", "all",
        ]))
        .unwrap();
    }

    #[test]
    fn optimize_full_eval_mode() {
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "300",
            "--threads", "2", "--eval", "full", "--eval-cache", "0",
        ]))
        .unwrap();
    }

    #[test]
    fn one_wall_clock_limit_stops_every_front_door_with_deadline() {
        use magis_core::optimizer::{optimize, OptimizerConfig, StopReason};
        // UNet at 0.15 cannot run its queue dry in 100 ms, so each run
        // ends on the clock and returns its best-so-far incumbent.
        let cfg =
            OptimizerConfig::default().with_budget(Duration::from_millis(100)).with_threads(1);
        let library = optimize(Workload::UNet.build(0.15).graph, &cfg).stats.stop_reason;
        let flag = optimize_result(&[
            "--workload", "unet", "--scale", "0.15", "--budget-ms", "100", "--threads", "1",
        ])
        .stats
        .stop_reason;
        for reason in [library, flag] {
            assert_eq!(reason, StopReason::Deadline);
            assert_eq!(reason.to_string(), "deadline");
            assert!(!reason.is_deterministic());
        }
        let spec = JobSpec {
            workload: Some("unet".into()),
            scale: 0.15,
            budget_ms: 100,
            ..JobSpec::default()
        };
        let dir = std::env::temp_dir().join(format!("magis_cli_deadline_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = magis_serve::job::run_job(&spec, &dir, Default::default(), None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((job.stop_reason.as_str(), job.deterministic), ("deadline", false));
    }

    #[test]
    fn optimize_candidate_cap() {
        // The candidate cap is the deterministic stopping knob.
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--threads", "2",
            "--max-candidates", "5",
        ]))
        .unwrap();
        assert!(matches!(
            run(&s(&["submit", "--workload", "unet"])),
            Err(CliError::Usage(_)),
        ), "submit without an address is a usage error");
    }

    #[test]
    fn monitoring_usage_errors() {
        assert!(
            matches!(run(&s(&["watch", "--addr", "127.0.0.1:1"])), Err(CliError::Usage(_))),
            "watch needs --id"
        );
        assert!(
            matches!(run(&s(&["metrics"])), Err(CliError::Usage(_))),
            "metrics needs an address"
        );
        assert!(matches!(run(&s(&["top"])), Err(CliError::Usage(_))), "top needs an address");
        assert!(
            matches!(
                run(&s(&["trace-check", "--trace", "/tmp/x.jsonl", "--expect-job", "one"])),
                Err(CliError::Usage(_))
            ),
            "--expect-job must be an integer"
        );
    }

    #[test]
    fn prom_value_reads_samples() {
        let text = "# HELP x\nmagis_serve_jobs_completed 3\nmagis_serve_job_seconds_sum 1.5\n";
        assert_eq!(prom_value(text, "magis_serve_jobs_completed"), Some(3.0));
        assert_eq!(prom_value(text, "magis_serve_job_seconds_sum"), Some(1.5));
        assert_eq!(prom_value(text, "magis_serve_jobs_failed"), None);
    }

    #[test]
    fn serve_monitoring_end_to_end() {
        let dir = std::env::temp_dir().join(format!("magis_cli_monitor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = magis_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: dir.clone(),
            workers: 1,
            result_cache: 0,
            ..Default::default()
        };
        let server = magis_serve::Server::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let t = std::thread::spawn(move || server.run().unwrap());

        let mut c = magis_serve::Client::connect(&addr).unwrap();
        let spec = magis_serve::JobSpec {
            workload: Some("unet".into()),
            scale: 0.1,
            budget_ms: 400,
            threads: 1,
            ..Default::default()
        };
        let id = c.submit_nowait(&spec).unwrap();
        // Mid-flight (or post-hoc) attach by id, then the scrape and
        // summary surfaces, then trace correlation on the job's
        // journaled trace.
        run(&s(&["watch", "--addr", &addr, "--id", &id.to_string()])).unwrap();
        run(&s(&["metrics", "--addr", &addr])).unwrap();
        run(&s(&["top", "--addr", &addr, "--iterations", "1"])).unwrap();
        let trace = dir.join(format!("jobs/job-{id}")).join("trace.jsonl");
        run(&s(&[
            "trace-check",
            "--trace",
            trace.to_str().unwrap(),
            "--expect-job",
            &id.to_string(),
        ]))
        .unwrap();
        handle.shutdown();
        t.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn optimize_memory_small_budget() {
        run(&s(&[
            "optimize",
            "--workload",
            "unet",
            "--scale",
            "0.1",
            "--budget-ms",
            "400",
            "--threads",
            "2",
            "--emit",
            "text",
            "--out",
            "/tmp/magis_cli_test.txt",
        ]))
        .unwrap();
        let t = std::fs::read_to_string("/tmp/magis_cli_test.txt").unwrap();
        assert!(t.contains("conv2d"));
    }

    #[test]
    fn emit_py_writes_the_exported_program() {
        let out = std::env::temp_dir().join(format!("magis_cli_emit_{}.py", std::process::id()));
        run(&s(&[
            "optimize",
            "--workload",
            "unet",
            "--scale",
            "0.1",
            "--max-candidates",
            "40",
            "--threads",
            "1",
            "--emit",
            "py",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let program = std::fs::read_to_string(&out).unwrap();
        assert!(program.contains("def run("), "{program}");
        let _ = std::fs::remove_file(&out);
    }
}
