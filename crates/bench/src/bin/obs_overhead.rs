//! Observability overhead guard: instrumentation must be close to free
//! when tracing is disabled.
//!
//! Micro: ns/op of the disabled `span!` fast path (one atomic load).
//! Macro: wall time of an identical eval-capped search with *all*
//! observability suppressed (the `magis_obs::gate` baseline) vs. the
//! normal path (metrics active, tracing disabled). With `--check`, the
//! process exits non-zero when the macro overhead exceeds 5% of the
//! baseline plus a noise floor — the CI budget from DESIGN.md §6.

use magis_bench::{print_table, ExpOpts};
use magis_core::budget::CancelToken;
use magis_core::optimizer::{optimize, Objective, OptimizerConfig, ProgressSink, ProgressSnapshot};
use magis_core::state::{EvalContext, MState};
use magis_models::Workload;
use magis_serve::job::run_job;
use magis_serve::JobSpec;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Noise floor added to the 5% budget: container schedulers jitter
/// short runs by tens of milliseconds regardless of code under test.
const FLOOR: Duration = Duration::from_millis(150);
const MAX_EVALS: usize = 160;

fn capped_search(g: &magis_graph::graph::Graph) -> Duration {
    let ctx = EvalContext::default();
    let init = MState::initial(g.clone(), &ctx);
    let cfg = OptimizerConfig::new(Objective::MinMemory { lat_limit: init.eval.latency * 1.10 })
        .with_budget(Duration::from_secs(120))
        .with_max_evals(MAX_EVALS)
        .with_threads(1);
    let t0 = Instant::now();
    let res = optimize(g.clone(), &cfg);
    assert!(res.stats.evaluated > 0, "search did no work");
    t0.elapsed()
}

/// What `magis-serve` hangs on a worker thread: one mutex-guarded
/// latest-snapshot cell, overwritten per expansion boundary.
struct LastSnap(Mutex<(u64, Option<ProgressSnapshot>)>);

impl ProgressSink for LastSnap {
    fn report(&self, snap: &ProgressSnapshot) {
        let mut g = self.0.lock().unwrap();
        g.0 += 1;
        g.1 = Some(snap.clone());
    }
}

/// One eval-capped service job. `instrumented` reproduces the daemon's
/// per-job harness — a scoped JSONL trace sink tagged `job = 0` plus a
/// progress sink — while the baseline suppresses all observability.
fn serve_job(scale: f64, instrumented: bool) -> Duration {
    let spec = JobSpec {
        workload: Some("unet".into()),
        scale,
        max_candidates: Some(MAX_EVALS),
        budget_ms: 120_000,
        threads: 1,
        ..JobSpec::default()
    };
    // A fresh job dir per run: a survived checkpoint would turn the
    // next sample into a (much shorter) resume.
    let dir = std::env::temp_dir()
        .join(format!("magis_obs_overhead_{}_{}", std::process::id(), instrumented as u8));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("job dir");
    let t0 = Instant::now();
    let res = if instrumented {
        let sink = magis_obs::trace::JsonlSink::append(&dir.join("trace.jsonl"))
            .map(Arc::new)
            .expect("trace sink");
        let progress: Arc<dyn ProgressSink> = Arc::new(LastSnap(Mutex::new((0, None))));
        let _g = magis_obs::trace::scoped(
            sink,
            vec![("job".to_string(), magis_obs::trace::FieldValue::U64(0))],
        );
        run_job(&spec, &dir, CancelToken::new(), Some(progress))
    } else {
        magis_obs::gate::suppress(|| run_job(&spec, &dir, CancelToken::new(), None))
    };
    let elapsed = t0.elapsed();
    assert!(res.is_ok(), "serve job failed: {res:?}");
    let _ = std::fs::remove_dir_all(&dir);
    elapsed
}

fn main() {
    let (opts, args) = ExpOpts::from_args_with(&["check"]);
    let check = args.switch("check");

    // Micro: the disabled span fast path.
    let n = 5_000_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        let _s = magis_obs::span!("magis_bench", "noop", i = i);
    }
    let span_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    // Macro: interleave suppressed/normal runs so drift hits both; the
    // min of each mode is the least-perturbed sample.
    let tg = Workload::UNet.build(opts.scale.min(0.2));
    let _ = capped_search(&tg.graph); // warm-up (allocator, caches)
    let mut base = Duration::MAX;
    let mut instr = Duration::MAX;
    for _ in 0..3 {
        base = base.min(magis_obs::gate::suppress(|| capped_search(&tg.graph)));
        instr = instr.min(capped_search(&tg.graph));
    }
    let overhead = instr.saturating_sub(base);
    let budget = base.mul_f64(0.05) + FLOOR;
    let pct = 100.0 * overhead.as_secs_f64() / base.as_secs_f64();

    // Serve: the daemon's full per-job harness (scoped JSONL trace +
    // progress sink) vs. the same job with observability suppressed.
    // Same interleave-and-take-min sampling, same budget formula.
    let scale = opts.scale.min(0.2);
    let _ = serve_job(scale, false); // warm-up
    let mut serve_base = Duration::MAX;
    let mut serve_instr = Duration::MAX;
    for _ in 0..3 {
        serve_base = serve_base.min(serve_job(scale, false));
        serve_instr = serve_instr.min(serve_job(scale, true));
    }
    let serve_overhead = serve_instr.saturating_sub(serve_base);
    let serve_budget = serve_base.mul_f64(0.05) + FLOOR;
    let serve_pct = 100.0 * serve_overhead.as_secs_f64() / serve_base.as_secs_f64();

    let rows = vec![
        vec!["disabled span! (ns/op)".into(), format!("{span_ns:.1}")],
        vec!["suppressed search (s)".into(), format!("{:.3}", base.as_secs_f64())],
        vec!["instrumented search (s)".into(), format!("{:.3}", instr.as_secs_f64())],
        vec!["overhead".into(), format!("{:.3} s ({pct:.1}%)", overhead.as_secs_f64())],
        vec!["budget (5% + floor)".into(), format!("{:.3} s", budget.as_secs_f64())],
        vec!["suppressed serve job (s)".into(), format!("{:.3}", serve_base.as_secs_f64())],
        vec!["traced serve job (s)".into(), format!("{:.3}", serve_instr.as_secs_f64())],
        vec![
            "serve overhead".into(),
            format!("{:.3} s ({serve_pct:.1}%)", serve_overhead.as_secs_f64()),
        ],
        vec!["serve budget (5% + floor)".into(), format!("{:.3} s", serve_budget.as_secs_f64())],
    ];
    let header = ["measure", "value"];
    print_table(&format!("observability overhead ({MAX_EVALS} evals, 1 thread)"), &header, &rows);
    opts.write_csv("obs_overhead.csv", &header, &rows);

    if check && overhead > budget {
        eprintln!(
            "FAIL: disabled-observability overhead {:.3} s exceeds budget {:.3} s",
            overhead.as_secs_f64(),
            budget.as_secs_f64()
        );
        std::process::exit(1);
    }
    if check && serve_overhead > serve_budget {
        eprintln!(
            "FAIL: serve-harness overhead {:.3} s exceeds budget {:.3} s",
            serve_overhead.as_secs_f64(),
            serve_budget.as_secs_f64()
        );
        std::process::exit(1);
    }
}
