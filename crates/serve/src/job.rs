//! Running one job: spec → search → bit-exact result.
//!
//! Jobs run `magis_core::optimizer` with the service's supervision
//! hooks attached: a [`SearchBudget`] carrying the deadline and
//! candidate cap, a [`CancelToken`] for cooperative cancellation and
//! heartbeat, and a frontier [`CheckpointPolicy`] writing into the
//! job's journal directory. A checkpoint already present in the
//! directory means the previous daemon died mid-job: the run resumes
//! from it trajectory-exactly instead of starting over.

use crate::journal::CKPT_FILE;
use crate::protocol::{fnv1a, JobResult, JobSpec};
use magis_core::budget::{CancelToken, SearchBudget};
use magis_core::checkpoint::SearchCheckpoint;
use magis_core::driver::DriverKind;
use magis_core::optimizer::{
    self, optimize_from, CheckpointPolicy, Objective, OptimizeResult, OptimizerConfig,
    ProgressSink,
};
use magis_core::state::{EvalContext, MState};
use magis_models::Workload;
use magis_sim::{Backend, BackendRegistry, DEFAULT_BACKEND};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Resolves a workload name through the table the CLI uses
/// ([`Workload::parse`]).
pub fn workload_by_name(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload '{}'", name.to_lowercase()))
}

fn backend_for(spec: &JobSpec) -> Result<Backend, String> {
    let reg = BackendRegistry::builtin();
    let name = spec.backend.as_deref().unwrap_or(DEFAULT_BACKEND);
    reg.get(name)
        .cloned()
        .ok_or_else(|| format!("unknown backend '{name}' (available: {})", reg.names().join(", ")))
}

fn objective_for(spec: &JobSpec, seed_cost: (u64, f64)) -> Result<Objective, String> {
    match spec.mode.as_str() {
        "memory" => Ok(Objective::MinMemory {
            lat_limit: seed_cost.1 * spec.limit.unwrap_or(1.10),
        }),
        "latency" => Ok(Objective::MinLatency {
            mem_limit: (seed_cost.0 as f64 * spec.limit.unwrap_or(0.8)) as u64,
        }),
        other => Err(format!("unknown mode '{other}'")),
    }
}

fn config_for(
    spec: &JobSpec,
    objective: Objective,
    backend: &Backend,
    dir: &Path,
    token: CancelToken,
    progress: Option<Arc<dyn ProgressSink>>,
) -> OptimizerConfig {
    let mut budget = SearchBudget::UNLIMITED;
    if let Some(ms) = spec.wall_limit_ms {
        budget = budget.with_wall_limit(Duration::from_millis(ms));
    }
    if let Some(n) = spec.max_candidates {
        budget = budget.with_candidate_limit(n);
    }
    // The strategy string was validated at the protocol boundary
    // (`JobSpec::from_json` rejects unknown names); unset means the
    // optimizer default. Crash-recovery resumes ignore this: the
    // checkpoint is driver-tagged and restores its own engine.
    let driver = spec
        .strategy
        .as_deref()
        .and_then(DriverKind::parse)
        .unwrap_or_default();
    let mut cfg = OptimizerConfig::new(objective)
        .with_budget(Duration::from_millis(spec.budget_ms))
        .with_threads(spec.threads)
        .with_driver(driver)
        .with_search_budget(budget)
        .with_cancel(token)
        .with_checkpoint(
            CheckpointPolicy::new(dir.join(CKPT_FILE))
                .with_every(spec.checkpoint_every)
                .with_frontier(true),
        );
    if let Some(cap) = spec.eval_cache {
        cfg = cfg.with_eval_cache(cap);
    }
    if let Some(sink) = progress {
        cfg = cfg.with_progress(sink);
    }
    cfg.ctx = context_for(spec, backend);
    cfg
}

/// The evaluation context of a job's search — and of the seed
/// evaluation its relative objective is derived from.
fn context_for(spec: &JobSpec, backend: &Backend) -> EvalContext {
    let mut ctx = EvalContext::for_backend(backend);
    ctx.mem_objective = spec.objective;
    ctx
}

/// Digest of the deterministic timeline fields — identical for two
/// runs of the same deterministic job regardless of thread count or
/// wall-clock speed (the non-deterministic `elapsed_us` is excluded).
fn trajectory_digest(res: &OptimizeResult) -> u64 {
    let mut buf = Vec::new();
    for p in &res.timeline.points {
        buf.extend_from_slice(&p.expansion.to_le_bytes());
        buf.extend_from_slice(&p.evaluated.to_le_bytes());
        buf.extend_from_slice(&p.best_peak_bytes.to_le_bytes());
        buf.extend_from_slice(&p.best_latency.to_bits().to_le_bytes());
        buf.extend_from_slice(&p.frontier_size.to_le_bytes());
        buf.extend_from_slice(&p.pareto_size.to_le_bytes());
    }
    fnv1a(&buf)
}

fn result_from(res: &OptimizeResult) -> JobResult {
    JobResult {
        peak_bytes: res.best.eval.peak_bytes,
        latency: res.best.eval.latency,
        planned_peak_bytes: res.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
        stop_reason: res.stats.stop_reason.to_string(),
        deterministic: res.stats.stop_reason.is_deterministic(),
        evaluated: res.stats.evaluated as u64,
        expanded: res.stats.expanded as u64,
        resumed: res.stats.resumed,
        pareto: res.pareto.front(),
        trajectory_digest: trajectory_digest(res),
        timeline: res.timeline.to_json(),
    }
}

/// Runs (or resumes) the job journaled in `dir`. Blocking; the search
/// polls `token` cooperatively, so a cancel returns promptly with a
/// `cancelled` stop reason and a freshly written frontier checkpoint.
/// When `progress` is set, the search reports a deterministic
/// [`magis_core::optimizer::ProgressSnapshot`] at every expansion
/// boundary (the daemon fans these out to `watch` subscribers).
pub fn run_job(
    spec: &JobSpec,
    dir: &Path,
    token: CancelToken,
    progress: Option<Arc<dyn ProgressSink>>,
) -> Result<JobResult, String> {
    let backend = backend_for(spec)?;
    let ckpt_path = dir.join(CKPT_FILE);

    if ckpt_path.exists() {
        // Crash recovery: continue the interrupted search exactly
        // where its last checkpoint left it.
        let ckpt = SearchCheckpoint::read_from(&ckpt_path)
            .map_err(|e| format!("loading checkpoint: {e}"))?;
        let objective = objective_for(spec, ckpt.seed_cost)?;
        let cfg = config_for(spec, objective, &backend, dir, token, progress);
        let res = optimizer::resume(&ckpt, &cfg).map_err(|e| format!("resuming: {e}"))?;
        return Ok(result_from(&res));
    }

    let graph = match (&spec.workload, &spec.graph) {
        (Some(name), _) => workload_by_name(name)?.build(spec.scale).graph,
        (None, Some(record)) => magis_graph::io::from_record(record)
            .map_err(|e| format!("parsing graph record: {e}"))?,
        (None, None) => return Err("a job needs either 'workload' or 'graph'".into()),
    };
    let init = MState::try_initial(graph, &context_for(spec, &backend))
        .map_err(|e| format!("evaluating the seed graph: {e}"))?;
    let objective = objective_for(spec, init.cost())?;
    let cfg = config_for(spec, objective, &backend, dir, token, progress);
    Ok(result_from(&optimize_from(init, &cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_resolve() {
        assert!(workload_by_name("unet").is_ok());
        assert!(workload_by_name("UNet").is_ok());
        assert!(workload_by_name("hal9000").is_err());
    }

    #[test]
    fn objective_requires_known_mode() {
        let mut s = JobSpec { workload: Some("unet".into()), ..JobSpec::default() };
        s.mode = "vibes".into();
        assert!(objective_for(&s, (100, 1.0)).is_err());
        s.mode = "latency".into();
        assert!(matches!(
            objective_for(&s, (100, 1.0)).unwrap(),
            Objective::MinLatency { mem_limit: 80 }
        ));
    }

    #[test]
    fn unknown_backend_is_an_error_not_a_panic() {
        let spec = JobSpec {
            workload: Some("unet".into()),
            backend: Some("abacus".into()),
            ..JobSpec::default()
        };
        let dir = std::env::temp_dir();
        let err = run_job(&spec, &dir, CancelToken::new(), None).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
    }
}
