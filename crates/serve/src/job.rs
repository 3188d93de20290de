//! From a job spec to a search, and running one job: spec → search →
//! bit-exact result.
//!
//! [`Search::build`] is the one place a [`JobSpec`] becomes what
//! `magis_core::optimizer` runs — the seed (a fresh evaluation or a
//! checkpoint), the objective relative to the seed's cost, and the
//! [`OptimizerConfig`]. `magis optimize` and [`run_job`] both call it
//! and then add only what is their own. For the daemon that is the
//! service's supervision hooks: a [`CancelToken`] for cooperative
//! cancellation and heartbeat, a progress sink, and a
//! [`CheckpointPolicy`] writing into the job's journal directory. A
//! checkpoint already present in the directory means the previous
//! daemon died mid-job: the run resumes from it trajectory-exactly
//! instead of starting over.

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

/// Resolves a backend name (unset = the default profile) against the
/// built-in registry.
pub fn backend_for(name: Option<&str>) -> Result<Backend, String> {
    let reg = BackendRegistry::builtin();
    let name = name.unwrap_or(DEFAULT_BACKEND);
    reg.get(name)
        .cloned()
        .ok_or_else(|| format!("unknown backend '{name}' (available: {})", reg.names().join(", ")))
}

/// Resolves a strategy name (unset = the optimizer's default).
pub fn driver_for(name: Option<&str>) -> Result<DriverKind, String> {
    name.map_or(Ok(DriverKind::default()), |n| {
        DriverKind::parse(n).ok_or_else(|| format!("unknown strategy '{n}' (expected greedy|mcts)"))
    })
}

/// The mode's objective, its limit stated against `seed_cost` (see
/// [`Objective::relative`]).
pub fn objective_for(spec: &JobSpec, seed_cost: (u64, f64)) -> Result<Objective, String> {
    Objective::relative(&spec.mode, spec.limit, seed_cost)
        .ok_or_else(|| format!("unknown mode '{}' (expected memory|latency)", spec.mode))
}

/// Where a search starts.
#[derive(Debug)]
pub enum Seed {
    /// The spec's graph, evaluated under the search's own context.
    Fresh(MState),
    /// A checkpoint of an earlier run of the same spec.
    Resumed(SearchCheckpoint),
}

/// One search, ready to run: what a [`JobSpec`] asks for, in the terms
/// `magis_core::optimizer` takes it.
#[derive(Debug)]
pub struct Search {
    /// Where the search starts.
    pub seed: Seed,
    /// What the spec asks for. Callers add what is their own
    /// (supervision hooks, checkpoint policy, invariant level) before
    /// [`Self::run`].
    pub cfg: OptimizerConfig,
}

impl Search {
    /// Builds the search `spec` describes on `backend` (the spec's
    /// [`backend_for`], possibly refit by the caller): continuing the
    /// checkpoint at `resume_from`, or from the spec's own graph
    /// evaluated afresh. The mode's limit is stated against the seed's
    /// [`MState::cost`] — the figure the search compares with it, and
    /// the `seed_cost` a checkpoint carries — so a fresh run, its
    /// resumption and the daemon's run of one spec search under
    /// bit-equal objectives.
    pub fn build(
        spec: &JobSpec,
        backend: &Backend,
        resume_from: Option<&Path>,
    ) -> Result<Search, String> {
        let mut ctx = EvalContext::for_backend(backend);
        ctx.mem_objective = spec.objective;
        let seed = match resume_from {
            // The checkpoint is driver-tagged and restores its own
            // engine, whatever strategy the spec names.
            Some(path) => Seed::Resumed(
                SearchCheckpoint::read_from(path).map_err(|e| format!("loading checkpoint: {e}"))?,
            ),
            None => {
                let graph = match (&spec.workload, &spec.graph) {
                    (Some(name), _) => workload_by_name(name)?.build(spec.scale).graph,
                    (None, Some(record)) => magis_graph::io::from_record(record)
                        .map_err(|e| format!("parsing graph record: {e}"))?,
                    (None, None) => return Err("a job needs either 'workload' or 'graph'".into()),
                };
                Seed::Fresh(
                    MState::try_initial(graph, &ctx)
                        .map_err(|e| format!("evaluating the seed graph: {e}"))?,
                )
            }
        };
        let seed_cost = match &seed {
            Seed::Fresh(init) => init.cost(),
            Seed::Resumed(ckpt) => ckpt.seed_cost,
        };
        let objective = objective_for(spec, seed_cost)?;
        let mut budget = SearchBudget::UNLIMITED;
        if let Some(ms) = spec.wall_limit_ms {
            budget = budget.with_wall_limit(Duration::from_millis(ms));
        }
        if let Some(n) = spec.max_candidates {
            budget = budget.with_candidate_limit(n);
        }
        let mut cfg = OptimizerConfig::new(objective)
            .with_budget(Duration::from_millis(spec.budget_ms))
            .with_threads(spec.threads)
            .with_driver(driver_for(spec.strategy.as_deref())?)
            .with_search_budget(budget);
        if let Some(cap) = spec.eval_cache {
            cfg = cfg.with_eval_cache(cap);
        }
        cfg.ctx = ctx;
        Ok(Search { seed, cfg })
    }

    /// Runs the search to its stop reason.
    pub fn run(self) -> Result<OptimizeResult, String> {
        match self.seed {
            Seed::Fresh(init) => Ok(optimize_from(init, &self.cfg)),
            Seed::Resumed(ckpt) => {
                optimizer::resume(&ckpt, &self.cfg).map_err(|e| format!("resuming: {e}"))
            }
        }
    }
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
/// `cancelled` stop reason and a freshly written checkpoint.
/// When `progress` is set, the search reports a deterministic
/// [`magis_core::optimizer::ProgressSnapshot`] at every expansion
/// boundary (the daemon fans these out to `watch` subscribers).
pub fn run_job(
    spec: &JobSpec,
    dir: &Path,
    token: CancelToken,
    progress: Option<Arc<dyn ProgressSink>>,
) -> Result<JobResult, String> {
    let ckpt_path = dir.join(CKPT_FILE);
    // Crash recovery: a checkpoint in the job directory continues the
    // interrupted search exactly where it left it.
    let resume_from = ckpt_path.exists().then_some(ckpt_path.as_path());
    let backend = backend_for(spec.backend.as_deref())?;
    let mut search = Search::build(spec, &backend, resume_from)?;
    search.cfg = search
        .cfg
        .with_cancel(token)
        .with_checkpoint(CheckpointPolicy::new(&ckpt_path).with_every(spec.checkpoint_every));
    if let Some(sink) = progress {
        search.cfg = search.cfg.with_progress(sink);
    }
    Ok(result_from(&search.run()?))
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
    fn a_spec_naming_something_unknown_does_not_validate() {
        let ok = JobSpec { workload: Some("unet".into()), ..JobSpec::default() };
        assert_eq!(ok.validate(), Ok(()));
        for (bad, what) in [
            (JobSpec { mode: "vibes".into(), ..ok.clone() }, "unknown mode"),
            (JobSpec { workload: Some("hal9000".into()), ..ok.clone() }, "unknown workload"),
            (JobSpec { backend: Some("abacus".into()), ..ok.clone() }, "unknown backend"),
            (JobSpec { strategy: Some("quantum".into()), ..ok.clone() }, "unknown strategy"),
            (JobSpec { workload: None, graph: Some("garbage".into()), ..ok.clone() }, "graph record"),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains(what), "{err}");
            let wire = magis_obs::json::Json::parse(&bad.to_json().render()).unwrap();
            assert_eq!(JobSpec::from_json(&wire), Err(err), "the boundary runs the same check");
        }
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
