//! Crash-safe job journal: one directory per job under
//! `<state_dir>/jobs/<id>/`.
//!
//! The journal is the daemon's only persistent state, and it is
//! designed so that a `kill -9` at any instant leaves it replayable:
//!
//! * `spec.json` — written atomically (temp + rename) at admission,
//!   before the submit is acknowledged. Its existence *is* the journal
//!   entry.
//! * `search.ckpt` — the search's versioned frontier checkpoint,
//!   written by `magis-core`'s own atomic checkpoint machinery every
//!   `checkpoint_every` evaluations.
//! * `result.json` / `failed.json` — written atomically at terminal
//!   states. Their existence marks the entry settled.
//!
//! On restart, [`replay`] scans the directory: settled jobs are
//! reported as history; a job with a spec but no terminal marker was
//! in flight when the daemon died and is re-enqueued — `magis-core`'s
//! trajectory-exact resume then continues it from `search.ckpt` as if
//! the crash never happened.

use crate::protocol::{JobResult, JobSpec};
use magis_obs::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the per-job checkpoint file inside a job directory.
pub const CKPT_FILE: &str = "search.ckpt";
/// Terminal success marker.
pub const RESULT_FILE: &str = "result.json";
/// Terminal failure marker.
pub const FAILED_FILE: &str = "failed.json";
/// Journal entry (the job spec).
pub const SPEC_FILE: &str = "spec.json";

/// Writes `text` to `path` atomically: temp file in the same
/// directory, then rename. A crash mid-write leaves either the old
/// file or none — never a torn one.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// The jobs root under a state directory.
pub fn jobs_root(state_dir: &Path) -> PathBuf {
    state_dir.join("jobs")
}

/// The directory for one job id.
pub fn job_dir(state_dir: &Path, id: u64) -> PathBuf {
    jobs_root(state_dir).join(format!("job-{id}"))
}

/// Creates the job directory and journals the spec. Must complete
/// before the submit is acknowledged — an acknowledged job is always
/// recoverable.
pub fn record_admission(state_dir: &Path, id: u64, spec: &JobSpec) -> io::Result<PathBuf> {
    let dir = job_dir(state_dir, id);
    fs::create_dir_all(&dir)?;
    write_atomic(&dir.join(SPEC_FILE), &(spec.to_json().render() + "\n"))?;
    Ok(dir)
}

/// Journals a terminal success.
pub fn record_result(dir: &Path, result: &JobResult) -> io::Result<()> {
    write_atomic(&dir.join(RESULT_FILE), &(result.to_json().render() + "\n"))
}

/// Journals a terminal failure (a failed run is never retried).
pub fn record_failure(dir: &Path, error: &str) -> io::Result<()> {
    let j = Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".into(), Json::Str(error.to_string())),
    ]);
    write_atomic(&dir.join(FAILED_FILE), &(j.render() + "\n"))
}

/// One entry recovered from the journal.
#[derive(Debug)]
pub struct ReplayedJob {
    /// The job's original id (ids continue monotonically across
    /// restarts).
    pub id: u64,
    /// The journaled spec.
    pub spec: JobSpec,
    /// The job's directory (holding any checkpoint to resume from).
    pub dir: PathBuf,
    /// Terminal result if the job had already settled, `None` if it
    /// was in flight and must be re-enqueued.
    pub settled: Option<Result<JobResult, String>>,
}

/// Scans the journal. Returns every decodable entry plus the highest
/// job id seen (so the id counter survives restarts). Undecodable
/// entries are skipped — a corrupt journal entry must not prevent the
/// daemon from starting.
pub fn replay(state_dir: &Path) -> (Vec<ReplayedJob>, u64) {
    let mut out = Vec::new();
    let mut max_id = 0u64;
    let root = jobs_root(state_dir);
    let Ok(entries) = fs::read_dir(&root) else { return (out, 0) };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Some(id) = dir
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        max_id = max_id.max(id);
        let Ok(spec_text) = fs::read_to_string(dir.join(SPEC_FILE)) else { continue };
        let Ok(spec_json) = Json::parse(&spec_text) else { continue };
        let Ok(spec) = JobSpec::from_json(&spec_json) else { continue };
        let settled = if let Ok(text) = fs::read_to_string(dir.join(RESULT_FILE)) {
            match Json::parse(&text).map_err(|e| e.to_string()).and_then(|j| {
                JobResult::from_json(&j)
            }) {
                Ok(r) => Some(Ok(r)),
                Err(e) => Some(Err(format!("corrupt result: {e}"))),
            }
        } else if let Ok(text) = fs::read_to_string(dir.join(FAILED_FILE)) {
            let msg = Json::parse(&text)
                .ok()
                .and_then(|j| j.get("error").and_then(Json::as_str).map(String::from))
                .unwrap_or_else(|| "unknown failure".into());
            Some(Err(msg))
        } else {
            None
        };
        out.push(ReplayedJob { id, spec, dir, settled });
    }
    out.sort_by_key(|j| j.id);
    (out, max_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("magis_serve_journal_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn spec() -> JobSpec {
        JobSpec { workload: Some("unet".into()), ..JobSpec::default() }
    }

    #[test]
    fn admission_then_replay_returns_unsettled_job() {
        let root = scratch("unsettled");
        let dir = record_admission(&root, 3, &spec()).unwrap();
        assert!(dir.join(SPEC_FILE).exists());
        let (jobs, max_id) = replay(&root);
        assert_eq!(max_id, 3);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, 3);
        assert!(jobs[0].settled.is_none(), "no terminal marker → in flight");
        assert_eq!(jobs[0].spec, spec());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn settled_jobs_replay_as_history() {
        let root = scratch("settled");
        let d1 = record_admission(&root, 1, &spec()).unwrap();
        let d2 = record_admission(&root, 2, &spec()).unwrap();
        let r = JobResult {
            peak_bytes: 7,
            latency: 0.5,
            planned_peak_bytes: None,
            stop_reason: "eval-cap".into(),
            deterministic: true,
            evaluated: 1,
            expanded: 1,
            resumed: false,
            pareto: vec![],
            trajectory_digest: 0,
            timeline: Json::Null,
        };
        record_result(&d1, &r).unwrap();
        record_failure(&d2, "boom").unwrap();
        let (jobs, max_id) = replay(&root);
        assert_eq!(max_id, 2);
        assert!(matches!(&jobs[0].settled, Some(Ok(got)) if *got == r));
        assert!(matches!(&jobs[1].settled, Some(Err(e)) if e == "boom"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let root = scratch("corrupt");
        record_admission(&root, 1, &spec()).unwrap();
        let bad = jobs_root(&root).join("job-2");
        fs::create_dir_all(&bad).unwrap();
        fs::write(bad.join(SPEC_FILE), "not json at all").unwrap();
        fs::create_dir_all(jobs_root(&root).join("not-a-job")).unwrap();
        let (jobs, max_id) = replay(&root);
        assert_eq!(jobs.len(), 1, "only the decodable entry survives");
        assert_eq!(max_id, 2, "but the id high-water mark still advances");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn write_atomic_replaces_existing_content() {
        let root = scratch("atomic");
        fs::create_dir_all(&root).unwrap();
        let p = root.join("f.json");
        write_atomic(&p, "one").unwrap();
        write_atomic(&p, "two").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "two");
        assert!(!p.with_extension("tmp").exists(), "temp file renamed away");
        let _ = fs::remove_dir_all(&root);
    }
}
