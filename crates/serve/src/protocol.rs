//! The line-delimited JSON wire protocol and job/result value types.
//!
//! Every message is one JSON object on one line, terminated by `\n`,
//! encoded with the workspace's hand-rolled [`magis_obs::json`] codec
//! (integers and finite floats round-trip bit-exactly — the protocol
//! leans on that for the service's bit-identity guarantees, and
//! additionally carries `f64` values as hexadecimal bit patterns so a
//! client can compare results without any float parsing at all).
//!
//! Client → server requests (`cmd` field):
//!
//! | `cmd`      | fields                        | reply                    |
//! |------------|-------------------------------|--------------------------|
//! | `ping`     | —                             | `{ok, queued, running}`  |
//! | `submit`   | `job` (a [`JobSpec`]), `wait` | ack, then (if `wait`) progress events and a final `done` event |
//! | `status`   | `id`                          | `{ok, id, state[, result]}` |
//! | `watch`    | `id`                          | ack, then the same progress/`done` stream a waiting submit gets (mid-flight attach; any number of watchers) |
//! | `metrics`  | —                             | `{ok, metrics}` — the process registry as Prometheus text |
//!
//! Server → client replies always carry `"ok": true|false`; rejections
//! carry an HTTP-flavored `"code"` (429 for backpressure) and an
//! `"error"` string. Progress streaming uses `"event": "progress"`
//! lines and ends with one `"event": "done"` line carrying the
//! [`JobResult`]. While the search runs, progress frames carry the
//! deterministic expansion-boundary snapshot (`seq`, `phase`,
//! `expansion`, `evaluated`, `best_peak_bytes`, `best_latency` plus
//! its exact `best_latency_bits`, `frontier`, `pareto`,
//! `eval_cache_hits`); while the job is queued or the search is
//! between expansions, heartbeat frames carry the eval-beat count from
//! the search's [`CancelToken`](magis_core::CancelToken).

use crate::job::{backend_for, driver_for, objective_for, workload_by_name};
use magis_obs::json::Json;
use magis_sim::MemObjective;

/// Default job soft budget (matches the one-shot CLI default).
pub const DEFAULT_BUDGET_MS: u64 = 15_000;
/// Default checkpoint cadence for service jobs, in merged evaluations.
/// Deliberately small: the journal's crash-recovery window is one
/// checkpoint interval.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 16;

/// Everything a client specifies about one optimization job. The
/// canonical JSON rendering (minus the `client` field) doubles as the
/// job's identity for the cross-request result cache.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client identity for per-client admission caps (default `anon`).
    pub client: String,
    /// Named workload to build (`unet`, `bert`, …). Exactly one of
    /// `workload` / `graph` must be set.
    pub workload: Option<String>,
    /// Workload scale factor (1.0 = the paper's configuration).
    pub scale: f64,
    /// Inline graph record (the `magis_graph::io::to_record` text
    /// format), as an alternative to a named workload.
    pub graph: Option<String>,
    /// Optimization mode: `memory` or `latency`.
    pub mode: String,
    /// Mode limit: latency factor (memory mode) or memory fraction
    /// (latency mode). `None` = the mode's default (1.10 / 0.8).
    pub limit: Option<f64>,
    /// Memory accounting the search steers on.
    pub objective: MemObjective,
    /// Cost-model backend profile name.
    pub backend: Option<String>,
    /// Soft wall-clock budget in milliseconds.
    pub budget_ms: u64,
    /// Hard deadline in milliseconds (anytime semantics: the job
    /// returns its best-so-far incumbent with `stop reason: deadline`).
    pub wall_limit_ms: Option<u64>,
    /// Hard candidate-evaluation cap — the deterministic stopping knob
    /// (cumulative across crash/resume).
    pub max_candidates: Option<usize>,
    /// Candidate-evaluation worker threads for this job (results are
    /// bit-identical for every value; default 1 keeps a loaded daemon
    /// from oversubscribing cores).
    pub threads: usize,
    /// Structural-hash eval-cache capacity for this job's search.
    pub eval_cache: Option<usize>,
    /// Checkpoint cadence in merged evaluations.
    pub checkpoint_every: usize,
    /// Search strategy (`greedy` / `mcts`); `None` = the optimizer's
    /// default (greedy). Omitted from the canonical rendering when
    /// unset so existing cache keys and journal entries stay stable.
    pub strategy: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            client: "anon".into(),
            workload: None,
            scale: 0.15,
            graph: None,
            mode: "memory".into(),
            limit: None,
            objective: MemObjective::default(),
            backend: None,
            budget_ms: DEFAULT_BUDGET_MS,
            wall_limit_ms: None,
            max_candidates: None,
            threads: 1,
            eval_cache: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            strategy: None,
        }
    }
}

fn obj_name(o: MemObjective) -> &'static str {
    match o {
        MemObjective::Liveness => "liveness",
        MemObjective::Planned => "planned",
    }
}

impl JobSpec {
    /// Canonical JSON object. Field order is fixed, optional fields are
    /// omitted when unset — two equal specs render identically, which
    /// the journal and the result-cache key both rely on.
    pub fn to_json(&self) -> Json {
        let mut o = vec![("client".to_string(), Json::Str(self.client.clone()))];
        if let Some(w) = &self.workload {
            o.push(("workload".into(), Json::Str(w.clone())));
        }
        o.push(("scale".into(), Json::Float(self.scale)));
        if let Some(g) = &self.graph {
            o.push(("graph".into(), Json::Str(g.clone())));
        }
        o.push(("mode".into(), Json::Str(self.mode.clone())));
        if let Some(l) = self.limit {
            o.push(("limit".into(), Json::Float(l)));
        }
        o.push(("objective".into(), Json::Str(obj_name(self.objective).into())));
        if let Some(b) = &self.backend {
            o.push(("backend".into(), Json::Str(b.clone())));
        }
        o.push(("budget_ms".into(), Json::UInt(self.budget_ms)));
        if let Some(w) = self.wall_limit_ms {
            o.push(("wall_limit_ms".into(), Json::UInt(w)));
        }
        if let Some(m) = self.max_candidates {
            o.push(("max_candidates".into(), Json::UInt(m as u64)));
        }
        o.push(("threads".into(), Json::UInt(self.threads as u64)));
        if let Some(c) = self.eval_cache {
            o.push(("eval_cache".into(), Json::UInt(c as u64)));
        }
        o.push(("checkpoint_every".into(), Json::UInt(self.checkpoint_every as u64)));
        if let Some(st) = &self.strategy {
            o.push(("strategy".into(), Json::Str(st.clone())));
        }
        Json::Obj(o)
    }

    /// Parses a spec from a JSON object, filling defaults for missing
    /// fields. Unknown fields are ignored (forward compatibility).
    pub fn from_json(j: &Json) -> Result<JobSpec, String> {
        let mut s = JobSpec::default();
        let get = |k: &str| j.get(k);
        if let Some(v) = get("client") {
            s.client = v.as_str().ok_or("client must be a string")?.to_string();
        }
        if let Some(v) = get("workload") {
            s.workload = Some(v.as_str().ok_or("workload must be a string")?.to_string());
        }
        if let Some(v) = get("scale") {
            s.scale = v.as_f64().ok_or("scale must be a number")?;
        }
        if let Some(v) = get("graph") {
            s.graph = Some(v.as_str().ok_or("graph must be a string")?.to_string());
        }
        if let Some(v) = get("mode") {
            s.mode = v.as_str().ok_or("mode must be a string")?.to_string();
        }
        if let Some(v) = get("limit") {
            s.limit = Some(v.as_f64().ok_or("limit must be a number")?);
        }
        if let Some(v) = get("objective") {
            let name = v.as_str().ok_or("objective must be a string")?;
            s.objective = MemObjective::parse(name)
                .ok_or_else(|| format!("unknown objective '{name}'"))?;
        }
        if let Some(v) = get("backend") {
            s.backend = Some(v.as_str().ok_or("backend must be a string")?.to_string());
        }
        if let Some(v) = get("budget_ms") {
            s.budget_ms = v.as_u64().ok_or("budget_ms must be an integer")?;
        }
        if let Some(v) = get("wall_limit_ms") {
            s.wall_limit_ms = Some(v.as_u64().ok_or("wall_limit_ms must be an integer")?);
        }
        if let Some(v) = get("max_candidates") {
            s.max_candidates =
                Some(v.as_u64().ok_or("max_candidates must be an integer")? as usize);
        }
        if let Some(v) = get("threads") {
            s.threads = (v.as_u64().ok_or("threads must be an integer")? as usize).max(1);
        }
        if let Some(v) = get("eval_cache") {
            s.eval_cache = Some(v.as_u64().ok_or("eval_cache must be an integer")? as usize);
        }
        if let Some(v) = get("checkpoint_every") {
            s.checkpoint_every =
                (v.as_u64().ok_or("checkpoint_every must be an integer")? as usize).max(1);
        }
        if let Some(v) = get("strategy") {
            s.strategy = Some(v.as_str().ok_or("strategy must be a string")?.to_string());
        }
        if s.workload.is_none() && s.graph.is_none() {
            return Err("a job needs either 'workload' or 'graph'".into());
        }
        s.validate()?;
        Ok(s)
    }

    /// Checks every name the spec carries — mode, workload, backend,
    /// strategy — against the tables that resolve them. A spec that
    /// fails here fails the same way on every attempt, so the CLI
    /// refuses it before connecting and [`Self::from_json`] before
    /// admission: it is never journaled or retried.
    pub fn validate(&self) -> Result<(), String> {
        objective_for(self, (0, 0.0))?;
        if let Some(name) = &self.workload {
            workload_by_name(name)?;
        }
        backend_for(self.backend.as_deref())?;
        driver_for(self.strategy.as_deref())?;
        Ok(())
    }

    /// Result-cache identity: an FNV-1a hash of the canonical rendering
    /// with the `client` field blanked — two clients submitting the
    /// same work share a cache slot.
    pub fn cache_key(&self) -> u64 {
        let mut anon = self.clone();
        anon.client = String::new();
        fnv1a(anon.to_json().render().as_bytes())
    }
}

/// FNV-1a over bytes — stable across runs and builds, unlike
/// `DefaultHasher` (the journal and cache key must not depend on an
/// unspecified hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The bit-exact outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Incumbent peak memory (liveness accounting), bytes.
    pub peak_bytes: u64,
    /// Incumbent simulated latency, seconds.
    pub latency: f64,
    /// Incumbent allocator-planned peak (planned objective only).
    pub planned_peak_bytes: Option<u64>,
    /// Why the search stopped (`deadline`, `eval-cap`, …).
    pub stop_reason: String,
    /// Whether the stop reason is deterministic (independent of
    /// wall-clock), i.e. `StopReason::is_deterministic` — the gate for
    /// the cross-request result cache.
    pub deterministic: bool,
    /// Candidates evaluated (cumulative across crash/resume).
    pub evaluated: u64,
    /// States expanded (cumulative across crash/resume).
    pub expanded: u64,
    /// Whether this run continued from a checkpoint.
    pub resumed: bool,
    /// Pareto front `(peak_bytes, latency)` observed by the search.
    pub pareto: Vec<(u64, f64)>,
    /// Digest of the deterministic timeline fields (expansion index,
    /// evaluated count, incumbent cost bits, frontier/pareto sizes per
    /// point). Covers only this process's portion of a resumed run.
    pub trajectory_digest: u64,
    /// The full `magis-obs` search timeline, for progress display.
    pub timeline: Json,
}

impl JobResult {
    /// Serializes to a JSON object. Floats additionally appear as hex
    /// bit patterns (`latency_bits`, per-point pareto bits) so clients
    /// can bit-compare without parsing floats.
    pub fn to_json(&self) -> Json {
        let mut o = vec![
            ("peak_bytes".to_string(), Json::UInt(self.peak_bytes)),
            ("latency".into(), Json::Float(self.latency)),
            ("latency_bits".into(), Json::Str(format!("{:016x}", self.latency.to_bits()))),
        ];
        if let Some(p) = self.planned_peak_bytes {
            o.push(("planned_peak_bytes".into(), Json::UInt(p)));
        }
        o.push(("stop_reason".into(), Json::Str(self.stop_reason.clone())));
        o.push(("deterministic".into(), Json::Bool(self.deterministic)));
        o.push(("evaluated".into(), Json::UInt(self.evaluated)));
        o.push(("expanded".into(), Json::UInt(self.expanded)));
        o.push(("resumed".into(), Json::Bool(self.resumed)));
        let pareto = self
            .pareto
            .iter()
            .map(|&(m, l)| {
                Json::Arr(vec![
                    Json::UInt(m),
                    Json::Float(l),
                    Json::Str(format!("{:016x}", l.to_bits())),
                ])
            })
            .collect();
        o.push(("pareto".into(), Json::Arr(pareto)));
        o.push((
            "trajectory_digest".into(),
            Json::Str(format!("{:016x}", self.trajectory_digest)),
        ));
        o.push(("timeline".into(), self.timeline.clone()));
        Json::Obj(o)
    }

    /// Parses a result back from its JSON form. Float fields are
    /// recovered from their bit patterns, keeping round-trips exact.
    pub fn from_json(j: &Json) -> Result<JobResult, String> {
        let bits = |key: &str, fallback: Option<f64>| -> Result<f64, String> {
            match j.get(key).and_then(Json::as_str) {
                Some(hex) => u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("bad {key}")),
                None => fallback.ok_or_else(|| format!("missing {key}")),
            }
        };
        let u = |key: &str| j.get(key).and_then(Json::as_u64);
        let mut pareto = Vec::new();
        for p in j.get("pareto").and_then(Json::as_arr).unwrap_or(&[]) {
            let e = p.as_arr().ok_or("bad pareto entry")?;
            let m = e.first().and_then(Json::as_u64).ok_or("bad pareto peak")?;
            let l = match e.get(2).and_then(Json::as_str) {
                Some(hex) => u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|_| "bad pareto bits".to_string())?,
                None => e.get(1).and_then(Json::as_f64).ok_or("bad pareto latency")?,
            };
            pareto.push((m, l));
        }
        Ok(JobResult {
            peak_bytes: u("peak_bytes").ok_or("missing peak_bytes")?,
            latency: bits("latency_bits", j.get("latency").and_then(Json::as_f64))?,
            planned_peak_bytes: u("planned_peak_bytes"),
            stop_reason: j
                .get("stop_reason")
                .and_then(Json::as_str)
                .ok_or("missing stop_reason")?
                .to_string(),
            deterministic: matches!(j.get("deterministic"), Some(Json::Bool(true))),
            evaluated: u("evaluated").ok_or("missing evaluated")?,
            expanded: u("expanded").ok_or("missing expanded")?,
            resumed: matches!(j.get("resumed"), Some(Json::Bool(true))),
            pareto,
            trajectory_digest: j
                .get("trajectory_digest")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0),
            timeline: j.get("timeline").cloned().unwrap_or(Json::Null),
        })
    }

    /// The fields two runs of the same deterministic job must agree on
    /// bit-for-bit, rendered as one comparable string. Excludes the
    /// `resumed` flag, wall-clock data, and the trajectory digest (a
    /// resumed run's timeline covers only its own portion).
    pub fn identity_key(&self) -> String {
        let mut s = format!(
            "peak={} lat={:016x} planned={:?} stop={} evaluated={} expanded={} pareto=",
            self.peak_bytes,
            self.latency.to_bits(),
            self.planned_peak_bytes,
            self.stop_reason,
            self.evaluated,
            self.expanded,
        );
        for (m, l) in &self.pareto {
            s.push_str(&format!("({m},{:016x})", l.to_bits()));
        }
        s
    }
}

/// Convenience constructors for the server's reply lines.
pub mod reply {
    use super::Json;

    /// A bare `{"ok": true}` extended with `extra` fields.
    pub fn ok(extra: Vec<(String, Json)>) -> Json {
        let mut o = vec![("ok".to_string(), Json::Bool(true))];
        o.extend(extra);
        Json::Obj(o)
    }

    /// An error reply with an HTTP-flavored status code.
    pub fn err(code: u64, msg: &str) -> Json {
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(false)),
            ("code".into(), Json::UInt(code)),
            ("error".into(), Json::Str(msg.to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Some("unet".into()),
            wall_limit_ms: Some(200),
            max_candidates: Some(64),
            limit: Some(1.1),
            ..JobSpec::default()
        }
    }

    #[test]
    fn spec_round_trips_canonically() {
        let s = spec();
        let j = s.to_json();
        let parsed = JobSpec::from_json(&Json::parse(&j.render()).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json().render(), j.render(), "canonical form is stable");
    }

    #[test]
    fn cache_key_ignores_client_identity() {
        let a = spec();
        let mut b = spec();
        b.client = "someone-else".into();
        assert_eq!(a.cache_key(), b.cache_key());
        b.max_candidates = Some(65);
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn spec_requires_a_model() {
        let j = Json::parse("{\"mode\":\"memory\"}").unwrap();
        assert!(JobSpec::from_json(&j).is_err());
    }

    #[test]
    fn strategy_field_round_trips_and_keys_the_cache() {
        // Unset strategy is omitted from the canonical rendering, so
        // cache keys and journal entries written before the field
        // existed stay valid.
        let a = spec();
        assert!(!a.to_json().render().contains("strategy"));
        let mut b = spec();
        b.strategy = Some("mcts".into());
        let j = b.to_json();
        assert!(j.render().contains("\"strategy\":\"mcts\""));
        let parsed = JobSpec::from_json(&Json::parse(&j.render()).unwrap()).unwrap();
        assert_eq!(parsed, b);
        // Different strategies are different cached results.
        assert_ne!(a.cache_key(), b.cache_key());
        // Unknown strategies are rejected at the protocol boundary.
        let bad = j.render().replacen("mcts", "quantum", 1);
        assert!(JobSpec::from_json(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn result_round_trips_bit_exactly() {
        let r = JobResult {
            peak_bytes: 123456789,
            latency: 0.123_456_789_123_456_78,
            planned_peak_bytes: Some(99),
            stop_reason: "deadline".into(),
            deterministic: false,
            evaluated: 42,
            expanded: 17,
            resumed: true,
            pareto: vec![(100, 0.5), (90, 0.625)],
            trajectory_digest: 0xdeadbeef,
            timeline: Json::Null,
        };
        let parsed =
            JobResult::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.identity_key(), r.identity_key());
        assert_eq!(parsed.latency.to_bits(), r.latency.to_bits());
    }

    #[test]
    fn identity_key_ignores_resume_flag() {
        let a = JobResult {
            peak_bytes: 1,
            latency: 1.0,
            planned_peak_bytes: None,
            stop_reason: "eval-cap".into(),
            deterministic: true,
            evaluated: 5,
            expanded: 3,
            resumed: false,
            pareto: vec![],
            trajectory_digest: 7,
            timeline: Json::Null,
        };
        let mut b = a.clone();
        b.resumed = true;
        b.trajectory_digest = 9;
        assert_eq!(a.identity_key(), b.identity_key());
    }
}
