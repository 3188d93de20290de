//! A run's result: metrics, operation counts and correctness, printed
//! as a table, written as a file, and summarised on the last line of
//! standard output in the shape `BENCHMARK.json`'s contract fixes.

use crate::stats::Summary;
use magis_obs::json::Json;
use std::path::Path;

/// One metric definition from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the single place metric names, units, directions
/// and bounds are written down. The program reads them from there.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{}: no '{key}' list", path.display()))?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{}: metric without '{k}'", path.display()))
                    };
                    Ok(MetricDef {
                        name: s("name")?,
                        unit: s("unit")?,
                        lower_is_better: s("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no 'workloads' list", path.display()))?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        let run_seconds = j
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: no 'run_seconds'", path.display()))?;
        Ok(Manifest {
            run_seconds,
            workloads,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: Summary,
}

#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Operations (timed repeats or requests) attempted and failed. A
    /// failed operation errored, was refused, missed its target or
    /// failed a correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that did not hold, in words.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Workload-specific details kept in the output file only.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn new(workload: &str, traced: bool, seed: u64, seconds: f64) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: Summary) {
        self.metrics.push(Metric { name, value });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The metric definitions this run must report, in manifest order.
    fn defs<'m>(&self, manifest: &'m Manifest) -> &'m [MetricDef] {
        if self.traced {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        }
    }

    /// Checks the run reported exactly the manifest's metrics.
    pub fn verify_against(&self, manifest: &Manifest) -> Result<(), String> {
        let defs = self.defs(manifest);
        for d in defs {
            if !self.metrics.iter().any(|m| m.name == d.name) {
                return Err(format!(
                    "metric '{}' of BENCHMARK.json was not measured",
                    d.name
                ));
            }
        }
        for m in &self.metrics {
            if !defs.iter().any(|d| d.name == m.name) {
                return Err(format!("metric '{}' is not in BENCHMARK.json", m.name));
            }
        }
        Ok(())
    }

    fn value_of(&self, name: &str) -> Summary {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("verified")
            .value
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print_table(&self, manifest: &Manifest) {
        for d in self.defs(manifest) {
            let v = self.value_of(&d.name);
            let spread = if v.n > 1 {
                format!("  (min {:.6} max {:.6} n {})", v.min, v.max, v.n)
            } else {
                String::new()
            };
            println!(
                "{} {} {:.6} {}{}",
                self.workload, d.name, v.median, d.unit, spread
            );
        }
        println!(
            "{} fail_ratio {:.6} ratio  ({} of {} operations)",
            self.workload,
            crate::stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for f in &self.check_failures {
            println!("{} CHECK FAILED: {f}", self.workload);
        }
    }

    /// The result line the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, manifest: &Manifest) -> String {
        let metrics = self
            .defs(manifest)
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(self.value_of(&d.name).median)),
                        ("unit".into(), Json::Str(d.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The output file: the result plus spreads, details and the
    /// machine it was measured on.
    pub fn to_json(&self, manifest: &Manifest) -> Json {
        let metrics = self
            .defs(manifest)
            .iter()
            .map(|d| {
                let v = self.value_of(&d.name);
                (
                    d.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(v.median)),
                        ("unit".into(), Json::Str(d.unit.clone())),
                        ("min".into(), Json::Float(v.min)),
                        ("max".into(), Json::Float(v.max)),
                        ("n".into(), Json::UInt(v.n as u64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("traced".into(), Json::Bool(self.traced)),
            ("seed".into(), Json::UInt(self.seed)),
            ("seconds".into(), Json::Float(self.seconds)),
            ("env".into(), crate::env::describe()),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            (
                "check_failures".into(),
                Json::Arr(self.check_failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".into(), Json::Obj(metrics)),
            ("detail".into(), Json::Obj(self.detail.clone())),
        ])
    }
}
