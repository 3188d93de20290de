//! `--compare A B`: two result sets side by side, each end-to-end
//! metric judged by its direction and bound from `BENCHMARK.json`.
//!
//! `A` and `B` are output directories of `run.sh` (one
//! `<workload>.json` each per workload) or single result files.

use crate::report::{Manifest, MetricDef};
use crate::stats::{ratio, Summary};
use magis_obs::json::Json;
use std::path::Path;

struct ResultDoc {
    workload: String,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

impl ResultDoc {
    fn fail_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    fn metric(&self, name: &str) -> Option<Summary> {
        let m = self.metrics.get(name)?;
        let f = |k: &str| m.get(k).and_then(Json::as_f64);
        let value = f("value")?;
        Some(Summary {
            median: value,
            min: f("min").unwrap_or(value),
            max: f("max").unwrap_or(value),
            n: m.get("n").and_then(Json::as_u64).unwrap_or(1) as usize,
        })
    }
}

fn load_file(path: &Path) -> Result<ResultDoc, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: no '{k}'", path.display()))
    };
    Ok(ResultDoc {
        workload: j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no 'workload'", path.display()))?
            .to_string(),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: j.get("metrics").cloned().unwrap_or(Json::Null),
    })
}

/// The untraced results under `path`, in manifest order.
fn load(manifest: &Manifest, path: &Path) -> Result<Vec<ResultDoc>, String> {
    if !path.is_dir() {
        return Ok(vec![load_file(path)?]);
    }
    let docs: Vec<ResultDoc> = manifest
        .workloads
        .iter()
        .map(|w| path.join(format!("{w}.json")))
        .filter(|p| p.exists())
        .map(|p| load_file(&p))
        .collect::<Result<_, _>>()?;
    if docs.is_empty() {
        return Err(format!(
            "{}: no <workload>.json result files",
            path.display()
        ));
    }
    Ok(docs)
}

/// By how much of `a` the value `b` is worse, in the metric's
/// direction; negative when better.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = ratio(b - a, a.abs());
    if def.lower_is_better {
        change
    } else {
        -change
    }
}

/// `better`, `same`, `worse`, or `unresolved` when neither side moved
/// past the bound but the samples within a run spread wider than it.
fn verdict(def: &MetricDef, a: &Summary, b: &Summary) -> &'static str {
    let bound = def.bound.unwrap_or(0.0);
    let w = worse_by(def, a.median, b.median);
    let spread = |s: &Summary| ratio(s.max - s.min, s.median.abs());
    if w > bound {
        "worse"
    } else if w < -bound {
        "better"
    } else if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else {
        "same"
    }
}

pub fn run(manifest: &Manifest, a: &Path, b: &Path) -> Result<bool, String> {
    let (docs_a, docs_b) = (load(manifest, a)?, load(manifest, b)?);
    let mut ok = true;
    let mut rows = 0;
    println!(
        "{:<20} {:<17} {:>13} {:>13} {:>8} {:>6}  {:<10} A[min..max] B[min..max]",
        "workload", "metric", "A", "B", "change", "bound", "verdict"
    );
    for da in &docs_a {
        let Some(db) = docs_b.iter().find(|d| d.workload == da.workload) else {
            continue;
        };
        for def in &manifest.end_to_end {
            let (Some(sa), Some(sb)) = (da.metric(&def.name), db.metric(&def.name)) else {
                return Err(format!(
                    "{}: metric '{}' missing from a result",
                    da.workload, def.name
                ));
            };
            let v = verdict(def, &sa, &sb);
            ok &= v != "worse";
            rows += 1;
            println!(
                "{:<20} {:<17} {:>13.5} {:>13.5} {:>+7.1}% {:>5.1}%  {:<10} [{:.5}..{:.5}] [{:.5}..{:.5}]",
                da.workload,
                def.name,
                sa.median,
                sb.median,
                100.0 * ratio(sb.median - sa.median, sa.median.abs()),
                100.0 * def.bound.unwrap_or(0.0),
                v,
                sa.min,
                sa.max,
                sb.min,
                sb.max,
            );
        }
        let (fa, fb) = (da.fail_ratio(), db.fail_ratio());
        let v = if fb > fa { "worse" } else { "same" };
        ok &= fb <= fa;
        println!(
            "{:<20} {:<17} {:>13.5} {:>13.5} {:>8} {:>6}  {:<10}",
            da.workload, "fail_ratio", fa, fb, "", "", v
        );
    }
    if rows == 0 {
        return Err("the two result sets share no workload".into());
    }
    Ok(ok)
}
