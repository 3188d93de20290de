//! # magis-bench
//!
//! Experiment harness reproducing every table and figure of the
//! paper's evaluation (§7). One binary per experiment:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table2` | Table 2 workload inventory |
//! | `fig09`  | memory optimization under latency constraints |
//! | `fig10`  | latency optimization under memory constraints |
//! | `fig11`  | memory/latency Pareto curves |
//! | `fig12`  | POFO + micro-batching comparison |
//! | `fig13`  | heuristic ablation |
//! | `fig14`  | incremental vs full scheduling |
//! | `fig15`  | optimization-time breakdown |
//! | `fig16`  | U-Net execution/memory case study |
//!
//! All binaries accept `--scale <f>` (model down-scaling; 1.0 = the
//! paper's configuration), `--budget-ms <n>` (per-optimization search
//! budget; the paper uses 3 minutes) and `--out <dir>`; anything else
//! on the command line is a usage error (exit 2). Results are printed
//! as aligned tables and written as CSV under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use magis_baselines::{BaselineKind, BaselineResult};
use magis_core::optimizer::{optimize_latency, optimize_memory, OptimizeResult, OptimizerConfig};
use magis_graph::graph::Graph;
use magis_sim::CostModel;
use magis_util::args::Args;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Model scale (1.0 = Table 2 configuration).
    pub scale: f64,
    /// Search budget per optimization run.
    pub budget: Duration,
    /// Output directory for CSV results.
    pub out_dir: PathBuf,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            scale: 0.5,
            budget: Duration::from_millis(12_000),
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExpOpts {
    /// Reads `--scale`, `--budget-ms`, `--out` from the process
    /// arguments. Prints the problem and exits 2 on anything else.
    pub fn from_args() -> Self {
        Self::from_args_with(&[]).0
    }

    /// [`Self::from_args`] for a binary that also takes valueless
    /// `switches` of its own; returns the arguments to query them.
    pub fn from_args_with(switches: &[&str]) -> (Self, Args) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::read(&argv, switches).unwrap_or_else(|e| {
            let own: String = switches.iter().map(|s| format!(" [--{s}]")).collect();
            eprintln!("error: {e}\n\nusage: [--scale F] [--budget-ms N] [--out DIR]{own}");
            std::process::exit(2)
        })
    }

    fn read(argv: &[String], switches: &[&str]) -> Result<(Self, Args), String> {
        let args = Args::parse(argv, &[&["scale", "budget-ms", "out"]], switches)?;
        let d = ExpOpts::default();
        let opts = ExpOpts {
            scale: args.value_or("scale", d.scale)?,
            budget: args.value("budget-ms")?.map_or(d.budget, Duration::from_millis),
            out_dir: args.value_or("out", d.out_dir)?,
        };
        Ok((opts, args))
    }

    /// Writes `rows` as CSV under the output directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — experiment binaries want loud failures.
    pub fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        let mut f = fs::File::create(&path).expect("create csv");
        writeln!(f, "{}", header.join(",")).expect("write header");
        for row in rows {
            writeln!(f, "{}", row.join(",")).expect("write row");
        }
        println!("  -> wrote {}", path.display());
    }

    /// Writes a Prometheus-style snapshot of every `magis_*` metric
    /// accumulated so far to `name` under the output directory, so a
    /// figure's CSV ships with the observability counters of the runs
    /// that produced it.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — experiment binaries want loud failures.
    pub fn write_metrics_snapshot(&self, name: &str) {
        fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        fs::write(&path, magis_obs::metrics::default_registry().render())
            .expect("write metrics snapshot");
        println!("  -> wrote {}", path.display());
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The unoptimized anchor (PyTorch baseline) of a graph.
pub fn anchor(g: &Graph) -> (u64, f64) {
    let r = magis_baselines::pytorch::run(g, &CostModel::default());
    (r.peak_bytes, r.latency)
}

/// Runs MAGIS in memory-minimization mode under `lat_factor` × anchor
/// latency.
pub fn magis_min_memory(g: &Graph, lat_factor: f64, opts: &ExpOpts) -> OptimizeResult {
    optimize_memory(g.clone(), lat_factor, &OptimizerConfig::default().with_budget(opts.budget))
}

/// Runs MAGIS in latency-minimization mode under `mem_factor` × anchor
/// peak memory.
pub fn magis_min_latency(g: &Graph, mem_factor: f64, opts: &ExpOpts) -> OptimizeResult {
    optimize_latency(g.clone(), mem_factor, &OptimizerConfig::default().with_budget(opts.budget))
}

/// Finds the smallest memory ratio a baseline reaches while staying
/// under `lat_limit` seconds, by bisecting the budget fraction.
/// Returns `(mem_ratio, latency)` of the best feasible point, if any.
pub fn baseline_min_memory(
    kind: BaselineKind,
    g: &Graph,
    base_peak: u64,
    lat_limit: f64,
) -> Option<(f64, f64)> {
    let cm = CostModel::default();
    let ok = |r: &BaselineResult| r.feasible && r.latency <= lat_limit;
    let mut lo = 0.05f64; // infeasible side
    let mut hi = 1.0f64; // feasible side (basic saving always fits)
    let full = kind.run(g, Some(base_peak), &cm);
    if !ok(&full) {
        return None;
    }
    let mut best = (full.peak_bytes as f64 / base_peak as f64, full.latency);
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        let r = kind.run(g, Some((base_peak as f64 * mid) as u64), &cm);
        if ok(&r) {
            hi = mid;
            let ratio = r.peak_bytes as f64 / base_peak as f64;
            if ratio < best.0 {
                best = (ratio, r.latency);
            }
        } else {
            lo = mid;
        }
    }
    Some(best)
}

/// Formats a ratio as a short number or an OOM/failure marker.
pub fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.3}"),
        None => "FAIL".to_string(),
    }
}

/// Gibibytes, for human-readable printing.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_models::mlp::{mlp, MlpConfig};

    #[test]
    fn baseline_bisection_finds_points() {
        let tg = mlp(&MlpConfig { batch: 1024, ..MlpConfig::default() });
        let (peak, lat) = anchor(&tg.graph);
        let r = baseline_min_memory(BaselineKind::Dtr, &tg.graph, peak, lat * 3.0);
        let (ratio, _l) = r.expect("DTR reaches something");
        assert!(ratio < 1.0);
    }

    #[test]
    fn opts_defaults() {
        let o = ExpOpts::default();
        assert!(o.scale > 0.0 && o.budget.as_millis() > 0);
    }

    #[test]
    fn opts_read_their_flags_and_the_binarys_own_switches() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (o, args) =
            ExpOpts::read(&argv(&["--scale", "0.2", "--check", "--budget-ms", "250"]), &["check"])
                .unwrap();
        assert_eq!((o.scale, o.budget, o.out_dir), (0.2, Duration::from_millis(250), "results".into()));
        assert!(args.switch("check"));
        assert!(ExpOpts::read(&argv(&["--check"]), &[]).is_err(), "only obs_overhead takes it");
    }
}
