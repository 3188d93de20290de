//! The repository's benchmark: five workloads measured from outside,
//! through the crates' public functions only. See `README.md` beside
//! this package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! magis-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! magis-benchmark --compare A B
//! magis-benchmark --list
//! ```
//!
//! One process runs one workload. With `--trace 0` it reports the
//! end-to-end metrics, with `--trace 1` the per-layer metrics. The last
//! line of standard output is the result object; the same result, with
//! spreads and the machine description, goes to `DIR/<workload>.json`
//! (`DIR/<workload>.layers.json` and `DIR/trace-<workload>.jsonl` for a
//! traced run).

mod compare;
mod env;
mod layers;
mod replay;
mod report;
mod search;
mod serve;
mod spans;
mod stats;
mod workloads;

use report::Manifest;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const MANIFEST: &str = "BENCHMARK.json";
const DEFAULT_OUT: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measuring time; `run_seconds` of `BENCHMARK.json` when absent.
    seconds: Option<f64>,
    traced: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
        compare: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--list" => a.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// Runs one workload and prints its result. A run whose checks failed
/// still succeeds as a process: the result line says `"correct":false`.
fn run(args: &Args, manifest: &Manifest) -> Result<(), String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("--workload NAME, --compare A B or --list is required")?;
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    if !manifest.workloads.iter().any(|w| w == name) {
        return Err(format!("workload '{name}' is not in {MANIFEST}"));
    }
    // Two of the workloads keep two cores busy; on fewer the numbers
    // would measure time-slicing.
    if env::nproc() < 2 {
        return Err("the benchmark needs at least 2 cores (unet_small_mt2, serve_mixed)".into());
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let search = workloads::SEARCH.iter().find(|s| s.name == name);
    let report = match (search, args.traced) {
        (Some(spec), false) => search::run_untraced(spec, args.seed, seconds),
        (Some(spec), true) => layers::run_traced_search(spec, args.seed, seconds, &args.out),
        (None, false) => serve::run_untraced(args.seed, seconds, &args.out),
        (None, true) => layers::run_traced_serve(args.seed, seconds, &args.out),
    };
    report.verify_against(manifest)?;
    let file = if args.traced {
        format!("{name}.layers.json")
    } else {
        format!("{name}.json")
    };
    let path = args.out.join(file);
    std::fs::write(&path, report.to_json(manifest).render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.print_table(manifest);
    println!("{}", report.result_line(manifest));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let manifest = Manifest::load(Path::new(MANIFEST))?;
        if args.list {
            manifest.workloads.iter().for_each(|w| println!("{w}"));
            return Ok(ExitCode::SUCCESS);
        }
        match &args.compare {
            Some((a, b)) => compare::run(&manifest, a, b).map(|no_worse| {
                if no_worse {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }),
            None => run(&args, &manifest).map(|()| ExitCode::SUCCESS),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("magis-benchmark: {e}");
        ExitCode::from(2)
    })
}
