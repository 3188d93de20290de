//! The machine and build a result was measured on, recorded in every
//! output file.

use magis_obs::json::Json;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `run.sh` passes what only the shell can know (compiler, commit)
/// through the environment.
pub fn describe() -> Json {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::UInt(nproc() as u64)),
        (
            "cpu".into(),
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("rustc".into(), Json::Str(var("MAGIS_BENCH_RUSTC"))),
        ("commit".into(), Json::Str(var("MAGIS_BENCH_COMMIT"))),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}
