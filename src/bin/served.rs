//! `magis-served` — the standalone supervision daemon binary.
//!
//! [`ServeConfig::from_args`] in front of [`magis_serve::Server`]; the
//! CLI's `magis serve` subcommand reads the same flags the same way. Kept as its own
//! binary so tests can `kill -9` a real process and exercise journal
//! replay without going through the full CLI.

use magis_serve::{ServeConfig, Server};
use magis_util::args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
magis-served — supervised optimization service

USAGE:
    magis-served [--addr HOST:PORT] [--state-dir DIR] [--workers N]
                 [--queue-capacity N] [--client-cap N] [--retry-cap N]
                 [--backoff-base-ms MS] [--drain-timeout-ms MS]
                 [--stall-after-ms MS] [--result-cache N]
                 [--port-file PATH] [--log-level LEVEL] [--help]

Listens for line-delimited JSON jobs (see magis-serve's protocol docs),
runs them on a bounded worker pool, journals every accepted job for
crash-safe recovery, and drains gracefully on SIGTERM/SIGINT.
";

/// The configuration the command line asks for; `None` when it asks
/// for the usage text instead.
fn config(argv: &[String]) -> Result<Option<ServeConfig>, String> {
    let args = Args::parse(argv, &[ServeConfig::FLAGS, &["log-level"]], &["help"])?;
    if args.switch("help") {
        return Ok(None);
    }
    if let Some(level) = args.value("log-level")? {
        magis_obs::log::set_level(level);
    }
    ServeConfig::from_args(&args).map(Some)
}

fn main() -> ExitCode {
    // `-h` is the one short spelling.
    let argv: Vec<String> = std::env::args()
        .skip(1)
        .map(|a| if a == "-h" { "--help".into() } else { a })
        .collect();
    let cfg = match config(&argv) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("magis-served: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("magis-served: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Ok(addr) = server.local_addr() {
        eprintln!("magis-served: listening on {addr}");
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("magis-served: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_flag_the_usage_names_is_accepted_and_a_typo_is_not() {
        let named: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        assert_eq!(named.len(), ServeConfig::FLAGS.len() + 2, "{named:?}");
        for flag in named {
            let line = if flag == "--help" { argv(&[flag]) } else { argv(&[flag, "warn"]) };
            if let Err(e) = config(&line) {
                assert!(!e.contains("unknown flag"), "{flag}: {e}");
            }
        }
        assert!(config(&argv(&["--wrokers", "2"])).unwrap_err().contains("unknown flag"));
        assert!(config(&argv(&["--workers", "two"])).is_err());
        assert!(config(&argv(&["--workers"])).is_err());
    }

    #[test]
    fn flags_replace_defaults() {
        let cfg = config(&argv(&["--workers", "0", "--retry-cap", "5", "--port-file", "/tmp/p"]))
            .unwrap()
            .unwrap();
        assert_eq!((cfg.workers, cfg.retry_cap), (1, 5), "workers is at least 1");
        assert_eq!(cfg.port_file.as_deref(), Some(std::path::Path::new("/tmp/p")));
        assert_eq!(cfg.queue_capacity, ServeConfig::default().queue_capacity);
        assert!(config(&argv(&["--help"])).unwrap().is_none());
    }
}
