//! The argv reader every binary of the workspace shares.
//!
//! Arguments are `--name value` pairs and valueless `--switch`es,
//! checked while they are read against the names the command accepts.
//! An unknown flag, a flag without its value and a value that does not
//! parse are all errors, so a typo never silently runs a default.

use std::fmt::Display;
use std::str::FromStr;

/// The parsed arguments of one command.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Reads `argv` (program and subcommand names already removed).
    /// `flags` lists the `--name value` flags the command accepts, as
    /// one or more tables so commands can share groups of them;
    /// `switches` lists its valueless flags.
    pub fn parse(argv: &[String], flags: &[&[&str]], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a flag, got '{arg}'"))?;
            if switches.contains(&key) {
                out.switches.push(key.to_string());
            } else if flags.iter().any(|table| table.contains(&key)) {
                let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?;
                out.values.push((key.to_string(), value.clone()));
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(out)
    }

    /// Whether the valueless `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The raw value of `--key` (the last one, if repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The value of a flag the command cannot run without.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// The value of `--key` parsed as a `T`; `None` when absent.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(key)
            .map(|v| v.parse().map_err(|e| format!("--{key} '{v}': {e}")))
            .transpose()
    }

    /// [`Self::value`], with `default` standing in for an absent flag.
    pub fn value_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.value(key)?.unwrap_or(default))
    }

    /// A boolean flag (`true|1|yes` / `false|0|no`), `default` when
    /// absent.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some("true" | "1" | "yes") => Ok(true),
            Some("false" | "0" | "no") => Ok(false),
            Some(v) => Err(format!("--{key} expects true|false, got '{v}'")),
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
    fn reads_pairs_switches_and_typed_values() {
        let a = Args::parse(
            &argv(&["--scale", "0.25", "--check", "--n", "3", "--n", "4", "--on", "yes"]),
            &[&["scale"], &["n", "on", "absent"]],
            &["check", "help"],
        )
        .unwrap();
        assert!(a.switch("check") && !a.switch("help"));
        assert_eq!(a.value::<f64>("scale"), Ok(Some(0.25)));
        assert_eq!(a.value_or("n", 0usize), Ok(4), "the last occurrence wins");
        assert_eq!(a.value_or("absent", 7u64), Ok(7));
        assert_eq!(a.bool_or("on", false), Ok(true));
        assert_eq!(a.required("scale"), Ok("0.25"));
        assert!(a.required("absent").unwrap_err().contains("--absent is required"));
    }

    #[test]
    fn a_typo_is_an_error_wherever_it_is() {
        let flags: &[&[&str]] = &[&["scale", "on"]];
        let parse = |v: &[&str]| Args::parse(&argv(v), flags, &["check"]);
        assert!(parse(&["--sclae", "1"]).unwrap_err().contains("unknown flag --sclae"));
        assert!(parse(&["--chekc"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["scale", "1"]).unwrap_err().contains("expected a flag"));
        assert!(parse(&["--scale"]).unwrap_err().contains("needs a value"));
        let a = parse(&["--scale", "abc", "--on", "maybe"]).unwrap();
        assert!(a.value::<f64>("scale").unwrap_err().contains("--scale 'abc'"));
        assert!(a.bool_or("on", true).is_err());
    }
}
