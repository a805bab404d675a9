//! Shared CLI argument parsing for the `cai-bench` binaries.
//!
//! `paper_eval` and `driver_eval` each grew a copy-pasted positional
//! scanner (`position` + `get(i + 1)` + `parse().ok()`), with subtly
//! different error behavior. This module is that scanner, once: an
//! [`Args`] view over the raw argv whose accessors *consume* matched
//! arguments, so a binary pulls its flags and treats whatever remains as
//! positional items. A flag that is present but carries a missing or
//! unparseable value is a hard usage error (exit 2) in both binaries.

use std::str::FromStr;

/// The unconsumed command-line arguments of a bench binary.
#[derive(Clone, Debug)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// The process arguments, program name skipped.
    #[must_use]
    pub fn parse() -> Args {
        Args::from_vec(std::env::args().skip(1).collect())
    }

    /// A view over an explicit argument vector (tests).
    #[must_use]
    pub fn from_vec(raw: Vec<String>) -> Args {
        Args { raw }
    }

    /// Consumes a boolean flag; true if it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.raw.iter().position(|a| a == name) {
            Some(i) => {
                self.raw.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consumes `name` and its value. `None` when the flag is absent; a
    /// usage error (exit 2) when it is present without a parseable value.
    pub fn opt_value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.raw.iter().position(|a| a == name)?;
        let parsed = self.raw.get(i + 1).and_then(|v| v.parse().ok());
        match parsed {
            Some(v) => {
                self.raw.drain(i..=i + 1);
                Some(v)
            }
            None => {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            }
        }
    }

    /// Consumes `name` and its value, falling back to `default` when the
    /// flag is absent.
    pub fn value_or<T: FromStr>(&mut self, name: &str, default: T) -> T {
        self.opt_value(name).unwrap_or(default)
    }

    /// Consumes `name` and its string value (no parsing beyond presence).
    pub fn opt_str(&mut self, name: &str) -> Option<String> {
        self.opt_value::<String>(name)
    }

    /// The remaining (positional) arguments.
    #[must_use]
    pub fn rest(self) -> Vec<String> {
        self.raw
    }
}

/// Writes a run's spans as a Chrome `trace_event` JSON file — the shared
/// tail of every binary's `--trace-out FILE` flag. Exits 1 when the file
/// cannot be written (a requested artifact silently missing is worse than
/// a failed run).
pub fn write_trace_out(path: &str, trace: &cai_obs::Trace) {
    match std::fs::write(path, trace.to_chrome_json()) {
        Ok(()) => println!(
            "wrote {} span(s) to {path} (dropped {})",
            trace.spans.len(),
            trace.dropped
        ),
        Err(e) => {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the `--blame-out FILE` JSON artifact of the blame report,
/// mirroring [`write_trace_out`]. Exits 1 when the file cannot be
/// written.
pub fn write_blame_out(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote blame report to {path}"),
        Err(e) => {
            eprintln!("failed to write blame report to {path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_vec(v.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn flags_consume_and_leave_positionals() {
        let mut a = args(&["fig1", "--obs-report", "--threads", "4", "fig2"]);
        assert!(a.flag("--obs-report"));
        assert!(!a.flag("--obs-report"));
        assert_eq!(a.value_or("--threads", 1usize), 4);
        assert_eq!(a.value_or("--procs", 64usize), 64);
        assert!(a.opt_str("--trace-out").is_none());
        assert_eq!(a.rest(), vec!["fig1".to_string(), "fig2".to_string()]);
    }

    #[test]
    fn opt_value_absent_is_none() {
        let mut a = args(&[]);
        assert_eq!(a.opt_value::<u64>("--deadline-ms"), None);
        assert!(a.rest().is_empty());
    }
}
