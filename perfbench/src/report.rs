//! What one run reports: its metrics, its correctness checks, and the
//! host and provenance block printed with every result.

use crate::catalog::{Workload, END_TO_END, PER_LAYER};
use crate::stats::Fnv;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Default)]
pub struct Report {
    values: HashMap<&'static str, f64>,
    /// Operations attempted and failed: requests, publishes, stories.
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: BTreeMap<String, bool>,
    /// Sample counts, percentiles used and other context for readers.
    pub notes: BTreeMap<String, String>,
    /// Set when the generator fell behind its schedule: the run is
    /// invalid and reports no numbers.
    pub invalid: Option<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        let prev = self.checks.get(&name).copied().unwrap_or(true);
        self.checks.insert(name, prev && ok);
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.notes.insert(key.into(), value.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.values().all(|&ok| ok)
    }

    /// The metrics this run prints, in catalog order: every end-to-end
    /// metric untraced, every per-layer metric traced. A per-layer
    /// metric of a layer this workload bypasses reads 0. Also returns
    /// the metrics the workload should have measured but did not.
    pub fn metrics(
        &self,
        w: Workload,
        traced: bool,
    ) -> (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>) {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        let mut emit = |name: &'static str, unit: &'static str, expected: bool| {
            let value = self.values.get(name).copied();
            if expected && value.is_none_or(|v| !v.is_finite()) {
                missing.push(name);
            }
            out.push((name, value.filter(|v| v.is_finite()).unwrap_or(0.0), unit));
        };
        if traced {
            for m in PER_LAYER {
                emit(m.name, m.unit, m.loaded_by(w));
            }
        } else {
            for m in END_TO_END {
                emit(m.name, m.unit, true);
            }
        }
        (out, missing)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::Str(s.to_string())).expect("render string")
}

/// The host and provenance block: who ran what, where, on which tree.
pub fn provenance(report: &Report, fields: &[(&str, String)]) -> String {
    let mut out = String::from("{\"provenance\": {");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = [
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        (
            "rustc",
            json_str(&command_line("rustc", &["--version"]).unwrap_or_default()),
        ),
        (
            "git_sha",
            command_line("git", &["rev-parse", "HEAD"]).map_or("null".into(), |s| json_str(&s)),
        ),
        ("source_digest", json_str(&source_digest(Path::new(".")))),
    ];
    let mut first = true;
    for (k, v) in host
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain(fields.iter().cloned())
    {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{k}\": {v}");
    }
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(k, ok)| format!("{}: {ok}", json_str(k)))
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let _ = write!(
        out,
        ", \"checks\": {{{}}}, \"notes\": {{{}}}}}}}",
        checks.join(", "),
        notes.join(", ")
    );
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, so results from a tree without git history still name
/// the code they measured.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "src",
        "perfbench",
    ] {
        collect_sources(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        h.write(path.to_string_lossy().as_bytes());
        h.write(&std::fs::read(&path).unwrap_or_default());
    }
    format!("{:016x}", h.0)
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_sources(&p, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("p50_ms", 1.25);
        r.check("bodies", true);
        let (metrics, missing) = r.metrics(Workload::RankUnique, false);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(missing.contains(&"setup_s") && !missing.contains(&"p50_ms"));
        let line = result_line(&r, &metrics);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let serde_json::Value::Map(entries) = v else {
            panic!("object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }

    #[test]
    fn a_failed_check_or_request_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("a", true);
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.check("a", false);
        r.check("a", true);
        assert!(!r.correct(), "a failed check stays failed");
    }
}
