//! Output: the human-readable table, the one-line JSON result the last
//! line of standard output carries, and the result file with provenance.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::{Config, RunResult};

/// A JSON number with every digit as measured (`null` if not finite, which
/// the benchmark's tests reject).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal (the benchmark's own strings need only these
/// escapes).
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_object(r: &RunResult) -> String {
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_object(r)
    )
}

/// Human-readable lines: one per metric, then the run's details.
pub fn table(cfg: &Config, r: &RunResult) -> String {
    let mut out = format!(
        "perfbench {} seed={} seconds={} trace={}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for m in &r.metrics {
        let _ = writeln!(out, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &r.details {
        let _ = writeln!(out, "  # {k} = {v}");
    }
    out
}

/// Where the host and build the run measured came from.
pub fn provenance(cfg: &Config) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("git_describe", git_describe()),
        ("wide", cfg!(feature = "wide").to_string()),
        ("seed", cfg.seed.to_string()),
    ]
}

/// The CPU's brand string, from CPUID.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
        .flat_map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
                .into_iter()
                .flat_map(u32::to_le_bytes)
        })
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// `git describe --always --dirty` of the benchmark's checkout, or
/// `unknown` outside a git checkout (git is kept from searching above it).
fn git_describe() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let ceiling = root.join("..");
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .env("GIT_CONFIG_NOSYSTEM", "1")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The result file: provenance, configuration, result and details.
pub fn result_file(cfg: &Config, r: &RunResult) -> String {
    let pairs = |items: &[(&'static str, String)]| -> String {
        let body: Vec<String> = items
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), string(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    format!(
        "{{\"workload\": {}, \"seconds\": {}, \"trace\": {}, \"provenance\": {}, \
         \"result\": {}, \"details\": {}}}\n",
        string(cfg.workload.name()),
        num(cfg.seconds),
        cfg.trace,
        pairs(&provenance(cfg)),
        result_line(r),
        pairs(&r.details)
    )
}
