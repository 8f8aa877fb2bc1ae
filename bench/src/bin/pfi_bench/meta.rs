//! Provenance recorded with every JSON document: enough to tell whether
//! two baselines are comparable at all.

use std::process::Command;

use pfi_benchkit::json::Value;

use crate::Ctx;

/// `/proc/loadavg`, verbatim (empty where there is no procfs).
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `_meta` object. `load_before` was read before the first run.
pub fn meta(ctx: &Ctx, length: &str, load_before: &str) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        (
            "git_rev",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        ("seed", Value::Num(ctx.seed as f64)),
        ("length", Value::Str(length.to_string())),
        ("loadavg_before", Value::Str(load_before.to_string())),
        ("loadavg_after", Value::Str(loadavg())),
        (
            "flush_policy",
            Value::Str(
                "pfi-serve defaults: fsync on store.index appends, none on campaign journals; \
                 store under bench/out on the sandbox's local disk"
                    .to_string(),
            ),
        ),
    ])
}
