//! Running a child to completion: stdout captured, the moment a marked
//! line appears recorded, CPU time and peak RSS taken at reap.

use std::io::{self, BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use pfi_benchkit::report::{Checks, Row};
use pfi_benchkit::rusage::{wait_with_usage, ChildUsage};

/// A finished child.
pub struct ChildRun {
    /// Everything it printed on stdout.
    pub stdout: String,
    /// Exit status, CPU seconds, peak RSS.
    pub usage: ChildUsage,
    /// Spawn → reaped, seconds.
    pub wall_s: f64,
    /// Spawn → first stdout line starting with the mark, seconds.
    pub marked_s: Option<f64>,
}

/// Spawns `cmd` (stdin and stderr closed off), reads its stdout to the
/// end, and reaps it. `mark` names the line a user is waiting for.
pub fn run(cmd: &mut Command, mark: &str) -> io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pipe = child.stdout.take().expect("stdout was piped");
    let mut stdout = String::new();
    let mut marked_s = None;
    let mut reader = BufReader::new(pipe);
    let mut line = String::new();
    loop {
        line.clear();
        // A read error (non-UTF-8 output, say) must still reap the child.
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if marked_s.is_none() && line.starts_with(mark) {
            marked_s = Some(start.elapsed().as_secs_f64());
        }
        stdout.push_str(&line);
    }
    drop(reader);
    let usage = wait_with_usage(child)?;
    Ok(ChildRun {
        stdout,
        usage,
        wall_s: start.elapsed().as_secs_f64(),
        marked_s,
    })
}

/// Runs one of the benchmark's helper binaries and reads what it reports:
/// `metric …` lines become rows of `workload`, `check …` lines fold into
/// `checks`, `# …` lines pass through to our stdout. A helper that cannot
/// be run or exits non-zero without having reported a failed check is
/// itself a failed check.
pub fn helper(
    cmd: &mut Command,
    workload: &str,
    checks: &mut Checks,
) -> Option<(Vec<Row>, ChildRun)> {
    let child = match run(cmd, "\0") {
        Ok(child) => child,
        Err(e) => {
            checks.fail(format!(
                "{workload}: cannot run {:?}: {e}",
                cmd.get_program()
            ));
            return None;
        }
    };
    let failed_before = checks.failed;
    let mut rows = Vec::new();
    for line in child.stdout.lines() {
        if let Some(row) = Row::parse_line(workload, line) {
            rows.push(row);
        } else if line.starts_with('#') {
            println!("{line}");
        } else {
            checks.absorb_line(line);
        }
    }
    if child.usage.exit_code != Some(0) && checks.failed == failed_before {
        checks.fail(format!(
            "{workload}: {:?} exited {:?} (signal {:?})",
            cmd.get_program(),
            child.usage.exit_code,
            child.usage.signal
        ));
    }
    Some((rows, child))
}

/// [`helper`], rows only.
pub fn helper_rows(cmd: &mut Command, workload: &str, checks: &mut Checks) -> Vec<Row> {
    helper(cmd, workload, checks).map_or_else(Vec::new, |(rows, _)| rows)
}
