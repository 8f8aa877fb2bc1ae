//! `repro` prints every table of the paper's evaluation. Its stdout is
//! recorded in `fixtures/repro-stdout.txt` (a copy of the benchmark's
//! `bench/golden/repro-stdout.txt`), and a run must reproduce it byte for
//! byte: no change to the interpreter, the PFI layer or the stacks may move
//! a number in a table.

use std::path::Path;
use std::process::Command;

#[test]
fn repro_prints_the_recorded_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/repro-stdout.txt");
    let recorded = std::fs::read_to_string(&fixture).expect("read the recorded stdout");
    let got = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    if got != recorded {
        let first = got
            .lines()
            .zip(recorded.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(recorded.lines().count()));
        panic!(
            "repro's stdout diverges from {} at line {}:\n  recorded: {}\n  printed:  {}",
            fixture.display(),
            first + 1,
            recorded.lines().nth(first).unwrap_or("<end>"),
            got.lines().nth(first).unwrap_or("<end>"),
        );
    }
}
