//! End-to-end tests of the `pfi-lint` CLI: a golden snapshot of the
//! rendered diagnostics (byte-exact, so output format changes are a
//! deliberate golden-file update), exit codes, `--deny` promotion, and
//! the schedule / repro input modes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixtures() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

fn scripts() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts"))
}

fn run(args: &[&str], cwd: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pfi-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("pfi-lint runs")
}

/// Writes `text` to a unique temp file and returns its path.
fn temp_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pfi_lint_{}_{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn golden_diagnostic_snapshot() {
    let out = run(&["lint_fixture.tcl"], &fixtures());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = include_str!("fixtures/lint_fixture.golden");
    assert_eq!(
        stdout, golden,
        "CLI output changed; if intentional, regenerate \
         crates/testgen/tests/fixtures/lint_fixture.golden by running \
         pfi-lint on the fixture from its own directory"
    );
    assert_eq!(out.status.code(), Some(1), "errors must exit nonzero");
}

#[test]
fn clean_script_exits_zero() {
    let out = run(&["drop_acks.tcl"], &scripts());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn deny_promotes_a_warning_to_a_failing_error() {
    let dir = scripts();
    let ok = run(&["probabilistic_loss.tcl"], &dir);
    assert_eq!(ok.status.code(), Some(0), "warnings alone must pass");
    let denied = run(
        &["--deny", "nondeterministic", "probabilistic_loss.tcl"],
        &dir,
    );
    assert_eq!(denied.status.code(), Some(1));
    let stdout = String::from_utf8(denied.stdout).unwrap();
    assert!(stdout.contains("error[nondeterministic]"), "{stdout}");
}

#[test]
fn schedule_text_is_validated_against_the_target() {
    let dir = fixtures();
    let bad = temp_file("bad_schedule.txt", "n9 send drop-all HEARTBEAT\n");
    let out = run(&[bad.to_str().unwrap()], &dir);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("out of range"), "{stdout}");

    let good = temp_file("good_schedule.txt", "n1 send drop-all HEARTBEAT\n");
    let out = run(&[good.to_str().unwrap()], &dir);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");

    // The same site is valid on gmp (3 sites) but not on tcp (1 site).
    let out = run(&["--target", "tcp", good.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn repro_artifacts_validate_their_own_target() {
    let dir = fixtures();
    let good = temp_file(
        "good.repro",
        "pfi-repro v1\ntarget gmp\nseed 4242\noracle gmp-no-self-death\n\
         message n1 declared itself dead\nfault n1 send drop-all HEARTBEAT\nend\n",
    );
    let out = run(&[good.to_str().unwrap()], &dir);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("target gmp"), "{stdout}");

    let bad = temp_file(
        "bad.repro",
        "pfi-repro v1\ntarget gmp\nseed 4242\noracle gmp-no-self-death\n\
         message n1 declared itself dead\nfault n9 send drop-all HEARTBEAT\nend\n",
    );
    let out = run(&[bad.to_str().unwrap()], &dir);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("out of range"), "{stdout}");
}

#[test]
fn unknown_category_is_a_usage_error() {
    let out = run(&["--deny", "nonsense", "drop_acks.tcl"], &scripts());
    assert_eq!(out.status.code(), Some(2));
}

/// `--target` and `--spec` resolve through the bundled table before any
/// file is read: an unknown name is a usage error carrying the one refusal
/// every front end prints, not a finding.
#[test]
fn an_unbundled_protocol_is_a_usage_error() {
    let refusal = pfi_testgen::unknown_protocol("foo");
    let schedule = temp_file("unbundled_schedule.txt", "n1 send drop-all HEARTBEAT\n");
    for args in [
        &["--target", "foo", schedule.to_str().unwrap()][..],
        &["--spec", "foo", "--grid"][..],
    ] {
        let out = run(args, &fixtures());
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must lint nothing");
    }
}
