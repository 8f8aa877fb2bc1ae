//! The in-tree script corpus must stay lint-clean: every checked-in
//! filter script and every grid schedule's lowered script passes
//! `pfi-lint` with zero error-severity findings. CI runs the same check
//! through the CLI; this test pins it from inside the suite. It doubles
//! as the zero-false-positive acceptance gate: these scripts all run
//! today, so any `error` the analyzer reports against them is by
//! definition a false positive.

use pfi_lint::{Linter, Severity};
use pfi_testgen::{grid, ProtocolSpec};

fn assert_no_errors(linter: &Linter, name: &str, src: &str) {
    let errors: Vec<_> = linter
        .lint(src)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "{name}: error-severity lint findings on working corpus code \
         (false positives): {errors:?}"
    );
}

#[test]
fn checked_in_scripts_have_no_error_findings() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts");
    let linter = Linter::filter();
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scripts/ directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("tcl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        assert_no_errors(&linter, &path.display().to_string(), &src);
        seen += 1;
    }
    assert!(seen >= 5, "expected the paper's scripts, found {seen}");
}

#[test]
fn probabilistic_scripts_warn_nondeterministic_but_still_pass() {
    // The corpus deliberately contains one RNG-drawing script; the
    // determinism lint must flag it as a warning, never an error.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/probabilistic_loss.tcl"
    );
    let src = std::fs::read_to_string(path).unwrap();
    let diags = Linter::filter().lint(&src);
    assert!(
        diags
            .iter()
            .any(|d| d.category == pfi_lint::Category::Nondeterministic
                && d.severity == Severity::Warning),
        "{diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.severity < Severity::Error),
        "{diags:?}"
    );
}

#[test]
fn generated_grid_scripts_lint_perfectly_clean() {
    // Machine-generated scripts have no excuse for *any* finding.
    let linter = Linter::filter();
    for spec in [
        ProtocolSpec::gmp(),
        ProtocolSpec::tcp(),
        ProtocolSpec::two_phase_commit(),
    ] {
        let schedules = grid(&spec, 0);
        assert!(!schedules.is_empty());
        for schedule in &schedules {
            for site in schedule.lower() {
                for script in [&site.send, &site.recv] {
                    let diags = linter.lint(script);
                    assert!(diags.is_empty(), "{}: {diags:?}", schedule.id());
                }
            }
        }
    }
}
