//! End-to-end tests of the `pfi-campaign` CLI: arguments it does not
//! understand are usage errors (exit 2, naming the argument) instead of
//! being skipped, and the `--stats` block keeps the labels the repository
//! benchmark (`bench/src/campaign_stats.rs`) reads off stdout.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pfi-campaign"))
        .args(args)
        .output()
        .expect("pfi-campaign runs")
}

#[test]
fn arguments_it_does_not_understand_exit_2_and_are_named() {
    let unbundled = pfi_testgen::unknown_protocol("foo");
    for (args, named) in [
        // Unknown flags: a typo of a real one, and one that no longer exists.
        (
            &["gmp", "--explore", "--no-snapshot", "--digest"][..],
            "--no-snapshot",
        ),
        (&["gmp", "--explore", "--serve", "pfi.sock"][..], "--serve"),
        (
            &["gmp", "--explore", "--explain-pruned"][..],
            "--explain-pruned",
        ),
        // A flag missing its value, mid-line and at the end.
        (
            &["gmp", "--explore", "--budget", "--digest"][..],
            "--budget",
        ),
        (&["gmp", "--explore", "--journal"][..], "--journal"),
        // A numeric flag whose value does not parse.
        (&["gmp", "--explore", "--budget", "1k"][..], "--budget"),
        // A second positional.
        (&["gmp", "tcp"][..], "tcp"),
        // Fleet flags on the grid, which runs on the calling thread.
        (&["gmp", "--jobs", "2"][..], "--jobs"),
        (&["tcp", "--stats"][..], "--stats"),
        // A protocol the bundled table does not have, in either mode.
        (&["foo"][..], &unbundled),
        (&["foo", "--explore", "--digest"][..], &unbundled),
    ] {
        let out = run(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start a campaign");
    }
}

#[test]
fn stats_block_keeps_the_labels_the_benchmark_reads() {
    // Between them the two runs pass every flag the benchmark passes.
    let out = run(&[
        "gmp",
        "--explore",
        "--epoch",
        "8",
        "--digest",
        "--stats",
        "--budget",
        "24",
        "--jobs",
        "2",
        "--seed",
        "42",
        "--fault-secs",
        "5",
        "--max-faults",
        "2",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("pfi-campaign digest gmp seed=42 budget=24 epoch=8 "),
        "{stdout}"
    );
    let snap = stdout
        .lines()
        .find(|l| l.starts_with("snapshots: "))
        .expect("a snapshots line");
    for label in [
        " hit(s), ",
        " miss(es) (",
        "% hit rate), ",
        " prefix event(s) skipped",
    ] {
        assert!(snap.contains(label), "{label:?} missing from {snap:?}");
    }
    assert!(!snap.starts_with("snapshots: 0 hit"), "{snap}");
    // The one counter added behind the labels above: forks that were not
    // driven because their filters never act on the baseline's traffic.
    // Some of gmp's candidates always are (they fault message types a
    // converged group never sends), and never all of them.
    let number_before = |label: &str| -> u64 {
        let end = snap
            .find(label)
            .unwrap_or_else(|| panic!("{label:?} missing from {snap:?}"));
        let digits = snap[..end]
            .rsplit(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap_or_default();
        digits
            .parse()
            .unwrap_or_else(|_| panic!("no count before {label:?} in {snap:?}"))
    };
    assert!(
        snap.ends_with(" replayed from the baseline"),
        "the new label comes after every existing one: {snap:?}"
    );
    let (replayed, hits) = (
        number_before(" replayed from the baseline"),
        number_before(" hit(s), "),
    );
    assert!(0 < replayed && replayed < hits, "{snap:?}");
    let fleet = stdout
        .lines()
        .find(|l| l.starts_with("fleet: "))
        .expect("a fleet line");
    for label in [
        " worker(s), ",
        " epoch(s), ",
        " job(s), ",
        " rejected pre-dispatch, ",
        " pruned as equivalent, ",
        " pruned as inert, ",
        " panic(s), ",
        " quarantined, ",
        " ms wall, ",
        " ms busy)",
    ] {
        assert!(fleet.contains(label), "{label:?} missing from {fleet:?}");
    }
    // The retired prune tiers' labels stay, reading zero.
    assert!(
        fleet.contains(" 0 pruned as equivalent, 0 pruned as inert, "),
        "{fleet}"
    );

    let plainest = run(&[
        "gmp",
        "--explore",
        "--budget",
        "24",
        "--seed",
        "42",
        "--fault-secs",
        "5",
        "--stats",
        "--no-snapshots",
        "--no-pruning",
        "--no-prefilter",
        "--no-semantic",
    ]);
    let stdout = String::from_utf8(plainest.stdout).unwrap();
    assert_eq!(plainest.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("snapshots: disabled"),
        "the benchmark reads this as zero hits: {stdout}"
    );
}

/// `--no-pruning` and `--no-semantic` outlived the tiers they switched
/// off (the benchmark's plainest path passes them): accepted, and no byte
/// of a report changes but the host-time figures.
#[test]
fn retired_prune_flags_change_no_byte_but_wall_and_busy() {
    // Every number that reads the host clock: the one before `exec/s` or
    // `ms`, masked.
    let mask = |out: Output| -> String {
        let stdout = String::from_utf8(out.stdout).unwrap();
        let mut masked = format!("exit {:?}\n", out.status.code());
        for line in stdout.lines() {
            let tokens: Vec<&str> = line.split(' ').collect();
            for (i, token) in tokens.iter().enumerate() {
                let timed = tokens
                    .get(i + 1)
                    .is_some_and(|next| next.starts_with("exec/s") || next.starts_with("ms"));
                if timed {
                    masked.extend(token.chars().take_while(|c| !c.is_ascii_digit()));
                    masked.push('*');
                } else {
                    masked.push_str(token);
                }
                masked.push(' ');
            }
            masked.push('\n');
        }
        masked
    };
    let base = "tcp --explore --budget 64 --seed 17000 --epoch 8 --jobs 1 --stats";
    for report in [&[][..], &["--digest"][..]] {
        let args = |retired: &[&'static str]| -> Vec<&str> {
            base.split(' ')
                .chain(report.iter().chain(retired).copied())
                .collect()
        };
        let plain = mask(run(&args(&[])));
        assert!(
            plain.contains(" * exec/s wall (* ms wall, * ms busy)"),
            "{plain}"
        );
        for retired in [
            &["--no-pruning"][..],
            &["--no-semantic"][..],
            &["--no-pruning", "--no-semantic"][..],
        ] {
            assert_eq!(mask(run(&args(retired))), plain, "{retired:?}");
        }
    }
}
