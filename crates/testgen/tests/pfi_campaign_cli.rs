//! End-to-end tests of the `pfi-campaign` CLI: arguments it does not
//! understand are usage errors (exit 2, naming the argument) instead of
//! being skipped, the `--stats` block keeps the labels the repository
//! benchmark (`bench/src/campaign_stats.rs`) reads off stdout, and the
//! grid prints its rows as schedule ids.

mod support;

use std::process::{Command, Output};

use support::torn_cut;

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

/// The grid runs fixed one-fault rows under the default limits: a flag
/// only an exploration reads is refused there, naming it, before anything
/// runs or any file is written — not ignored.
#[test]
fn the_grid_refuses_what_only_an_exploration_reads() {
    let journal = std::env::temp_dir().join(format!("pfi_grid_{}.journal", std::process::id()));
    std::fs::remove_file(&journal).ok();
    let path = journal.to_str().unwrap();
    for (flag, value) in [
        ("--seed", Some("5")),
        ("--budget", Some("8")),
        ("--max-faults", Some("2")),
        ("--epoch", Some("4")),
        ("--step-budget", Some("100")),
        ("--no-snapshots", None),
        ("--digest", None),
        ("--journal", Some(path)),
        ("--resume", Some(path)),
        ("--max-retries", Some("1")),
    ] {
        let args: Vec<&str> = ["tpc", flag].into_iter().chain(value).collect();
        let out = run(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs --explore")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run the grid");
    }
    let out = run(&["gmp", "--budget", "8", "--journal", path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!journal.exists(), "a refused grid writes no journal");
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
    // The one counter added behind the labels above: candidates neither
    // forked nor driven because none of their faults can act on the
    // baseline's traffic. Some of gmp's candidates always are (they fault
    // message types a converged group never sends), and never all of them.
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
    assert!(0 < replayed && 0 < hits, "{snap:?}");
    // Mutants handed their parent's outcome fork nothing, so they are
    // counted beside the hits, ahead of the line's last label.
    assert!(
        snap.contains(" prefix event(s) skipped, ")
            && snap.contains(" inherited from the parent, "),
        "{snap:?}"
    );
    number_before(" inherited from the parent");
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

/// `--resume X --journal X` reads the torn journal before it empties the
/// file, which then holds the journal an uninterrupted run writes, but for
/// the `counters` line, where the resumed run reports what it replayed.
#[test]
fn resuming_into_the_journal_it_reads_leaves_the_uninterrupted_journal() {
    let path = |name: &str| {
        let file = format!("pfi_campaign_cli_{}_{name}.journal", std::process::id());
        std::env::temp_dir().join(file)
    };
    let (full, torn) = (path("full"), path("torn"));
    let campaign = |journal_flags: &[&str]| {
        let args = "gmp --explore --seed 42 --budget 24 --epoch 8 --digest";
        let args: Vec<&str> = args
            .split(' ')
            .chain(journal_flags.iter().copied())
            .collect();
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        out.stdout
    };
    let digest = campaign(&["--journal", full.to_str().unwrap()]);
    let full_text = std::fs::read_to_string(&full).unwrap();
    let (cut, kept) = torn_cut(&full_text);
    std::fs::write(&torn, &full_text[..cut]).unwrap();
    let torn_arg = torn.to_str().unwrap();
    assert_eq!(
        campaign(&["--resume", torn_arg, "--journal", torn_arg]),
        digest
    );

    let resumed_text = std::fs::read_to_string(&torn).unwrap();
    let (counters, rest): (Vec<&str>, Vec<&str>) = resumed_text
        .split_inclusive('\n')
        .partition(|l| l.starts_with("counters "));
    let (full_counters, full_rest): (Vec<&str>, Vec<&str>) = full_text
        .split_inclusive('\n')
        .partition(|l| l.starts_with("counters "));
    assert_eq!(rest, full_rest);
    assert!(
        full_counters[0].contains(" replayed=0 "),
        "{full_counters:?}"
    );
    let replayed = format!(" replayed={kept} ");
    assert!(counters[0].contains(&replayed), "{counters:?}");
    assert!(kept > 0 && kept < full_text.matches("case end\n").count());
    let but_replayed = |line: &str| {
        line.split(' ')
            .filter(|f| !f.starts_with("replayed="))
            .collect::<String>()
    };
    assert_eq!(but_replayed(counters[0]), but_replayed(full_counters[0]));
    for file in [full, torn] {
        std::fs::remove_file(file).unwrap();
    }
}

/// A `--resume` journal recorded for another campaign is a usage error
/// that names the first metadata line that differs, and nothing runs. A
/// `--max-faults 0` campaign is the `--max-faults 1` one, journal and all.
#[test]
fn resuming_another_campaigns_journal_exits_2_naming_the_line() {
    let journal = std::env::temp_dir().join(format!(
        "pfi_campaign_cli_{}_other.journal",
        std::process::id()
    ));
    let path = journal.to_str().unwrap();
    let base = ["gmp", "--explore", "--budget", "8", "--epoch", "8"];
    let campaign = |extra: &[&str]| run(&[&base[..], extra].concat());
    let out = campaign(&["--seed", "1", "--max-faults", "0", "--journal", path]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.contains("\nmax-faults 1\n"), "{text}");
    let out = campaign(&["--seed", "1", "--max-faults", "1", "--resume", path]);
    assert_eq!(out.status.code(), Some(0), "the same campaign resumes");

    let out = campaign(&["--seed", "2", "--resume", path]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("`seed 1`") && stderr.contains("`seed 2`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs: {stderr}");
    std::fs::remove_file(journal).unwrap();
}

/// `--no-pruning` and `--no-semantic` outlived the tiers they switched
/// off, and `--no-prefilter` the second place a refusal could happen (the
/// benchmark's plainest path passes all three): accepted, and no byte of a
/// report changes but the host-time figures.
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
            &["--no-prefilter"][..],
            &["--no-pruning", "--no-semantic", "--no-prefilter"][..],
        ] {
            assert_eq!(mask(run(&args(retired))), plain, "{retired:?}");
        }
    }
}

/// Campaigns at step budgets of 1–6 keep their recorded digests and
/// replayed counts. At these budgets some filters run out of steps on some
/// messages and not on others; an evaluation skipped that would have run
/// out, or run that would not have, moves a count or a digest.
#[test]
fn small_step_budgets_keep_their_digests() {
    let golden = include_str!("fixtures/step_budget_digests.txt");
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split(" | ");
        let (Some(config), Some(digest), Some(snapshots)) =
            (fields.next(), fields.next(), fields.next())
        else {
            panic!("`config | digest | snapshots`: {line}");
        };
        let mut args: Vec<&str> = config.split(' ').collect();
        args.extend([
            "--explore",
            "--budget",
            "64",
            "--epoch",
            "8",
            "--seed",
            "5",
            "--jobs",
            "1",
            "--digest",
            "--stats",
        ]);
        let out = run(&args);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line_of = |prefix: &str| stdout.lines().find(|l| l.starts_with(prefix));
        assert_eq!(line_of("pfi-campaign digest "), Some(digest), "{config}");
        assert_eq!(line_of("snapshots: "), Some(snapshots), "{config}");
    }
}

/// The grid (no `--explore`): every row is a one-fault schedule, printed
/// by its schedule id, and a violation row is a schedule line a repro or
/// `pfi-lint` takes as is.
#[test]
fn grid_rows_are_schedules() {
    let out = run(&["gmp", "--buggy"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("VIOLATION n1 send drop-all HEARTBEAT "),
        "{stdout}"
    );
    let violations: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("VIOLATION "))
        .collect();
    assert_eq!(violations.len(), 9, "{stdout}");

    let out = run(&["tpc"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = run(&["gmp", "--list"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let headers: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .collect();
    assert_eq!(headers.len(), 88, "{stdout}");
    for id in headers {
        let schedule = pfi_testgen::FaultSchedule::from_id(id).unwrap();
        assert_eq!(schedule.id(), id);
    }
}
