//! Write-ahead campaign journal: crash-safe exploration with resume.
//!
//! A long exploration that dies at 90% — a power cut, an OOM kill, a
//! panicking worker taking the process down — used to lose everything.
//! The journal makes campaign progress durable: an [`ExploreConfig`] with
//! a `journal` path appends one record per merged candidate *as the
//! campaign runs*, and a later run handed the loaded [`Journal`] as
//! `resume` replays every recorded result without re-executing it,
//! producing the byte-identical [`ExploreOutcome`] (same corpus, same
//! coverage, same repro bytes, same digest) while only paying for the
//! work the interrupted run never finished.
//!
//! [`ExploreConfig`]: crate::ExploreConfig
//! [`ExploreOutcome`]: crate::ExploreOutcome
//!
//! # Format
//!
//! The journal is the same hand-rolled line-oriented text the repro
//! artifact uses — append-only, human-readable, no serialization
//! dependency:
//!
//! ```text
//! pfi-journal v1
//! target gmp
//! world-seed 4242
//! seed 42
//! budget 24
//! max-faults 3
//! epoch 8
//! prefilter true
//! seed-corpus 0000000000000000
//! step-budget 0
//! max-retries 2
//! jobs 4
//! snapshots on
//! dispatch baseline
//! case begin
//! verdict degraded membership changed 2 times under the fault
//! cover gmp:n0:Started
//! cover gmp:n0:Started>GroupView:3
//! case end
//! dispatch n1 recv drop-all HEARTBEAT
//! case begin
//! fault n1 recv drop-all HEARTBEAT
//! verdict violated gmp-no-self-death: n1 declared itself dead
//! oracle gmp-no-self-death
//! cover gmp:n1:SelfDeath
//! shrunk n1 recv drop-all HEARTBEAT
//! shrink-runs 3
//! message n1 declared itself dead
//! case end
//! counters executed=27 rejected=2 replayed=0 crashed=0 hung=0
//! complete
//! ```
//!
//! Journals written while the engine had prune tiers also carry `pruning`
//! and `semantic` header lines (after `prefilter`) and `pruned=` /
//! `inert=` counters; the loader checks that each is well-formed and drops
//! it, so such a journal resumes and reconstructs like any other.
//!
//! The `jobs` line records the resolved worker count of the run that
//! wrote the journal, the `snapshots` line whether it used snapshot/fork
//! execution, and the `counters` line the final campaign counters —
//! statistics for the campaign record, not identity:
//! outcomes depend on none of them, so resume neither checks them nor
//! requires them to match, and they are the only journal lines that may
//! differ between runs of the same campaign (a resumed run's `counters`
//! line reports its own nonzero `replayed`). `dispatch` lines are the
//! write-*ahead* part: the id of every candidate
//! is journaled before its epoch executes, so an interrupted journal names
//! the work that was in flight when the process died. `case` blocks are
//! the results, appended in canonical merge order (which is deterministic,
//! so an uninterrupted journal's bytes are a pure function of the campaign
//! config — and a resumed campaign, journaling to a fresh file, reproduces
//! those bytes exactly). `quarantine` blocks record candidates the worker
//! supervisor gave up on after exhausting panic retries; they carry no
//! result and are **not** replayed on resume — a resumed campaign retries
//! them fresh. A final `complete` line marks a campaign that finished.
//!
//! # Torn tails
//!
//! The journal is a line file (DESIGN.md, "Line files and torn tails"),
//! written record-at-a-time, so a killed process leaves at most one
//! partial record at the end. [`Journal::from_text`] drops it — the torn
//! line and an unterminated trailing block — and that work re-executes on
//! resume. Anything malformed *before* the tail is corruption, not
//! interruption, and is an error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::lines::{self, one_line};
use crate::runner::Verdict;
use crate::schedule::FaultSchedule;

/// The journal's format-version header line.
const HEADER: &str = "pfi-journal v1";

/// The campaign identity a journal records — enough to verify a resume
/// matches the run that wrote the journal, and for the CLI to reconstruct
/// the campaign config from the journal alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Target name ([`crate::TestTarget::name`]).
    pub target: String,
    /// The target's world seed ([`crate::TestTarget::seed`]).
    pub world_seed: u64,
    /// Exploration RNG seed.
    pub seed: u64,
    /// Mutation budget.
    pub budget: usize,
    /// Maximum faults per schedule.
    pub max_faults: usize,
    /// Candidates per dispatch epoch.
    pub epoch: usize,
    /// Whether static pre-filtering was on.
    pub prefilter: bool,
    /// FNV-1a digest of the seed-corpus schedule ids (0 when the campaign
    /// started from the bare baseline). Identity: a campaign seeded with a
    /// different corpus walks a different space, so resume must be handed
    /// the same seed schedules.
    pub seed_corpus: u64,
    /// Interpreter step budget (0 = interpreter default).
    pub step_budget: u64,
    /// Panic-retry budget per candidate before quarantine.
    pub max_retries: u32,
}

/// One shrink result recorded with a violated case.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalShrink {
    /// The 1-minimal schedule.
    pub shrunk: FaultSchedule,
    /// How many re-executions shrinking performed.
    pub runs: usize,
    /// The confirmed bare violation message — present iff this case was
    /// the *first* discovery of its (oracle, shrunk) failure and the
    /// master ran the confirmation; duplicates skip confirmation and
    /// record nothing.
    pub message: Option<String>,
}

/// One merged candidate result: everything resume needs to replay the
/// merge without re-executing the candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCase {
    /// The candidate schedule (empty = the baseline).
    pub schedule: FaultSchedule,
    /// The run's verdict.
    pub verdict: Verdict,
    /// Violated oracle name, when the verdict is a violation.
    pub oracle: Option<String>,
    /// The run's full coverage edge set, sorted.
    pub coverage: Vec<String>,
    /// Shrink results, when the run violated an oracle (the baseline is
    /// never shrunk, so a violated baseline legitimately lacks this).
    pub shrink: Option<JournalShrink>,
}

/// The campaign's final counters, journaled as one non-identity line just
/// before the `complete` marker so `results`-style tooling (the pfi-serve
/// daemon's store) can report them after a restart without replaying the
/// campaign. Like `jobs` and `snapshots`, resume never compares this line:
/// `replayed` legitimately differs between an uninterrupted run (0) and a
/// resumed one, so counters are excluded from journal byte-equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalCounters {
    /// Schedules that actually ran (baseline + novel mutants + shrink and
    /// confirmation re-runs).
    pub executed: usize,
    /// Candidates refused as uninstallable.
    pub rejected: usize,
    /// Results replayed from a resume journal instead of re-executed.
    pub replayed: usize,
    /// Runs whose target or oracle panicked (contained).
    pub crashed: usize,
    /// Runs a runaway-run watchdog cut short.
    pub hung: usize,
}

/// One candidate the worker supervisor quarantined: it panicked on every
/// retry, so there is no result to replay — only the record that the
/// lineage was dropped. Resume retries these fresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalQuarantine {
    /// The quarantined schedule.
    pub schedule: FaultSchedule,
    /// Executions attempted (1 + retries).
    pub attempts: u32,
    /// The panic message of the last attempt.
    pub error: String,
}

/// A loaded campaign journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The campaign identity.
    pub meta: JournalMeta,
    /// The resolved worker count of the run that wrote the journal —
    /// statistics, not identity. Campaign outcomes are worker-count-
    /// independent by construction, so resume never checks this (a journal
    /// recorded at `--jobs 4` resumes fine at `--jobs 1`), and — like
    /// `snapshots` — it may legitimately differ between runs of the same
    /// campaign.
    pub jobs: Option<usize>,
    /// Whether the writing run used snapshot/fork execution — statistics,
    /// not identity, exactly like `jobs`: outcomes are byte-identical with
    /// snapshots on or off, so resume never checks this either (a journal
    /// recorded with snapshots on resumes fine with them off, and vice
    /// versa).
    pub snapshots: Option<bool>,
    /// Every schedule id journaled as dispatched (write-ahead intent).
    pub dispatched: Vec<String>,
    /// Completed case records, in merge order.
    pub cases: Vec<JournalCase>,
    /// Quarantined candidates, in merge order.
    pub quarantined: Vec<JournalQuarantine>,
    /// The final counters, written just before `complete` — the third
    /// non-identity line class (after `jobs` and `snapshots`): a resumed
    /// run reports its own `replayed`, so this line may differ between
    /// runs of the same campaign and is excluded from byte-equality.
    pub counters: Option<JournalCounters>,
    /// Whether the journal ends with the `complete` marker — the campaign
    /// ran to its full budget.
    pub complete: bool,
}

fn render_meta(meta: &JournalMeta) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    let _ = writeln!(out, "target {}", meta.target);
    let _ = writeln!(out, "world-seed {}", meta.world_seed);
    let _ = writeln!(out, "seed {}", meta.seed);
    let _ = writeln!(out, "budget {}", meta.budget);
    let _ = writeln!(out, "max-faults {}", meta.max_faults);
    let _ = writeln!(out, "epoch {}", meta.epoch);
    let _ = writeln!(out, "prefilter {}", meta.prefilter);
    let _ = writeln!(out, "seed-corpus {:016x}", meta.seed_corpus);
    let _ = writeln!(out, "step-budget {}", meta.step_budget);
    let _ = writeln!(out, "max-retries {}", meta.max_retries);
    out
}

/// The number of metadata lines [`render_meta`] writes after the header.
const META_LINES: usize = 10;

fn render_counters(c: &JournalCounters) -> String {
    format!(
        "counters executed={} rejected={} replayed={} crashed={} hung={}\n",
        c.executed, c.rejected, c.replayed, c.crashed, c.hung
    )
}

fn render_case(case: &JournalCase) -> String {
    let mut out = String::new();
    out.push_str("case begin\n");
    for line in case.schedule.to_lines() {
        let _ = writeln!(out, "fault {line}");
    }
    let verdict = match &case.verdict {
        Verdict::Pass => "pass".to_string(),
        Verdict::Degraded(m) => format!("degraded {}", one_line(m)),
        Verdict::Violated(m) => format!("violated {}", one_line(m)),
        Verdict::Invalid(m) => format!("invalid {}", one_line(m)),
        Verdict::Crashed(m) => format!("crashed {}", one_line(m)),
        Verdict::Hung(m) => format!("hung {}", one_line(m)),
    };
    let _ = writeln!(out, "verdict {verdict}");
    if let Some(oracle) = &case.oracle {
        let _ = writeln!(out, "oracle {oracle}");
    }
    for edge in &case.coverage {
        let _ = writeln!(out, "cover {edge}");
    }
    if let Some(shrink) = &case.shrink {
        for line in shrink.shrunk.to_lines() {
            let _ = writeln!(out, "shrunk {line}");
        }
        let _ = writeln!(out, "shrink-runs {}", shrink.runs);
        if let Some(message) = &shrink.message {
            let _ = writeln!(out, "message {}", one_line(message));
        }
    }
    out.push_str("case end\n");
    out
}

fn render_quarantine(q: &JournalQuarantine) -> String {
    let mut out = String::new();
    out.push_str("quarantine begin\n");
    for line in q.schedule.to_lines() {
        let _ = writeln!(out, "fault {line}");
    }
    let _ = writeln!(out, "attempts {}", q.attempts);
    let _ = writeln!(out, "error {}", one_line(&q.error));
    out.push_str("quarantine end\n");
    out
}

impl Journal {
    /// An empty journal for `meta` — what a campaign that died before its
    /// first record would load as.
    pub fn new(meta: JournalMeta) -> Self {
        Journal {
            meta,
            jobs: None,
            snapshots: None,
            dispatched: Vec::new(),
            cases: Vec::new(),
            quarantined: Vec::new(),
            counters: None,
            complete: false,
        }
    }

    /// The case records keyed by schedule id — what resume replays.
    pub fn replay_map(&self) -> BTreeMap<String, JournalCase> {
        self.cases
            .iter()
            .map(|c| (c.schedule.id(), c.clone()))
            .collect()
    }

    /// Renders the canonical text form. Dispatch lines are grouped before
    /// the records (a live journal interleaves them per epoch);
    /// [`from_text`](Journal::from_text) accepts both shapes, and
    /// `from_text(to_text(j)) == j` holds for every journal.
    pub fn to_text(&self) -> String {
        let mut out = render_meta(&self.meta);
        if let Some(jobs) = self.jobs {
            let _ = writeln!(out, "jobs {jobs}");
        }
        if let Some(on) = self.snapshots {
            let _ = writeln!(out, "snapshots {}", if on { "on" } else { "off" });
        }
        for id in &self.dispatched {
            let _ = writeln!(out, "dispatch {id}");
        }
        for case in &self.cases {
            out.push_str(&render_case(case));
        }
        for q in &self.quarantined {
            out.push_str(&render_quarantine(q));
        }
        if let Some(c) = &self.counters {
            out.push_str(&render_counters(c));
        }
        if self.complete {
            out.push_str("complete\n");
        }
        out
    }

    /// Parses journal text. A torn tail — a final line without its
    /// newline, or an unterminated trailing `case`/`quarantine` block — is
    /// dropped silently (that work re-executes on resume). Anything
    /// malformed *before* the tail, a line outside the line grammar
    /// included, is an error.
    pub fn from_text(text: impl AsRef<[u8]>) -> Result<Self, String> {
        let mut lines = lines::complete(text.as_ref())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|why| format!("malformed journal line: {why}"))?
            .into_iter();
        if lines.next() != Some(HEADER) {
            return Err(format!("missing {HEADER:?} header"));
        }

        let mut target = None;
        let mut world_seed = None;
        let mut seed = None;
        let mut budget = None;
        let mut max_faults = None;
        let mut epoch = None;
        let mut prefilter = None;
        let mut seed_corpus = None;
        let mut step_budget = None;
        let mut max_retries = None;
        let parse_u64 = |field: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|e| format!("bad {field} {v:?}: {e}"))
        };
        let parse_bool = |field: &str, v: &str| {
            v.parse::<bool>()
                .map_err(|e| format!("bad {field} {v:?}: {e}"))
        };
        let mut read = 0;
        while read < META_LINES {
            let Some(line) = lines.next() else {
                return Err("journal truncated inside its metadata header".to_string());
            };
            match line.split_once(' ') {
                // The switches of the retired prune tiers (module doc).
                Some((key @ ("pruning" | "semantic"), v)) => {
                    parse_bool(key, v)?;
                    continue;
                }
                Some(("target", v)) => target = Some(v.to_string()),
                Some(("world-seed", v)) => world_seed = Some(parse_u64("world-seed", v)?),
                Some(("seed", v)) => seed = Some(parse_u64("seed", v)?),
                Some(("budget", v)) => budget = Some(parse_u64("budget", v)? as usize),
                Some(("max-faults", v)) => max_faults = Some(parse_u64("max-faults", v)? as usize),
                Some(("epoch", v)) => epoch = Some(parse_u64("epoch", v)? as usize),
                Some(("prefilter", v)) => prefilter = Some(parse_bool("prefilter", v)?),
                Some(("seed-corpus", v)) => {
                    seed_corpus = Some(
                        u64::from_str_radix(v, 16)
                            .map_err(|e| format!("bad seed-corpus {v:?}: {e}"))?,
                    )
                }
                Some(("step-budget", v)) => step_budget = Some(parse_u64("step-budget", v)?),
                Some(("max-retries", v)) => max_retries = Some(parse_u64("max-retries", v)? as u32),
                _ => return Err(format!("unrecognised metadata line: {line:?}")),
            }
            read += 1;
        }
        let meta = JournalMeta {
            target: target.ok_or("missing target line")?,
            world_seed: world_seed.ok_or("missing world-seed line")?,
            seed: seed.ok_or("missing seed line")?,
            budget: budget.ok_or("missing budget line")?,
            max_faults: max_faults.ok_or("missing max-faults line")?,
            epoch: epoch.ok_or("missing epoch line")?,
            prefilter: prefilter.ok_or("missing prefilter line")?,
            seed_corpus: seed_corpus.ok_or("missing seed-corpus line")?,
            step_budget: step_budget.ok_or("missing step-budget line")?,
            max_retries: max_retries.ok_or("missing max-retries line")?,
        };

        let mut journal = Journal::new(meta);
        while let Some(line) = lines.next() {
            if journal.complete {
                return Err(format!("content after complete marker: {line:?}"));
            }
            match line {
                "complete" => journal.complete = true,
                "case begin" => {
                    let Some(case) = parse_case(&mut lines)? else {
                        break; // torn trailing block: drop it
                    };
                    journal.cases.push(case);
                }
                "quarantine begin" => {
                    let Some(q) = parse_quarantine(&mut lines)? else {
                        break;
                    };
                    journal.quarantined.push(q);
                }
                _ => match line.split_once(' ') {
                    Some(("dispatch", id)) => journal.dispatched.push(id.to_string()),
                    Some(("jobs", v)) => {
                        journal.jobs = Some(parse_u64("jobs", v)? as usize);
                    }
                    Some(("counters", v)) => {
                        let mut c = JournalCounters::default();
                        for field in v.split_whitespace() {
                            let (name, value) = field
                                .split_once('=')
                                .ok_or_else(|| format!("bad counters field {field:?}"))?;
                            let value = parse_u64(name, value)? as usize;
                            match name {
                                "executed" => c.executed = value,
                                "rejected" => c.rejected = value,
                                // The retired prune tiers' counters.
                                "pruned" | "inert" => {}
                                "replayed" => c.replayed = value,
                                "crashed" => c.crashed = value,
                                "hung" => c.hung = value,
                                other => return Err(format!("unknown counter {other:?}")),
                            }
                        }
                        journal.counters = Some(c);
                    }
                    Some(("snapshots", v)) => {
                        // Journals written while the store was a keyed
                        // cache end this line in its capacity, `cache=N`;
                        // it is checked and dropped.
                        let (mode, cache) = match v.split_once(' ') {
                            Some((mode, rest)) => (mode, Some(rest)),
                            None => (v, None),
                        };
                        let on = match mode {
                            "on" => true,
                            "off" => false,
                            other => return Err(format!("bad snapshots mode {other:?}")),
                        };
                        if let Some(rest) = cache {
                            rest.strip_prefix("cache=")
                                .and_then(|c| c.parse::<usize>().ok())
                                .ok_or_else(|| format!("bad snapshots cache: {rest:?}"))?;
                        }
                        journal.snapshots = Some(on);
                    }
                    _ => return Err(format!("unrecognised journal line: {line:?}")),
                },
            }
        }
        Ok(journal)
    }

    /// Loads and parses a journal file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        Self::from_text(bytes)
    }

    /// Rebuilds the campaign outcome the recorded cases merge to —
    /// **without executing anything**. This replays exactly the merge the
    /// engine performs (coverage-novel schedules join the corpus in case
    /// order; cases whose shrink carries a confirmed message are the
    /// first discoveries of their failure), so for a complete journal the
    /// reconstructed [`digest`](crate::ExploreOutcome::digest) is
    /// byte-identical to the live run's. Counters come from the journal's
    /// `counters` line (zeros when an interrupted journal never wrote
    /// one); snapshot statistics are not journaled and read as zeros.
    ///
    /// This is what lets `pfi-serve results` answer from the store alone
    /// after a daemon restart.
    pub fn reconstruct(&self) -> crate::ExploreOutcome {
        let mut coverage = crate::Coverage::new();
        let mut corpus: Vec<FaultSchedule> = Vec::new();
        let mut failures = Vec::new();
        for case in &self.cases {
            if case.verdict.is_invalid() {
                continue;
            }
            let novel = coverage.merge(&crate::Coverage::from_edges(case.coverage.clone())) > 0;
            if corpus.is_empty() || novel {
                // The first case is the baseline, which the engine always
                // keeps regardless of novelty.
                corpus.push(case.schedule.clone());
            }
            let Some(shrink) = &case.shrink else { continue };
            let Some(message) = &shrink.message else {
                continue; // duplicate of an earlier discovery
            };
            let oracle = case.oracle.clone().unwrap_or_else(|| "target".to_string());
            failures.push(crate::FoundFailure {
                schedule: case.schedule.clone(),
                shrunk: shrink.shrunk.clone(),
                oracle: oracle.clone(),
                message: message.clone(),
                repro: crate::Repro {
                    target: self.meta.target.clone(),
                    seed: self.meta.world_seed,
                    oracle,
                    message: message.clone(),
                    schedule: shrink.shrunk.clone(),
                },
            });
        }
        let c = self.counters.unwrap_or_default();
        crate::ExploreOutcome {
            corpus,
            coverage,
            failures,
            executed: c.executed,
            rejected: c.rejected,
            replayed: c.replayed,
            crashed: c.crashed,
            hung: c.hung,
            quarantined: self.quarantined.clone(),
            snapshots: crate::SnapshotStats::default(),
        }
    }
}

/// Parses one `case` block; `Ok(None)` means the block was unterminated
/// (the torn tail of an interrupted journal).
fn parse_case<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<Option<JournalCase>, String> {
    let mut fault_lines: Vec<&str> = Vec::new();
    let mut verdict = None;
    let mut oracle = None;
    let mut coverage = Vec::new();
    let mut shrunk_lines: Vec<&str> = Vec::new();
    let mut shrink_runs = None;
    let mut message = None;
    let mut ended = false;
    for line in lines {
        if line == "case end" {
            ended = true;
            break;
        }
        match line.split_once(' ') {
            Some(("fault", v)) => fault_lines.push(v),
            Some(("verdict", v)) => {
                let (kind, msg) = v.split_once(' ').unwrap_or((v, ""));
                verdict = Some(match kind {
                    "pass" => Verdict::Pass,
                    "degraded" => Verdict::Degraded(msg.to_string()),
                    "violated" => Verdict::Violated(msg.to_string()),
                    "invalid" => Verdict::Invalid(msg.to_string()),
                    "crashed" => Verdict::Crashed(msg.to_string()),
                    "hung" => Verdict::Hung(msg.to_string()),
                    other => return Err(format!("unknown verdict kind {other:?}")),
                });
            }
            Some(("oracle", v)) => oracle = Some(v.to_string()),
            Some(("cover", v)) => coverage.push(v.to_string()),
            Some(("shrunk", v)) => shrunk_lines.push(v),
            Some(("shrink-runs", v)) => {
                shrink_runs = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad shrink-runs {v:?}: {e}"))?,
                )
            }
            Some(("message", v)) => message = Some(v.to_string()),
            _ => return Err(format!("unrecognised case line: {line:?}")),
        }
    }
    if !ended {
        return Ok(None);
    }
    let verdict = verdict.ok_or("case record missing verdict line")?;
    let shrink = match shrink_runs {
        Some(runs) => Some(JournalShrink {
            shrunk: FaultSchedule::from_lines(shrunk_lines)?,
            runs,
            message,
        }),
        None if !shrunk_lines.is_empty() => {
            return Err("case record has shrunk lines but no shrink-runs".to_string())
        }
        None => None,
    };
    if shrink.is_some() && !verdict.is_violation() {
        return Err("case record has shrink results but a non-violated verdict".to_string());
    }
    Ok(Some(JournalCase {
        schedule: FaultSchedule::from_lines(fault_lines)?,
        verdict,
        oracle,
        coverage,
        shrink,
    }))
}

/// Parses one `quarantine` block; `Ok(None)` means it was unterminated.
fn parse_quarantine<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<Option<JournalQuarantine>, String> {
    let mut fault_lines: Vec<&str> = Vec::new();
    let mut attempts = None;
    let mut error = None;
    let mut ended = false;
    for line in lines {
        if line == "quarantine end" {
            ended = true;
            break;
        }
        match line.split_once(' ') {
            Some(("fault", v)) => fault_lines.push(v),
            Some(("attempts", v)) => {
                attempts = Some(
                    v.parse::<u32>()
                        .map_err(|e| format!("bad attempts {v:?}: {e}"))?,
                )
            }
            Some(("error", v)) => error = Some(v.to_string()),
            _ => return Err(format!("unrecognised quarantine line: {line:?}")),
        }
    }
    if !ended {
        return Ok(None);
    }
    Ok(Some(JournalQuarantine {
        schedule: FaultSchedule::from_lines(fault_lines)?,
        attempts: attempts.ok_or("quarantine record missing attempts line")?,
        error: error.ok_or("quarantine record missing error line")?,
    }))
}

/// Appends journal records to a file as the campaign runs. Each record is
/// written and flushed whole, so a killed process tears at most the last
/// record — exactly what [`Journal::from_text`] tolerates.
///
/// [`create`](JournalWriter::create) truncates: a resumed campaign writes
/// a *fresh* journal (replayed records included, in the same canonical
/// merge order), so the resumed file ends byte-identical to the journal an
/// uninterrupted run would have written.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    /// Creates (or truncates) the journal file and writes the metadata
    /// header.
    pub fn create(path: &Path, meta: &JournalMeta) -> Result<Self, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        let mut writer = JournalWriter {
            file,
            path: path.to_path_buf(),
        };
        writer.append(&render_meta(meta))?;
        Ok(writer)
    }

    /// Records the resolved worker count of the run writing this journal.
    /// Statistics only — never part of the campaign identity resume
    /// checks, since outcomes are worker-count-independent.
    pub fn jobs(&mut self, jobs: usize) -> Result<(), String> {
        self.append(&format!("jobs {jobs}\n"))
    }

    /// Records whether the run uses snapshot/fork execution. Statistics
    /// only, like [`jobs`](JournalWriter::jobs) — outcomes are
    /// byte-identical either way, so resume never checks it.
    pub fn snapshots(&mut self, on: bool) -> Result<(), String> {
        self.append(&format!("snapshots {}\n", if on { "on" } else { "off" }))
    }

    /// Journals dispatch intent: `id` is about to execute (or replay).
    pub fn dispatch(&mut self, id: &str) -> Result<(), String> {
        self.append(&format!("dispatch {id}\n"))
    }

    /// Journals one merged case result.
    pub fn case(&mut self, case: &JournalCase) -> Result<(), String> {
        self.append(&render_case(case))
    }

    /// Journals one quarantined candidate.
    pub fn quarantine(&mut self, q: &JournalQuarantine) -> Result<(), String> {
        self.append(&render_quarantine(q))
    }

    /// Journals the campaign's final counters (non-identity; written just
    /// before [`complete`](JournalWriter::complete)).
    pub fn counters(&mut self, c: &JournalCounters) -> Result<(), String> {
        self.append(&render_counters(c))
    }

    /// Marks the campaign complete (it ran to its full budget).
    pub fn complete(&mut self) -> Result<(), String> {
        self.append("complete\n")
    }

    fn append(&mut self, text: &str) -> Result<(), String> {
        self.file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("journal write to {} failed: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultOp, ScheduledFault};
    use pfi_core::Direction;

    fn drop_fault(site: u32, msg: &str) -> ScheduledFault {
        ScheduledFault {
            site,
            dir: Direction::Receive,
            op: FaultOp::DropAll {
                msg_type: msg.to_string(),
            },
        }
    }

    fn sample() -> Journal {
        let schedule = FaultSchedule {
            faults: vec![drop_fault(1, "HEARTBEAT")],
        };
        Journal {
            meta: JournalMeta {
                target: "gmp".into(),
                world_seed: 4242,
                seed: 42,
                budget: 24,
                max_faults: 3,
                epoch: 8,
                prefilter: true,
                seed_corpus: 0,
                step_budget: 0,
                max_retries: 2,
            },
            jobs: Some(4),
            snapshots: Some(true),
            dispatched: vec!["baseline".to_string(), schedule.id()],
            cases: vec![
                JournalCase {
                    schedule: FaultSchedule::empty(),
                    verdict: Verdict::Pass,
                    oracle: None,
                    coverage: vec!["gmp:n0:Started".into(), "gmp:n0:Started>GroupView:3".into()],
                    shrink: None,
                },
                JournalCase {
                    schedule: schedule.clone(),
                    verdict: Verdict::Violated("gmp-no-self-death: n1 died".into()),
                    oracle: Some("gmp-no-self-death".into()),
                    coverage: vec!["gmp:n1:SelfDeath".into()],
                    shrink: Some(JournalShrink {
                        shrunk: schedule,
                        runs: 3,
                        message: Some("n1 died".into()),
                    }),
                },
            ],
            quarantined: vec![JournalQuarantine {
                schedule: FaultSchedule {
                    faults: vec![drop_fault(2, "COMMIT")],
                },
                attempts: 3,
                error: "oracle exploded".into(),
            }],
            counters: Some(JournalCounters {
                executed: 6,
                rejected: 1,
                replayed: 0,
                crashed: 0,
                hung: 0,
            }),
            complete: true,
        }
    }

    #[test]
    fn round_trip_is_value_identical() {
        let journal = sample();
        let text = journal.to_text();
        let parsed = Journal::from_text(&text).unwrap();
        assert_eq!(parsed, journal);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn torn_tails_drop_the_partial_record_only() {
        let journal = sample();
        let text = journal.to_text();
        // Cut the text at every byte boundary: parsing must either succeed
        // with a prefix of the records, or (inside the metadata header)
        // fail — never accept garbage or panic.
        for cut in 0..text.len() {
            match Journal::from_text(&text.as_bytes()[..cut]) {
                Ok(j) => {
                    assert_eq!(j.meta, journal.meta);
                    // Whatever cases survived are a prefix of the real ones.
                    assert!(j.cases.len() <= journal.cases.len());
                    for (got, want) in j.cases.iter().zip(&journal.cases) {
                        assert_eq!(got, want, "cut at {cut}");
                    }
                    assert!(!j.complete || cut == text.len());
                }
                Err(_) => {
                    // Only tolerable while still inside the metadata
                    // header — records must degrade, not error.
                    let meta_len = render_meta(&journal.meta).len();
                    assert!(
                        cut < meta_len,
                        "cut at {cut} (past the {meta_len}-byte header) must not error"
                    );
                }
            }
        }
    }

    #[test]
    fn mid_file_garbage_is_an_error_not_a_tear() {
        let mut text = sample().to_text();
        text.push_str("wat is this\n");
        let err = Journal::from_text(&text).unwrap_err();
        assert!(err.contains("content after complete"), "{err}");

        let corrupted = sample().to_text().replace("verdict pass", "verdict yolo");
        assert!(Journal::from_text(&corrupted).is_err());

        // A line outside the line grammar is malformed like any other.
        let mut bytes = sample().to_text().into_bytes();
        bytes[40] = 0xff;
        assert!(Journal::from_text(&bytes)
            .unwrap_err()
            .contains("non-UTF-8"));
    }

    #[test]
    fn a_snapshots_line_ending_in_a_cache_capacity_still_loads() {
        let journal = sample();
        let text = journal.to_text();
        let old = text.replace("snapshots on\n", "snapshots on cache=64\n");
        assert_ne!(old, text);
        assert_eq!(Journal::from_text(&old).unwrap(), journal);
        assert!(Journal::from_text(old.replace("cache=64", "cache=lots")).is_err());
    }

    /// The header and counters of a journal written while the prune tiers
    /// existed: both switches after `prefilter`, both counters after
    /// `rejected` — in either setting the journal loads as the same value.
    fn with_prune_tier_lines(text: &str, pruning: bool, semantic: bool) -> String {
        text.replace(
            "prefilter true\n",
            &format!("prefilter true\npruning {pruning}\nsemantic {semantic}\n"),
        )
        .replace("rejected=1 ", "rejected=1 pruned=2 inert=5 ")
    }

    #[test]
    fn a_journal_from_the_prune_tier_era_still_loads() {
        let journal = sample();
        let text = journal.to_text();
        for (pruning, semantic) in [(true, true), (false, true), (true, false)] {
            let old = with_prune_tier_lines(&text, pruning, semantic);
            assert_ne!(old, text);
            assert_eq!(Journal::from_text(&old).unwrap(), journal);
            // Torn anywhere past the old, longer header, it still loads.
            let header = old.find("jobs ").unwrap();
            for cut in header..old.len() {
                assert_eq!(Journal::from_text(&old[..cut]).unwrap().meta, journal.meta);
            }
        }
        // Checked, not skipped: a malformed value is an error.
        let old = with_prune_tier_lines(&text, true, true);
        for bad in [
            old.replace("pruning true", "pruning yes"),
            old.replace("semantic true", "semantic"),
            old.replace("pruned=2", "pruned=two"),
            old.replace("inert=5", "inert"),
        ] {
            assert!(Journal::from_text(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn writer_and_to_text_agree() {
        let journal = sample();
        let path =
            std::env::temp_dir().join(format!("pfi_journal_{}_writer_agrees", std::process::id()));
        let mut w = JournalWriter::create(&path, &journal.meta).unwrap();
        w.jobs(4).unwrap();
        w.snapshots(true).unwrap();
        for id in &journal.dispatched {
            w.dispatch(id).unwrap();
        }
        for case in &journal.cases {
            w.case(case).unwrap();
        }
        for q in &journal.quarantined {
            w.quarantine(q).unwrap();
        }
        w.counters(journal.counters.as_ref().unwrap()).unwrap();
        w.complete().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(bytes, journal.to_text().as_bytes());
        assert_eq!(Journal::from_text(&bytes).unwrap(), journal);
    }

    #[test]
    fn multiline_messages_are_collapsed_not_corrupting() {
        let mut journal = sample();
        journal.cases[1].verdict = Verdict::Crashed("panicked at:\nassertion failed".into());
        journal.cases[1].oracle = None;
        journal.cases[1].shrink = None;
        let parsed = Journal::from_text(journal.to_text()).unwrap();
        assert_eq!(
            parsed.cases[1].verdict,
            Verdict::Crashed("panicked at: assertion failed".into())
        );
        // The rest of the journal survives the awkward payload.
        assert_eq!(parsed.cases.len(), 2);
        assert!(parsed.complete);
    }

    #[test]
    fn replay_map_keys_by_schedule_id() {
        let journal = sample();
        let map = journal.replay_map();
        assert_eq!(map.len(), 2);
        assert!(map.contains_key("baseline"));
        assert!(map.contains_key(&journal.cases[1].schedule.id()));
    }
}
