//! Static validation of fault schedules before anything runs.
//!
//! Two tiers, deliberately separated:
//!
//! * [`install_errors`] — the *exact* predicate the runner enforces at
//!   install time: every fault site must exist on the target, and every
//!   lowered filter script must parse. A schedule failing it can never be
//!   installed, so campaign admission refuses it **without changing any
//!   run that would have happened** — the runner refuses exactly the same
//!   schedules at execution time ([`Verdict::Invalid`](crate::Verdict)).
//!   [`schedule_is_installable`] answers it without parsing for the
//!   schedules a campaign draws: a fault on a site the target lacks
//!   refuses the schedule, and message types made only of
//!   `[A-Za-z0-9_-]` always lower to filters that parse, so only another
//!   type takes the full parse. That lets the campaign master refuse a
//!   candidate before it asks whether an earlier run settles it, and
//!   lower only what is left.
//! * [`validate_schedule`] — everything else worth telling a human:
//!   faults the target's flow model proves inert (message types outside
//!   the protocol spec, destinations outside the topology or another
//!   node's traffic, a zero XOR mask, zero duplicate copies), plus a full
//!   `pfi-lint` pass over each lowered script.
//!   These are warnings: such schedules install and run fine (the fault
//!   just never fires, or fires vacuously), so rejecting them would
//!   change which runs execute and so what a campaign finds.

use std::sync::Arc;

use pfi_lint::{Category, Diagnostic, Linter, Severity};
use pfi_script::{Script, Span};

use crate::reach::FlowModel;
use crate::runner::TestTarget;
use crate::schedule::{FaultSchedule, SiteScripts};
use crate::spec::ProtocolSpec;

/// One schedule-level finding.
#[derive(Debug, Clone)]
pub struct ScheduleFinding {
    /// How serious: `Error` findings block installation; the rest do not.
    pub severity: Severity,
    /// Index of the offending fault in the schedule, when the finding is
    /// attributable to one.
    pub fault: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Script diagnostics backing this finding (lint findings on a
    /// lowered filter carry their own spans against that script).
    pub diagnostics: Vec<Diagnostic>,
}

impl ScheduleFinding {
    fn new(severity: Severity, fault: Option<usize>, message: impl Into<String>) -> Self {
        ScheduleFinding {
            severity,
            fault,
            message: message.into(),
            diagnostics: Vec::new(),
        }
    }
}

/// One site's filters as the install check compiled them: `[send, recv]`,
/// `None` where the source is empty or does not parse.
pub(crate) type CompiledSite = [Option<Arc<Script>>; 2];

/// The install check: the install-blocking problems of `scripts` against a
/// target with `sites` fault sites, and — index for index with `scripts` —
/// every filter it parsed on the way, so whoever installs them next does
/// not parse them again.
pub(crate) fn check_install(
    scripts: &[SiteScripts],
    sites: u32,
) -> (Vec<String>, Vec<CompiledSite>) {
    let mut errors = Vec::new();
    let compiled = scripts
        .iter()
        .map(|s| {
            if s.site >= sites {
                errors.push(format!(
                    "filter addresses fault site n{} but the target has only {sites} fault site(s)",
                    s.site
                ));
            }
            [("send", &s.send), ("recv", &s.recv)].map(|(dir, src)| {
                if src.is_empty() {
                    return None;
                }
                match Script::parse(src) {
                    Ok(script) => Some(Arc::new(script)),
                    Err(e) => {
                        errors.push(format!("site n{} {dir} filter does not parse: {e}", s.site));
                        None
                    }
                }
            })
        })
        .collect();
    (errors, compiled)
}

/// The install-blocking problems of a schedule against a target with
/// `sites` fault sites — exactly what the runner refuses at install time,
/// nothing more. Empty means the schedule will install.
pub fn install_errors(schedule: &FaultSchedule, sites: u32) -> Vec<String> {
    check_install(&schedule.lower(), sites).0
}

/// Whether the schedule can be installed on a target with `sites` fault
/// sites: exactly when [`install_errors`] is empty. A campaign refuses a
/// candidate on this predicate before anything else looks at it. A fault
/// on a site the target lacks refuses it outright; only a schedule whose
/// message types are not all made of `[A-Za-z0-9_-]` is lowered and
/// parsed.
pub fn schedule_is_installable(schedule: &FaultSchedule, sites: u32) -> bool {
    schedule.faults.iter().all(|f| f.site < sites)
        && (plain_types(schedule) || install_errors(schedule, sites).is_empty())
}

/// Whether every fault's message type is made only of `[A-Za-z0-9_-]`.
/// Such a schedule's filters parse: its types sit inside the lowered
/// guards' quoted literals, where they close no brace, quote or command
/// substitution, and every other token of a lowered filter is a number or
/// a fixed word. `false` says nothing.
fn plain_types(schedule: &FaultSchedule) -> bool {
    let plain = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    schedule
        .faults
        .iter()
        .all(|f| f.op.msg_type().bytes().all(plain))
}

/// Full static validation against `target`: install errors, inert-fault
/// warnings, and a `pfi-lint` pass over every lowered script. Inert faults
/// are judged by the target's own [`FlowModel`], placement facts included;
/// a target without one gets the permissive model of `spec` and its node
/// count.
pub fn validate_schedule(
    schedule: &FaultSchedule,
    spec: &ProtocolSpec,
    target: &dyn TestTarget,
) -> Vec<ScheduleFinding> {
    let mut findings = Vec::new();
    let sites = target.fault_sites();

    for (i, fault) in schedule.faults.iter().enumerate() {
        if fault.site >= sites {
            findings.push(ScheduleFinding::new(
                Severity::Error,
                Some(i),
                format!(
                    "site n{} is out of range: the target has {sites} fault site(s)",
                    fault.site
                ),
            ));
        }
    }

    // Inert-fault warnings are *not* re-derived here: the flow model runs
    // the same predicate `pfi-lint --spec` does, so what validation warns
    // about and what the linter reports can never drift apart. Each one
    // carries an `inert-fault` diagnostic, so `--deny` / `--warn` re-tier it.
    let model = target
        .flow_model()
        .unwrap_or_else(|| FlowModel::permissive(spec, target.node_count()));
    for fact in model.inert_facts(schedule) {
        let mut finding = ScheduleFinding::new(Severity::Warning, Some(fact.fault), fact.line);
        finding.diagnostics.push(Diagnostic::new(
            Severity::Warning,
            Category::InertFault,
            Span::default(),
            format!("fault can never fire: {} [{}]", fact.message, fact.rule),
        ));
        findings.push(finding);
    }

    let linter = Linter::filter();
    for scripts in schedule.lower() {
        for (dir, src) in [("send", &scripts.send), ("recv", &scripts.recv)] {
            if src.is_empty() {
                continue;
            }
            let diags = linter.lint(src);
            let Some(worst) = diags.iter().map(|d| d.severity).max() else {
                continue;
            };
            let mut finding = ScheduleFinding::new(
                worst,
                None,
                format!(
                    "site n{} {dir} filter: {} lint finding(s)",
                    scripts.site,
                    diags.len()
                ),
            );
            finding.diagnostics = diags;
            findings.push(finding);
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::GmpTarget;
    use crate::schedule::{FaultOp, ScheduledFault};
    use pfi_core::Direction;

    fn fault(site: u32, op: FaultOp) -> ScheduledFault {
        ScheduledFault {
            site,
            dir: Direction::Send,
            op,
        }
    }

    #[test]
    fn in_range_schedule_installs() {
        let s = FaultSchedule {
            faults: vec![fault(
                1,
                FaultOp::DropAll {
                    msg_type: "HEARTBEAT".into(),
                },
            )],
        };
        assert!(install_errors(&s, 3).is_empty());
        assert!(schedule_is_installable(&s, 3));
    }

    #[test]
    fn out_of_range_site_blocks_install() {
        let s = FaultSchedule {
            faults: vec![fault(
                5,
                FaultOp::DropAll {
                    msg_type: "HEARTBEAT".into(),
                },
            )],
        };
        let errs = install_errors(&s, 3);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("site n5"), "{errs:?}");
        assert!(!schedule_is_installable(&s, 3));
    }

    #[test]
    fn unparseable_lowered_script_blocks_install() {
        // A brace inside the message type closes the lowered guard's
        // braced condition early and breaks the outer script.
        let s = FaultSchedule {
            faults: vec![fault(
                0,
                FaultOp::DropAll {
                    msg_type: "HEART}BEAT".into(),
                },
            )],
        };
        let errs = install_errors(&s, 3);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("does not parse"), "{errs:?}");
    }

    /// The predicate is `install_errors` on every schedule the mutator
    /// draws, scrambles included, on each bundled spec — single faults and
    /// schedules grown over many generations — and a schedule of plain
    /// types installs exactly when its sites exist, without a parse.
    #[test]
    fn the_install_predicate_is_exact_on_mutator_output() {
        use crate::schedule::ScheduleMutator;
        use pfi_sim::SimRng;
        let sites = 3;
        for spec in [
            ProtocolSpec::gmp(),
            ProtocolSpec::tcp(),
            ProtocolSpec::two_phase_commit(),
        ] {
            let mutator = ScheduleMutator::new(&spec, 3, sites);
            let (mut unparsed, mut refused, mut drawn) = (0usize, 0usize, 0usize);
            for seed in 0..40 {
                let mut rng = SimRng::seed_from(seed);
                let mut pool = vec![FaultSchedule::empty()];
                for _ in 0..100 {
                    let parent = &pool[rng.uniform_u64(0, pool.len() as u64) as usize];
                    let child = mutator.mutate(parent, 4, &mut rng);
                    let installs = install_errors(&child, sites).is_empty();
                    assert_eq!(
                        schedule_is_installable(&child, sites),
                        installs,
                        "{}",
                        child.id()
                    );
                    if plain_types(&child) {
                        let in_range = child.faults.iter().all(|f| f.site < sites);
                        assert_eq!(installs, in_range, "{}", child.id());
                        unparsed += 1;
                    }
                    refused += usize::from(!installs);
                    drawn += 1;
                    pool.push(child);
                }
            }
            assert!(refused > 0, "{}: no scramble in {drawn} draws", spec.name);
            assert!(
                unparsed * 2 > drawn,
                "{}: only {unparsed} of {drawn} draws took the parse-free path",
                spec.name
            );
        }
    }

    /// Hand-written message types around the plain alphabet, on every
    /// fault kind and direction, on existing sites and past the last: the
    /// predicate still answers exactly what the install check does.
    #[test]
    fn the_install_predicate_is_exact_on_awkward_types() {
        use crate::schedule::ScheduleMutator;
        use pfi_sim::SimRng;
        let types = [
            "A{",
            "A}B",
            "A\"B",
            "A\\",
            "A[x]",
            "A$x",
            "A;B",
            "A B",
            "A\u{e9}",
            "",
            "-",
            "_",
            "0",
            "a-b_C9",
            "HEARTBEAT",
        ];
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(11);
        let (mut installs, mut refused) = (0, 0);
        for _ in 0..64 {
            let drawn = mutator.random_fault(&mut rng);
            for t in types {
                for site in [0, 2, 3, 99] {
                    let mut f = drawn.clone();
                    f.site = site;
                    *f.op.msg_type_mut() = t.to_string();
                    let s = FaultSchedule { faults: vec![f] };
                    let exact = install_errors(&s, 3).is_empty();
                    assert_eq!(schedule_is_installable(&s, 3), exact, "{:?}", s.faults);
                    if plain_types(&s) {
                        assert_eq!(exact, site < 3, "{:?}", s.faults);
                    }
                    if exact {
                        installs += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        assert!(installs > 0 && refused > 0, "{installs} / {refused}");
        // The mutator's own scramble and an out-of-range site are refused.
        for id in ["n1 send drop-all H}EARTBEAT", "n99 send drop-all HEARTBEAT"] {
            let s = FaultSchedule::from_id(id).unwrap();
            assert!(!schedule_is_installable(&s, 3), "{id}");
        }
    }

    #[test]
    fn inert_but_runnable_schedules_are_warnings_not_errors() {
        // These faults never fire, but they install and run: rejecting
        // them would change what a campaign finds.
        let s = FaultSchedule {
            faults: vec![
                fault(
                    0,
                    FaultOp::DropToDest {
                        msg_type: "HEARTBEAT".into(),
                        dst: 99,
                    },
                ),
                fault(
                    1,
                    FaultOp::DropAll {
                        msg_type: "NO_SUCH_TYPE".into(),
                    },
                ),
                fault(
                    2,
                    FaultOp::CorruptByteAt {
                        msg_type: "ACK".into(),
                        offset: 0,
                        mask: 0,
                    },
                ),
            ],
        };
        assert!(install_errors(&s, 3).is_empty());
        let findings = validate_schedule(&s, &ProtocolSpec::gmp(), &GmpTarget::default());
        assert!(findings.len() >= 3, "{findings:?}");
        assert!(
            findings.iter().all(|f| f.severity < Severity::Error),
            "{findings:?}"
        );
        // Each of the three inert faults carries the diagnostic `--deny`
        // re-tiers.
        let inert = findings.iter().filter(|f| {
            f.diagnostics
                .iter()
                .any(|d| d.category == Category::InertFault)
        });
        assert_eq!(inert.count(), 3, "{findings:?}");
    }

    #[test]
    fn recv_drop_to_another_node_is_inert_by_placement() {
        // A receive filter only sees traffic addressed to its own node:
        // on gmp, n1's receive filter never sees a message to node 0.
        let s = FaultSchedule::from_id("n1 recv drop-to-dest HEARTBEAT 0").unwrap();
        let findings = validate_schedule(&s, &ProtocolSpec::gmp(), &GmpTarget::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].fault, Some(0));
        assert!(
            findings[0].diagnostics[0]
                .message
                .contains("[recv-dst-mismatch]"),
            "{findings:?}"
        );
        // The same fault on the send side is live.
        let send = FaultSchedule::from_id("n1 send drop-to-dest HEARTBEAT 0").unwrap();
        let findings = validate_schedule(&send, &ProtocolSpec::gmp(), &GmpTarget::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lowered_scripts_lint_clean() {
        let s = FaultSchedule {
            faults: vec![
                fault(
                    0,
                    FaultOp::DropNth {
                        msg_type: "HEARTBEAT".into(),
                        nth: 3,
                    },
                ),
                fault(
                    0,
                    FaultOp::ReorderWindow {
                        msg_type: "COMMIT".into(),
                        hold: 2,
                    },
                ),
            ],
        };
        let findings = validate_schedule(&s, &ProtocolSpec::gmp(), &GmpTarget::default());
        assert!(findings.is_empty(), "{findings:?}");
    }
}
