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
/// sites. Campaign admission refuses on exactly this predicate.
pub fn schedule_is_installable(schedule: &FaultSchedule, sites: u32) -> bool {
    install_errors(schedule, sites).is_empty()
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
