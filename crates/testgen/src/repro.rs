//! Replayable repro artifacts for campaign-found failures.
//!
//! When exploration finds and shrinks a failing schedule, the engine
//! writes a small hand-rolled text artifact — target, world seed, violated
//! oracle, and the 1-minimal fault lines — that replays byte-identically:
//! parsing the text and re-running the schedule against a fresh target
//! reproduces the same violation, and re-serializing reproduces the same
//! bytes. No serialization dependency, no versioned binary format; the
//! artifact is meant to be pasted into a bug report and read by a human.
//!
//! ```text
//! pfi-repro v1
//! target gmp
//! seed 4242
//! oracle gmp-no-self-death
//! message n1 declared itself dead
//! fault n1 send drop-all HEARTBEAT
//! end
//! ```
//!
//! It is a line file (DESIGN.md, "Line files and torn tails").

use crate::lines::{self, one_line};
use crate::schedule::FaultSchedule;

/// The artifact's format-version header line.
const HEADER: &str = "pfi-repro v1";

/// One campaign-found failure, in replayable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Target name ([`crate::TestTarget::name`]).
    pub target: String,
    /// The target's world seed (every run of a target reuses it).
    pub seed: u64,
    /// Name of the violated oracle.
    pub oracle: String,
    /// The violation message the oracle produced.
    pub message: String,
    /// The shrunk, 1-minimal fault schedule.
    pub schedule: FaultSchedule,
}

impl Repro {
    /// Renders the artifact text (stable: identical repros render
    /// identical bytes; the message as the journal records it, [`one_line`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("target {}\n", self.target));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("oracle {}\n", self.oracle));
        out.push_str(&format!("message {}\n", one_line(&self.message)));
        for line in self.schedule.to_lines() {
            out.push_str(&format!("fault {line}\n"));
        }
        out.push_str("end\n");
        out
    }

    /// Parses an artifact back; inverse of [`to_text`](Repro::to_text).
    pub fn from_text(text: impl AsRef<[u8]>) -> Result<Self, String> {
        let mut lines = lines::complete(text.as_ref());
        if lines.next() != Some(Ok(HEADER)) {
            return Err(format!("missing {HEADER:?} header"));
        }
        let mut target = None;
        let mut seed = None;
        let mut oracle = None;
        let mut message = None;
        let mut fault_lines = Vec::new();
        let mut ended = false;
        for line in lines {
            let line = line.map_err(|why| format!("malformed line: {why}"))?;
            if ended {
                return Err(format!("content after end: {line:?}"));
            }
            match line.split_once(' ') {
                _ if line == "end" => ended = true,
                Some(("target", v)) => target = Some(v.to_string()),
                Some(("seed", v)) => {
                    seed = Some(
                        v.parse::<u64>()
                            .map_err(|e| format!("bad seed {v:?}: {e}"))?,
                    )
                }
                Some(("oracle", v)) => oracle = Some(v.to_string()),
                Some(("message", v)) => message = Some(v.to_string()),
                Some(("fault", v)) => fault_lines.push(v),
                _ => return Err(format!("unrecognised line: {line:?}")),
            }
        }
        if !ended {
            return Err("missing end line".to_string());
        }
        Ok(Repro {
            target: target.ok_or("missing target line")?,
            seed: seed.ok_or("missing seed line")?,
            oracle: oracle.ok_or("missing oracle line")?,
            message: message.ok_or("missing message line")?,
            schedule: FaultSchedule::from_lines(fault_lines)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultOp, ScheduledFault};
    use pfi_core::Direction;

    fn sample() -> Repro {
        Repro {
            target: "gmp".into(),
            seed: 4242,
            oracle: "gmp-no-self-death".into(),
            message: "n1 declared itself dead".into(),
            schedule: FaultSchedule {
                faults: vec![
                    ScheduledFault {
                        site: 1,
                        dir: Direction::Send,
                        op: FaultOp::DropAll {
                            msg_type: "HEARTBEAT".into(),
                        },
                    },
                    ScheduledFault {
                        site: 2,
                        dir: Direction::Receive,
                        op: FaultOp::DelayMs {
                            msg_type: "COMMIT".into(),
                            ms: 5_000,
                        },
                    },
                ],
            },
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let repro = sample();
        let text = repro.to_text();
        let parsed = Repro::from_text(&text).unwrap();
        assert_eq!(parsed, repro);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn text_is_the_documented_shape() {
        assert_eq!(
            sample().to_text(),
            "pfi-repro v1\ntarget gmp\nseed 4242\noracle gmp-no-self-death\n\
             message n1 declared itself dead\nfault n1 send drop-all HEARTBEAT\n\
             fault n2 recv delay-ms COMMIT 5000\nend\n"
        );
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(Repro::from_text("").is_err());
        assert!(Repro::from_text("pfi-repro v1\ntarget gmp\n").is_err());
        assert!(Repro::from_text("pfi-repro v2\nend\n").is_err());
        let mut truncated = sample().to_text();
        truncated.truncate(truncated.len() - 4);
        assert!(Repro::from_text(&truncated).is_err());
        let trailing = format!("{}junk\n", sample().to_text());
        assert!(Repro::from_text(&trailing).is_err());
    }
}
