//! **GMP Experiment 3 — proclaim forwarding (paper Table 7).**
//!
//! A newcomer's send filter drops `PROCLAIM`s addressed to the group
//! leader, so only the crown prince receives them and must forward them.
//! The buggy leader replies to the *forwarder* instead of the originator:
//! the reply is itself a proclaim, which the forwarder dutifully forwards
//! back to the leader — a vicious proclaim cycle, while the newcomer never
//! hears an answer. The fixed leader replies to the originator and the
//! newcomer joins.

use pfi_gmp::{GmpBugs, GmpEvent};
use pfi_sim::SimDuration;

use crate::common::GmpTestbed;

/// Result of the proclaim-forwarding test.
#[derive(Debug, Clone)]
pub struct Exp3Row {
    /// Whether the bug was injected.
    pub buggy: bool,
    /// Forwards from the crown prince to the leader.
    pub forwards: usize,
    /// Leader answers addressed to the crown prince (loop traffic).
    pub answers_to_forwarder: usize,
    /// Leader answers addressed to the newcomer.
    pub answers_to_originator: usize,
    /// Whether the newcomer made it into the group.
    pub newcomer_admitted: bool,
}

/// Stages the test: a leader (node 0) and crown prince (node 1) group,
/// then a newcomer (node 2) whose proclaims to the leader are dropped at
/// the sender, run for 30 s with or without the forwarding bug.
fn stage(buggy: bool) -> GmpTestbed {
    let mut tb = GmpTestbed::new(
        3,
        GmpBugs {
            proclaim_forward: buggy,
            ..GmpBugs::none()
        },
    );
    tb.start(tb.peers[0]);
    tb.start(tb.peers[1]);
    tb.run(SimDuration::from_secs(30));
    tb.send_script(
        tb.peers[2],
        r#"if {[msg_type] == "PROCLAIM" && [msg_dst] == 0} { xDrop }"#,
    );
    tb.start(tb.peers[2]);
    tb.run(SimDuration::from_secs(30));
    tb
}

/// Runs the test with or without the forwarding bug.
pub fn run(buggy: bool) -> Exp3Row {
    let mut tb = stage(buggy);
    let cp = tb.peers[1].as_u32();
    let newcomer = tb.peers[2].as_u32();
    let mut forwards = 0;
    let mut answers_to_forwarder = 0;
    let mut answers_to_originator = 0;
    tb.world.trace().for_each(|r| {
        // Only traffic after the newcomer appears is part of the test (the
        // initial group formation also answers proclaims).
        if r.time.as_secs_f64() <= 30.0 {
            return;
        }
        if let Some(e) = r.event_as::<GmpEvent>() {
            match e {
                GmpEvent::ProclaimForwarded { .. } if r.node == tb.peers[1] => forwards += 1,
                GmpEvent::ProclaimAnswered { to, .. } if r.node == tb.peers[0] => {
                    if *to == cp {
                        answers_to_forwarder += 1;
                    } else if *to == newcomer {
                        answers_to_originator += 1;
                    }
                }
                _ => {}
            }
        }
    });
    let newcomer_admitted = tb.members(tb.peers[0]).contains(&newcomer);
    Exp3Row {
        buggy,
        forwards,
        answers_to_forwarder,
        answers_to_originator,
        newcomer_admitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_bug_causes_proclaim_loop_and_starves_the_originator() {
        let row = run(true);
        assert!(
            row.answers_to_forwarder > 5,
            "vicious cycle expected: {row:?}"
        );
        assert!(row.forwards > 5, "{row:?}");
        // "The original sender of the proclaim never received a proclaim in
        // response" — the serious problem the paper reports. (The newcomer
        // may still sneak in later through the leader's own discovery
        // proclaims; the broken *response* path is the finding.)
        assert_eq!(row.answers_to_originator, 0, "{row:?}");
    }

    #[test]
    fn table7_fix_admits_the_newcomer() {
        let row = run(false);
        assert!(row.newcomer_admitted, "{row:?}");
        assert_eq!(row.answers_to_forwarder, 0, "{row:?}");
        assert!(row.answers_to_originator >= 1, "{row:?}");
    }

    #[test]
    fn table7_misrouted_answers_are_what_the_engine_oracles_see() {
        assert_eq!(stage(true).violated_oracles(), ["gmp-proclaim-routing"]);
        assert_eq!(stage(false).violated_oracles(), Vec::<&str>::new());
    }
}
