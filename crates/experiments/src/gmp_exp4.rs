//! **GMP Experiment 4 — timer hygiene (paper Table 8).**
//!
//! A node that has joined one group receives a second `MEMBERSHIP_CHANGE`
//! while its receive filter drops the following `COMMIT`s, parking it in
//! `IN_TRANSITION` — a phase in which "no timers (except for the
//! membership-change timer) were supposed to be set". The buggy
//! unregistration routine (inverted NULL/non-NULL logic) cancels only one
//! heartbeat-expect timer, so the stale ones fire mid-transition; the
//! fixed routine stays quiet.

use pfi_gmp::{GmpBugs, GmpEvent};
use pfi_sim::SimDuration;

use crate::common::GmpTestbed;

/// Result of the timer test.
#[derive(Debug, Clone)]
pub struct Exp4Row {
    /// Whether the bug was injected.
    pub buggy: bool,
    /// Whether the victim entered a second transition.
    pub entered_transition: bool,
    /// Stale heartbeat-expect timers that fired mid-transition.
    pub spurious_timer_fires: usize,
}

/// Stages the timer test: a converged group whose node 2 drops `COMMIT`s
/// while node 1 is isolated, run for 30 s with or without the bug.
fn stage(buggy: bool) -> GmpTestbed {
    let mut tb = GmpTestbed::new(
        3,
        GmpBugs {
            timer_unset: buggy,
            ..GmpBugs::none()
        },
    );
    tb.start_all();
    tb.run(SimDuration::from_secs(60));
    // Park the victim in IN_TRANSITION by dropping the COMMITs of the next
    // change…
    tb.recv_script(tb.peers[2], r#"if {[msg_type] == "COMMIT"} { xDrop }"#);
    // …which is triggered by isolating node 1 (the leader proposes {0, 2}).
    let peers = tb.peers.clone();
    tb.world.network_mut().isolate(peers[1], &peers);
    tb.run(SimDuration::from_secs(30));
    tb
}

/// Runs the timer test with or without the bug.
pub fn run(buggy: bool) -> Exp4Row {
    let tb = stage(buggy);
    let victim = tb.peers[2];
    let evs = tb.world.trace().events_of::<GmpEvent>(Some(victim));
    let entered_transition = evs
        .iter()
        .any(|(t, e)| matches!(e, GmpEvent::InTransition { .. }) && t.as_secs_f64() > 60.0);
    let spurious_timer_fires = evs
        .iter()
        .filter(|(_, e)| matches!(e, GmpEvent::SpuriousTimerInTransition { .. }))
        .count();
    Exp4Row {
        buggy,
        entered_transition,
        spurious_timer_fires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_bug_fires_stale_timers() {
        let row = run(true);
        assert!(row.entered_transition, "{row:?}");
        assert!(row.spurious_timer_fires > 0, "{row:?}");
    }

    #[test]
    fn table8_fix_behaves_as_specified() {
        let row = run(false);
        assert!(row.entered_transition, "{row:?}");
        assert_eq!(row.spurious_timer_fires, 0, "{row:?}");
    }

    #[test]
    fn table8_stale_timers_are_what_the_engine_oracles_see() {
        assert_eq!(stage(true).violated_oracles(), ["gmp-timer-discipline"]);
        assert_eq!(stage(false).violated_oracles(), Vec::<&str>::new());
    }
}
