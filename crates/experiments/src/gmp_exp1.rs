//! **GMP Experiment 1 — packet interruption (paper Table 5).**
//!
//! Four sub-experiments on a three-daemon group, all driven by send/receive
//! filter scripts:
//!
//! 1. drop a daemon's heartbeats *to itself* (and equivalently, suspend
//!    the daemon with `SIGTSTP`) — uncovers the self-death bug;
//! 2. drop a daemon's heartbeats *to the others* — it is kicked out,
//!    rejoins, and is kicked again, cyclically (behaved as specified);
//! 3. drop the `ACK`s of `MEMBERSHIP_CHANGE` from one machine at the
//!    leader — that machine is never admitted to any group;
//! 4. drop `COMMIT`s at one machine — it stays `IN_TRANSITION`, everyone
//!    else commits it into the view, then kicks it for not heartbeating.

use pfi_gmp::{GmpBugs, GmpEvent, GmpStatus};
use pfi_sim::{NodeId, SimDuration};

use crate::common::GmpTestbed;

/// Result of the self-heartbeat-drop sub-experiment.
#[derive(Debug, Clone)]
pub struct SelfHeartbeatRow {
    /// Whether the bugs were injected.
    pub buggy: bool,
    /// Whether the daemon declared itself dead (the bug's signature).
    pub declared_self_dead: bool,
    /// Whether it correctly fell back to a singleton group.
    pub formed_singleton: bool,
    /// Whether the broken forwarding path swallowed a proclaim.
    pub proclaim_lost_in_forwarding: bool,
    /// The others' final view still contains the victim.
    pub victim_still_in_others_view: bool,
}

/// Filter dropping heartbeats whose destination is the filtering node
/// itself (the paper's first Table 5 row).
const DROP_SELF_HB: &str = r#"
    if {[msg_type] == "HEARTBEAT" && [msg_dst] == [node_id]} { xDrop }
"#;

/// Stages the self-heartbeat-drop test: a converged group whose node 1
/// drops its heartbeats to itself for 40 s, with or without the
/// self-death bug.
fn stage(buggy: bool) -> GmpTestbed {
    let mut tb = GmpTestbed::new(3, self_death(buggy));
    tb.start_all();
    tb.run(SimDuration::from_secs(60));
    tb.send_script(tb.peers[1], DROP_SELF_HB);
    tb.run(SimDuration::from_secs(40));
    tb
}

/// The self-death bug alone, or no bug.
fn self_death(buggy: bool) -> GmpBugs {
    GmpBugs {
        self_death: buggy,
        ..GmpBugs::none()
    }
}

/// Reduces a self-death test's world (victim node 1) to its row.
fn self_death_row(tb: &mut GmpTestbed, buggy: bool) -> SelfHeartbeatRow {
    let victim = tb.peers[1];
    let evs = tb.world.trace().events_of::<GmpEvent>(Some(victim));
    let declared_self_dead = evs
        .iter()
        .any(|(_, e)| matches!(e, GmpEvent::SelfDeclaredDead));
    let formed_singleton = evs
        .iter()
        .any(|(t, e)| matches!(e, GmpEvent::FormedSingleton) && t.as_secs_f64() > 60.0);
    let proclaim_lost_in_forwarding = evs
        .iter()
        .any(|(_, e)| matches!(e, GmpEvent::ProclaimForwardDroppedByBug));
    let leader_view = tb.members(tb.peers[0]);
    SelfHeartbeatRow {
        buggy,
        declared_self_dead,
        formed_singleton,
        proclaim_lost_in_forwarding,
        victim_still_in_others_view: leader_view.contains(&victim.as_u32()),
    }
}

/// Runs the self-heartbeat-drop test with or without the bugs.
pub fn run_self_heartbeat(buggy: bool) -> SelfHeartbeatRow {
    self_death_row(&mut stage(buggy), buggy)
}

/// Runs the `SIGTSTP` variant: suspend the daemon 30 s, then resume; all
/// its timers fire at once on resume, triggering the same path.
pub fn run_suspend(buggy: bool) -> SelfHeartbeatRow {
    let mut tb = GmpTestbed::new(3, self_death(buggy));
    tb.start_all();
    tb.run(SimDuration::from_secs(60));
    let victim = tb.peers[1];
    tb.world.suspend(victim);
    tb.run(SimDuration::from_secs(30));
    tb.world.resume(victim);
    tb.run(SimDuration::from_secs(40));
    self_death_row(&mut tb, buggy)
}

/// Result of the drop-heartbeats-to-others sub-experiment.
#[derive(Debug, Clone)]
pub struct KickCycleRow {
    /// Times the victim was kicked out of the group.
    pub kicked_out: usize,
    /// Times the victim was re-admitted after a kick.
    pub readmitted: usize,
}

/// Runs the oscillating drop-to-others test: 15 s dropping, 15 s passing.
pub fn run_kick_cycle() -> KickCycleRow {
    let mut tb = GmpTestbed::new(3, GmpBugs::none());
    tb.start_all();
    tb.run(SimDuration::from_secs(60));
    let victim = tb.peers[1];
    // Oscillate by virtual time: odd 15-second windows drop heartbeats to
    // *other* machines only.
    tb.send_script(
        victim,
        r#"
        if {[msg_type] == "HEARTBEAT" && [msg_dst] != [node_id]} {
            set phase [expr {([now_ms] / 15000) % 2}]
            if {$phase == 1} { xDrop }
        }
    "#,
    );
    tb.run(SimDuration::from_secs(180));
    // Count transitions of the leader's view: excluding then re-including
    // the victim.
    let leader = tb.peers[0];
    let views = tb.world.trace().events_of::<GmpEvent>(Some(leader));
    let mut kicked = 0;
    let mut readmitted = 0;
    let mut inside = true;
    for (_, e) in views {
        if let GmpEvent::GroupView { members, .. } = e {
            let has = members.contains(&victim.as_u32());
            if inside && !has {
                kicked += 1;
            }
            if !inside && has {
                readmitted += 1;
            }
            inside = has;
        }
    }
    KickCycleRow {
        kicked_out: kicked,
        readmitted,
    }
}

/// Result of the drop-ACK sub-experiment.
#[derive(Debug, Clone)]
pub struct DropAckRow {
    /// Whether the victim ever appeared in a committed view of the others.
    pub ever_admitted: bool,
    /// How many times the victim gave up waiting for a `COMMIT`.
    pub commit_timeouts: usize,
    /// The stable group of the two original machines.
    pub core_group: Vec<u32>,
}

/// Runs the drop-`ACK`s-of-`MEMBERSHIP_CHANGE` test: the leader's receive
/// filter drops `ACK`s from the newcomer, so the newcomer is never
/// committed into a group.
pub fn run_drop_ack() -> DropAckRow {
    let mut tb = GmpTestbed::new(3, GmpBugs::none());
    // Start the two originals, let them form a group.
    tb.start(tb.peers[0]);
    tb.start(tb.peers[1]);
    tb.run(SimDuration::from_secs(30));
    // The leader drops MC-ACKs from the newcomer (node 2).
    tb.recv_script(
        tb.peers[0],
        r#"
        if {[msg_type] == "ACK" && [msg_field sender] == 2} { xDrop }
    "#,
    );
    tb.start(tb.peers[2]);
    tb.run(SimDuration::from_secs(120));
    let newcomer = tb.peers[2].as_u32();
    let mut ever_admitted = false;
    for p in [tb.peers[0], tb.peers[1]] {
        for (_, e) in tb.world.trace().events_of::<GmpEvent>(Some(p)) {
            if let GmpEvent::GroupView { members, .. } = e {
                if members.contains(&newcomer) {
                    ever_admitted = true;
                }
            }
        }
    }
    let commit_timeouts = commit_timeouts(&tb, tb.peers[2]);
    let core_group = tb.members(tb.peers[0]);
    DropAckRow {
        ever_admitted,
        commit_timeouts,
        core_group,
    }
}

/// How many times `node` gave up waiting for a `COMMIT`.
fn commit_timeouts(tb: &GmpTestbed, node: NodeId) -> usize {
    let evs = tb.world.trace().events_of::<GmpEvent>(Some(node));
    evs.iter()
        .filter(|(_, e)| matches!(e, GmpEvent::CommitTimedOut))
        .count()
}

/// Result of the drop-COMMIT sub-experiment.
#[derive(Debug, Clone)]
pub struct DropCommitRow {
    /// Whether the victim was (transiently) committed into the others'
    /// view.
    pub transiently_admitted: bool,
    /// Whether the others then kicked the silent victim out again.
    pub kicked_after_admission: bool,
    /// Whether the victim was observed parked in `IN_TRANSITION`.
    pub stuck_in_transition: bool,
    /// How many times the victim gave up waiting for a `COMMIT`.
    pub commit_timeouts: usize,
}

/// Runs the drop-`COMMIT` test: the newcomer ACKs changes but never sees
/// the commit, so everyone else briefly counts it as a member until its
/// missing heartbeats get it expelled.
pub fn run_drop_commit() -> DropCommitRow {
    let mut tb = GmpTestbed::new(3, GmpBugs::none());
    tb.start(tb.peers[0]);
    tb.start(tb.peers[1]);
    tb.run(SimDuration::from_secs(30));
    let victim = tb.peers[2];
    tb.recv_script(victim, r#"if {[msg_type] == "COMMIT"} { xDrop }"#);
    tb.start(victim);
    // Probe the victim's status while it should be in transition (it acks
    // the MEMBERSHIP_CHANGE within ~0.3 s and gives up on the COMMIT only
    // after the 6 s commit timeout).
    tb.run(SimDuration::from_secs(3));
    let mid_status = tb.view(victim).status;
    tb.run(SimDuration::from_secs(120));
    let victim_id = victim.as_u32();
    let mut transiently_admitted = false;
    let mut kicked_after_admission = false;
    let mut admitted = false;
    for (_, e) in tb.world.trace().events_of::<GmpEvent>(Some(tb.peers[0])) {
        if let GmpEvent::GroupView { members, .. } = e {
            let has = members.contains(&victim_id);
            if has {
                transiently_admitted = true;
                admitted = true;
            }
            if admitted && !has {
                kicked_after_admission = true;
            }
        }
    }
    let commit_timeouts = commit_timeouts(&tb, victim);
    DropCommitRow {
        transiently_admitted,
        kicked_after_admission,
        stuck_in_transition: mid_status == GmpStatus::InTransition,
        commit_timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_self_heartbeat_bug_and_fix() {
        let buggy = run_self_heartbeat(true);
        assert!(buggy.declared_self_dead, "{buggy:?}");
        assert!(
            !buggy.formed_singleton,
            "the bug keeps the old group: {buggy:?}"
        );
        let fixed = run_self_heartbeat(false);
        assert!(!fixed.declared_self_dead, "{fixed:?}");
        assert!(fixed.formed_singleton, "{fixed:?}");
    }

    #[test]
    fn table5_suspend_resume_triggers_same_bug() {
        let buggy = run_suspend(true);
        assert!(buggy.declared_self_dead, "{buggy:?}");
        assert!(!buggy.formed_singleton, "{buggy:?}");
        let fixed = run_suspend(false);
        assert!(!fixed.declared_self_dead, "{fixed:?}");
    }

    #[test]
    fn table5_self_death_is_what_the_engine_oracles_see() {
        assert_eq!(stage(true).violated_oracles(), ["gmp-no-self-death"]);
        assert_eq!(stage(false).violated_oracles(), Vec::<&str>::new());
    }

    #[test]
    fn table5_kick_and_readmit_cycle() {
        let row = run_kick_cycle();
        assert!(row.kicked_out >= 2, "{row:?}");
        assert!(row.readmitted >= 1, "{row:?}");
    }

    #[test]
    fn table5_dropped_acks_block_admission() {
        let row = run_drop_ack();
        assert!(!row.ever_admitted, "{row:?}");
        assert!(
            row.commit_timeouts >= 2,
            "the newcomer keeps retrying: {row:?}"
        );
        assert_eq!(row.core_group, vec![0, 1], "{row:?}");
    }

    #[test]
    fn table5_dropped_commits_leave_victim_in_transition() {
        let row = run_drop_commit();
        assert!(row.stuck_in_transition, "{row:?}");
        assert!(row.transiently_admitted, "{row:?}");
        assert!(row.kicked_after_admission, "{row:?}");
        assert!(row.commit_timeouts >= 1, "{row:?}");
    }
}
