//! **GMP Experiment 2 — network partitions (paper Table 6).**
//!
//! Partitions are induced exactly as in the paper: *send filters dropping
//! messages based on destination address*, toggled through the shared
//! script blackboard. Five machines split into {0,1,2} and {3,4}; two
//! disjoint groups form; when the filters pass traffic again, a single
//! group re-forms; the cycle repeats.
//!
//! The second row separates the leader and the crown prince only. Two
//! orders of events are possible (the paper describes both); the end state
//! is the same: the original leader leads everyone else, and the crown
//! prince is out of the group.

use pfi_gmp::{GmpBugs, GmpEvent};
use pfi_sim::SimDuration;

use crate::common::GmpTestbed;

/// Result of the two-group partition test.
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// Views of nodes 0..2 while partitioned.
    pub left_partition_view: Vec<u32>,
    /// Views of nodes 3..4 while partitioned.
    pub right_partition_view: Vec<u32>,
    /// View of everyone after healing.
    pub healed_view: Vec<u32>,
    /// Views while partitioned the second time (the cycle repeats).
    pub second_partition_left: Vec<u32>,
}

/// Runs the {0,1,2} | {3,4} partition cycle using destination-based send
/// filters controlled through the global blackboard.
pub fn run_partition_cycle() -> PartitionRow {
    let mut tb = GmpTestbed::new(5, GmpBugs::none());
    tb.start_all();
    // Every node's send filter consults the shared "partition" flag and its
    // own side assignment: when partitioned, cross-side messages are
    // dropped at the sender.
    for &p in tb.peers.clone().iter() {
        let side = if p.as_u32() <= 2 { 0 } else { 1 };
        tb.send_script(
            p,
            &format!(
                r#"
                if {{[global_get partition 0] == 1}} {{
                    set dst [msg_dst]
                    set dst_side [expr {{$dst <= 2 ? 0 : 1}}]
                    if {{$dst_side != {side}}} {{ xDrop }}
                }}
            "#
            ),
        );
    }
    tb.run(SimDuration::from_secs(60));
    // Partition on.
    tb.board.set(tb.world.boards_mut(), "partition", "1");
    tb.run(SimDuration::from_secs(60));
    let left_partition_view = tb.members(tb.peers[0]);
    let right_partition_view = tb.members(tb.peers[3]);
    // Heal.
    tb.board.set(tb.world.boards_mut(), "partition", "0");
    tb.run(SimDuration::from_secs(60));
    let healed_view = tb.members(tb.peers[4]);
    // Partition again: the cycle repeats.
    tb.board.set(tb.world.boards_mut(), "partition", "1");
    tb.run(SimDuration::from_secs(60));
    let second_partition_left = tb.members(tb.peers[2]);
    PartitionRow {
        left_partition_view,
        right_partition_view,
        healed_view,
        second_partition_left,
    }
}

/// Result of the leader/crown-prince separation test.
#[derive(Debug, Clone)]
pub struct LeaderCpRow {
    /// The final group around the original leader.
    pub leader_view: Vec<u32>,
    /// The crown prince's final group.
    pub crown_prince_view: Vec<u32>,
    /// Whether the crown prince transiently led a group of the others
    /// (the paper's "second course of action").
    pub cp_ever_led_others: bool,
}

/// Separates leader (node 0) and crown prince (node 1): each drops
/// messages destined for the other.
pub fn run_leader_cp_separation() -> LeaderCpRow {
    separate(None)
}

/// Which of the paper's "two possible courses of action" to force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Course {
    /// The original leader's `MEMBERSHIP_CHANGE` goes out first: everyone
    /// but the crown prince immediately joins the leader's new group.
    LeaderFirst,
    /// The crown prince's `MEMBERSHIP_CHANGE` goes out first: the others
    /// briefly join the crown prince's group, until the original leader's
    /// proclaim pulls them back.
    CrownPrinceFirst,
}

/// Forces one specific ordering of the two concurrent membership changes by
/// delaying the *other* contender's `MEMBERSHIP_CHANGE` messages — the
/// paper's deterministic orchestration of "hard-to-reach global states",
/// applied to its own experiment.
pub fn run_leader_cp_separation_forced(course: Course) -> LeaderCpRow {
    separate(Some(course))
}

/// The leader/crown-prince separation, its course left to chance or
/// forced.
fn separate(course: Option<Course>) -> LeaderCpRow {
    let mut tb = GmpTestbed::new(5, GmpBugs::none());
    tb.start_all();
    tb.run(SimDuration::from_secs(60));
    // The separation itself.
    let mut filters = [
        r#"if {[msg_dst] == 1} { xDrop }"#.to_string(),
        r#"if {[msg_dst] == 0} { xDrop }"#.to_string(),
    ];
    // The orchestration: park the losing contender's MEMBERSHIP_CHANGEs for
    // ten seconds so the chosen course is taken deterministically.
    if let Some(course) = course {
        let loser = match course {
            Course::LeaderFirst => 1,
            Course::CrownPrinceFirst => 0,
        };
        filters[loser].push_str(
            r#"
        if {[msg_type] == "MEMBERSHIP_CHANGE"} {
            incr held
            if {$held <= 4} { xDelay 10000 }
        }
    "#,
        );
    }
    for (node, filter) in filters.iter().enumerate() {
        tb.send_script(tb.peers[node], filter);
    }
    tb.run(SimDuration::from_secs(120));
    let leader_view = tb.members(tb.peers[0]);
    let crown_prince_view = tb.members(tb.peers[1]);
    // Did the crown prince ever commit a view in which it led the others?
    // Only views committed after the separation count (initial cluster
    // formation also passes through transient small groups).
    let cp_ever_led_others = tb
        .world
        .trace()
        .events_of::<GmpEvent>(Some(tb.peers[1]))
        .into_iter()
        .any(|(t, e)| {
            t.as_secs_f64() > 60.0
                && matches!(e, GmpEvent::GroupView { leader: 1, members, .. } if members.len() > 1)
        });
    LeaderCpRow {
        leader_view,
        crown_prince_view,
        cp_ever_led_others,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_partition_and_heal_cycle() {
        let row = run_partition_cycle();
        assert_eq!(row.left_partition_view, vec![0, 1, 2], "{row:?}");
        assert_eq!(row.right_partition_view, vec![3, 4], "{row:?}");
        assert_eq!(row.healed_view, vec![0, 1, 2, 3, 4], "{row:?}");
        assert_eq!(
            row.second_partition_left,
            vec![0, 1, 2],
            "cycle must repeat: {row:?}"
        );
    }

    #[test]
    fn table6_leader_crown_prince_separation_end_state() {
        let row = run_leader_cp_separation();
        // End state per the paper: everyone but the crown prince with the
        // original leader; the crown prince alone.
        assert_eq!(row.leader_view, vec![0, 2, 3, 4], "{row:?}");
        assert_eq!(row.crown_prince_view, vec![1], "{row:?}");
    }

    #[test]
    fn table6_both_courses_of_action_reach_the_same_end_state() {
        // The paper: "There were two courses of action, but the result was
        // the same for both." Force each ordering deterministically and
        // check the distinguishing intermediate state plus the common end
        // state.
        let leader_first = run_leader_cp_separation_forced(Course::LeaderFirst);
        assert!(
            !leader_first.cp_ever_led_others,
            "when the leader's change goes first the CP never leads: {leader_first:?}"
        );
        assert_eq!(
            leader_first.leader_view,
            vec![0, 2, 3, 4],
            "{leader_first:?}"
        );
        assert_eq!(leader_first.crown_prince_view, vec![1], "{leader_first:?}");

        let cp_first = run_leader_cp_separation_forced(Course::CrownPrinceFirst);
        assert!(
            cp_first.cp_ever_led_others,
            "when the CP's change goes first it transiently leads the others: {cp_first:?}"
        );
        assert_eq!(cp_first.leader_view, vec![0, 2, 3, 4], "{cp_first:?}");
        assert_eq!(cp_first.crown_prince_view, vec![1], "{cp_first:?}");
    }
}
