//! Behavioural tests for the group membership protocol under failures.

use pfi_core::{Filter, PfiLayer};
use pfi_gmp::{GmpBugs, GmpConfig, GmpControl, GmpEvent, GmpLayer, GmpReply, GmpStatus, GmpStub};
use pfi_rudp::RudpLayer;
use pfi_sim::{NodeId, SimDuration, World};

/// Builds `n` daemons, each with a PFI layer between gmd and rudp, and
/// starts them all at once.
fn cluster(n: u32, bugs: GmpBugs) -> (World, Vec<NodeId>) {
    let mut w = World::new(11);
    let peers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    for _ in 0..n {
        let gmd = GmpLayer::new(GmpConfig::new(peers.clone()).with_bugs(bugs));
        let pfi = PfiLayer::new(Box::new(GmpStub));
        w.add_node(vec![
            Box::new(gmd),
            Box::new(pfi),
            Box::new(RudpLayer::default()),
        ]);
    }
    for &p in &peers {
        w.control::<GmpReply>(p, 0, GmpControl::Start);
    }
    (w, peers)
}

/// Unplugs every link between the two sides.
fn cut(w: &mut World, left: &[NodeId], right: &[NodeId]) {
    for &a in left {
        for &b in right {
            w.network_mut().set_link_down(a, b);
        }
    }
}

/// Plugs every link between the two sides back in.
fn heal(w: &mut World, left: &[NodeId], right: &[NodeId]) {
    for &a in left {
        for &b in right {
            w.network_mut().set_link_up(a, b);
        }
    }
}

fn view(w: &mut World, node: NodeId) -> pfi_gmp::GmpStatusReport {
    w.control::<GmpReply>(node, 0, GmpControl::Status)
        .expect_status()
}

fn members(w: &mut World, node: NodeId) -> Vec<u32> {
    view(w, node)
        .group
        .members
        .iter()
        .map(|m| m.as_u32())
        .collect()
}

#[test]
fn daemons_converge_to_one_group_with_lowest_leader() {
    let (mut w, peers) = cluster(5, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    for &p in &peers {
        let v = view(&mut w, p);
        assert_eq!(v.status, GmpStatus::Up, "{p} stuck in transition");
        assert_eq!(
            members(&mut w, p),
            vec![0, 1, 2, 3, 4],
            "{p} has wrong view"
        );
        assert_eq!(v.group.leader(), peers[0]);
        assert_eq!(v.group.members.get(1), Some(&peers[1]), "crown prince");
    }
    // All nodes agree on the same group id.
    let gid0 = view(&mut w, peers[0]).group.id;
    for &p in &peers {
        assert_eq!(view(&mut w, p).group.id, gid0);
    }
}

#[test]
fn crashed_member_is_excluded() {
    let (mut w, peers) = cluster(4, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    w.crash(peers[2]);
    w.run_for(SimDuration::from_secs(30));
    for p in [peers[0], peers[1], peers[3]] {
        assert_eq!(
            members(&mut w, p),
            vec![0, 1, 3],
            "{p} still sees the crashed node"
        );
    }
}

#[test]
fn crashed_leader_is_replaced_by_crown_prince() {
    let (mut w, peers) = cluster(4, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    w.crash(peers[0]);
    w.run_for(SimDuration::from_secs(30));
    for &p in &peers[1..] {
        let v = view(&mut w, p);
        assert_eq!(
            v.group.members,
            peers[1..].to_vec(),
            "{p} has wrong post-crash view"
        );
        assert_eq!(
            v.group.leader(),
            peers[1],
            "the crown prince must take over"
        );
    }
}

#[test]
fn partition_forms_disjoint_groups_and_heals() {
    let (mut w, peers) = cluster(5, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    // Partition {0,1,2} | {3,4}.
    cut(&mut w, &peers[0..3], &peers[3..5]);
    w.run_for(SimDuration::from_secs(40));
    for &p in &peers[0..3] {
        assert_eq!(
            members(&mut w, p),
            vec![0, 1, 2],
            "{p} wrong in left partition"
        );
    }
    for &p in &peers[3..5] {
        assert_eq!(
            members(&mut w, p),
            vec![3, 4],
            "{p} wrong in right partition"
        );
        assert_eq!(view(&mut w, p).group.leader(), peers[3]);
    }
    // Heal: one group again.
    heal(&mut w, &peers[0..3], &peers[3..5]);
    w.run_for(SimDuration::from_secs(60));
    for &p in &peers {
        assert_eq!(
            members(&mut w, p),
            vec![0, 1, 2, 3, 4],
            "{p} did not re-merge"
        );
    }
}

#[test]
fn isolated_node_cycles_out_and_back() {
    let (mut w, peers) = cluster(3, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    w.network_mut().isolate(peers[2], &peers);
    w.run_for(SimDuration::from_secs(40));
    assert_eq!(members(&mut w, peers[0]), vec![0, 1]);
    assert_eq!(
        members(&mut w, peers[2]),
        vec![2],
        "isolated node forms a singleton"
    );
    heal(&mut w, &peers[2..3], &peers[0..2]);
    w.run_for(SimDuration::from_secs(60));
    assert_eq!(members(&mut w, peers[0]), vec![0, 1, 2]);
    assert_eq!(members(&mut w, peers[2]), vec![0, 1, 2]);
}

#[test]
fn fixed_daemon_recovers_from_self_heartbeat_loss() {
    let (mut w, peers) = cluster(3, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    // Drop node 1's heartbeats *to itself* via its send filter.
    let drop_self_hb = Filter::script(
        r#"
        if {[msg_type] == "HEARTBEAT" && [msg_dst] == [node_id]} { xDrop }
    "#,
    )
    .unwrap();
    let _: pfi_core::PfiReply = w.control(
        peers[1],
        1,
        pfi_core::PfiControl::SetSendFilter(drop_self_hb),
    );
    w.run_for(SimDuration::from_secs(30));
    // The fixed daemon falls back to a singleton and rejoins (possibly
    // repeatedly); it must never declare itself dead.
    let evs = w.trace().events_of::<GmpEvent>(Some(peers[1]));
    assert!(
        !evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::SelfDeclaredDead)),
        "fixed daemon must not declare itself dead"
    );
    assert!(
        evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::FormedSingleton)),
        "fixed daemon must restart as a singleton"
    );
    assert!(!view(&mut w, peers[1]).self_marked_dead);
}

#[test]
fn buggy_daemon_declares_itself_dead() {
    let bugs = GmpBugs {
        self_death: true,
        ..GmpBugs::none()
    };
    let (mut w, peers) = cluster(3, bugs);
    w.run_for(SimDuration::from_secs(60));
    let drop_self_hb = Filter::script(
        r#"
        if {[msg_type] == "HEARTBEAT" && [msg_dst] == [node_id]} { xDrop }
    "#,
    )
    .unwrap();
    let _: pfi_core::PfiReply = w.control(
        peers[1],
        1,
        pfi_core::PfiControl::SetSendFilter(drop_self_hb),
    );
    w.run_for(SimDuration::from_secs(30));
    let evs = w.trace().events_of::<GmpEvent>(Some(peers[1]));
    assert!(
        evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::SelfDeclaredDead)),
        "buggy daemon must declare itself dead"
    );
    let v = view(&mut w, peers[1]);
    assert!(v.self_marked_dead);
    // The bug: it stays in the old group instead of forming a singleton.
    assert!(
        v.group.members.len() > 1,
        "buggy daemon wrongly keeps its old group: {:?}",
        v.group.members
    );
    // The others kick it out and move on.
    assert_eq!(members(&mut w, peers[0]), vec![0, 2]);
}

/// The paper's experiment 4 staging: form a full group first (so heartbeat-
/// expect timers are armed for every member), then force a *second*
/// membership change while dropping the COMMIT, leaving the node parked in
/// `IN_TRANSITION` with whatever timers the unset routine failed to cancel.
fn stage_second_membership_change(bugs: GmpBugs) -> Vec<(pfi_sim::SimTime, GmpEvent)> {
    let (mut w, peers) = cluster(3, bugs);
    w.run_for(SimDuration::from_secs(60));
    // Drop COMMITs so node 2 lingers in IN_TRANSITION. (The paper also
    // dropped heartbeats; here in-transition daemons ignore heartbeats
    // anyway, and dropping them early would trip the self-heartbeat path.)
    let drop = Filter::script(r#"if {[msg_type] == "COMMIT"} { xDrop }"#).unwrap();
    let _: pfi_core::PfiReply = w.control(peers[2], 1, pfi_core::PfiControl::SetRecvFilter(drop));
    // Isolate node 1: the leader proposes {0, 2}, giving node 2 its second
    // MEMBERSHIP_CHANGE.
    w.network_mut().isolate(peers[1], &peers);
    w.run_for(SimDuration::from_secs(30));
    w.trace().events_of::<GmpEvent>(Some(peers[2]))
}

#[test]
fn timer_unset_bug_fires_stale_timers_in_transition() {
    let bugs = GmpBugs {
        timer_unset: true,
        ..GmpBugs::none()
    };
    let evs = stage_second_membership_change(bugs);
    assert!(
        evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::InTransition { .. })),
        "node 2 must enter a transition"
    );
    assert!(
        evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::SpuriousTimerInTransition { .. })),
        "stale heartbeat timers must fire during the transition"
    );
}

#[test]
fn correct_timer_hygiene_stays_quiet_in_transition() {
    let evs = stage_second_membership_change(GmpBugs::none());
    assert!(
        evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::InTransition { .. })),
        "node 2 must enter a transition"
    );
    assert!(
        !evs.iter()
            .any(|(_, e)| matches!(e, GmpEvent::SpuriousTimerInTransition { .. })),
        "with all timers unset nothing may fire during the transition"
    );
}

#[test]
fn all_up_views_agree_after_churn() {
    // Agreement invariant: after arbitrary churn settles, every Up daemon
    // sharing a group id has an identical member list.
    let (mut w, peers) = cluster(5, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    cut(&mut w, &peers[0..2], &peers[2..5]);
    w.run_for(SimDuration::from_secs(40));
    heal(&mut w, &peers[0..2], &peers[2..5]);
    w.run_for(SimDuration::from_secs(40));
    w.crash(peers[4]);
    w.run_for(SimDuration::from_secs(40));
    let mut by_gid: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    for &p in &peers[0..4] {
        let v = view(&mut w, p);
        assert_eq!(v.status, GmpStatus::Up);
        let entry = by_gid
            .entry(v.group.id)
            .or_insert_with(|| v.group.members.iter().map(|m| m.as_u32()).collect());
        let mine: Vec<u32> = v.group.members.iter().map(|m| m.as_u32()).collect();
        assert_eq!(*entry, mine, "{p} disagrees about group {}", v.group.id);
    }
    // And in fact they all converge to the same surviving group.
    assert_eq!(by_gid.len(), 1, "views: {by_gid:?}");
    assert_eq!(by_gid.values().next().unwrap(), &vec![0, 1, 2, 3]);
}

#[test]
fn higher_id_proposer_is_rejected_with_nak() {
    // A member whose leader is alive must refuse a MEMBERSHIP_CHANGE from a
    // higher-id proposer (the "valid leader" check), answering with a NAK.
    let (mut w, peers) = cluster(4, GmpBugs::none());
    w.run_for(SimDuration::from_secs(60));
    // Isolate node 1 from ONLY node 0 (the leader) in both directions: node
    // 1 concludes the leader is dead and, as crown prince, proposes a new
    // group to 2 and 3 — whose leader 0 is still alive.
    w.network_mut().set_link_down(peers[0], peers[1]);
    w.run_for(SimDuration::from_secs(20));
    let naks: usize = [peers[2], peers[3]]
        .iter()
        .map(|p| {
            w.trace()
                .events_of::<GmpEvent>(Some(*p))
                .iter()
                .filter(|(_, e)| matches!(e, GmpEvent::NakSent { to: 1 }))
                .count()
        })
        .sum();
    assert!(
        naks > 0,
        "members with a live lower-id leader must NAK the usurper"
    );
    // And the system converges: 0 leads {0,2,3} (1 unreachable from 0).
    assert_eq!(members(&mut w, peers[0]), vec![0, 2, 3]);
}

#[test]
fn seven_daemons_with_staggered_starts_converge() {
    let mut w = World::new(77);
    let peers: Vec<NodeId> = (0..7).map(NodeId::new).collect();
    for _ in 0..7 {
        let gmd = GmpLayer::new(GmpConfig::new(peers.clone()));
        let pfi = PfiLayer::new(Box::new(GmpStub));
        w.add_node(vec![
            Box::new(gmd),
            Box::new(pfi),
            Box::new(pfi_rudp::RudpLayer::default()),
        ]);
    }
    // Stagger the starts over 20 seconds, highest id first.
    for (i, &p) in peers.iter().rev().enumerate() {
        w.schedule_in(SimDuration::from_secs(3 * i as u64), move |w| {
            w.control::<GmpReply>(p, 0, GmpControl::Start);
        });
    }
    w.run_for(SimDuration::from_secs(120));
    for &p in &peers {
        let v = w
            .control::<GmpReply>(p, 0, GmpControl::Status)
            .expect_status();
        assert_eq!(
            v.group.members.len(),
            7,
            "{p} stuck with {:?}",
            v.group.members
        );
        assert_eq!(v.group.leader(), peers[0]);
    }
}
