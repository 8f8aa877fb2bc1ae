//! Cross-crate property tests: protocol invariants under randomized fault
//! schedules.

use pfi::core::{faults, PfiLayer, RawStub};
use pfi::gmp::{GmpBugs, GmpConfig, GmpControl, GmpEvent, GmpLayer, GmpReply, GmpStub};
use pfi::rudp::RudpLayer;
use pfi::sim::{Layer, NodeId, SimDuration, World};
use pfi::tcp::{TcpControl, TcpLayer, TcpProfile, TcpReply, TcpStub};
use proptest::prelude::*;

/// A lossy, jittery wire under one end of a connection: PFI layers that
/// drop each message with probability `loss` and delay the rest by up to
/// `jitter`, in both directions (§2.2's omission and timing failures).
fn wire(loss: f64, jitter: SimDuration) -> Vec<Box<dyn Layer>> {
    let delay = || faults::timing(faults::DelayDist::Uniform(SimDuration::ZERO, jitter));
    vec![
        Box::new(
            PfiLayer::new(Box::new(RawStub))
                .with_send_filter(faults::omission(loss))
                .with_recv_filter(faults::omission(loss)),
        ),
        Box::new(
            PfiLayer::new(Box::new(RawStub))
                .with_send_filter(delay())
                .with_recv_filter(delay()),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TCP safety: whatever the loss rate, jitter, and byzantine filter
    /// configuration, delivered application data is an exact prefix of
    /// what was sent — never corrupted, reordered, or duplicated.
    #[test]
    fn tcp_delivers_only_exact_prefixes(
        seed in 0u64..10_000,
        loss in 0.0f64..0.35,
        jitter_ms in 0u64..20,
        corrupt in 0.0f64..0.3,
        dup in 0.0f64..0.3,
        payload_len in 1usize..20_000,
    ) {
        let mut world = World::new(seed);
        let client = world.add_node(vec![Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3()))]);
        let byz = faults::byzantine(faults::ByzantineConfig {
            corrupt,
            duplicate: dup,
            drop: 0.0,
            reorder: 0.2,
            reorder_window: SimDuration::from_millis(15),
        });
        let pfi = PfiLayer::new(Box::new(TcpStub)).with_recv_filter(byz);
        let mut stack: Vec<Box<dyn Layer>> =
            vec![Box::new(TcpLayer::new(TcpProfile::rfc_reference())), Box::new(pfi)];
        stack.extend(wire(loss, SimDuration::from_millis(jitter_ms)));
        let server = world.add_node(stack);
        world.control::<TcpReply>(server, 0, TcpControl::Listen { port: 80 });
        let conn = world
            .control::<TcpReply>(client, 0, TcpControl::Open {
                local_port: 0,
                remote: server,
                remote_port: 80,
            })
            .expect_conn();
        world.run_for(SimDuration::from_secs(10));
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31 % 256) as u8).collect();
        world.control::<TcpReply>(client, 0, TcpControl::Send { conn, data: payload.clone() });
        world.run_for(SimDuration::from_secs(300));
        if let TcpReply::MaybeConn(Some(sconn)) =
            world.control::<TcpReply>(server, 0, TcpControl::AcceptedOn { port: 80 })
        {
            let got = world
                .control::<TcpReply>(server, 0, TcpControl::RecvTake { conn: sconn })
                .expect_data();
            prop_assert!(got.len() <= payload.len(), "over-delivery: {} > {}", got.len(), payload.len());
            prop_assert_eq!(&got[..], &payload[..got.len()], "delivered bytes must be an exact prefix");
        }
    }

    /// GMP agreement: under randomized partitions and crashes, any two
    /// daemons that ever commit the same group id commit identical member
    /// lists.
    #[test]
    fn gmp_views_with_same_gid_agree(
        seed in 0u64..10_000,
        split in 1usize..4,
        crash_idx in proptest::option::of(0usize..5),
        partition_secs in 10u64..50,
    ) {
        let mut world = World::new(seed);
        let peers: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        for _ in 0..5 {
            let gmd = GmpLayer::new(GmpConfig::new(peers.clone()).with_bugs(GmpBugs::none()));
            world.add_node(vec![
                Box::new(gmd),
                Box::new(PfiLayer::new(Box::new(GmpStub))),
                Box::new(RudpLayer::default()),
            ]);
        }
        for &p in &peers {
            world.control::<GmpReply>(p, 0, GmpControl::Start);
        }
        world.run_for(SimDuration::from_secs(40));
        for &a in &peers[..split] {
            for &b in &peers[split..] {
                world.network_mut().set_link_down(a, b);
            }
        }
        world.run_for(SimDuration::from_secs(partition_secs));
        for &a in &peers[..split] {
            for &b in &peers[split..] {
                world.network_mut().set_link_up(a, b);
            }
        }
        if let Some(ci) = crash_idx {
            world.crash(peers[ci]);
        }
        world.run_for(SimDuration::from_secs(60));

        let mut by_gid: std::collections::HashMap<u64, Vec<u32>> =
            std::collections::HashMap::new();
        for &p in &peers {
            for (_, e) in world.trace().events_of::<GmpEvent>(Some(p)) {
                if let GmpEvent::GroupView { gid, members, .. } = e {
                    match by_gid.get(&gid) {
                        None => {
                            by_gid.insert(gid, members);
                        }
                        Some(existing) => {
                            prop_assert_eq!(existing, &members, "gid {} disagrees", gid);
                        }
                    }
                }
            }
        }
        // Liveness after healing: the surviving daemons converge to one
        // shared view.
        let survivors: Vec<NodeId> = peers
            .iter()
            .copied()
            .filter(|p| Some(p.index()) != crash_idx)
            .collect();
        let first = world
            .control::<GmpReply>(survivors[0], 0, GmpControl::Status)
            .expect_status()
            .group;
        for &p in &survivors[1..] {
            let v = world.control::<GmpReply>(p, 0, GmpControl::Status).expect_status().group;
            prop_assert_eq!(&v.members, &first.members, "{} diverged", p);
        }
    }

    /// Determinism: the same seed and fault schedule produce bit-identical
    /// traces across the full stack.
    #[test]
    fn full_stack_runs_are_deterministic(seed in 0u64..1_000, loss in 0.0f64..0.4) {
        let run = |seed: u64, loss: f64| {
            let mut world = World::new(seed);
            let client = world.add_node(vec![Box::new(TcpLayer::new(TcpProfile::solaris_2_3()))]);
            let mut stack: Vec<Box<dyn Layer>> = vec![
                Box::new(TcpLayer::new(TcpProfile::rfc_reference())),
                Box::new(PfiLayer::new(Box::new(TcpStub)).with_recv_filter(faults::omission(0.1))),
            ];
            stack.extend(wire(loss, SimDuration::ZERO));
            let server = world.add_node(stack);
            world.control::<TcpReply>(server, 0, TcpControl::Listen { port: 80 });
            let conn = world
                .control::<TcpReply>(client, 0, TcpControl::Open {
                    local_port: 0,
                    remote: server,
                    remote_port: 80,
                })
                .expect_conn();
            world.control::<TcpReply>(client, 0, TcpControl::Send { conn, data: vec![9u8; 4_096] });
            world.run_for(SimDuration::from_secs(60));
            world.trace().render()
        };
        prop_assert_eq!(run(seed, loss), run(seed, loss));
    }
}
