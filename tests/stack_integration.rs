//! Cross-crate integration: full stacks (TCP / PFI / network and
//! GMP / PFI / RUDP / network) under combined fault loads.

use pfi::core::{faults, Filter, PfiControl, PfiLayer, PfiReply, RawStub};
use pfi::gmp::{GmpBugs, GmpConfig, GmpControl, GmpLayer, GmpReply};
use pfi::rudp::RudpLayer;
use pfi::sim::{Layer, NodeId, SimDuration, World};
use pfi::tcp::{TcpControl, TcpLayer, TcpProfile, TcpReply, TcpStub};

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

/// A client and a server whose PFI layer runs `recv_filter`, with the
/// `wire` layers under the server's.
fn tcp_pair(
    world: &mut World,
    recv_filter: Option<Filter>,
    wire: Vec<Box<dyn Layer>>,
) -> (NodeId, NodeId, pfi::tcp::ConnId) {
    let client = world.add_node(vec![Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3()))]);
    let mut pfi = PfiLayer::new(Box::new(TcpStub));
    if let Some(f) = recv_filter {
        pfi = pfi.with_recv_filter(f);
    }
    let mut stack: Vec<Box<dyn Layer>> = vec![
        Box::new(TcpLayer::new(TcpProfile::rfc_reference())),
        Box::new(pfi),
    ];
    stack.extend(wire);
    let server = world.add_node(stack);
    world.control::<TcpReply>(server, 0, TcpControl::Listen { port: 80 });
    let conn = world
        .control::<TcpReply>(
            client,
            0,
            TcpControl::Open {
                local_port: 0,
                remote: server,
                remote_port: 80,
            },
        )
        .expect_conn();
    world.run_for(SimDuration::from_secs(5));
    (client, server, conn)
}

fn server_data(world: &mut World, server: NodeId) -> Vec<u8> {
    let sconn = match world.control::<TcpReply>(server, 0, TcpControl::AcceptedOn { port: 80 }) {
        TcpReply::MaybeConn(Some(c)) => c,
        other => panic!("no accepted conn: {other:?}"),
    };
    world
        .control::<TcpReply>(server, 0, TcpControl::RecvTake { conn: sconn })
        .expect_data()
}

#[test]
fn tcp_transfer_through_omission_and_timing_faults_combined() {
    let mut world = World::new(99);
    // Wire jitter + a receive filter injecting both random delay and
    // random drops: a compound fault load.
    let compound = Filter::native(|ctx: &mut pfi::core::FilterCtx<'_>| {
        if ctx.rng().coin(0.1) {
            ctx.drop_msg();
        } else if ctx.rng().coin(0.2) {
            let us = ctx.rng().uniform_u64(1_000, 40_000);
            ctx.delay(SimDuration::from_micros(us));
        }
    });
    let jitter = wire(0.0, SimDuration::from_millis(3));
    let (client, server, conn) = tcp_pair(&mut world, Some(compound), jitter);
    let payload: Vec<u8> = (0..30_000u32).map(|i| (i * 13 % 256) as u8).collect();
    world.control::<TcpReply>(
        client,
        0,
        TcpControl::Send {
            conn,
            data: payload.clone(),
        },
    );
    world.run_for(SimDuration::from_secs(600));
    assert_eq!(server_data(&mut world, server), payload);
}

#[test]
fn tcp_transfer_with_byzantine_corruption_stays_intact() {
    let mut world = World::new(5);
    let byz = faults::byzantine(faults::ByzantineConfig {
        corrupt: 0.15,
        duplicate: 0.1,
        drop: 0.05,
        reorder: 0.2,
        reorder_window: SimDuration::from_millis(20),
    });
    let (client, server, conn) = tcp_pair(&mut world, Some(byz), Vec::new());
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    world.control::<TcpReply>(
        client,
        0,
        TcpControl::Send {
            conn,
            data: payload.clone(),
        },
    );
    world.run_for(SimDuration::from_secs(900));
    let got = server_data(&mut world, server);
    // Whatever arrived must be an intact prefix-correct stream.
    assert_eq!(
        got,
        payload[..got.len()],
        "corruption must never reach the application"
    );
    assert!(
        got.len() > payload.len() / 2,
        "most data should get through: {}",
        got.len()
    );
}

#[test]
fn same_seed_same_full_stack_trace() {
    fn run() -> Vec<String> {
        let mut world = World::new(2718);
        let lossy = wire(0.15, SimDuration::from_millis(2));
        let (client, _server, conn) = tcp_pair(&mut world, Some(faults::omission(0.1)), lossy);
        world.control::<TcpReply>(
            client,
            0,
            TcpControl::Send {
                conn,
                data: vec![7u8; 20_000],
            },
        );
        world.run_for(SimDuration::from_secs(120));
        world.trace().render()
    }
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b, "identical seeds must give identical traces");
}

#[test]
fn gmp_full_stack_survives_rudp_loss() {
    // GMP over a lossy wire: rudp's retransmissions carry the two-phase
    // protocol through the loss, so full views keep being committed.
    // (Heartbeats are deliberately unreliable, so sustained loss causes
    // occasional false suspicion and churn — the invariants that must hold
    // are agreement and repeated convergence, not a churn-free endpoint.)
    let mut world = World::new(31);
    let peers: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    for _ in 0..4 {
        let gmd = GmpLayer::new(GmpConfig::new(peers.clone()).with_bugs(GmpBugs::none()));
        let pfi = PfiLayer::new(Box::new(pfi::gmp::GmpStub));
        // The loss is below rudp, as a lossy wire's would be: every node
        // omits a tenth of what it sends.
        let lossy = PfiLayer::new(Box::new(RawStub)).with_send_filter(faults::omission(0.1));
        world.add_node(vec![
            Box::new(gmd),
            Box::new(pfi),
            Box::new(RudpLayer::default()),
            Box::new(lossy),
        ]);
    }
    for &p in &peers {
        world.control::<GmpReply>(p, 0, GmpControl::Start);
    }
    world.run_for(SimDuration::from_secs(240));
    let full: Vec<u32> = peers.iter().map(|p| p.as_u32()).collect();
    let mut by_gid: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    for &p in &peers {
        let views = world.trace().events_of::<pfi::gmp::GmpEvent>(Some(p));
        let mut committed_full = false;
        for (_, e) in views {
            if let pfi::gmp::GmpEvent::GroupView { gid, members, .. } = e {
                if members == full {
                    committed_full = true;
                }
                match by_gid.get(&gid) {
                    None => {
                        by_gid.insert(gid, members);
                    }
                    Some(existing) => assert_eq!(*existing, members, "gid {gid} disagreement"),
                }
            }
        }
        assert!(
            committed_full,
            "{p} never committed the full view despite rudp retransmission"
        );
    }
}

#[test]
fn pfi_layers_compose_in_one_stack() {
    // Two PFI layers stacked: the upper one drops every 4th message, the
    // lower one duplicates everything. Effects compose.
    let mut world = World::new(8);
    let upper = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script("incr n; if {$n % 4 == 0} { xDrop }").unwrap());
    let lower =
        PfiLayer::new(Box::new(RawStub)).with_send_filter(Filter::script("xDuplicate 1").unwrap());

    use pfi::sim::{Context, Layer, Message};
    use std::any::Any;
    struct Src;
    struct Fire(NodeId, u8);
    impl Layer for Src {
        fn name(&self) -> &'static str {
            "src"
        }
        fn push(&mut self, m: Message, c: &mut Context<'_>) {
            c.send_down(m);
        }
        fn pop(&mut self, m: Message, c: &mut Context<'_>) {
            c.send_up(m);
        }
        fn control(&mut self, op: Box<dyn Any>, c: &mut Context<'_>) -> Box<dyn Any> {
            let Fire(dst, b) = *op.downcast::<Fire>().unwrap();
            c.send_down(Message::new(c.node(), dst, &[b]));
            Box::new(())
        }
    }
    struct Sink;
    impl Layer for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn push(&mut self, m: Message, c: &mut Context<'_>) {
            c.send_down(m);
        }
        fn pop(&mut self, m: Message, c: &mut Context<'_>) {
            c.send_up(m);
        }
    }
    let a = world.add_node(vec![Box::new(Src), Box::new(upper), Box::new(lower)]);
    let b = world.add_node(vec![Box::new(Sink)]);
    for i in 0..8u8 {
        world.control::<()>(a, 0, Fire(b, i));
    }
    world.run_for(SimDuration::from_secs(1));
    // 8 sent, 2 dropped by the upper layer, the remaining 6 doubled = 12.
    let got = world.drain_inbox(b);
    assert_eq!(got.len(), 12);
}

#[test]
fn pfi_kill_affects_only_its_own_stack_position() {
    // Killing the PFI layer below TCP severs the wire for that node but
    // leaves the TCP state machine alive (it keeps retransmitting).
    let mut world = World::new(4);
    let (client, server, conn) = tcp_pair(&mut world, None, Vec::new());
    world.control::<TcpReply>(
        client,
        0,
        TcpControl::Send {
            conn,
            data: vec![1u8; 512],
        },
    );
    world.run_for(SimDuration::from_secs(2));
    let _: PfiReply = world.control(server, 1, PfiControl::Kill);
    world.control::<TcpReply>(
        client,
        0,
        TcpControl::Send {
            conn,
            data: vec![2u8; 512],
        },
    );
    world.run_for(SimDuration::from_secs(30));
    let retx: Vec<_> = world
        .trace()
        .events_of::<pfi::tcp::TcpEvent>(Some(client))
        .into_iter()
        .filter(|(_, e)| matches!(e, pfi::tcp::TcpEvent::Retransmit { .. }))
        .collect();
    assert!(!retx.is_empty(), "the client must retransmit into the void");
    let _: PfiReply = world.control(server, 1, PfiControl::Revive);
    world.run_for(SimDuration::from_secs(120));
    let got = server_data(&mut world, server);
    assert_eq!(got.len(), 1_024, "after revival the stream completes");
}
