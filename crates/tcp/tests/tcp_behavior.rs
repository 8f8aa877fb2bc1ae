//! Behavioural tests for the TCP substrate, exercising every mechanism the
//! paper's experiments rely on.

use pfi_core::{faults, Filter, PfiControl, PfiLayer, PfiReply};
use pfi_sim::{NodeId, SimDuration, SimTime, World};
use pfi_tcp::{CloseReason, ConnId, TcpControl, TcpEvent, TcpLayer, TcpProfile, TcpReply, TcpStub};

/// Builds a client/server pair; client at node 0 with `client_profile`,
/// server at node 1 listening on port 80 with the reference profile, over
/// a PFI layer with no filter (see [`wire`]).
fn pair(client_profile: TcpProfile) -> (World, NodeId, NodeId, ConnId) {
    let mut w = World::new(42);
    let c = w.add_node(vec![Box::new(TcpLayer::new(client_profile))]);
    let s = w.add_node(vec![
        Box::new(TcpLayer::new(TcpProfile::rfc_reference())),
        Box::new(PfiLayer::new(Box::new(TcpStub))),
    ]);
    w.control::<TcpReply>(s, 0, TcpControl::Listen { port: 80 });
    let conn = w
        .control::<TcpReply>(
            c,
            0,
            TcpControl::Open {
                local_port: 0,
                remote: s,
                remote_port: 80,
            },
        )
        .expect_conn();
    w.run_for(SimDuration::from_millis(100));
    (w, c, s, conn)
}

/// Installs `filter()` on both of the server's PFI filters, so it acts on
/// the traffic of both directions: a lossy or slow wire.
fn wire(w: &mut World, s: NodeId, filter: impl Fn() -> Filter) {
    let _: PfiReply = w.control(s, 1, PfiControl::SetSendFilter(filter()));
    let _: PfiReply = w.control(s, 1, PfiControl::SetRecvFilter(filter()));
}

fn server_conn(w: &mut World, s: NodeId) -> ConnId {
    match w.control::<TcpReply>(s, 0, TcpControl::AcceptedOn { port: 80 }) {
        TcpReply::MaybeConn(Some(c)) => c,
        other => panic!("server accepted nothing: {other:?}"),
    }
}

fn state(w: &mut World, node: NodeId, conn: ConnId) -> &'static str {
    w.control::<TcpReply>(node, 0, TcpControl::State { conn })
        .expect_state()
}

#[test]
fn handshake_establishes_both_sides() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    assert_eq!(state(&mut w, c, conn), "Established");
    let sc = server_conn(&mut w, s);
    assert_eq!(state(&mut w, s, sc), "Established");
    let connected = w.trace().events_of::<TcpEvent>(None);
    assert!(connected
        .iter()
        .any(|(_, e)| matches!(e, TcpEvent::Connected { .. })));
}

#[test]
fn bulk_transfer_delivers_in_order() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: payload.clone(),
        },
    );
    w.run_for(SimDuration::from_secs(10));
    let sc = server_conn(&mut w, s);
    let got = w
        .control::<TcpReply>(s, 0, TcpControl::RecvTake { conn: sc })
        .expect_data();
    assert_eq!(got, payload);
}

#[test]
fn transfer_survives_random_loss() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    wire(&mut w, s, || faults::omission(0.2));
    let payload: Vec<u8> = (0..8_000u32).map(|i| (i * 7 % 256) as u8).collect();
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: payload.clone(),
        },
    );
    // Plenty of virtual time for retransmissions.
    w.run_for(SimDuration::from_secs(600));
    let sc = server_conn(&mut w, s);
    let got = w
        .control::<TcpReply>(s, 0, TcpControl::RecvTake { conn: sc })
        .expect_data();
    assert_eq!(got.len(), payload.len());
    assert_eq!(got, payload);
    let stats = w
        .control::<TcpReply>(c, 0, TcpControl::Stats { conn })
        .expect_stats();
    assert!(
        stats.retransmissions > 0,
        "20% loss must cause retransmissions"
    );
}

#[test]
fn bsd_blackhole_gives_12_retx_exponential_backoff_and_reset() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    // Black-hole everything between the two nodes.
    w.network_mut().set_link_down(c, s);
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![1u8; 512],
        },
    );
    w.run_for(SimDuration::from_secs(3_000));
    assert_eq!(state(&mut w, c, conn), "Closed");
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let retx: Vec<(SimTime, u32, SimDuration)> = evs
        .iter()
        .filter_map(|(t, e)| match e {
            TcpEvent::Retransmit { nth, next_rto, .. } => Some((*t, *nth, *next_rto)),
            _ => None,
        })
        .collect();
    // Exactly 12 retransmissions before the connection is abandoned.
    assert_eq!(retx.len(), 12, "retx events: {retx:?}");
    assert_eq!(retx[11].1, 12);
    // Backoff doubles and caps at 64 s.
    let intervals: Vec<f64> = retx
        .windows(2)
        .map(|p| (p[1].0 - p[0].0).as_secs_f64())
        .collect();
    for pair in intervals.windows(2) {
        let ratio = pair[1] / pair[0];
        assert!(
            (0.9..=2.1).contains(&ratio),
            "backoff must double or stay capped: {intervals:?}"
        );
    }
    assert!(
        intervals.last().unwrap() - 64.0 < 0.5,
        "cap at 64 s: {intervals:?}"
    );
    // BSD sends a reset when giving up.
    assert!(evs
        .iter()
        .any(|(_, e)| matches!(e, TcpEvent::Reset { sent: true, .. })));
    assert!(evs.iter().any(|(_, e)| matches!(
        e,
        TcpEvent::Closed {
            reason: CloseReason::Timeout,
            ..
        }
    )));
}

#[test]
fn solaris_blackhole_gives_9_retx_no_reset() {
    let (mut w, c, s, conn) = pair(TcpProfile::solaris_2_3());
    w.network_mut().set_link_down(c, s);
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![1u8; 512],
        },
    );
    w.run_for(SimDuration::from_secs(3_000));
    assert_eq!(state(&mut w, c, conn), "Closed");
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let retx = evs
        .iter()
        .filter(|(_, e)| matches!(e, TcpEvent::Retransmit { .. }))
        .count();
    assert_eq!(retx, 9, "Solaris gives up after 9 retransmissions");
    assert!(
        !evs.iter()
            .any(|(_, e)| matches!(e, TcpEvent::Reset { sent: true, .. })),
        "Solaris closes abruptly without a reset"
    );
}

#[test]
fn solaris_first_retransmission_is_subsecond() {
    let (mut w, c, s, conn) = pair(TcpProfile::solaris_2_3());
    w.network_mut().set_link_down(c, s);
    let t0 = w.now();
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![1u8; 100],
        },
    );
    w.run_for(SimDuration::from_secs(5));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let first_retx = evs
        .iter()
        .find(|(_, e)| matches!(e, TcpEvent::Retransmit { .. }))
        .map(|(t, _)| *t)
        .expect("a retransmission");
    let gap = first_retx.saturating_since(t0);
    assert!(
        gap < SimDuration::from_millis(500),
        "Solaris 330 ms floor, saw first retx after {gap}"
    );
}

#[test]
fn keepalive_bsd_probes_after_7200s_then_resets() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    w.control::<TcpReply>(c, 0, TcpControl::SetKeepalive { conn, on: true });
    // Kill the server so probes go unanswered.
    w.crash(s);
    let t0 = w.now();
    w.run_for(SimDuration::from_secs(9_000));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let probes: Vec<SimTime> = evs
        .iter()
        .filter(|(_, e)| matches!(e, TcpEvent::KeepaliveProbe { .. }))
        .map(|(t, _)| *t)
        .collect();
    // First probe at idle threshold; 8 retransmissions at 75 s intervals.
    assert_eq!(probes.len(), 9, "probes: {probes:?}");
    let first_gap = probes[0].saturating_since(t0).as_secs_f64();
    assert!(
        (7_190.0..7_210.0).contains(&first_gap),
        "first probe at {first_gap}"
    );
    for pair in probes.windows(2) {
        let gap = (pair[1] - pair[0]).as_secs_f64();
        assert!((74.0..76.0).contains(&gap), "probe interval {gap}");
    }
    assert!(evs
        .iter()
        .any(|(_, e)| matches!(e, TcpEvent::Reset { sent: true, .. })));
    assert!(evs.iter().any(|(_, e)| matches!(
        e,
        TcpEvent::Closed {
            reason: CloseReason::KeepaliveTimeout,
            ..
        }
    )));
    // SunOS probes carry one garbage byte.
    assert!(evs.iter().all(
        |(_, e)| !matches!(e, TcpEvent::KeepaliveProbe { garbage_bytes, .. } if *garbage_bytes != 1)
    ));
}

#[test]
fn keepalive_solaris_violates_spec_and_backs_off() {
    let (mut w, c, s, conn) = pair(TcpProfile::solaris_2_3());
    w.control::<TcpReply>(c, 0, TcpControl::SetKeepalive { conn, on: true });
    w.crash(s);
    let t0 = w.now();
    w.run_for(SimDuration::from_secs(8_000));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let probes: Vec<SimTime> = evs
        .iter()
        .filter(|(_, e)| matches!(e, TcpEvent::KeepaliveProbe { .. }))
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(
        probes.len(),
        8,
        "first probe + 7 backoff retransmissions: {probes:?}"
    );
    let first_gap = probes[0].saturating_since(t0).as_secs_f64();
    assert!(
        (6_740.0..6_760.0).contains(&first_gap),
        "Solaris violates the 7200 s threshold: {first_gap}"
    );
    // Exponential backoff between retransmissions.
    let gaps: Vec<f64> = probes
        .windows(2)
        .map(|p| (p[1] - p[0]).as_secs_f64())
        .collect();
    for pair in gaps.windows(2) {
        assert!(pair[1] > pair[0] * 1.5, "gaps must grow: {gaps:?}");
    }
    assert!(
        !evs.iter()
            .any(|(_, e)| matches!(e, TcpEvent::Reset { sent: true, .. })),
        "Solaris drops silently"
    );
}

#[test]
fn keepalive_answered_probes_continue_indefinitely() {
    let (mut w, c, _s, conn) = pair(TcpProfile::sunos_4_1_3());
    w.control::<TcpReply>(c, 0, TcpControl::SetKeepalive { conn, on: true });
    // Run 8 virtual hours with a live peer: 4 probes at ~7200 s intervals,
    // each answered, connection stays up (the paper's variation ran the
    // same test for 8–112 hours).
    w.run_for(SimDuration::from_secs(8 * 3_600));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let probes: Vec<SimTime> = evs
        .iter()
        .filter(|(_, e)| matches!(e, TcpEvent::KeepaliveProbe { .. }))
        .map(|(t, _)| *t)
        .collect();
    assert!(
        (3..=4).contains(&probes.len()),
        "~4 probes in 8 h: {probes:?}"
    );
    for pair in probes.windows(2) {
        let gap = (pair[1] - pair[0]).as_secs_f64();
        assert!((7_190.0..7_210.0).contains(&gap), "idle interval {gap}");
    }
    assert_eq!(state(&mut w, c, conn), "Established");
}

#[test]
fn zero_window_probing_backs_off_to_cap_and_never_stops() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    let sc = server_conn(&mut w, s);
    // Server stops consuming: its 4096-byte buffer fills, window closes.
    w.control::<TcpReply>(
        s,
        0,
        TcpControl::SetConsume {
            conn: sc,
            on: false,
        },
    );
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![7u8; 10_000],
        },
    );
    w.run_for(SimDuration::from_secs(1_200));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let probes: Vec<(SimTime, SimDuration)> = evs
        .iter()
        .filter_map(|(t, e)| match e {
            TcpEvent::ZeroWindowProbe { next_interval, .. } => Some((*t, *next_interval)),
            _ => None,
        })
        .collect();
    assert!(
        probes.len() >= 10,
        "expected sustained probing, got {}",
        probes.len()
    );
    // Interval grows then caps at 60 s.
    let last_gap = {
        let n = probes.len();
        (probes[n - 1].0 - probes[n - 2].0).as_secs_f64()
    };
    assert!(
        (59.0..61.0).contains(&last_gap),
        "cap at 60 s, saw {last_gap}"
    );
    assert_eq!(
        state(&mut w, c, conn),
        "Established",
        "probing must not give up"
    );
    // Solaris caps at 56 s instead.
    let (mut w2, c2, s2, conn2) = pair(TcpProfile::solaris_2_3());
    let sc2 = server_conn(&mut w2, s2);
    w2.control::<TcpReply>(
        s2,
        0,
        TcpControl::SetConsume {
            conn: sc2,
            on: false,
        },
    );
    w2.control::<TcpReply>(
        c2,
        0,
        TcpControl::Send {
            conn: conn2,
            data: vec![7u8; 10_000],
        },
    );
    w2.run_for(SimDuration::from_secs(1_200));
    let evs2 = w2.trace().events_of::<TcpEvent>(Some(c2));
    let probes2: Vec<SimTime> = evs2
        .iter()
        .filter(|(_, e)| matches!(e, TcpEvent::ZeroWindowProbe { .. }))
        .map(|(t, _)| *t)
        .collect();
    let n = probes2.len();
    let last_gap2 = (probes2[n - 1] - probes2[n - 2]).as_secs_f64();
    assert!(
        (55.0..57.0).contains(&last_gap2),
        "Solaris cap at 56 s, saw {last_gap2}"
    );
}

#[test]
fn window_reopen_resumes_transfer() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    let sc = server_conn(&mut w, s);
    w.control::<TcpReply>(
        s,
        0,
        TcpControl::SetConsume {
            conn: sc,
            on: false,
        },
    );
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: payload.clone(),
        },
    );
    w.run_for(SimDuration::from_secs(120));
    // Window is closed; reopen it.
    w.control::<TcpReply>(s, 0, TcpControl::SetConsume { conn: sc, on: true });
    w.run_for(SimDuration::from_secs(300));
    let got = w
        .control::<TcpReply>(s, 0, TcpControl::RecvTake { conn: sc })
        .expect_data();
    assert_eq!(got.len(), payload.len());
    assert_eq!(got, payload);
}

#[test]
fn out_of_order_segments_are_queued_and_cumulatively_acked() {
    // Sender with a PFI layer below TCP that delays the FIRST data segment
    // by 3 s (the paper's experiment 5 setup), so the second arrives first.
    let mut w = World::new(42);
    let pfi = PfiLayer::new(Box::new(TcpStub)).with_send_filter(
        Filter::script(
            r#"
            if {[msg_type] == "DATA"} {
                incr data_count
                if {$data_count == 1} { xDelay 3000 }
            }
        "#,
        )
        .unwrap(),
    );
    let c = w.add_node(vec![
        Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3())),
        Box::new(pfi),
    ]);
    let s = w.add_node(vec![Box::new(TcpLayer::new(TcpProfile::rfc_reference()))]);
    w.control::<TcpReply>(s, 0, TcpControl::Listen { port: 80 });
    let conn = w
        .control::<TcpReply>(
            c,
            0,
            TcpControl::Open {
                local_port: 0,
                remote: s,
                remote_port: 80,
            },
        )
        .expect_conn();
    w.run_for(SimDuration::from_millis(100));
    // Two MSS-sized segments.
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![9u8; 1_024],
        },
    );
    w.run_for(SimDuration::from_secs(30));
    let sevs = w.trace().events_of::<TcpEvent>(Some(s));
    assert!(
        sevs.iter()
            .any(|(_, e)| matches!(e, TcpEvent::OutOfOrderQueued { .. })),
        "the receiver must queue the early second segment"
    );
    let sc = server_conn(&mut w, s);
    let got = w
        .control::<TcpReply>(s, 0, TcpControl::RecvTake { conn: sc })
        .expect_data();
    assert_eq!(
        got,
        vec![9u8; 1_024],
        "data must still arrive complete and in order"
    );
}

#[test]
fn stray_segment_gets_reset() {
    let mut w = World::new(1);
    let a = w.add_node(vec![Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3()))]);
    let b = w.add_node(vec![Box::new(TcpLayer::new(TcpProfile::rfc_reference()))]);
    // Open to a port nobody listens on.
    let conn = w
        .control::<TcpReply>(
            a,
            0,
            TcpControl::Open {
                local_port: 0,
                remote: b,
                remote_port: 9,
            },
        )
        .expect_conn();
    w.run_for(SimDuration::from_secs(2));
    // The SYN was answered with RST; the connection dies immediately.
    assert_eq!(state(&mut w, a, conn), "Closed");
    let evs = w.trace().events_of::<TcpEvent>(Some(a));
    assert!(evs.iter().any(|(_, e)| matches!(
        e,
        TcpEvent::Closed {
            reason: CloseReason::Reset,
            ..
        }
    )));
}

#[test]
fn orderly_close_fin_handshake() {
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: b"bye".to_vec(),
        },
    );
    w.run_for(SimDuration::from_secs(1));
    w.control::<TcpReply>(c, 0, TcpControl::Close { conn });
    w.run_for(SimDuration::from_secs(1));
    let sc = server_conn(&mut w, s);
    assert_eq!(state(&mut w, s, sc), "CloseWait");
    assert_eq!(state(&mut w, c, conn), "FinWait2");
    w.control::<TcpReply>(s, 0, TcpControl::Close { conn: sc });
    w.run_for(SimDuration::from_secs(60));
    assert_eq!(state(&mut w, s, sc), "Closed");
    assert_eq!(state(&mut w, c, conn), "Closed");
}

#[test]
fn corrupted_segments_are_dropped_and_recovered() {
    // PFI below the sender corrupts the first data segment's payload.
    let mut w = World::new(5);
    let pfi = PfiLayer::new(Box::new(TcpStub)).with_send_filter(
        Filter::script(
            r#"
            if {[msg_type] == "DATA"} {
                incr n
                if {$n == 1} { msg_set_byte 25 255 }
            }
        "#,
        )
        .unwrap(),
    );
    let c = w.add_node(vec![
        Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3())),
        Box::new(pfi),
    ]);
    let s = w.add_node(vec![Box::new(TcpLayer::new(TcpProfile::rfc_reference()))]);
    w.control::<TcpReply>(s, 0, TcpControl::Listen { port: 80 });
    let conn = w
        .control::<TcpReply>(
            c,
            0,
            TcpControl::Open {
                local_port: 0,
                remote: s,
                remote_port: 80,
            },
        )
        .expect_conn();
    w.run_for(SimDuration::from_millis(100));
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![1u8; 256],
        },
    );
    w.run_for(SimDuration::from_secs(30));
    let sevs = w.trace().events_of::<TcpEvent>(Some(s));
    assert!(
        sevs.iter()
            .any(|(_, e)| matches!(e, TcpEvent::DecodeFailed)),
        "corruption must be caught by the checksum"
    );
    let sc = server_conn(&mut w, s);
    let got = w
        .control::<TcpReply>(s, 0, TcpControl::RecvTake { conn: sc })
        .expect_data();
    assert_eq!(got, vec![1u8; 256], "retransmission must repair the stream");
}

#[test]
fn retransmission_intervals_increase_exponentially_from_measured_rtt() {
    // With a 200 ms round trip (the wire's 1 ms plus 99 ms of PFI delay,
    // each way), the first RTO reflects the measured RTT.
    let (mut w, c, s, conn) = pair(TcpProfile::sunos_4_1_3());
    let slow = faults::DelayDist::Constant(SimDuration::from_millis(99));
    wire(&mut w, s, || faults::timing(slow));
    // Establish an RTT estimate with some successful traffic.
    for _ in 0..5 {
        w.control::<TcpReply>(
            c,
            0,
            TcpControl::Send {
                conn,
                data: vec![3u8; 512],
            },
        );
        w.run_for(SimDuration::from_secs(2));
    }
    w.network_mut().set_link_down(c, s);
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![4u8; 512],
        },
    );
    w.run_for(SimDuration::from_secs(2_000));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let retx_times: Vec<SimTime> = evs
        .iter()
        .filter(|(_, e)| matches!(e, TcpEvent::Retransmit { .. }))
        .map(|(t, _)| *t)
        .collect();
    let gaps: Vec<f64> = retx_times
        .windows(2)
        .map(|p| (p[1] - p[0]).as_secs_f64())
        .collect();
    // Strictly non-decreasing, roughly doubling until the cap.
    for pair in gaps.windows(2) {
        assert!(pair[1] >= pair[0] * 0.99, "gaps must not shrink: {gaps:?}");
    }
    assert!(
        gaps.iter().any(|g| (63.0..65.0).contains(g)),
        "cap reached: {gaps:?}"
    );
}
