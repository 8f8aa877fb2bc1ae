//! The sender has no congestion control: it fills the whole window at
//! once, and a lost segment is resent only when the retransmission timer
//! fires — the 1995 vendor behaviour the paper's probes measure.

use pfi_core::{faults, Filter, PfiLayer, RawStub};
use pfi_sim::{NodeId, SimDuration, World};
use pfi_tcp::{ConnId, TcpControl, TcpEvent, TcpLayer, TcpProfile, TcpReply, TcpStub};

/// A client and a server whose PFI layer runs `recv_filter`, `latency_ms`
/// apart: the wire's fixed 1 ms plus a PFI layer under the server that
/// delays both directions by the rest.
fn pair_with_filter(
    profile: TcpProfile,
    recv_filter: Option<Filter>,
    latency_ms: u64,
) -> (World, NodeId, NodeId, ConnId) {
    let mut w = World::new(77);
    let c = w.add_node(vec![Box::new(TcpLayer::new(profile))]);
    let mut pfi = PfiLayer::new(Box::new(TcpStub));
    if let Some(f) = recv_filter {
        pfi = pfi.with_recv_filter(f);
    }
    let delay = || {
        let extra = SimDuration::from_millis(latency_ms - 1);
        faults::timing(faults::DelayDist::Constant(extra))
    };
    let wire = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(delay())
        .with_recv_filter(delay());
    let s = w.add_node(vec![
        Box::new(TcpLayer::new(TcpProfile::rfc_reference())),
        Box::new(pfi),
        Box::new(wire),
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
    w.run_for(SimDuration::from_secs(2));
    (w, c, s, conn)
}

fn server_len(w: &mut World, s: NodeId) -> usize {
    match w.control::<TcpReply>(s, 0, TcpControl::AcceptedOn { port: 80 }) {
        TcpReply::MaybeConn(Some(sc)) => w
            .control::<TcpReply>(s, 0, TcpControl::RecvTake { conn: sc })
            .expect_data()
            .len(),
        _ => 0,
    }
}

#[test]
fn plain_profile_bursts_whole_window_at_once() {
    // Without congestion control the sender fills the whole 4096-byte
    // window immediately.
    let (mut w, c, _s, conn) = pair_with_filter(TcpProfile::sunos_4_1_3(), None, 25);
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![1u8; 8 * 512],
        },
    );
    w.run_for(SimDuration::from_millis(40)); // less than one RTT
    let sends = w
        .trace()
        .events_of::<TcpEvent>(Some(c))
        .into_iter()
        .filter(|(_, e)| matches!(e, TcpEvent::SegmentSent { kind: "DATA", .. }))
        .count();
    assert_eq!(sends, 8, "the whole window leaves in the first instant");
}

#[test]
fn plain_profile_never_fast_retransmits() {
    // Drop exactly one mid-stream data segment. The segments after it draw
    // duplicate ACKs, but the lost one is resent only by the
    // retransmission timer, a full RTO (at least 1 s) after it left.
    let drop_fourth = Filter::script(
        r#"
        if {[msg_type] == "DATA"} {
            incr n
            if {$n == 4} { xDrop }
        }
    "#,
    )
    .unwrap();
    let (mut w, c, s, conn) = pair_with_filter(TcpProfile::sunos_4_1_3(), Some(drop_fourth), 5);
    w.control::<TcpReply>(
        c,
        0,
        TcpControl::Send {
            conn,
            data: vec![2u8; 16 * 512],
        },
    );
    w.run_for(SimDuration::from_secs(30));
    let evs = w.trace().events_of::<TcpEvent>(Some(c));
    let (lost_at, lost_seq) = evs
        .iter()
        .filter_map(|(t, e)| match e {
            TcpEvent::SegmentSent {
                kind: "DATA", seq, ..
            } => Some((*t, *seq)),
            _ => None,
        })
        .nth(3)
        .expect("a fourth data segment");
    let resent_at = evs
        .iter()
        .find_map(|(t, e)| match e {
            TcpEvent::Retransmit { seq, .. } if *seq == lost_seq => Some(*t),
            _ => None,
        })
        .expect("the lost segment is retransmitted");
    assert!(
        resent_at.saturating_since(lost_at) >= SimDuration::from_secs(1),
        "resent {:?} after the loss, before the RTO",
        resent_at.saturating_since(lost_at)
    );
    assert_eq!(server_len(&mut w, s), 16 * 512, "stream completes");
}
