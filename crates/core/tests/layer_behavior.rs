//! End-to-end behaviour tests for the PFI layer inside a simulated stack.

use std::any::Any;

use pfi_core::{
    faults, Direction, Filter, GlobalBoard, PfiControl, PfiEvent, PfiLayer, PfiReply, RawStub,
};
use pfi_sim::{Context, Layer, Message, NodeId, SimDuration, SimTime, World};

/// Top-of-stack test layer: control op sends a payload; everything popped
/// up goes into the inbox via `send_up` (node inbox).
struct Driver;

struct SendTo(NodeId, Vec<u8>);

impl Layer for Driver {
    fn name(&self) -> &'static str {
        "driver"
    }
    fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
        ctx.send_down(msg);
    }
    fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
        ctx.send_up(msg);
    }
    fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
        let SendTo(dst, payload) = *op.downcast::<SendTo>().expect("bad op");
        ctx.send_down(Message::new(ctx.node(), dst, &payload));
        Box::new(())
    }
}

/// Builds a two-node world: node 0 = [Driver, PfiLayer], node 1 = [Driver].
fn two_nodes(pfi: PfiLayer) -> (World, NodeId, NodeId) {
    let mut w = World::new(7);
    let a = w.add_node(vec![Box::new(Driver), Box::new(pfi)]);
    let b = w.add_node(vec![Box::new(Driver)]);
    (w, a, b)
}

fn send(w: &mut World, from: NodeId, to: NodeId, payload: &[u8]) {
    w.control::<()>(from, 0, SendTo(to, payload.to_vec()));
}

fn received(w: &mut World, node: NodeId) -> Vec<(SimTime, Vec<u8>)> {
    w.drain_inbox(node)
        .into_iter()
        .map(|(t, m)| (t, m.bytes().to_vec()))
        .collect()
}

#[test]
fn pass_through_by_default() {
    let (mut w, a, b) = two_nodes(PfiLayer::new(Box::new(RawStub)));
    send(&mut w, a, b, b"hello");
    w.run_for(SimDuration::from_millis(10));
    let got = received(&mut w, b);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1, b"hello");
}

#[test]
fn script_send_filter_drops_everything() {
    let pfi =
        PfiLayer::new(Box::new(RawStub)).with_send_filter(Filter::script("xDrop cur_msg").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"hello");
    w.run_for(SimDuration::from_millis(10));
    assert!(received(&mut w, b).is_empty());
    let drops = w.trace().events_of::<PfiEvent>(Some(a));
    assert!(matches!(
        drops[0].1,
        PfiEvent::Dropped {
            dir: Direction::Send,
            ..
        }
    ));
}

#[test]
fn receive_filter_runs_on_pop() {
    let pfi = PfiLayer::new(Box::new(RawStub)).with_recv_filter(Filter::script("xDrop").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    // b -> a passes through a's PFI receive filter.
    send(&mut w, b, a, b"ping");
    w.run_for(SimDuration::from_millis(10));
    assert!(received(&mut w, a).is_empty());
}

#[test]
fn delay_reorders_relative_to_later_traffic() {
    // Delay the first message by 50 ms; the second passes untouched.
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(
        Filter::script(
            r#"
            incr n
            if {$n == 1} { xDelay 50 }
        "#,
        )
        .unwrap(),
    );
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"first");
    send(&mut w, a, b, b"second");
    w.run_for(SimDuration::from_millis(200));
    let got = received(&mut w, b);
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].1, b"second");
    assert_eq!(got[1].1, b"first");
    assert!(got[1].0 >= SimTime::from_micros(50_000));
}

#[test]
fn duplicate_forwards_extra_copies() {
    let pfi =
        PfiLayer::new(Box::new(RawStub)).with_send_filter(Filter::script("xDuplicate 2").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(received(&mut w, b).len(), 3);
}

#[test]
fn hold_and_release_gives_deterministic_reordering() {
    // Hold the first two messages; the third releases them after itself.
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(
        Filter::script(
            r#"
            incr n
            if {$n <= 2} {
                xHold
            } elseif {$n == 3} {
                xRelease
            }
        "#,
        )
        .unwrap(),
    );
    let (mut w, a, b) = two_nodes(pfi);
    for p in [&b"m1"[..], b"m2", b"m3"] {
        send(&mut w, a, b, p);
    }
    w.run_for(SimDuration::from_millis(10));
    let got: Vec<Vec<u8>> = received(&mut w, b).into_iter().map(|(_, p)| p).collect();
    assert_eq!(got, vec![b"m3".to_vec(), b"m1".to_vec(), b"m2".to_vec()]);
}

#[test]
fn inject_spontaneous_message_down() {
    // On the first message, also inject a probe to node 1.
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(
        Filter::script(
            r#"
            incr n
            if {$n == 1} { xInject down raw 1 PROBE }
        "#,
        )
        .unwrap(),
    );
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"data");
    w.run_for(SimDuration::from_millis(10));
    let got: Vec<Vec<u8>> = received(&mut w, b).into_iter().map(|(_, p)| p).collect();
    assert!(got.contains(&b"data".to_vec()));
    assert!(got.contains(&b"PROBE".to_vec()));
}

#[test]
fn inject_up_delivers_to_target_layer() {
    // The receive path of node a: inject a forged message up to the driver.
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_recv_filter(Filter::script(r#"xInject up raw 0 FORGED"#).unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, b, a, b"real");
    w.run_for(SimDuration::from_millis(10));
    let got: Vec<Vec<u8>> = received(&mut w, a).into_iter().map(|(_, p)| p).collect();
    assert_eq!(got.len(), 2);
    assert!(got.contains(&b"FORGED".to_vec()));
}

#[test]
fn script_state_persists_and_peer_communication_works() {
    // Send filter counts messages; after 3 it tells the receive filter to
    // start dropping (the paper's cross-interpreter example).
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(
            Filter::script(
                r#"
                incr sent
                if {$sent == 3} { peer_set dropping 1 }
            "#,
            )
            .unwrap(),
        )
        .with_recv_filter(
            Filter::script(
                r#"
                if {[info exists dropping]} { xDrop }
            "#,
            )
            .unwrap(),
        );
    let (mut w, a, b) = two_nodes(pfi);
    // Interleave: a->b (send filter), b->a (receive filter).
    for i in 0..5u8 {
        send(&mut w, a, b, &[i]);
        send(&mut w, b, a, &[100 + i]);
        w.run_for(SimDuration::from_millis(10));
    }
    let at_a = received(&mut w, a);
    // Messages from b arriving after the third send are dropped.
    assert!(at_a.len() < 5, "expected drops, got {}", at_a.len());
    assert!(at_a.len() >= 2);
}

#[test]
fn global_board_coordinates_across_nodes() {
    let mut w = World::new(1);
    let board = GlobalBoard::alloc_in(w.boards_mut());
    let pfi_a = PfiLayer::new(Box::new(RawStub))
        .with_globals(board)
        .with_send_filter(Filter::script("global_set phase drop").unwrap());
    let pfi_b = PfiLayer::new(Box::new(RawStub))
        .with_globals(board)
        .with_recv_filter(
            Filter::script(r#"if {[global_get phase none] == "drop"} { xDrop }"#).unwrap(),
        );
    let a = w.add_node(vec![Box::new(Driver), Box::new(pfi_a)]);
    let b = w.add_node(vec![Box::new(Driver), Box::new(pfi_b)]);
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_millis(10));
    // a's send filter set the flag; b's receive filter dropped the message.
    assert!(received(&mut w, b).is_empty());
    assert_eq!(board.get(w.boards(), "phase").as_deref(), Some("drop"));
}

#[test]
fn kill_and_revive_emulate_crash() {
    let (mut w, a, b) = two_nodes(PfiLayer::new(Box::new(RawStub)));
    let r: PfiReply = w.control(a, 1, PfiControl::Kill);
    assert!(matches!(r, PfiReply::Unit));
    send(&mut w, a, b, b"lost");
    w.run_for(SimDuration::from_millis(10));
    assert!(received(&mut w, b).is_empty());
    let _: PfiReply = w.control(a, 1, PfiControl::Revive);
    send(&mut w, a, b, b"alive");
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(received(&mut w, b).len(), 1);
}

#[test]
fn packet_log_records_timestamps_and_harvests() {
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script("msg_log cur_msg").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"one");
    w.run_for(SimDuration::from_millis(5));
    send(&mut w, a, b, b"twoo");
    w.run_for(SimDuration::from_millis(5));
    let log = w
        .control::<PfiReply>(a, 1, PfiControl::TakeLog)
        .expect_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].len, 3);
    assert_eq!(log[1].len, 4);
    assert!(log[0].time < log[1].time);
    // Log is cleared by TakeLog.
    let log2 = w
        .control::<PfiReply>(a, 1, PfiControl::TakeLog)
        .expect_log();
    assert!(log2.is_empty());
}

#[test]
fn failing_script_passes_message_and_reports() {
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script("this_command_does_not_exist").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(received(&mut w, b).len(), 1, "message must still pass");
    let evs = w.trace().events_of::<PfiEvent>(Some(a));
    assert!(evs.iter().any(|(_, e)| matches!(
        e,
        PfiEvent::ScriptFailed {
            budget_exhausted: false,
            ..
        }
    )));
}

#[test]
fn step_budget_cuts_a_looping_filter_short() {
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script("while {1} {incr spin}").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    let _: PfiReply = w.control(a, 1, PfiControl::SetStepBudget(200));
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_millis(10));
    // The watchdog fires, the message still passes (fail-open), and the
    // trace records the budget class so campaign runners can escalate.
    assert_eq!(received(&mut w, b).len(), 1, "message must still pass");
    let evs = w.trace().events_of::<PfiEvent>(Some(a));
    assert!(
        evs.iter().any(|(_, e)| matches!(
            e,
            PfiEvent::ScriptFailed {
                budget_exhausted: true,
                ..
            }
        )),
        "{evs:?}"
    );
}

#[test]
fn swap_filters_at_runtime_via_control() {
    let (mut w, a, b) = two_nodes(PfiLayer::new(Box::new(RawStub)));
    send(&mut w, a, b, b"1");
    w.run_for(SimDuration::from_millis(5));
    let _: PfiReply = w.control(a, 1, PfiControl::SetSendFilter(faults::drop_all()));
    send(&mut w, a, b, b"2");
    w.run_for(SimDuration::from_millis(5));
    let _: PfiReply = w.control(a, 1, PfiControl::SetSendFilter(faults::pass_all()));
    send(&mut w, a, b, b"3");
    w.run_for(SimDuration::from_millis(5));
    let got: Vec<Vec<u8>> = received(&mut w, b).into_iter().map(|(_, p)| p).collect();
    assert_eq!(got, vec![b"1".to_vec(), b"3".to_vec()]);
}

#[test]
fn eval_in_interp_seeds_script_state() {
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script(r#"if {$threshold > 0} { xDrop }"#).unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    let _: PfiReply = w.control(a, 1, PfiControl::EvalInSend("set threshold 1".to_string()));
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_millis(10));
    assert!(received(&mut w, b).is_empty());
    let v = w
        .control::<PfiReply>(a, 1, PfiControl::EvalInSend("set threshold".to_string()))
        .expect_eval();
    assert_eq!(v, "1");
}

#[test]
fn message_corruption_via_script() {
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script("msg_set_byte 0 90").unwrap()); // 'Z'
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"abc");
    w.run_for(SimDuration::from_millis(10));
    let got = received(&mut w, b);
    assert_eq!(got[0].1, b"Zbc");
}

#[test]
fn fault_pass_n_then_drop() {
    // TCP experiment 1's receive filter (`scripts/exp1_recv_filter.tcl`),
    // passing three instead of thirty.
    let pass_3_then_drop = Filter::script("msg_log\nincr seen\nif {$seen > 3} { xDrop }");
    let pfi = PfiLayer::new(Box::new(RawStub)).with_recv_filter(pass_3_then_drop.unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    for i in 0..6u8 {
        send(&mut w, b, a, &[i]);
    }
    w.run_for(SimDuration::from_millis(10));
    assert_eq!(received(&mut w, a).len(), 3);
    // All six were logged (with timestamps) even though three were dropped.
    let log = w
        .control::<PfiReply>(a, 1, PfiControl::TakeLog)
        .expect_log();
    assert_eq!(log.len(), 6);
}

#[test]
fn fault_omission_is_probabilistic() {
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(faults::omission(0.5));
    let (mut w, a, b) = two_nodes(pfi);
    for i in 0..200u64 {
        let payload = vec![(i % 256) as u8];
        send(&mut w, a, b, &payload);
    }
    w.run_for(SimDuration::from_millis(100));
    let n = received(&mut w, b).len();
    assert!(
        (60..=140).contains(&n),
        "got {n} of 200 through a 50% omission filter"
    );
}

#[test]
fn fault_oscillating_drop_alternates_phases() {
    // The paper's GMP heartbeat interruption: drop in odd seconds.
    let oscillate = Filter::script("if {[now_ms] / 1000 % 2 == 1} { xDrop }");
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(oscillate.unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    // One message every 250 ms for 4 seconds: phases 0/2 pass, 1/3 drop.
    for i in 0..16u64 {
        w.schedule_in(SimDuration::from_millis(i * 250), move |w| {
            w.control::<()>(NodeId::new(0), 0, SendTo(NodeId::new(1), vec![i as u8]));
        });
    }
    let _ = a;
    w.run_for(SimDuration::from_secs(5));
    let got = received(&mut w, b);
    assert_eq!(got.len(), 8, "half the messages should pass");
}

#[test]
fn fault_byzantine_corrupts_sometimes() {
    let cfg = faults::ByzantineConfig {
        corrupt: 1.0,
        duplicate: 0.0,
        drop: 0.0,
        reorder: 0.0,
        reorder_window: SimDuration::ZERO,
    };
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(faults::byzantine(cfg));
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"AAAA");
    w.run_for(SimDuration::from_millis(10));
    let got = received(&mut w, b);
    assert_eq!(got.len(), 1);
    assert_ne!(got[0].1, b"AAAA", "exactly one bit must differ");
    let diff: u32 = got[0]
        .1
        .iter()
        .zip(b"AAAA")
        .map(|(x, y)| (x ^ y).count_ones())
        .sum();
    assert_eq!(diff, 1);
}

#[test]
fn fault_timing_delays_within_distribution() {
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(faults::timing(
        faults::DelayDist::Uniform(SimDuration::from_millis(10), SimDuration::from_millis(20)),
    ));
    let (mut w, a, b) = two_nodes(pfi);
    for i in 0..20u8 {
        send(&mut w, a, b, &[i]);
    }
    w.run_for(SimDuration::from_millis(100));
    let got = received(&mut w, b);
    assert_eq!(got.len(), 20);
    for (t, _) in &got {
        // 1 ms link latency + [10, 20) ms injected delay.
        assert!(
            *t >= SimTime::from_micros(11_000) && *t < SimTime::from_micros(21_100),
            "t = {t}"
        );
    }
}

#[test]
fn probabilistic_script_filter_with_distributions() {
    // Scripts can use the distribution commands directly (paper §3).
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(
        Filter::script(
            r#"
            if {[coin 0.5]} { xDrop }
        "#,
        )
        .unwrap(),
    );
    let (mut w, a, b) = two_nodes(pfi);
    for i in 0..100u8 {
        send(&mut w, a, b, &[i]);
    }
    w.run_for(SimDuration::from_millis(100));
    let n = received(&mut w, b).len();
    assert!((25..=75).contains(&n), "got {n}");
}

#[test]
fn xafter_arms_timer_scripts_for_phase_changes() {
    // The first message arms a timer script that flips the filter into a
    // dropping phase 500 ms later — time-based state change, no traffic
    // needed to trigger it (the paper's "setting and manipulating timers").
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(
        Filter::script(
            r#"
            if {![info exists armed]} {
                set armed 1
                xAfter 500 { set dropping 1 }
            }
            if {[info exists dropping]} { xDrop }
        "#,
        )
        .unwrap(),
    );
    let (mut w, a, b) = two_nodes(pfi);
    // One message every 200 ms for 1.6 s: the first three (0, 200, 400 ms)
    // pass, everything from 600 ms on is dropped.
    for i in 0..8u64 {
        w.schedule_in(SimDuration::from_millis(i * 200), move |w| {
            w.control::<()>(NodeId::new(0), 0, SendTo(NodeId::new(1), vec![i as u8]));
        });
    }
    let _ = (a, b);
    w.run_for(SimDuration::from_secs(3));
    let got = received(&mut w, NodeId::new(1));
    assert_eq!(
        got.len(),
        3,
        "only the pre-phase-change messages pass: {got:?}"
    );
}

#[test]
fn xafter_scripts_can_touch_peer_and_global_state() {
    let mut w = World::new(7);
    let board = GlobalBoard::alloc_in(w.boards_mut());
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_globals(board)
        .with_send_filter(
            Filter::script(
                r#"
                if {![info exists armed]} {
                    set armed 1
                    xAfter 100 { peer_set poked 1; global_set phase late }
                }
            "#,
            )
            .unwrap(),
        );
    let a = w.add_node(vec![Box::new(Driver), Box::new(pfi)]);
    let b = w.add_node(vec![Box::new(Driver)]);
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(board.get(w.boards(), "phase").as_deref(), Some("late"));
    let v = w
        .control::<PfiReply>(a, 1, PfiControl::EvalInRecv("set poked".to_string()))
        .expect_eval();
    assert_eq!(v, "1");
}

#[test]
fn failing_timer_script_is_reported() {
    let pfi = PfiLayer::new(Box::new(RawStub))
        .with_send_filter(Filter::script(r#"xAfter 50 { this_is_not_a_command }"#).unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"x");
    w.run_for(SimDuration::from_secs(1));
    let evs = w.trace().events_of::<PfiEvent>(Some(a));
    assert!(evs
        .iter()
        .any(|(_, e)| matches!(e, PfiEvent::ScriptFailed { .. })));
}

/// A stub that types messages by their first byte: 'A' → "ALPHA",
/// otherwise "BETA" (for testing the type-selective canned filters).
#[derive(Debug, Clone, Copy)]
struct FirstByteStub;
impl pfi_core::PacketStub for FirstByteStub {
    fn protocol(&self) -> &'static str {
        "fb"
    }
    fn type_of(&self, msg: &Message) -> Option<String> {
        Some(if msg.byte_at(0) == Some(b'A') {
            "ALPHA".to_string()
        } else {
            "BETA".to_string()
        })
    }
    fn field(&self, _msg: &Message, _name: &str) -> Option<i64> {
        None
    }
    fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
        false
    }
    fn generate(&self, _src: NodeId, _args: &[String]) -> Result<Message, String> {
        Err("no generation".to_string())
    }
}

#[test]
fn fault_drop_types_is_type_selective() {
    let drop_alpha = Filter::script(r#"if {[msg_type] == "ALPHA"} { xDrop }"#);
    let pfi = PfiLayer::new(Box::new(FirstByteStub)).with_send_filter(drop_alpha.unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"Axx");
    send(&mut w, a, b, b"Bxx");
    send(&mut w, a, b, b"Ayy");
    send(&mut w, a, b, b"Byy");
    w.run_for(SimDuration::from_millis(10));
    let got: Vec<Vec<u8>> = received(&mut w, b).into_iter().map(|(_, p)| p).collect();
    assert_eq!(got, vec![b"Bxx".to_vec(), b"Byy".to_vec()]);
}

#[test]
fn fault_delay_types_delays_only_matching() {
    let delay_alpha = Filter::script(r#"if {[msg_type] == "ALPHA"} { xDelay 100 }"#);
    let pfi = PfiLayer::new(Box::new(FirstByteStub)).with_send_filter(delay_alpha.unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"A1");
    send(&mut w, a, b, b"B1");
    w.run_for(SimDuration::from_secs(1));
    let got = received(&mut w, b);
    assert_eq!(got[0].1, b"B1");
    assert_eq!(got[1].1, b"A1");
    assert!(got[1].0 >= SimTime::from_micros(100_000));
}

#[test]
fn unknown_control_ops_are_rejected_not_panicking() {
    let (mut w, a, _b) = two_nodes(PfiLayer::new(Box::new(RawStub)));
    struct NotAPfiOp;
    let reply: PfiReply = w.control(a, 1, NotAPfiOp);
    assert!(matches!(reply, PfiReply::UnknownOp));
}

#[test]
fn fault_delay_all_and_pass_all() {
    let delay_all = faults::timing(faults::DelayDist::Constant(SimDuration::from_millis(50)));
    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(delay_all);
    let (mut w, a, b) = two_nodes(pfi);
    send(&mut w, a, b, b"z");
    w.run_for(SimDuration::from_secs(1));
    let _: PfiReply = w.control(a, 1, PfiControl::SetSendFilter(faults::pass_all()));
    send(&mut w, a, b, b"y");
    w.run_for(SimDuration::from_secs(1));
    let got = received(&mut w, b);
    assert_eq!(got.len(), 2);
    assert!(got[0].0 >= SimTime::from_micros(50_000));
    // Sent at 1 s, delivered after the 1 ms link latency alone.
    assert!(got[1].0 < SimTime::from_micros(1_002_000), "{:?}", got[1].0);
}

/// Tally mode counts what reaches the filters — dropped or not — per
/// direction, type (`unknown` where the stub names none) and destination,
/// with the longest length; nothing before `Tally` or after `TakeTally`.
#[test]
fn tallied_traffic_is_counted_per_direction_type_and_destination() {
    use pfi_core::{Tally, TallyRow};
    use std::borrow::Cow;

    let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(Filter::script("xDrop").unwrap());
    let (mut w, a, b) = two_nodes(pfi);
    let control = |w: &mut World, op: PfiControl| w.control::<PfiReply>(a, 1, op);
    let take = |w: &mut World| match control(w, PfiControl::TakeTally) {
        PfiReply::Tally(tally) => tally,
        other => panic!("TakeTally answers with the tally, not {other:?}"),
    };
    send(&mut w, a, b, b"early");
    assert_eq!(take(&mut w), Tally::default(), "off by default");
    control(&mut w, PfiControl::Tally);
    for payload in [&b"s0"[..], b"s111", b"s22"] {
        send(&mut w, a, b, payload);
    }
    send(&mut w, b, a, b"r0");
    w.run_for(SimDuration::from_millis(10));
    let row = |dir, dst: NodeId, count, longest| TallyRow {
        dir,
        msg_type: Cow::Borrowed("unknown"),
        dst: dst.index(),
        count,
        longest,
    };
    assert_eq!(
        take(&mut w).rows(),
        [
            row(Direction::Send, b, 3, 4),
            row(Direction::Receive, a, 1, 2),
        ]
    );
    assert!(
        received(&mut w, b).is_empty(),
        "the send filter dropped all"
    );
    send(&mut w, a, b, b"late");
    assert_eq!(
        take(&mut w),
        Tally::default(),
        "tallying stopped when taken"
    );
}
