//! The type gate changes no outcome: a PFI layer that skips a filter
//! whose `[msg_type]` guards cannot match a message behaves exactly as one
//! that evaluates the filter on every message.
//!
//! The reference layer runs the same script behind a leading `if 0 {}` —
//! a command no gate accepts, costing one step — at one step more of
//! budget. Every script begins with an empty line, which that command
//! takes, so each of the script's own commands keeps its span: a budget
//! that runs out does so at the same command, with the same error text.

use std::any::Any;
use std::borrow::Cow;

use pfi_core::lower::{Clause, FaultAction, FilterProgram, Window};
use pfi_core::{Direction, Filter, LogEntry, PacketStub, PfiControl, PfiEvent, PfiLayer, PfiReply};
use pfi_script::Script;
use pfi_sim::{Context, Layer, Message, NodeId, SimDuration, SimTime, World};
use proptest::prelude::*;

/// What the stub answers `msg_type` with, by a message's first byte
/// modulo 12; the last two residues, and an empty message, it does not
/// recognise (`unknown` to a script, as is the stub's own `unknown`).
const LABELS: [&str; 10] = [
    "A",
    "B",
    "HEARTBEAT",
    " HEARTBEAT",
    "7",
    "0x1",
    "1e3",
    "inf",
    "NaN",
    "unknown",
];

/// The guard literals generated clauses pick from: every label, one the
/// stub never answers, and one whose backslash escape reads as a label.
const LITERALS: [&str; 12] = [
    "A",
    "B",
    "HEARTBEAT",
    " HEARTBEAT",
    r"HEART\BEAT",
    "7",
    "0x1",
    "1e3",
    "inf",
    "NaN",
    "unknown",
    "C",
];

/// Hand-written scripts around the edges of the gate's shape.
const EDGES: [&str; 17] = [
    "\nif {[msg_type] eq \"A\"} { incr hits; msg_log }\nif {[msg_type] == \"B\"} { xDrop }",
    "\nif {\"B\" == [msg_type]} { xDuplicate 1 }",
    "\nif {[msg_type cur_msg] == \"A\" && [msg_dst] == 1} { incr hits; xDelay 7 }",
    "\nif {[pfi_dir] == \"send\"} { xDrop }",
    "\nif {[msg_type] != \"A\"} { incr hits }",
    "\nif {[msg_type] ne \"A\"} { xDrop }",
    "\nif {[msg_type] == \"A\"} then { xDrop }",
    "\nif {[msg_type] == \"A\"} { xDrop } else { incr hits }",
    "\nif {[msg_type] == \"A\"} { xDrop } elseif {[msg_type] == \"B\"} { incr hits }",
    "\nif [expr {[msg_type] == \"A\"}] { xDrop }",
    "\nif {[msg_type] == \"A\"} {then}",
    "\nif {[msg_type] == \"7\"} { xDrop }\nif {[msg_type] == \"0x1\"} { incr hits }",
    "\nif {[msg_type] == \"1e3\"} { xDrop }\nif {[msg_type] == \"inf\"} { xHold }",
    "\nif {[msg_type] == \"NaN\"} { incr hits }",
    "\nif {[msg_type] == \" HEARTBEAT\"} { xHold }\nif {[msg_type] == \"B\"} { xRelease }",
    "\nif {[msg_type] == \"HEART\\BEAT\"} { msg_log }\nif {[msg_type] == \"unknown\"} { incr hits }",
    "\nif {[msg_type] == \"A\"} { proc msg_type {} { return B } }\nif {[msg_type] == \"B\"} { xDrop }",
];

/// Variables the scripts above and the lowered clauses set.
const VARS: [&str; 6] = ["c0", "c1", "c2", "c3", "hits", "n"];

#[derive(Debug, Clone, Copy)]
struct LabelStub;

impl PacketStub for LabelStub {
    fn protocol(&self) -> &'static str {
        "label"
    }

    fn type_of(&self, msg: &Message) -> Option<String> {
        self.type_name(msg).map(Cow::into_owned)
    }

    fn type_name(&self, msg: &Message) -> Option<Cow<'static, str>> {
        let first = *msg.bytes().first()?;
        LABELS
            .get(usize::from(first % 12))
            .map(|l| Cow::Borrowed(*l))
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

    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }
}

/// Top-of-stack layer: sends what it is told to, delivers what pops up.
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

/// One case: the two filters, the step budget, whether the receive
/// interpreter defines a `msg_type` proc before any traffic, and the
/// traffic (`true` = sent by the PFI node, through its send filter).
#[derive(Debug, Clone)]
struct Case {
    send: String,
    recv: String,
    budget: u64,
    recv_proc: bool,
    traffic: Vec<(bool, Vec<u8>)>,
}

/// Everything a layer leaves observable.
#[derive(Debug, PartialEq)]
struct Outcome {
    delivered: Vec<Vec<(SimTime, Message)>>,
    events: Vec<(SimTime, PfiEvent)>,
    log: Vec<LogEntry>,
    vars: Vec<String>,
    digest: u64,
}

/// Node 0 is `[Driver, PfiLayer]`, node 1 a bare driver.
fn world(case: &Case, reference: bool) -> World {
    let filter = |src: &str| {
        let src = if reference {
            format!("if 0 {{}}{src}")
        } else {
            src.to_string()
        };
        Filter::script(&src).unwrap()
    };
    let pfi = PfiLayer::new(Box::new(LabelStub))
        .with_send_filter(filter(&case.send))
        .with_recv_filter(filter(&case.recv));
    let mut w = World::new(3);
    let a = w.add_node(vec![Box::new(Driver), Box::new(pfi)]);
    w.add_node(vec![Box::new(Driver)]);
    let budget = case.budget + u64::from(reference);
    w.control::<PfiReply>(a, 1, PfiControl::SetStepBudget(budget));
    if case.recv_proc {
        let def = "proc msg_type {} { return A }".to_string();
        w.control::<PfiReply>(a, 1, PfiControl::EvalInRecv(def));
    }
    w
}

fn nodes() -> (NodeId, NodeId) {
    (NodeId::new(0), NodeId::new(1))
}

fn run(case: &Case, reference: bool) -> Outcome {
    let (a, b) = nodes();
    let mut w = world(case, reference);
    for (sent, bytes) in &case.traffic {
        let (from, to) = if *sent { (a, b) } else { (b, a) };
        w.control::<()>(from, 0, SendTo(to, bytes.clone()));
        w.run_for(SimDuration::from_millis(3));
    }
    w.run_for(SimDuration::from_millis(100));
    let digest = w.snapshot_digest();
    let events = w.trace().events_of::<PfiEvent>(Some(a));
    let delivered = vec![w.drain_inbox(a), w.drain_inbox(b)];
    let PfiReply::Log(log) = w.control::<PfiReply>(a, 1, PfiControl::TakeLog) else {
        panic!("TakeLog replies with the log");
    };
    w.control::<PfiReply>(a, 1, PfiControl::SetStepBudget(1_000_000));
    let mut vars = Vec::new();
    for name in VARS {
        for op in [PfiControl::EvalInSend, PfiControl::EvalInRecv] {
            let PfiReply::Eval(value) = w.control::<PfiReply>(a, 1, op(format!("set {name}")))
            else {
                panic!("EvalIn* replies with the result");
            };
            vars.push(format!("{name}: {value:?}"));
        }
    }
    Outcome {
        delivered,
        events,
        log,
        vars,
        digest,
    }
}

/// Steps an unmatched evaluation of `src` takes when it is gated.
fn guard_steps(src: &str) -> u64 {
    let script = Script::parse(src).unwrap();
    script
        .type_gate()
        .map_or(2 * script.len() as u64, |g| g.guard_steps())
}

fn arb_clause() -> impl Strategy<Value = Clause> {
    (
        0..LITERALS.len() + 2,
        0u32..3,
        0u8..4,
        1u32..4,
        0u8..6,
        (0usize..4, 1u8..255),
    )
        .prop_map(|(t, dst, window, n, action, (offset, mask))| Clause {
            msg_type: LITERALS.get(t).map(|l| l.to_string()),
            dst: (dst < 2).then_some(dst),
            window: match window {
                0 => Window::All,
                1 => Window::Nth(n),
                2 => Window::After(n),
                _ => Window::First(n),
            },
            action: match action {
                0 => FaultAction::Drop,
                1 => FaultAction::DelayMs(u64::from(n) * 5),
                2 => FaultAction::Duplicate(n),
                3 => FaultAction::CorruptByte { offset, mask },
                4 => FaultAction::Hold,
                _ => FaultAction::Release,
            },
        })
}

fn arb_script() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(arb_clause(), 0..4).prop_map(|clauses| {
            let mut program = FilterProgram::new();
            for clause in clauses {
                program.push(clause);
            }
            format!("\n{}", program.emit())
        }),
        (0..EDGES.len()).prop_map(|i| EDGES[i].to_string()),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        arb_script(),
        arb_script(),
        0usize..5,
        0u8..4,
        proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..4)),
            1..16,
        ),
    )
        .prop_map(|(send, recv, budget, recv_proc, traffic)| {
            // At each filter's guard-only step count, one below it, or
            // ample.
            let budget = match budget {
                0 => guard_steps(&send),
                1 => guard_steps(&send).saturating_sub(1),
                2 => guard_steps(&recv),
                3 => guard_steps(&recv).saturating_sub(1),
                _ => 1_000_000,
            };
            Case {
                send,
                recv,
                budget,
                recv_proc: recv_proc == 0,
                traffic,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Messages, packet log, events, error text, interpreter variables and
    /// the world digest are the reference's.
    #[test]
    fn a_gated_layer_matches_one_that_evaluates_every_message(case in arb_case()) {
        prop_assert_eq!(run(&case, false), run(&case, true));
    }
}

/// Expression-cache misses of the send interpreter: a skipped evaluation
/// binds no condition, so this is how a test sees the gate act.
fn expr_misses(w: &mut World) -> u64 {
    match w.control::<PfiReply>(NodeId::new(0), 1, PfiControl::CacheStats(Direction::Send)) {
        PfiReply::CacheStats { exprs, .. } => exprs.misses,
        other => panic!("CacheStats replied {other:?}"),
    }
}

/// The gate skips exactly where its three conditions allow it to.
#[test]
fn the_gate_skips_only_where_it_may() {
    let src = "\nif {[msg_type] == \"A\"} { xDrop }";
    // byte 1 is "B", byte 0 is "A".
    let case = |budget: u64| Case {
        send: src.to_string(),
        recv: String::new(),
        budget,
        recv_proc: false,
        traffic: Vec::new(),
    };
    let (a, b) = nodes();
    let send = |w: &mut World, byte: u8| {
        w.control::<()>(a, 0, SendTo(b, vec![byte]));
        w.run_for(SimDuration::from_millis(3));
    };

    // Two steps are the guard-only count; the drop needs a third.
    let mut w = world(&case(3), false);
    send(&mut w, 1);
    assert_eq!(expr_misses(&mut w), 0, "an unmatched type is not evaluated");
    send(&mut w, 0);
    assert_eq!(expr_misses(&mut w), 1, "a matched type is");
    assert_eq!(w.drain_inbox(b).len(), 1, "and dropped");

    // A proc may shadow `msg_type`.
    let mut w = world(&case(2), false);
    w.control::<PfiReply>(a, 1, PfiControl::EvalInSend("proc noop {} {}".into()));
    send(&mut w, 1);
    assert_eq!(expr_misses(&mut w), 1, "a proc turns the gate off");

    // Below the guard-only step count the evaluation fails, and must.
    let mut w = world(&case(1), false);
    send(&mut w, 1);
    assert_eq!(expr_misses(&mut w), 1, "a short budget turns the gate off");
    let failed = w.trace().events_of::<PfiEvent>(Some(a));
    assert!(
        matches!(
            failed.as_slice(),
            [(
                _,
                PfiEvent::ScriptFailed {
                    budget_exhausted: true,
                    ..
                }
            )]
        ),
        "{failed:?}"
    );
}
