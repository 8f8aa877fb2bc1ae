//! `pfi-bench-interpose` — the `interpose` workload: the paper's
//! mechanism proper, with nothing of the campaign engine around it.
//!
//! One repetition sends a 1 000-message burst Src → [PFI layer] → network
//! → Sink under each of six configurations: no PFI layer (`none`), a
//! native pass-through filter (`native`), and four Tcl filters — the
//! paper's `scripts/exp1_recv_filter.tcl` (`exp1_recv`), a typed
//! conditional delay (`typed_delay`), the site script a three-fault
//! schedule lowers to (`lowered3`), and a loop-heavy filter (`loop8`).
//! Script evaluation is nearly all of the cost here and nearly none of a
//! campaign's, so an interpreter change shows on this workload and
//! predicts no change on the others.
//!
//! Imports only sim, core and script — never testgen, fleet or serve —
//! so it keeps compiling across the campaign-engine refactors ROADMAP
//! item 2 plans. Prints `metric …` and `check …` lines (see
//! `pfi_benchkit::report`) for the `pfi-bench` driver.

use std::any::Any;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use pfi_benchkit::report::{Checks, Row};
use pfi_benchkit::stats::geomean;
use pfi_core::lower::{Clause, FaultAction, FilterProgram, Window};
use pfi_core::{Direction, Filter, PacketStub, PfiControl, PfiEvent, PfiLayer, PfiReply};
use pfi_script::{Host, Interp, Script, ScriptError};
use pfi_sim::{Context, Layer, Message, NodeId, SimDuration, World};

/// Messages per burst — the paper-scale unit every count below is
/// hand-computed for.
const BURST: u32 = 1_000;

/// The four message types of the synthetic protocol, by `seq % 4`.
const TYPES: [&str; 4] = ["HEARTBEAT", "COMMIT", "ACK", "DATA"];

/// Packet stub for burst messages: the first four payload bytes are the
/// big-endian sequence number, and `seq % 4` picks the type. Gives the
/// typed filters something to recognise without importing a protocol.
#[derive(Debug, Clone, Copy)]
struct BurstStub;

impl PacketStub for BurstStub {
    fn protocol(&self) -> &'static str {
        "burst"
    }
    fn type_of(&self, msg: &Message) -> Option<String> {
        seq_of(msg.bytes()).map(|seq| TYPES[seq as usize % 4].to_string())
    }
    fn field(&self, msg: &Message, name: &str) -> Option<i64> {
        (name == "seq").then(|| seq_of(msg.bytes()).map(i64::from))?
    }
    fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
        false
    }
    fn generate(&self, _src: NodeId, _args: &[String]) -> Result<Message, String> {
        Err("the burst stub forges nothing".to_string())
    }
    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }
}

fn seq_of(bytes: &[u8]) -> Option<u32> {
    bytes
        .get(..4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Top layer of the sending node: a `Burst` control op pushes `BURST`
/// messages down in one go.
struct Src {
    /// Seed-derived padding appended to every sequence number.
    pad: Vec<u8>,
}
struct Burst(NodeId);

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
        let Burst(dst) = *op.downcast::<Burst>().expect("Src only takes Burst");
        let mut payload = vec![0u8; 4];
        payload.extend_from_slice(&self.pad);
        for seq in 0..BURST {
            payload[..4].copy_from_slice(&seq.to_be_bytes());
            c.send_down(Message::new(c.node(), dst, &payload));
        }
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

const TYPED_DELAY: &str = r#"
    incr n
    set t [msg_type]
    if {$n % 100 == 0 && $t != "none"} { xDelay 1 }
"#;

const LOOP8: &str = r#"
    set sum 0
    for {set i 0} {$i < 8} {incr i} {
        set sum [expr {$sum + [msg_len] * $i}]
    }
    if {$sum > 100000} { xDrop }
"#;

/// What a three-fault schedule on one site and direction lowers to: the
/// same `FilterProgram::emit` testgen's `FaultSchedule::lower` calls.
fn lowered3() -> String {
    FilterProgram::new()
        .clause(Clause {
            msg_type: Some("COMMIT".into()),
            dst: None,
            window: Window::After(100),
            action: FaultAction::Drop,
        })
        .clause(Clause {
            msg_type: Some("ACK".into()),
            dst: None,
            window: Window::Nth(7),
            action: FaultAction::DelayMs(2),
        })
        .clause(Clause {
            msg_type: None,
            dst: Some(1),
            window: Window::First(50),
            action: FaultAction::CorruptByte {
                offset: 3,
                mask: 0x40,
            },
        })
        .emit()
}

/// Where a configuration puts its PFI layer.
enum Placement {
    /// No PFI layer anywhere.
    None,
    /// Under Src, filtering what it sends.
    Send(fn(&Scripts) -> Filter),
    /// Under Sink, filtering what it receives.
    Recv(fn(&Scripts) -> Filter),
}

/// Hand-computed outcome of one burst (1 000 messages, `seq` 0..999,
/// type `seq % 4`, all addressed to node 1).
struct Expect {
    /// Messages in the sink's inbox after the burst.
    delivered: usize,
    /// `PfiEvent::Dropped` records.
    dropped: usize,
    /// `PfiEvent::Delayed` records.
    delayed: usize,
    /// Delivered messages whose byte 3 no longer matches their position
    /// in the multiset of sequence numbers (see `corrupted_count`).
    corrupted: usize,
    /// `msg_log` entries.
    logged: usize,
}

struct Case {
    name: &'static str,
    scripted: bool,
    placement: Placement,
    expect: Expect,
}

/// Filter sources resolved once per process.
struct Scripts {
    exp1_recv: String,
    lowered3: String,
}

fn cases() -> Vec<Case> {
    let clean = |delivered| Expect {
        delivered,
        dropped: 0,
        delayed: 0,
        corrupted: 0,
        logged: 0,
    };
    vec![
        Case {
            name: "none",
            scripted: false,
            placement: Placement::None,
            expect: clean(1000),
        },
        Case {
            name: "native",
            scripted: false,
            placement: Placement::Send(|_| Filter::native(|_| {})),
            expect: clean(1000),
        },
        Case {
            // "log each packet, let thirty through, then drop everything"
            name: "exp1_recv",
            scripted: true,
            placement: Placement::Recv(|s| Filter::script(&s.exp1_recv).expect("exp1 parses")),
            expect: Expect {
                delivered: 30,
                dropped: 970,
                logged: 1000,
                ..clean(0)
            },
        },
        Case {
            // every 100th message of a recognised type is delayed 1 ms
            name: "typed_delay",
            scripted: true,
            placement: Placement::Send(|_| Filter::script(TYPED_DELAY).expect("parses")),
            expect: Expect {
                delayed: 10,
                ..clean(1000)
            },
        },
        Case {
            // 250 COMMITs, all after the first 100 dropped; the 7th ACK
            // delayed; the first 50 messages (seq 0..49, none of them a
            // dropped COMMIT) get bit 0x40 of byte 3 flipped
            name: "lowered3",
            scripted: true,
            placement: Placement::Send(|s| Filter::script(&s.lowered3).expect("parses")),
            expect: Expect {
                delivered: 850,
                dropped: 150,
                delayed: 1,
                corrupted: 50,
                logged: 0,
            },
        },
        Case {
            // sum = msg_len * 28 never exceeds 100000: nothing dropped
            name: "loop8",
            scripted: true,
            placement: Placement::Send(|_| Filter::script(LOOP8).expect("parses")),
            expect: clean(1000),
        },
    ]
}

/// Sequence numbers 0..49 that arrive as `seq ^ 0x40`: byte 3 of the
/// payload is the low byte of the sequence number, so a corrupted message
/// shows up as a second copy of 64..113 while 0..49 go missing.
fn corrupted_count(delivered: &[u32]) -> usize {
    let low = delivered.iter().filter(|&&s| s < 50).count();
    let doubled = (64..114u32)
        .filter(|s| delivered.iter().filter(|d| *d == s).count() == 2)
        .count();
    if low == 0 {
        doubled
    } else {
        // Nothing (or not everything) was corrupted; report what was.
        50usize.saturating_sub(low).min(doubled)
    }
}

struct BurstResult {
    wall_ns: f64,
    delivered: Vec<u32>,
    dropped: usize,
    delayed: usize,
    logged: usize,
    cache_hit_rate: f64,
}

fn run_burst(case: &Case, scripts: &Scripts, seed: u64, pad: &[u8]) -> BurstResult {
    let mut world = World::new(seed);
    let mut src: Vec<Box<dyn Layer>> = vec![Box::new(Src { pad: pad.to_vec() })];
    let mut sink: Vec<Box<dyn Layer>> = vec![Box::new(Sink)];
    let mut pfi_at = None;
    match &case.placement {
        Placement::None => {}
        Placement::Send(make) => {
            src.push(Box::new(
                PfiLayer::new(Box::new(BurstStub)).with_send_filter(make(scripts)),
            ));
            pfi_at = Some((0u32, Direction::Send));
        }
        Placement::Recv(make) => {
            sink.push(Box::new(
                PfiLayer::new(Box::new(BurstStub)).with_recv_filter(make(scripts)),
            ));
            pfi_at = Some((1u32, Direction::Receive));
        }
    }
    let a = world.add_node(src);
    let b = world.add_node(sink);
    assert_eq!(b, NodeId::new(1), "the lowered3 dst guard addresses node 1");

    let start = Instant::now();
    world.control::<()>(a, 0, Burst(b));
    world.run_for(SimDuration::from_secs(1));
    let wall_ns = start.elapsed().as_nanos() as f64;

    let delivered = world
        .drain_inbox(b)
        .iter()
        .filter_map(|(_, m)| seq_of(m.bytes()))
        .collect();
    let events = world.trace().events_with_nodes::<PfiEvent>();
    let count = |f: fn(&PfiEvent) -> bool| events.iter().filter(|(_, _, e)| f(e)).count();
    let mut logged = 0;
    let mut cache_hit_rate = 0.0;
    if let Some((node, dir)) = pfi_at {
        let node = NodeId::new(node);
        logged = world
            .control::<PfiReply>(node, 1, PfiControl::TakeLog)
            .expect_log()
            .len();
        let (s, e) = world
            .control::<PfiReply>(node, 1, PfiControl::CacheStats(dir))
            .expect_cache_stats();
        let lookups = s.hits + s.misses + e.hits + e.misses;
        if lookups > 0 {
            cache_hit_rate = (s.hits + e.hits) as f64 / lookups as f64;
        }
    }
    BurstResult {
        wall_ns,
        delivered,
        dropped: count(|e| matches!(e, PfiEvent::Dropped { .. })),
        delayed: count(|e| matches!(e, PfiEvent::Delayed { .. })),
        logged,
        cache_hit_rate,
    }
}

fn verify(case: &Case, got: &BurstResult, checks: &mut Checks) {
    let want = &case.expect;
    let observed = [
        ("delivered", got.delivered.len(), want.delivered),
        ("dropped", got.dropped, want.dropped),
        ("delayed", got.delayed, want.delayed),
        ("corrupted", corrupted_count(&got.delivered), want.corrupted),
        ("logged", got.logged, want.logged),
    ];
    for (what, got, want) in observed {
        checks.check(got == want, || {
            format!("interpose {}: {what} {got}, expected {want}", case.name)
        });
    }
}

/// Host for timing `loop8` outside any PFI layer: answers the two
/// commands the script calls with what a 16-byte message would.
struct LenHost;
impl Host for LenHost {
    fn call(
        &mut self,
        _interp: &mut Interp,
        cmd: &str,
        _args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        match cmd {
            "msg_len" => Some(Ok("16".to_string())),
            "xDrop" => Some(Ok(String::new())),
            _ => None,
        }
    }
}

/// ns per call of `f`, over `samples` samples of `batch` calls each.
fn time_batches(samples: usize, batch: u32, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect()
}

/// Per-layer extras of the traced run: interpreter parse/eval cost
/// outside the PFI layer and the simulator's raw event rates on
/// null-layer worlds.
fn traced_extras(rows: &mut Vec<Row>) {
    let w = "interpose";
    rows.push(Row::samples(
        w,
        "script.parse_ns",
        "ns",
        &time_batches(30, 200, || {
            black_box(Script::parse(black_box(LOOP8)).expect("parses"));
        }),
    ));
    let script = Script::parse(LOOP8).expect("parses");
    let mut interp = Interp::new();
    rows.push(Row::samples(
        w,
        "script.eval_ns.loop8",
        "ns",
        &time_batches(30, 200, || {
            black_box(
                interp
                    .eval_parsed(&mut LenHost, &script)
                    .expect("evaluates"),
            );
        }),
    ));

    struct Ticker(u32);
    impl Layer for Ticker {
        fn name(&self) -> &'static str {
            "ticker"
        }
        fn push(&mut self, _m: Message, _c: &mut Context<'_>) {}
        fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
        fn timer(&mut self, _t: u64, c: &mut Context<'_>) {
            self.0 += 1;
            if self.0 < 10_000 {
                c.set_timer(SimDuration::from_micros(10), 0);
            }
        }
        fn control(&mut self, _op: Box<dyn Any>, c: &mut Context<'_>) -> Box<dyn Any> {
            c.set_timer(SimDuration::from_micros(10), 0);
            Box::new(())
        }
    }
    // Events per second from the wall of one whole world of `events`.
    let per_s = |events: f64, ns_per_world: Vec<f64>| -> Vec<f64> {
        ns_per_world
            .into_iter()
            .map(|ns| events * 1e9 / ns)
            .collect()
    };
    let timers = time_batches(20, 1, || {
        let mut world = World::new(1);
        let n = world.add_node(vec![Box::new(Ticker(0))]);
        world.control::<()>(n, 0, ());
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.events_processed(), 10_000);
    });
    rows.push(Row::samples(
        w,
        "sim.timer_events_per_s",
        "1/s",
        &per_s(10_000.0, timers),
    ));
    let hops = time_batches(20, 1, || {
        let mut world = World::new(1);
        let a = world.add_node(vec![Box::new(Src { pad: Vec::new() })]);
        let b = world.add_node(vec![Box::new(Sink)]);
        for _ in 0..10 {
            world.control::<()>(a, 0, Burst(b));
        }
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.drain_inbox(b).len(), 10 * BURST as usize);
    });
    let per_world = 10.0 * f64::from(BURST);
    rows.push(Row::samples(
        w,
        "sim.message_hops_per_s",
        "1/s",
        &per_s(per_world, hops),
    ));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let seed: u64 = value("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let reps: usize = value("--reps").and_then(|v| v.parse().ok()).unwrap_or(20);
    let traced = args.iter().any(|a| a == "--trace");
    let script_dir = PathBuf::from(value("--scripts").map_or("scripts", String::as_str));

    let exp1_path = script_dir.join("exp1_recv_filter.tcl");
    let scripts = Scripts {
        exp1_recv: std::fs::read_to_string(&exp1_path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", exp1_path.display());
            std::process::exit(2);
        }),
        lowered3: lowered3(),
    };
    // The seed decides the world seed and the padding every message
    // carries (12..=27 bytes); the filters' verdicts depend on neither,
    // so the hand-computed counts hold for every seed.
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pad: Vec<u8> = (0..12 + next() % 16).map(|_| next() as u8).collect();

    let cases = cases();
    let mut checks = Checks::default();
    let mut ns_per_msg: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut msgs_per_s = Vec::new();
    let mut burst_ms = Vec::new();
    let mut loop8_hit_rate = 0.0;
    for rep in 0..reps {
        let mut scripted_ns = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            let got = run_burst(case, &scripts, seed, &pad);
            // Counts are a pure function of the case; checking the first
            // and last repetition catches a filter that decays.
            if rep == 0 || rep + 1 == reps {
                verify(case, &got, &mut checks);
            }
            let per_msg = got.wall_ns / f64::from(BURST);
            ns_per_msg[i].push(per_msg);
            if case.scripted {
                scripted_ns.push(per_msg);
            }
            if case.name == "loop8" {
                loop8_hit_rate = got.cache_hit_rate;
            }
        }
        let per_msg = geomean(&scripted_ns);
        msgs_per_s.push(1e9 / per_msg);
        burst_ms.push(per_msg * f64::from(BURST) / 1e6);
    }

    let w = "interpose";
    let mut rows = vec![
        Row::samples(w, "interpose.msgs_per_s", "1/s", &msgs_per_s),
        Row::samples(w, "interpose.burst_ms", "ms", &burst_ms),
    ];
    for (case, samples) in cases.iter().zip(&ns_per_msg) {
        rows.push(Row::samples(
            w,
            &format!("core.ns_per_msg.{}", case.name),
            "ns",
            samples,
        ));
    }
    let median_of = |name: &str| {
        rows.iter()
            .find(|r| r.metric == format!("core.ns_per_msg.{name}"))
            .map_or(0.0, |r| r.summary.median)
    };
    let ratio = median_of("loop8") / median_of("native");
    rows.push(Row::exact(w, "core.interpose_ratio", "ratio", ratio));
    rows.push(Row::exact(
        w,
        "script.cache_hit_rate",
        "ratio",
        loop8_hit_rate,
    ));
    if traced {
        traced_extras(&mut rows);
    }
    for row in &rows {
        println!("{}", row.to_line());
    }
    for line in checks.to_lines() {
        println!("{line}");
    }
    std::process::exit(if checks.failed == 0 { 0 } else { 1 });
}
