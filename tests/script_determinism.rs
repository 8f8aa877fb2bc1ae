//! Cold/warm/compiled determinism regression: compiling once must be
//! observationally invisible. A loop-heavy stress script runs through a
//! cold path (caching disabled — every `eval` re-parses its source and
//! re-binds every body in it), a warm path (the source is served from the
//! interpreter's cache, its bodies are bound in the cached script) and a
//! compiled path (`Script::parse` once, `eval_parsed` per round); every
//! shipped filter script runs through a PFI layer with caching off and
//! on. Results, variables, output, packet logs, and delivered traffic
//! must be byte-identical. Two tests assert what "compiled once" means in
//! counters: after the first message nothing is compiled and nothing is
//! even looked up.

use std::any::Any;

use pfi::core::{Direction, Filter, PfiControl, PfiLayer, PfiReply, RawStub};
use pfi::script::{Interp, NoHost, Script};
use pfi::sim::{Context, Layer, Message, NodeId, SimDuration, SimTime, World};

/// A loop-heavy script exercising every bound construct: `while`, `for`,
/// `foreach`, `switch`, `if`/`elseif`, `proc`, `catch`, `eval`, and both
/// braced and computed `expr` forms.
const STRESS: &str = r#"
    proc weigh {x} {
        if {$x % 3 == 0} { return [expr {$x * 2}] } else { return [expr {$x + 1}] }
    }
    set sum 0
    set i 0
    while {$i < 40} {
        set sum [expr {$sum + [weigh $i]}]
        incr i
    }
    for {set j 0} {$j < 25} {incr j} {
        if {$j % 2 == 0} {
            set sum [expr {$sum + $j * $j}]
        } elseif {$j % 5 == 0} {
            set sum [expr {$sum - $j}]
        } else {
            incr sum
        }
    }
    set tally 0
    foreach item {a b c a b a d c} {
        switch -exact $item {
            a { incr tally 100 }
            b { incr tally 10 }
            default { incr tally 1 }
        }
    }
    catch { undefined_command_here } err
    eval { set via_eval [expr {$sum + $tally}] }
    puts "run [incr runs]: sum=$sum tally=$tally via_eval=$via_eval err=$err"
    set via_eval
"#;

/// How `STRESS` reaches the interpreter.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    /// Caching off, `eval(src)`: every round parses and binds everything.
    Cold,
    /// Default caches, `eval(src)`: the source is looked up, nothing else.
    Warm,
    /// Parsed once, `eval_parsed`: no lookup at all.
    Compiled,
}

/// Evaluates `STRESS` `rounds` times in one interpreter, returning every
/// per-round result plus the final variable snapshot and accumulated
/// `puts` output.
fn run_stress(route: Route, rounds: usize) -> (Vec<String>, Vec<(String, String)>, String) {
    let mut interp = Interp::new();
    if route == Route::Cold {
        interp.set_cache_capacity(0, 0);
    }
    let parsed = Script::parse(STRESS).expect("stress script parses");
    let mut results = Vec::new();
    for _ in 0..rounds {
        let result = match route {
            Route::Compiled => interp.eval_parsed(&mut NoHost, &parsed),
            _ => interp.eval(&mut NoHost, STRESS),
        };
        results.push(result.expect("stress script evaluates"));
    }
    let vars = interp.globals_snapshot();
    let output = interp.take_output();
    (results, vars, output)
}

#[test]
fn stress_script_cold_and_warm_paths_are_byte_identical() {
    let cold = run_stress(Route::Cold, 5);
    for (name, route) in [("warm", Route::Warm), ("compiled", Route::Compiled)] {
        let other = run_stress(route, 5);
        assert_eq!(cold.0, other.0, "cold and {name} per-round results differ");
        assert_eq!(cold.1, other.1, "cold and {name} final variables differ");
        assert_eq!(cold.2, other.2, "cold and {name} puts output differs");
    }
}

#[test]
fn stress_script_warm_path_reparses_nothing_after_first_round() {
    let mut interp = Interp::new();
    interp.eval(&mut NoHost, STRESS).unwrap();
    let s1 = interp.script_cache_stats();
    let e1 = interp.expr_cache_stats();
    assert!(
        s1.misses > 1 && e1.misses > 0,
        "the first round compiles the source, its bodies and its exprs"
    );
    for _ in 0..10 {
        interp.eval(&mut NoHost, STRESS).unwrap();
    }
    let s2 = interp.script_cache_stats();
    let e2 = interp.expr_cache_stats();
    assert_eq!(s2.misses, s1.misses, "a warm round re-parsed a script body");
    assert_eq!(e2.misses, e1.misses, "a warm round re-parsed an expr");
    // Every body and condition is bound where it is written: the only
    // lookup a warm round makes is `eval`'s, for the source itself.
    assert_eq!(s2.hits, s1.hits + 10, "one source lookup per round");
    assert_eq!(e2.hits, e1.hits, "a warm round looked an expr up");
    assert_eq!(
        s2.evictions, 0,
        "the stress script must fit in the default bound"
    );

    // Parsed once, there is nothing left to look up at all — whatever the
    // cache capacity, since what is bound lives in the script.
    let parsed = Script::parse(STRESS).unwrap();
    let mut interp = Interp::new();
    interp.set_cache_capacity(0, 0);
    interp.eval_parsed(&mut NoHost, &parsed).unwrap();
    let first = (interp.script_cache_stats(), interp.expr_cache_stats());
    for _ in 0..10 {
        interp.eval_parsed(&mut NoHost, &parsed).unwrap();
    }
    let later = (interp.script_cache_stats(), interp.expr_cache_stats());
    assert_eq!(first, later, "a compiled round made a lookup or a miss");
}

// ---- full PFI-layer pipeline: every shipped script, cold vs warm --------

struct Src;
struct Fire(NodeId, Vec<u8>);
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
        let Fire(dst, payload) = *op.downcast::<Fire>().unwrap();
        c.send_down(Message::new(c.node(), dst, &payload));
        Box::new(())
    }
}

/// What one pipeline run produced, in comparable form.
#[derive(Debug, PartialEq)]
struct RunTrace {
    delivered: Vec<(SimTime, Vec<u8>)>,
    log: Vec<(SimTime, String, usize)>,
    count_var: Result<String, String>,
}

/// Drives 40 deterministic messages through a PFI layer running `src` as
/// its receive filter, with the given cache capacities.
fn run_pipeline(src: &str, scripts_cap: usize, exprs_cap: usize) -> RunTrace {
    let mut world = World::new(7);
    let a = world.add_node(vec![Box::new(Src)]);
    let layer = PfiLayer::new(Box::new(RawStub))
        .with_cache_capacity(scripts_cap, exprs_cap)
        .with_recv_filter(Filter::script(src).expect("script parses"));
    let b = world.add_node(vec![Box::new(Src), Box::new(layer)]);
    for i in 0..40u8 {
        world.control::<()>(a, 0, Fire(b, vec![i, i.wrapping_mul(7)]));
        world.run_for(SimDuration::from_millis(50));
    }
    world.run_for(SimDuration::from_secs(10));
    let delivered = world
        .drain_inbox(b)
        .into_iter()
        .map(|(t, m)| (t, m.bytes().to_vec()))
        .collect();
    let log = world
        .control::<PfiReply>(b, 1, PfiControl::TakeLog)
        .expect_log()
        .into_iter()
        .map(|e| (e.time, e.summary, e.len))
        .collect();
    let count_var =
        match world.control::<PfiReply>(b, 1, PfiControl::EvalInRecv("set count".into())) {
            PfiReply::Eval(r) => r.map_err(|e| e.to_string()),
            other => panic!("expected Eval reply, got {other:?}"),
        };
    RunTrace {
        delivered,
        log,
        count_var,
    }
}

#[test]
fn every_shipped_script_is_cache_deterministic() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scripts/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("tcl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let cold = run_pipeline(&src, 0, 0);
        let warm = run_pipeline(&src, 256, 256);
        assert_eq!(
            cold,
            warm,
            "{} diverges between cold and warm paths",
            path.display()
        );
        seen += 1;
    }
    assert!(
        seen >= 5,
        "expected the script library, found {seen} scripts"
    );
}

#[test]
fn warm_per_message_path_never_reparses() {
    // Loop/expr-heavy filter: the acceptance gate for the compile-once
    // engine. After the first message, every construct must be bound.
    let filter = r#"
        set total 0
        for {set i 0} {$i < 8} {incr i} {
            if {[msg_len] > $i} { set total [expr {$total + $i}] }
        }
        if {$total > 1000} { xDrop cur_msg }
    "#;
    let mut world = World::new(11);
    let a = world.add_node(vec![Box::new(Src)]);
    let layer = PfiLayer::new(Box::new(RawStub))
        .with_recv_filter(Filter::script(filter).expect("script parses"));
    let b = world.add_node(vec![Box::new(Src), Box::new(layer)]);

    world.control::<()>(a, 0, Fire(b, vec![1, 2, 3]));
    world.run_for(SimDuration::from_secs(1));
    let (s1, e1) = world
        .control::<PfiReply>(b, 1, PfiControl::CacheStats(Direction::Receive))
        .expect_cache_stats();

    for i in 0..50u8 {
        world.control::<()>(a, 0, Fire(b, vec![i]));
    }
    world.run_for(SimDuration::from_secs(5));
    let (s2, e2) = world
        .control::<PfiReply>(b, 1, PfiControl::CacheStats(Direction::Receive))
        .expect_cache_stats();

    assert!(
        s1.misses > 0 && e1.misses > 0,
        "the first message binds the filter's bodies and conditions"
    );
    // Later messages make no lookup and no miss: the filter was parsed
    // when it was installed and everything in it is bound in place.
    assert_eq!(s2, s1, "a later message touched the script cache");
    assert_eq!(e2, e1, "a later message touched the expr cache");
    assert_eq!(world.drain_inbox(b).len(), 51, "all messages delivered");
}
