//! What is bound into a `Script` is a function of its source alone.
//!
//! Parsing resolves builtins and evaluation binds bodies and expressions
//! into the script itself, and one `Arc<Script>` is shared by every fork
//! of a snapshot on every fleet worker. So nothing an interpreter knows —
//! its procs, its variables, its host — may end up in there: two
//! interpreters that disagree about all three must each get their own
//! answers from the same script, in either order and at the same time.

use std::sync::{Arc, Barrier};

use pfi_script::{Host, Interp, NoHost, Script, ScriptError};

// Snapshots hand the same filter to every worker thread.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Script>()
};

/// Every construct that binds (`if`/`elseif`/`else`, `while`, `for`,
/// `foreach`, `switch`, `catch`, `eval`, `expr`, `proc`), with the parts
/// that differ per interpreter: the proc `scale`, the host command
/// `probe`, and the variable `base`.
const SCRIPT: &str = r#"
    proc local {x} { expr {$x + 1} }
    set out {}
    for {set i 0} {$i < 3} {incr i} {
        if {$i == 0} {
            lappend out [scale $i]
        } elseif {$i == 1} {
            lappend out [probe]
        } else {
            lappend out [local $base]
        }
    }
    set n 0
    while {$n < 2} { incr n }
    foreach w {a b} {
        switch $w {
            a { lappend out [scale 10] }
            default { lappend out [expr {[probe] * 2}] }
        }
    }
    catch { eval { lappend out [scale $n] } }
    set out
"#;

/// Answers `probe` with a fixed number.
struct Probe(i64);
impl Host for Probe {
    fn call(
        &mut self,
        _interp: &mut Interp,
        cmd: &str,
        _args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        (cmd == "probe").then(|| Ok(self.0.to_string()))
    }
}

/// An interpreter whose `scale` multiplies by `factor` and whose `base`
/// is `base`.
fn interp(factor: i64, base: i64) -> Interp {
    let mut interp = Interp::new();
    interp
        .eval(
            &mut NoHost,
            &format!("proc scale {{x}} {{ expr {{$x * {factor} + 1}} }}"),
        )
        .unwrap();
    interp.set_var("base", base.to_string());
    interp
}

const A: (i64, i64, i64) = (2, 100, 7);
const B: (i64, i64, i64) = (-3, 5, 1000);

fn expected((factor, base, probe): (i64, i64, i64)) -> String {
    [
        1,
        probe,
        base + 1,
        10 * factor + 1,
        probe * 2,
        2 * factor + 1,
    ]
    .map(|n| n.to_string())
    .join(" ")
}

#[test]
fn two_interpreters_get_their_own_answers_from_one_script() {
    let script = Arc::new(Script::parse(SCRIPT).unwrap());
    let mut a = interp(A.0, A.1);
    let mut b = interp(B.0, B.1);
    // Interleaved, so each runs the script both before and after the
    // other has bound something into it.
    for _ in 0..3 {
        assert_eq!(
            a.eval_parsed(&mut Probe(A.2), &script).unwrap(),
            expected(A)
        );
        assert_eq!(
            b.eval_parsed(&mut Probe(B.2), &script).unwrap(),
            expected(B)
        );
    }
    // A fresh parse agrees with the one both have been binding into.
    let fresh = Script::parse(SCRIPT).unwrap();
    assert_eq!(*script, fresh);
    assert_eq!(
        interp(A.0, A.1)
            .eval_parsed(&mut Probe(A.2), &fresh)
            .unwrap(),
        expected(A)
    );
}

#[test]
fn two_threads_evaluate_one_script_at_once() {
    let script = Arc::new(Script::parse(SCRIPT).unwrap());
    // Both threads start their first evaluation — the one that binds —
    // together, and again on every later round.
    let barrier = Barrier::new(2);
    std::thread::scope(|threads| {
        for setup in [A, B] {
            let (script, barrier) = (&script, &barrier);
            threads.spawn(move || {
                let mut interp = interp(setup.0, setup.1);
                for _ in 0..50 {
                    barrier.wait();
                    assert_eq!(
                        interp.eval_parsed(&mut Probe(setup.2), script).unwrap(),
                        expected(setup)
                    );
                }
            });
        }
    });
}

#[test]
fn a_proc_defined_after_a_script_first_ran_is_seen_next_time() {
    let script = Script::parse("catch { greet } r; set r").unwrap();
    let mut interp = Interp::new();
    assert_eq!(
        interp.eval_parsed(&mut NoHost, &script).unwrap(),
        "invalid command name \"greet\""
    );
    interp
        .eval(&mut NoHost, "proc greet {} { return hello }")
        .unwrap();
    assert_eq!(interp.eval_parsed(&mut NoHost, &script).unwrap(), "hello");
    // Redefinition and a host command of the same name: the proc wins,
    // as it did before anything was bound.
    interp
        .eval(&mut NoHost, "proc greet {} { return again }")
        .unwrap();
    struct Greeter;
    impl Host for Greeter {
        fn call(
            &mut self,
            _interp: &mut Interp,
            cmd: &str,
            _args: &[String],
        ) -> Option<Result<String, ScriptError>> {
            (cmd == "greet").then(|| Ok("from the host".to_string()))
        }
    }
    assert_eq!(interp.eval_parsed(&mut Greeter, &script).unwrap(), "again");
    assert_eq!(
        Interp::new().eval_parsed(&mut Greeter, &script).unwrap(),
        "from the host"
    );
}

#[test]
fn a_proc_named_like_a_builtin_never_shadows_it() {
    // Resolving a literal builtin name at parse is sound because builtins
    // win over procs, however the command word is spelled.
    let mut interp = Interp::new();
    let out = interp
        .eval(
            &mut NoHost,
            "proc if {a b} { return shadowed }\n\
             set direct [if {1} {set r builtin}]\n\
             set c if\n\
             set computed [$c {1} {set r builtin}]\n\
             list $direct $computed",
        )
        .unwrap();
    assert_eq!(out, "builtin builtin");
}

#[test]
fn a_word_used_as_two_kinds_stays_correct() {
    // `$kw` decides at run time whether `{1}` is an `elseif` condition or
    // an `else` body (the command `1`); whichever kind binds first, the
    // other still works.
    let script = Script::parse("if {0} {set r a} $kw {1} {set r c}").unwrap();
    for order in [["elseif", "else"], ["else", "elseif"]] {
        let script = script.clone();
        for kw in order.into_iter().chain(order) {
            let mut interp = Interp::new();
            interp.set_var("kw", kw);
            let got = interp.eval_parsed(&mut NoHost, &script);
            match kw {
                "elseif" => assert_eq!(got.unwrap(), "c"),
                _ => assert_eq!(got.unwrap_err().message, "invalid command name \"1\""),
            }
        }
    }
}
