//! A transcript of the interpreter, recorded once and replayed forever.
//!
//! `crates/script/tests/fixtures/transcript.txt` holds one line per
//! evaluation — result or error text with `line:col`, `puts` output, the
//! host commands that ran, the variables afterwards, the smallest
//! `set_step_budget` under which the evaluation completes, and the error
//! one step short of that — for every shipped `scripts/*.tcl`, every
//! `Window` × `FaultAction` shape `FilterProgram::emit` produces, the four
//! benchmark filters, the `script_determinism.rs` stress script (100
//! consecutive messages each) and an error corpus. It was recorded with
//! the tree-walking interpreter before the compiled engine replaced it;
//! any engine must reproduce it byte for byte, whether the script is
//! re-parsed per message, served from the interpreter's cache, or parsed
//! once and evaluated with `eval_parsed`.
//!
//! On a mismatch the test writes what it computed next to the build
//! artefacts and names the file, so a deliberate change is a `cp` away.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pfi::core::lower::{Clause, FaultAction, FilterProgram, Window};
use pfi::script::{builtins, Host, Interp, Script, ScriptError};

/// Messages evaluated per filter.
const MESSAGES: u32 = 100;

const TYPES: [&str; 4] = ["HEARTBEAT", "COMMIT", "ACK", "DATA"];

/// `TYPED_DELAY` of `bench/src/bin/pfi_bench_interpose.rs`.
const TYPED_DELAY: &str = r#"
    incr n
    set t [msg_type]
    if {$n % 100 == 0 && $t != "none"} { xDelay 1 }
"#;

/// `LOOP8` of `bench/src/bin/pfi_bench_interpose.rs`.
const LOOP8: &str = r#"
    set sum 0
    for {set i 0} {$i < 8} {incr i} {
        set sum [expr {$sum + [msg_len] * $i}]
    }
    if {$sum > 100000} { xDrop }
"#;

/// `STRESS` of `tests/script_determinism.rs`.
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

/// The `lowered3` filter of the benchmark.
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

/// Stand-in for the PFI bindings: answers the predefined commands from the
/// index of the current message alone, and writes down every command that
/// acts on the message.
#[derive(Clone, Default)]
struct MsgHost {
    k: u32,
    rng: u64,
    effects: String,
    shared: BTreeMap<String, String>,
}

impl MsgHost {
    fn next(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 33
    }
}

impl Host for MsgHost {
    fn call(
        &mut self,
        interp: &mut Interp,
        cmd: &str,
        args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        let args: Vec<&str> = args
            .iter()
            .map(String::as_str)
            .filter(|a| *a != "cur_msg")
            .collect();
        let int = |i: usize| -> Result<i64, ScriptError> {
            let a = args
                .get(i)
                .ok_or_else(|| ScriptError::new(format!("{cmd}: missing argument {i}")))?;
            a.trim()
                .parse()
                .map_err(|_| ScriptError::new(format!("{cmd}: expected integer but got \"{a}\"")))
        };
        let k = i64::from(self.k);
        Some(match cmd {
            "msg_type" => Ok(TYPES[self.k as usize % 4].to_string()),
            "msg_len" => Ok((16 + k % 5).to_string()),
            "msg_dst" => Ok((k % 3).to_string()),
            "msg_byte" => int(0).map(|off| ((k * 31 + off * 7) % 256).to_string()),
            "msg_field" => Ok(k.to_string()),
            "now_ms" => Ok((k * 10).to_string()),
            "node_id" => Ok("1".to_string()),
            "pfi_dir" => Ok("receive".to_string()),
            "coin" => Ok(u8::from(self.next().is_multiple_of(10)).to_string()),
            "dst_normal" => Ok(format!("{}.25", self.next() % 90)),
            "peer_set" | "global_set" => {
                let key = args.first().copied().unwrap_or("").to_string();
                let value = args.get(1).copied().unwrap_or("").to_string();
                self.shared.insert(key, value);
                Ok(String::new())
            }
            "peer_get" | "global_get" => match self.shared.get(args.first().copied().unwrap_or(""))
            {
                Some(v) => Ok(v.clone()),
                None => args
                    .get(1)
                    .map(|d| d.to_string())
                    .ok_or_else(|| ScriptError::new(format!("{cmd}: no such key"))),
            },
            "xAfter" => int(0).and_then(|ms| {
                let body = args
                    .get(1)
                    .ok_or_else(|| ScriptError::new("xAfter: missing script"))?;
                let script = interp.compile(body)?;
                let _ = write!(self.effects, "xAfter({ms},{});", script.len());
                Ok(String::new())
            }),
            "msg_log" | "xDrop" | "xPass" | "xHold" | "xRelease" => {
                let _ = write!(self.effects, "{cmd};");
                Ok(String::new())
            }
            "xDelay" | "xDuplicate" => int(0).map(|n| {
                let _ = write!(self.effects, "{cmd}({n});");
                String::new()
            }),
            "msg_set_byte" => int(0).and_then(|off| {
                let v = int(1)?;
                let _ = write!(self.effects, "msg_set_byte({off},{v});");
                Ok(String::new())
            }),
            _ => return None,
        })
    }
}

/// How a script reaches the interpreter.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Route {
    /// Caching off, `eval(src)`: every message re-parses everything.
    Cold,
    /// Default caches, `eval(src)`.
    Warm,
    /// `Script::parse` once, `eval_parsed` per message.
    Compiled,
}

#[derive(PartialEq)]
struct Outcome {
    result: Result<String, String>,
    output: String,
    effects: String,
    vars: Vec<(String, String)>,
}

fn evaluate(
    interp: &mut Interp,
    host: &mut MsgHost,
    src: &str,
    parsed: Option<&Script>,
    budget: u64,
) -> Outcome {
    interp.set_step_budget(budget);
    let result = match parsed {
        Some(script) => interp.eval_parsed(host, script),
        None => interp.eval(host, src),
    };
    Outcome {
        result: result.map_err(|e| e.to_string()),
        output: interp.take_output(),
        effects: std::mem::take(&mut host.effects),
        vars: interp.globals_snapshot(),
    }
}

const DEFAULT_BUDGET: u64 = 5_000_000;

/// One transcript line for evaluating `src` as message `host.k`, leaving
/// `interp` and `host` as that evaluation left them.
fn line(
    id: &str,
    interp: &mut Interp,
    host: &mut MsgHost,
    src: &str,
    parsed: Option<&Script>,
    budget: u64,
) -> String {
    let trial = |b: u64| evaluate(&mut interp.clone(), &mut host.clone(), src, parsed, b);
    let full = trial(budget);
    // Smallest budget with the same outcome: double, then bisect.
    let mut hi = 1u64;
    while hi < budget && trial(hi) != full {
        hi *= 2;
    }
    let (mut lo, mut hi) = (hi / 2, hi.min(budget));
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if trial(mid) == full {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let need = if trial(lo) == full { lo } else { hi };
    let starved = match need.checked_sub(1) {
        Some(b) => match trial(b).result {
            Err(e) => e,
            Ok(v) => format!("ok {v:?}"),
        },
        None => "-".to_string(),
    };
    let got = evaluate(interp, host, src, parsed, budget);
    assert!(
        got == full,
        "{id}: an evaluation does not repeat on a clone"
    );
    let mut out = format!("{id} #{}", host.k);
    match &got.result {
        Ok(v) => write!(out, " ok={v:?}"),
        Err(e) => write!(out, " err={e:?}"),
    }
    .unwrap();
    write!(out, " out={:?} fx={:?} vars=", got.output, got.effects).unwrap();
    for (i, (name, value)) in got.vars.iter().enumerate() {
        write!(out, "{}{name}={value:?}", if i > 0 { "," } else { "" }).unwrap();
    }
    write!(out, " budget={need} starved={starved:?}").unwrap();
    out
}

fn windows() -> Vec<Window> {
    vec![
        Window::All,
        Window::Nth(1),
        Window::Nth(7),
        Window::After(0),
        Window::After(12),
        Window::First(3),
    ]
}

fn actions() -> Vec<FaultAction> {
    vec![
        FaultAction::Drop,
        FaultAction::DelayMs(2_500),
        FaultAction::Duplicate(2),
        FaultAction::CorruptByte {
            offset: 9,
            mask: 0x40,
        },
        FaultAction::Hold,
        FaultAction::Release,
    ]
}

/// Filters evaluated once per message, `MESSAGES` messages each.
fn filters() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts");
    let mut shipped: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scripts/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tcl"))
        .collect();
    shipped.sort();
    for path in shipped {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, std::fs::read_to_string(&path).unwrap()));
    }
    let guards = [
        (None, None),
        (Some("COMMIT".to_string()), None),
        (Some("ACK".to_string()), Some(2)),
        (None, Some(0)),
    ];
    for (wi, window) in windows().into_iter().enumerate() {
        for (ai, action) in actions().into_iter().enumerate() {
            let (msg_type, dst) = guards[(wi + ai) % guards.len()].clone();
            let script = FilterProgram::new()
                .clause(Clause {
                    msg_type,
                    dst,
                    window,
                    action,
                })
                .emit();
            out.push((format!("emit-w{wi}-a{ai}"), script));
        }
    }
    out.push(("typed_delay".into(), TYPED_DELAY.into()));
    out.push(("loop8".into(), LOOP8.into()));
    out.push(("lowered3".into(), lowered3()));
    out.push(("stress".into(), STRESS.into()));
    out
}

/// Scripts evaluated once each in a fresh interpreter: `(id, source,
/// step budget)`.
fn error_corpus() -> Vec<(String, String, u64)> {
    let mut out: Vec<(String, String, u64)> = Vec::new();
    let mut add = |id: &str, src: &str| out.push((id.to_string(), src.to_string(), DEFAULT_BUDGET));
    add("unknown-command", "set a 1\n  frobnicate 1 2");
    add("unknown-in-body", "if {1} {\n  set a 1\n  frobnicate\n}");
    add("unknown-in-subst", "set a [frobnicate 1]");
    add("computed-name", "set c set\n$c z 5\nset z");
    add("computed-builtin-body", "set c if\n$c {1} {set r yes}");
    add("computed-unknown", "set c nosuch\n$c z 5");
    add(
        "proc-named-like-builtin",
        "proc if {a b} {return shadow}\nif {1} {set r builtin}",
    );
    add(
        "proc-named-like-builtin-computed",
        "proc incr {v} {return shadow}\nset c incr\n$c x",
    );
    add(
        "proc-redefined",
        "proc f {} {return 1}\nset a [f]\nproc f {} {return 2}\nreturn \"$a [f]\"",
    );
    add("proc-wrong-args", "proc f {a {b 2}} {return $a$b}\nf");
    add("proc-too-many", "proc f {a} {set a}\nf 1 2");
    add("malformed-expr", "expr {1 +}");
    add("malformed-expr-if", "set x 1\nif {$x ==} {set y 1}");
    add("malformed-expr-while", "while {(1} {set y 1}");
    add("expr-empty", "expr {}");
    add("expr-divide-by-zero", "set z 0\nexpr {10 / $z}");
    add("expr-non-numeric", "set s abc\nexpr {$s + 1}");
    add("expr-overflow", "expr {9223372036854775807 + 1}");
    add("expr-unknown-func", "expr {nosuch(1)}");
    add("expr-bad-boolean", "if {\"maybe\"} {set y 1}");
    add("expr-multi-arg", "set a 3\nexpr $a + 4 * 2");
    add("expr-cmd-parse-error", "expr {[set x \"oops] + 1}");
    add(
        "expr-short-circuit",
        "set z 0\nexpr {$z != 0 && 10 / $z > 1}",
    );
    add(
        "never-taken-branch",
        "if {0} {this is {not parsed} \"} else {set ok 1}",
    );
    add("body-parse-error", "if {1} {set x \"oops}");
    add("no-such-variable", "set a 1\nset b $nope");
    add("no-such-variable-expr", "expr {$nope + 1}");
    add("incr-non-integer", "set c abc\nincr c");
    add("incr-bad-delta", "set c 1\nincr c x");
    add(
        "leading-zero-survives",
        "set x 007\nset y [set x]\nincr x\nreturn \"$y $x\"",
    );
    add(
        "hex-and-space",
        "set x 0x10\nset y \" 5 \"\nreturn \"[expr {$x + 1}] [incr y] $x\"",
    );
    add(
        "double-var",
        "set d [expr {1.5 * 2}]\nset e [expr {$d + 1}]\nreturn \"$d $e\"",
    );
    add(
        "large-double",
        "set d [expr {1e17}]\nreturn \"$d [expr {$d + 1}]\"",
    );
    add("return-at-top", "set a 1\nreturn 7\nset a 2");
    add("error-command", "set a 1\n  error \"custom failure\"");
    add(
        "catch-codes",
        "return \"[catch {error e} m] $m [catch {return r} v] $v [catch {set q 1} w] $w\"",
    );
    add("catch-unknown", "catch {frobnicate} msg\nset msg");
    add("switch-odd", "switch a {a {set r 1} b}");
    add("switch-fallthrough-end", "switch a {a -}");
    add(
        "switch-glob",
        "switch -glob ACK7 {AC* {set r ack} default {set r other}}",
    );
    add("switch-bad-list", "switch a {a {set r 1}");
    add("foreach-empty-vars", "foreach {} {1 2} {set x 1}");
    add("if-missing-body", "if {1}");
    add("if-bad-keyword", "if {0} {set a 1} otherwise {set a 2}");
    add(
        "if-then-else",
        "if {0} then {set a 1} elseif {1} then {set a 2} else {set a 3}",
    );
    add("nested-proc-depth", "proc f {} {f}\nf");
    add("info-unsupported", "info commands");
    add(
        "eval-dynamic",
        "set body {incr n}\nset n 0\neval $body\neval $body ; eval $body\nset n",
    );
    add("computed-body", "set body {set r taken}\nif {1} $body");
    add(
        "while-literal-cond",
        "set i 0\nwhile 1 {incr i; if {$i >= 3} {return $i}}",
    );
    add("puts-forms", "puts a\nputs -nonewline b\nputs c d");
    for info in builtins() {
        if info.min_args > 0 {
            let argv = vec!["0"; info.min_args - 1].join(" ");
            out.push((
                format!("arity-below-{}", info.name),
                format!("{} {argv}", info.name),
                DEFAULT_BUDGET,
            ));
        }
        if let Some(max) = info.max_args {
            let argv = vec!["0"; max + 1].join(" ");
            out.push((
                format!("arity-above-{}", info.name),
                format!("{} {argv}", info.name),
                DEFAULT_BUDGET,
            ));
        }
    }
    let looping = "set s 0\nfor {set i 0} {$i < 100} {incr i} {\n    incr s $i\n}\nset s";
    for budget in [0, 1, 2, 3, 20, 21, 22, 50] {
        out.push((format!("starved-for-{budget}"), looping.to_string(), budget));
    }
    out.push((
        "starved-while-in-proc".into(),
        "proc spin {} { while {1} { incr n } }\nspin".into(),
        40,
    ));
    out.push((
        "starved-inside-catch".into(),
        "catch { while {1} {} } msg\nset msg".into(),
        30,
    ));
    out
}

fn transcript(path: Route) -> String {
    let mut lines = Vec::new();
    let interp_for = || {
        let mut interp = Interp::new();
        if path == Route::Cold {
            interp.set_cache_capacity(0, 0);
        }
        interp
    };
    for (id, src) in filters() {
        let parsed = (path == Route::Compiled).then(|| Script::parse(&src).expect("filter parses"));
        let mut interp = interp_for();
        let mut host = MsgHost::default();
        for k in 0..MESSAGES {
            host.k = k;
            lines.push(line(
                &id,
                &mut interp,
                &mut host,
                &src,
                parsed.as_ref(),
                DEFAULT_BUDGET,
            ));
        }
    }
    for (id, src, budget) in error_corpus() {
        let mut interp = interp_for();
        let mut host = MsgHost::default();
        let parsed = match (path, Script::parse(&src)) {
            (Route::Compiled, Ok(script)) => Some(script),
            _ => None,
        };
        // Twice: an error must not leave the engine in a state that
        // changes what the same script does next.
        for k in 0..2 {
            host.k = k;
            lines.push(line(
                &id,
                &mut interp,
                &mut host,
                &src,
                parsed.as_ref(),
                budget,
            ));
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn every_path_reproduces_the_recorded_transcript() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/script/tests/fixtures/transcript.txt");
    let recorded = std::fs::read_to_string(&fixture).unwrap_or_default();
    for path in [Route::Compiled, Route::Warm, Route::Cold] {
        let got = transcript(path);
        if got != recorded {
            let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("transcript.actual.txt");
            std::fs::write(&actual, &got).expect("write the computed transcript");
            let first = got
                .lines()
                .zip(recorded.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.lines().count().min(recorded.lines().count()));
            panic!(
                "{path:?} path diverges from {} at line {}:\n  recorded: {}\n  computed: {}\n\
                 the computed transcript is in {}",
                fixture.display(),
                first + 1,
                recorded.lines().nth(first).unwrap_or("<end>"),
                got.lines().nth(first).unwrap_or("<end>"),
                actual.display()
            );
        }
    }
}
