//! Property-based tests for the Tcl-subset interpreter, run against the
//! in-tree `proptest` shim (`crates/proptest`).

use pfi_script::{glob_match, list_format, list_parse, Interp, NoHost, Script};
use proptest::prelude::*;

proptest! {
    /// Any vector of strings survives a format → parse round trip.
    #[test]
    fn list_roundtrip(elems in proptest::collection::vec(".*", 0..8)) {
        let formatted = list_format(&elems);
        let parsed = list_parse(&formatted).unwrap();
        prop_assert_eq!(parsed, elems);
    }

    /// The parser never panics, whatever the input.
    #[test]
    fn parser_never_panics(src in ".*") {
        let _ = Script::parse(&src);
    }

    /// The interpreter never panics on arbitrary input (errors are fine).
    #[test]
    fn interp_never_panics(src in ".{0,120}") {
        let mut interp = Interp::new();
        interp.set_fuel_limit(10_000);
        let _ = interp.eval(&mut NoHost, &src);
    }

    /// A glob pattern built by escaping a literal matches exactly that
    /// literal.
    #[test]
    fn escaped_literal_globs_itself(text in "[a-zA-Z0-9*?\\[\\]-]{0,20}") {
        let escaped: String = text.chars().flat_map(|c| {
            if matches!(c, '*' | '?' | '[' | ']' | '\\') {
                vec!['\\', c]
            } else {
                vec![c]
            }
        }).collect();
        prop_assert!(glob_match(&escaped, &text));
    }

    /// `expr` agrees with a Rust oracle on randomly generated integer
    /// arithmetic.
    #[test]
    fn expr_matches_oracle(tree in arb_expr(4)) {
        let (src, expected) = tree;
        let mut interp = Interp::new();
        let got = interp.eval(&mut NoHost, &format!("expr {{{src}}}"));
        match expected {
            Some(v) => prop_assert_eq!(got.unwrap(), v.to_string(), "expr was {}", src),
            // Oracle hit overflow or division by zero: interp must error too.
            None => prop_assert!(got.is_err(), "expr was {}", src),
        }
    }

    /// Variables set through the API are visible to scripts and vice versa.
    #[test]
    fn var_api_and_script_agree(name in "[a-z][a-z0-9_]{0,10}", value in "[ -~]{0,30}") {
        let mut interp = Interp::new();
        interp.set_var(&name, value.clone());
        let read = interp.eval(&mut NoHost, &format!("set {name}")).unwrap();
        prop_assert_eq!(read, value);
    }

    /// However a structured script reaches the engine — re-parsed on every
    /// evaluation with caching off, served from the cache, or parsed once —
    /// and however often it has run, one evaluation is one function: same
    /// result, same variables, same output, same smallest step budget.
    /// Nothing it does may panic (the suite runs in a debug build, where
    /// an unchecked `incr` at `i64::MAX` did).
    #[test]
    fn structured_scripts_evaluate_the_same_by_every_route(body in arb_block(3)) {
        let src = format!("{PROLOGUE}{body}");
        let parsed = Script::parse(&src).unwrap();
        let mut reference: Option<Observed> = None;
        for route in [Route::Cold, Route::Warm, Route::Compiled] {
            let mut interp = Interp::new();
            if route == Route::Cold {
                interp.set_cache_capacity(0, 0);
            }
            let script = (route == Route::Compiled).then_some(&parsed);
            for round in 1..=100 {
                // The first and the hundredth evaluation also pay for the
                // budget search; the ones between only keep state moving.
                let observed = if round == 1 || round == 100 {
                    observe(&mut interp, &src, script, true)
                } else {
                    observe(&mut interp, &src, script, false)
                };
                match &reference {
                    None => reference = Some(observed),
                    Some(first) if round == 1 || round == 100 => prop_assert_eq!(
                        &observed, first, "{:?}, evaluation {} of:\n{}", route, round, src
                    ),
                    Some(first) => prop_assert_eq!(
                        &observed.outcome, &first.outcome,
                        "{:?}, evaluation {} of:\n{}", route, round, src
                    ),
                }
            }
        }
    }
}

/// Every generated script starts from the same state, so each evaluation
/// of it is a function of the script alone.
const PROLOGUE: &str = "\
    proc twice {x} { expr {$x * 2} }\n\
    proc bump {} { global a; incr a }\n\
    set a 1; set b 2; set c 3\n";

/// Steps one evaluation may take: enough for any terminating generated
/// script, small enough that one that loops forever fails fast (which is an
/// outcome like any other, and must be the same outcome by every route).
const STEP_CAP: u64 = 400;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Route {
    Cold,
    Warm,
    Compiled,
}

#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<String, String>,
    vars: Vec<(String, String)>,
    output: String,
}

#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    /// Smallest step budget with the same outcome (0 when not searched).
    budget: u64,
}

fn run(interp: &mut Interp, src: &str, script: Option<&Script>, budget: u64) -> Outcome {
    interp.set_step_budget(budget);
    let result = match script {
        Some(script) => interp.eval_parsed(&mut NoHost, script),
        None => interp.eval(&mut NoHost, src),
    };
    Outcome {
        result: result.map_err(|e| e.to_string()),
        vars: interp.globals_snapshot(),
        output: interp.take_output(),
    }
}

/// Evaluates once, leaving `interp` as the evaluation left it; with
/// `search`, first bisects the smallest budget on clones.
fn observe(interp: &mut Interp, src: &str, script: Option<&Script>, search: bool) -> Observed {
    let mut budget = 0;
    if search {
        let full = run(&mut interp.clone(), src, script, STEP_CAP);
        let (mut lo, mut hi) = (0, STEP_CAP);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if run(&mut interp.clone(), src, script, mid) == full {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        budget = lo;
    }
    Observed {
        outcome: run(interp, src, script, STEP_CAP),
        budget,
    }
}

fn arb_var() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c")]
}

/// Small integers, and the two that sit at the edge of `i64`.
fn arb_int() -> impl Strategy<Value = String> {
    prop_oneof![
        (-3i64..12).prop_map(|n| n.to_string()),
        (-3i64..12).prop_map(|n| n.to_string()),
        (-3i64..12).prop_map(|n| n.to_string()),
        Just("9223372036854775807".to_string()),
        Just("-9223372036854775807".to_string()),
        Just("007".to_string()),
    ]
}

/// An `expr` source over the three variables.
fn arb_operand() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        arb_int().prop_map(|n| if n.starts_with('-') {
            format!("({n})")
        } else {
            n
        }),
        arb_var().prop_map(|v| format!("${v}")),
        arb_var().prop_map(|v| format!("[twice ${v}]")),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), inner, 0usize..9).prop_map(|(l, r, op)| {
            let op = ["+", "-", "*", "/", "%", "<", "==", "&&", "||"][op];
            format!("({l} {op} {r})")
        })
    })
}

/// A block of one to three statements; `depth` bounds the nesting.
fn arb_block(depth: u32) -> impl Strategy<Value = String> {
    let simple = prop_oneof![
        (arb_var(), arb_int()).prop_map(|(v, n)| format!("set {v} {n}")),
        (arb_var(), arb_var()).prop_map(|(v, w)| format!("set {v} ${w}")),
        (arb_var(), arb_operand()).prop_map(|(v, e)| format!("set {v} [expr {{{e}}}]")),
        arb_var().prop_map(|v| format!("incr {v}")),
        (arb_var(), arb_int()).prop_map(|(v, n)| format!("incr {v} {n}")),
        arb_var().prop_map(|v| format!("puts \"{v}=${v}\"")),
        Just("bump".to_string()),
        arb_operand().prop_map(|e| format!("expr {{{e}}}")),
    ];
    let block = |stmt: BoxedStrategy<String>| {
        proptest::collection::vec(stmt, 1..4)
            .prop_map(|stmts| stmts.join("\n"))
            .boxed()
    };
    let nested = simple.prop_recursive(depth, 16, 3, move |inner| {
        let body = block(inner.clone());
        prop_oneof![
            inner,
            (arb_operand(), body.clone()).prop_map(|(c, b)| format!("if {{{c}}} {{\n{b}\n}}")),
            (arb_operand(), body.clone(), body.clone())
                .prop_map(|(c, t, f)| format!("if {{{c}}} {{\n{t}\n}} else {{\n{f}\n}}")),
            (arb_var(), 0i64..4, body.clone())
                .prop_map(|(v, k, b)| format!("while {{${v} < {k}}} {{\nincr {v}\n{b}\n}}")),
            (arb_var(), 0i64..4, body).prop_map(|(v, k, b)| format!(
                "for {{set {v} 0}} {{${v} < {k}}} {{incr {v}}} {{\n{b}\n}}"
            )),
        ]
    });
    block(nested.boxed())
}

/// Generates a random arithmetic expression and its oracle value
/// (`None` when evaluation would overflow or divide by zero).
fn arb_expr(depth: u32) -> impl Strategy<Value = (String, Option<i64>)> {
    let leaf = (-1000i64..1000).prop_map(|n| {
        if n < 0 {
            (format!("({n})"), Some(n))
        } else {
            (n.to_string(), Some(n))
        }
    });
    type BinOp = fn(i64, i64) -> Option<i64>;
    leaf.prop_recursive(depth, 64, 2, |inner| {
        (inner.clone(), inner, 0u8..4).prop_map(|((ls, lv), (rs, rv), op)| {
            let (sym, f): (&str, BinOp) = match op {
                0 => ("+", i64::checked_add),
                1 => ("-", i64::checked_sub),
                2 => ("*", i64::checked_mul),
                _ => ("/", |a: i64, b: i64| {
                    if b == 0 {
                        None
                    } else {
                        // Tcl integer division floors.
                        let q = a.checked_div(b)?;
                        if (a % b != 0) && ((a < 0) != (b < 0)) {
                            Some(q - 1)
                        } else {
                            Some(q)
                        }
                    }
                }),
            };
            let v = match (lv, rv) {
                (Some(a), Some(b)) => f(a, b),
                _ => None,
            };
            (format!("({ls} {sym} {rs})"), v)
        })
    })
}
