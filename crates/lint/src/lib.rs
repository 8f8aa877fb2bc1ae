//! # pfi-lint — static analysis for PFI filter scripts
//!
//! A multi-pass analyzer over the ASTs `pfi-script` already produces (no
//! second parser): command resolution against the interpreter's builtin
//! table and the PFI layer's host-command table, def-before-use variable
//! dataflow, dead-code and constant-condition detection, and a
//! determinism lint for RNG-drawing commands.
//!
//! The analysis is deliberately conservative: whenever a construct is
//! dynamic (a computed command word, a computed `set` target, a dynamic
//! `eval`), the affected pass degrades to silence or a `note` rather than
//! risk an `error`-severity false positive: an error must mean the
//! script truly cannot work.
//!
//! ```
//! use pfi_lint::{Category, Linter, Severity};
//!
//! let diags = Linter::filter().lint("if {[msg_type] == \"ACK\"} { xDorp cur_msg }");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].category, Category::UnknownCommand);
//! assert_eq!(diags[0].severity, Severity::Error);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod diag;
mod effects;

pub use analysis::Linter;
pub use diag::{render, Category, Diagnostic, Severity};
pub use effects::{analyze_effects, ClauseEffect, Effect, EffectSet, ScriptEffects, WindowBound};

#[cfg(test)]
mod tests {
    use super::*;

    fn cats(diags: &[Diagnostic]) -> Vec<Category> {
        diags.iter().map(|d| d.category).collect()
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    // ---- pass 1: command resolution -----------------------------------

    #[test]
    fn unknown_command_is_an_error_with_a_span() {
        let diags = Linter::filter().lint("set x 1\nxDorp cur_msg\n");
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!((diags[0].span.line, diags[0].span.col), (2, 1));
        assert!(diags[0].message.contains("xDorp"));
        // A Tcl command outside the interpreter's subset is unknown too.
        let diags = Linter::filter().lint("lappend x 1\n");
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
        assert!(diags[0].message.contains("lappend"), "{diags:?}");
    }

    /// What the interpreter's subset leaves out is an error, not a
    /// finding the analysis could miss: a math function, operator,
    /// boolean word or array read Tcl has and the subset does not fails to
    /// parse, and `global`, `break` and `continue` are unknown commands.
    #[test]
    fn tcl_forms_outside_the_subset_are_errors() {
        let headline = |src: &str| {
            let diags = Linter::filter().lint(src);
            let out = render(src, "f.tcl", &diags);
            assert_eq!(diags.len(), 1, "{src}: {out}");
            out.lines().next().unwrap_or_default().to_string()
        };
        let functions = [
            "abs", "double", "round", "floor", "ceil", "sqrt", "exp", "log", "log10", "sin", "cos",
            "tan", "atan", "atan2", "pow", "fmod", "hypot", "min", "max",
        ];
        for f in functions {
            let src = format!("if {{{f}([msg_len]) > 1}} {{ xDrop }}\n");
            assert_eq!(
                headline(&src),
                format!("error[parse-error]: malformed expression: unknown math function \"{f}\"")
            );
        }
        for cond in [
            "[msg_len] ** 2 > 1",
            "[msg_len] << 1 > 1",
            "[msg_len] >> 1 > 1",
            "([msg_len] | 1) > 1",
            "~[msg_len] > 1",
            "+[msg_len] > 1",
            "true",
            "[msg_len] > 1 && on",
            "$n(ACK) > 1",
            "[msg_type] eq {ACK}",
        ] {
            let src = format!("set n 1\nif {{{cond}}} {{ xDrop }}\n");
            assert!(
                headline(&src).starts_with("error[parse-error]: malformed expression: "),
                "{cond}"
            );
        }
        assert!(headline("set n(ACK) 1\nset y $n(ACK)\n").starts_with("error[parse-error]: "));
        for word in ["global n", "break", "continue"] {
            let src = format!("while {{[msg_len] > 0}} {{ {word} }}\n");
            let name = word.split(' ').next().unwrap_or_default();
            assert_eq!(
                headline(&src),
                format!("error[unknown-command]: invalid command name \"{name}\"")
            );
        }
    }

    #[test]
    fn unknown_command_without_host_table() {
        // `plain()` has no host commands: filter-only words are unknown.
        let diags = Linter::plain().lint("xDrop");
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
        let diags = Linter::filter().lint("xDrop");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn computed_command_words_are_never_flagged() {
        // Dynamic dispatch the analysis cannot see must not error.
        let diags = Linter::filter().lint("set op xDrop\n$op\n[msg_field 0] cur_msg\n");
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn script_local_procs_resolve() {
        let src = "proc classify {t} { return $t }\nclassify ACK\n";
        let diags = Linter::filter().lint(src);
        assert!(diags.is_empty(), "{diags:?}");
        // ... including calls lexically before the definition.
        let src = "classify ACK\nproc classify {t} { return $t }\n";
        let diags = Linter::filter().lint(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn bad_arity_on_builtin_host_and_proc() {
        let diags = Linter::filter().lint("incr a b c\n");
        assert_eq!(cats(&diags), vec![Category::BadArity]);
        assert_eq!(diags[0].severity, Severity::Error);

        let diags = Linter::filter().lint("msg_set_byte 0\n");
        assert_eq!(cats(&diags), vec![Category::BadArity]);

        let src = "proc two {a b} { return $a$b }\ntwo onearg\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::BadArity]);
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn cur_msg_tokens_do_not_count_toward_arity() {
        let diags = Linter::filter().lint("msg_type cur_msg\nxDrop cur_msg\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn proc_with_defaults_and_args_tail() {
        let src = "proc f {a {b 0} args} { return $a }\nf 1\nf 1 2 3 4\nf\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::BadArity]); // only `f` with 0 args
        assert_eq!(diags[0].span.line, 4);
    }

    // ---- pass 2: variable dataflow ------------------------------------

    #[test]
    fn read_of_never_assigned_var_warns() {
        let diags = Linter::filter().lint("set x $undefined\n");
        assert_eq!(cats(&diags), vec![Category::UndefVar]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("undefined"));
    }

    #[test]
    fn one_branch_assignment_is_a_maybe() {
        let src = "if {[msg_len] > 0} { set n [msg_len] }\nset y $n\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::MaybeUndefVar]);
        assert_eq!(diags[0].severity, Severity::Note);
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn both_branch_assignment_is_definite() {
        let src = "if {[msg_len] > 0} { set n 1 } else { set n 0 }\nset y $n\n";
        let diags = Linter::filter().lint(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn loop_body_assignment_stays_maybe_after_the_loop() {
        let src = "while {[msg_len] > $i} { set last [msg_byte 0]; incr i }\nset y $last\n";
        let diags = Linter::filter().lint(src);
        // `$i` before any incr is a maybe too; `$last` after the loop may
        // never have been set.
        assert!(
            diags
                .iter()
                .all(|d| d.category == Category::MaybeUndefVar && d.severity == Severity::Note),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("last")),
            "{diags:?}"
        );
    }

    #[test]
    fn straight_line_def_before_use_is_clean() {
        let src = "set count 0\nincr count\nset msg \"n=$count\"\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn incr_counts_as_a_definition() {
        // An unset target counts from 0 at runtime.
        let src = "incr hits\nset y $hits\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn guards_suppress_variable_findings() {
        let src = "if {[info exists seen]} { set y $seen }\nincr tally\n";
        assert!(Linter::filter().lint(src).is_empty());
        // A proc parameter is never flagged in its body.
        let src = "proc f {budget} { set y $budget }\nf 1\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn dynamic_set_target_suppresses_the_whole_scope() {
        // `set $name ...` can define anything: stay silent, not wrong.
        let src = "set name [msg_field 0]\nset $name 1\nset y $whatever\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    /// `seen(ACK)` is a variable of that flat name; reading it as
    /// `$seen(ACK)` does not parse (the subset has no arrays).
    #[test]
    fn array_reads_are_parse_errors() {
        let src = "set seen(ACK) 1\nset y [set seen(ACK)]\n";
        assert!(Linter::filter().lint(src).is_empty());
        let diags = Linter::filter().lint("set seen(ACK) 1\nset y $seen(ACK)\n");
        assert_eq!(cats(&diags), vec![Category::ParseError]);
        assert_eq!((diags[0].span.line, diags[0].span.col), (2, 12));
    }

    #[test]
    fn foreach_vars_are_defined_in_the_body() {
        let src = "foreach t {ACK DATA} { set last $t }\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn expr_reads_are_checked() {
        let diags = Linter::filter().lint("if {$missing > 0} { xDrop }\n");
        assert_eq!(cats(&diags), vec![Category::UndefVar]);
    }

    #[test]
    fn proc_params_are_defined_in_the_body() {
        let src = "proc f {a b} { return [expr {$a + $b}] }\nf 1 2\n";
        assert!(Linter::filter().lint(src).is_empty());
        // ...but the body cannot see outer assignments.
        let src = "set outer 1\nproc f {} { return $outer }\nf\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::UndefVar]);
    }

    // ---- pass 3: dead code & constant conditions ----------------------

    #[test]
    fn code_after_return_is_dead() {
        let src = "xPass\nreturn\nxDrop\nxDelay 5\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::DeadCode]);
        assert_eq!(diags[0].severity, Severity::Warning);
        // Reported once, at the first unreachable command.
        assert_eq!((diags[0].span.line, diags[0].span.col), (3, 1));
    }

    #[test]
    fn code_after_error_is_dead() {
        let src = "while {[msg_len] > 0} {\n  error oops\n  xDrop\n}\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::DeadCode]);
        assert_eq!(diags[0].span.line, 3);
    }

    #[test]
    fn a_return_inside_a_branch_does_not_kill_the_tail() {
        let src = "if {[msg_len] > 8} { return }\nxPass\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn constant_conditions_fold() {
        let diags = Linter::filter().lint("if {0} { xDrop }\n");
        assert_eq!(cats(&diags), vec![Category::ConstantCondition]);
        assert_eq!(diags[0].severity, Severity::Warning);

        let diags = Linter::filter().lint("if {2 > 1} { xDrop }\n");
        assert_eq!(cats(&diags), vec![Category::ConstantCondition]);

        let diags = Linter::filter().lint("while {1 == 2} { xDrop }\n");
        assert_eq!(cats(&diags), vec![Category::ConstantCondition]);
    }

    #[test]
    fn while_1_idiom_is_allowed() {
        let src = "while {1} { if {[msg_len] > 8} { return } }\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn non_constant_conditions_do_not_fold() {
        let src = "if {[msg_len] > 8} { xDrop }\nif {$n > 0} { xPass }\nset n 1\n";
        let diags = Linter::filter().lint(src);
        assert!(
            diags.iter().all(|d| d.category == Category::MaybeUndefVar),
            "{diags:?}"
        );
    }

    // ---- pass 4: determinism ------------------------------------------

    #[test]
    fn rng_commands_warn_outside_the_deterministic_allowlist() {
        let src = "if {[coin 0.5]} { xDrop } else { xPass }\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::Nondeterministic]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("coin"));
    }

    #[test]
    fn deterministic_commands_do_not_warn() {
        let src = "if {[msg_type] == \"ACK\"} { xDelay [expr {[msg_len] * 2}] }\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    // ---- structural cases ---------------------------------------------

    #[test]
    fn parse_failure_is_a_single_error_diagnostic() {
        let diags = Linter::filter().lint("set x \"unclosed\n");
        assert_eq!(cats(&diags), vec![Category::ParseError]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].span.line > 0);
    }

    #[test]
    fn malformed_nested_body_is_located() {
        let src = "xPass\nif {[msg_len] > 0} {\n  set x \"unclosed\n}\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::ParseError]);
        // The parser discovers the unterminated quote at end of input
        // (line 4), in the enclosing file's coordinates — not line 1 of
        // the inner body.
        assert_eq!(diags[0].span.line, 4, "{diags:?}");
    }

    #[test]
    fn findings_inside_catch_downgrade_to_notes() {
        let src = "catch { xDorp cur_msg } err\nset y $err\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
        assert_eq!(diags[0].severity, Severity::Note);
    }

    #[test]
    fn switch_bodies_are_walked() {
        let src = "switch [msg_type] {\n  ACK { xDorp }\n  default { xPass }\n}\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
    }

    #[test]
    fn xafter_deferred_bodies_are_walked() {
        let src = "xAfter 10 { xDorp cur_msg }\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
    }

    #[test]
    fn static_eval_bodies_are_walked() {
        let diags = Linter::filter().lint("eval { xDorp cur_msg }\n");
        assert_eq!(cats(&diags), vec![Category::UnknownCommand]);
        // Dynamic eval: unknowable, silent.
        let diags = Linter::filter().lint("set body [msg_field 0]\neval $body\n");
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let src = "xDorp\nset y $nope\nxFrob\n";
        let diags = Linter::filter().lint(src);
        let lines: Vec<u32> = diags.iter().map(|d| d.span.line).collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    // ---- pass 5: interprocedural (dead procs, unused params) ----------

    #[test]
    fn uncalled_proc_is_dead() {
        let src = "proc helper {t} { return $t }\nxPass\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::DeadProc]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("helper"));
        assert_eq!(diags[0].span.line, 1);
    }

    #[test]
    fn called_procs_are_not_dead_even_transitively() {
        // `inner` is only reached through `outer`.
        let src = "proc inner {t} { return $t }\n\
                   proc outer {t} { return [inner $t] }\n\
                   outer ACK\n";
        let diags = Linter::filter().lint(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dynamic_dispatch_suppresses_dead_proc() {
        // `$op` could name any proc; stay silent rather than wrong.
        let src = "proc helper {} { xPass }\nset op helper\n$op\n";
        let diags = Linter::filter().lint(src);
        assert!(
            !diags.iter().any(|d| d.category == Category::DeadProc),
            "{diags:?}"
        );
    }

    #[test]
    fn unused_required_param_warns() {
        let src = "proc classify {t kind} { return $t }\nclassify ACK 1\n";
        let diags = Linter::filter().lint(src);
        assert_eq!(cats(&diags), vec![Category::UnusedParam]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("kind"), "{diags:?}");
    }

    #[test]
    fn defaulted_and_args_params_are_exempt_from_unused() {
        // `{b 0}` and `args` may exist purely for call-site compatibility.
        let src = "proc f {a {b 0} args} { return $a }\nf 1\n";
        let diags = Linter::filter().lint(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn params_read_inside_expr_count_as_used() {
        let src = "proc sum {a b} { return [expr {$a + $b}] }\nsum 1 2\n";
        assert!(Linter::filter().lint(src).is_empty());
    }

    #[test]
    fn lowered_campaign_scripts_are_clean() {
        // The shape `pfi_core::lower` emits: guarded clauses with per-
        // clause counters. Must never trip the linter.
        let src = "if {[msg_type] == \"ACK\"} {\n  incr c0\n  if {$c0 == 2} { xDrop cur_msg }\n}\nif {[msg_len] > 4} {\n  incr c1\n  xDelay 50\n}\n";
        let diags = Linter::filter().lint(src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
