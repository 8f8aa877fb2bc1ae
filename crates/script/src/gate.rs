//! The type gate: what a script made only of message-type-guarded clauses
//! can match, read off its source.
//!
//! Filter scripts lowered from fault schedules are mostly a list of
//! `if {[msg_type] == "COMMIT" && …} {…}` clauses. On a message whose type
//! is none of those literals, evaluating such a script runs every `if`,
//! asks `msg_type` once per clause, finds each guard false and does nothing
//! else. The gate lets an embedder see that without evaluating.

use crate::expr::{analyze_guard, GuardAtom};
use crate::parse::{Command, Head, Script, Word};
use crate::value::Value;

/// The message types a *type-gated* script can act on, decided once per
/// parsed [`Script`] by [`Script::type_gate`].
///
/// A script is type-gated when every top-level command is
/// `if {COND} {BODY}` — exactly three words, both braced, neither spelled
/// `then`, `else` or `elseif` — and the first `&&` conjunct of every COND
/// is `[msg_type] == "literal"` (or `[msg_type cur_msg]`, `eq`, the literal
/// on either side), with a literal that spells no number.
///
/// Evaluating such a script on a message whose `msg_type` answer equals
/// none of the literals runs each `if` and its `msg_type` substitution and
/// nothing else: the first conjunct is false, `&&` evaluates no further,
/// and no body runs. That is [`guard_steps`](TypeGate::guard_steps) steps
/// of the step budget and no effect. It holds as long as `msg_type` is the
/// host's command, which an interpreter defining no proc guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeGate {
    literals: Vec<String>,
    guard_steps: u64,
}

impl TypeGate {
    /// The gate of `script`, `None` when it is not type-gated.
    pub(crate) fn of(script: &Script) -> Option<TypeGate> {
        let literals = script
            .commands
            .iter()
            .map(clause_type)
            .collect::<Option<Vec<_>>>()?;
        Some(TypeGate {
            guard_steps: 2 * literals.len() as u64,
            literals,
        })
    }

    /// Steps an evaluation takes when no guard matches: the `if` and the
    /// substituted `msg_type` of each clause. A step budget below this
    /// makes that evaluation fail instead.
    pub fn guard_steps(&self) -> u64 {
        self.guard_steps
    }

    /// Whether some clause's guard can hold for a message `msg_type`
    /// answers `label` for. No literal spells a number, so `==` compares
    /// as strings; a label that spells one is read as a number, whose text
    /// spells one too and so equals no literal. Either way the guard holds
    /// exactly when the label is the literal.
    pub fn admits(&self, label: &str) -> bool {
        self.literals.iter().any(|lit| lit == label)
    }
}

/// The literal `cmd`'s guard compares `msg_type` against, if `cmd` is a
/// type-gated clause.
fn clause_type(cmd: &Command) -> Option<String> {
    if !matches!(cmd.head, Head::Builtin(b) if b.name == "if") {
        return None;
    }
    let [_, Word::Braced(cond, _), Word::Braced(body, _)] = cmd.words.as_slice() else {
        return None;
    };
    // `if` reads these keywords off its arguments before it evaluates
    // anything: a body spelled `then` is an error, not a clause.
    if [cond, body]
        .iter()
        .any(|w| matches!(w.as_str(), "then" | "else" | "elseif"))
    {
        return None;
    }
    let Some(GuardAtom::CmdEqStr {
        cmd,
        value,
        negated: false,
    }) = analyze_guard(cond).ok()?.into_iter().next()
    else {
        return None;
    };
    if !matches!(cmd.trim(), "msg_type" | "msg_type cur_msg") {
        return None;
    }
    // `==` between two numbers compares them as numbers (`"0x1" == "1"`,
    // and any number equals `NaN`), which equality of text cannot stand in
    // for.
    if Value::Str(value.clone()).numeric().is_some() {
        return None;
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Host, Interp};
    use crate::ScriptError;

    fn gate(src: &str) -> Option<TypeGate> {
        Script::parse(src).unwrap().type_gate().cloned()
    }

    fn literals(src: &str) -> Option<Vec<String>> {
        gate(src).map(|g| g.literals)
    }

    #[test]
    fn lowered_clauses_are_gated() {
        let src = r#"
            if {[msg_type] == "COMMIT" && [msg_dst] == 2} {
                incr c0
                if {$c0 == 3} { xDrop }
            }
            if {"ACK" eq [msg_type cur_msg]} { xDelay 10 }
            if {[msg_type] eq "DATA"} { xHold }
        "#;
        assert_eq!(
            literals(src),
            Some(vec!["COMMIT".into(), "ACK".into(), "DATA".into()])
        );
        assert_eq!(gate(src).unwrap().guard_steps(), 6);
        assert!(gate(src).unwrap().admits("ACK"));
        assert!(!gate(src).unwrap().admits("SYN"));
    }

    #[test]
    fn every_other_shape_is_not() {
        for src in [
            "xDrop",
            "incr n\nif {[msg_type] == \"A\"} { xDrop }",
            "if {[msg_type] != \"A\"} { xDrop }",
            "if {[msg_type] ne \"A\"} { xDrop }",
            "if {[msg_dst] == 2 && [msg_type] == \"A\"} { xDrop }",
            "if {[msg_type] == \"A\" || 1} { xDrop }",
            "if {[msg_type] == \"A\"} then { xDrop }",
            "if {[msg_type] == \"A\"} { xDrop } else { xPass }",
            "if {[msg_type] == \"A\"} {then}",
            "if {[msg_type] == \"A\"} { xDrop } elseif {1} { xPass }",
            "if \"[msg_type] == {A}\" { xDrop }",
            "if {[msg_type] == \"A\"} \"xDrop\"",
            "if {[msg_len] == \"A\"} { xDrop }",
            "if {[msg_type foo] == \"A\"} { xDrop }",
            "if {[msg_type] == \"7\"} { xDrop }",
            "if {[msg_type] == \"0x1\"} { xDrop }",
            "if {[msg_type] == \"1e3\"} { xDrop }",
            "if {[msg_type] == \"inf\"} { xDrop }",
            "if {[msg_type] == \"NaN\"} { xDrop }",
            "if {[msg_type] == \" 7\"} { xDrop }",
            "if {[msg_type] == 7} { xDrop }",
            "if {[msg_type] ==} { xDrop }",
        ] {
            assert_eq!(gate(src), None, "{src}");
        }
    }

    #[test]
    fn literals_are_read_as_expr_reads_them() {
        assert_eq!(
            literals(r#"if {[msg_type] == " HEARTBEAT"} {xDrop}"#),
            Some(vec![" HEARTBEAT".into()])
        );
        assert_eq!(
            literals(r#"if {[msg_type] == "HEART\BEAT"} {xDrop}"#),
            Some(vec!["HEARTBEAT".into()])
        );
        assert_eq!(literals("# nothing\n"), Some(vec![]));
    }

    /// Equality ignores the memo: a script whose gate has been asked for
    /// equals one whose has not.
    #[test]
    fn the_memo_is_not_part_of_equality() {
        let asked = Script::parse("if {[msg_type] == \"A\"} {xDrop}").unwrap();
        assert!(asked.type_gate().is_some());
        let fresh = Script::parse("if {[msg_type] == \"A\"} {xDrop}").unwrap();
        assert_eq!(asked, fresh);
        assert_eq!(format!("{asked:?}"), format!("{fresh:?}"));
    }

    /// Answers `msg_type` with a fixed label and refuses everything else,
    /// so a guard that held would show as an error.
    struct Typed(&'static str);

    impl Host for Typed {
        fn call(
            &mut self,
            _interp: &mut Interp,
            cmd: &str,
            _args: &[String],
        ) -> Option<Result<String, ScriptError>> {
            (cmd == "msg_type").then(|| Ok(self.0.to_string()))
        }
    }

    /// The guard-only step count is what the interpreter charges: at that
    /// budget a message no clause admits passes, one step below it the
    /// budget runs out.
    #[test]
    fn guard_steps_are_the_interpreters_fuel() {
        let src = r#"
            if {[msg_type] == "A" && [msg_dst] == 1} { boom }
            if {[msg_type cur_msg] eq "B"} { boom }
            if {"C" == [msg_type]} { boom }
        "#;
        let script = Script::parse(src).unwrap();
        let steps = script.type_gate().unwrap().guard_steps();
        assert_eq!(steps, 6);
        let mut interp = Interp::new();
        interp.set_step_budget(steps);
        assert_eq!(interp.eval_parsed(&mut Typed("Z"), &script).unwrap(), "");
        interp.set_step_budget(steps - 1);
        let err = interp.eval_parsed(&mut Typed("Z"), &script).unwrap_err();
        assert!(err.is_budget_exhausted(), "{err}");
        // A label a clause admits runs that clause's body.
        interp.set_step_budget(steps);
        assert!(script.type_gate().unwrap().admits("B"));
        let err = interp.eval_parsed(&mut Typed("B"), &script).unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }

    /// `admits` is `expr`'s own answer for every label against the
    /// literals a gate accepts, numeric-looking labels included.
    #[test]
    fn admits_agrees_with_expr() {
        let literals = ["A", " A", "", "HEARTBEAT", "x1", "Inf1", "nan?"];
        let labels = [
            "A",
            " A",
            "A ",
            "",
            "HEARTBEAT",
            "x1",
            "Inf1",
            "nan?",
            "7",
            "0x1",
            "1e3",
            "inf",
            "NaN",
            "-nan",
            " 7",
            "unknown",
        ];
        for lit in literals {
            let src = format!("if {{[msg_type] == \"{lit}\"}} {{ boom }}");
            let script = Script::parse(&src).unwrap();
            let gate = script.type_gate().unwrap();
            for label in labels {
                let mut interp = Interp::new();
                let held = interp.eval_parsed(&mut Typed(label), &script).is_err();
                assert_eq!(gate.admits(label), held, "{lit:?} vs label {label:?}");
            }
        }
    }
}
