//! Lowering structured fault descriptions to PFI filter scripts.
//!
//! Campaign engines (`pfi-testgen`) search over *typed* fault schedules —
//! "drop the 3rd `COMMIT`", "hold two `DATA` segments, release on the
//! third" — but the injection layer executes Tcl. This module is the
//! bridge: a [`FilterProgram`] is a list of [`Clause`]s (guard + firing
//! window + action) that [`emit`](FilterProgram::emit)s a filter script
//! which is *parseable by construction*. Keeping the lowering here, next
//! to the interpreter bindings it targets, means a new `x*` command and
//! its typed form can never drift apart.
//!
//! # Examples
//!
//! ```
//! use pfi_core::lower::{Clause, FaultAction, FilterProgram, Window};
//!
//! let script = FilterProgram::new()
//!     .clause(Clause {
//!         msg_type: Some("COMMIT".into()),
//!         dst: None,
//!         window: Window::After(3),
//!         action: FaultAction::Drop,
//!     })
//!     .emit();
//! assert!(script.contains("xDrop"));
//! assert!(pfi_script::Script::parse(&script).is_ok());
//! ```

/// When within the matching message stream a clause fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Every matching message.
    All,
    /// Only the `n`th matching message (1-based).
    Nth(u32),
    /// Every matching message after the first `n`.
    After(u32),
    /// The first `n` matching messages.
    First(u32),
}

impl Window {
    /// Whether the window opens on one of `n` matching messages.
    pub fn opens_within(self, n: u64) -> bool {
        match self {
            Window::All => n > 0,
            Window::Nth(k) => k > 0 && n >= u64::from(k),
            Window::After(k) => n > u64::from(k),
            Window::First(k) => k > 0 && n > 0,
        }
    }
}

/// What a clause does to a matching message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard the message.
    Drop,
    /// Delay the message by the given milliseconds.
    DelayMs(u64),
    /// Forward `n` extra copies.
    Duplicate(u32),
    /// XOR the byte at `offset` with `mask` (guarded by message length).
    CorruptByte {
        /// Byte offset into the wire image.
        offset: usize,
        /// XOR mask; `0` would be a no-op, pick a non-zero mask.
        mask: u8,
    },
    /// Hold the message for deterministic reordering.
    Hold,
    /// Release all held messages (after this message passes).
    Release,
}

/// One guarded action of a filter program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Restrict to one message type (`msg_type` equality); `None` matches
    /// every message the stub recognises or not.
    pub msg_type: Option<String>,
    /// Restrict to messages addressed to one destination node.
    pub dst: Option<u32>,
    /// Firing window within the matching stream.
    pub window: Window,
    /// The action applied when the window is open.
    pub action: FaultAction,
}

/// How far one evaluation of a [`Clause`] gets on a message: what the
/// steps it takes depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// The message is of another type: the `if` and `[msg_type]`, and `&&`
    /// evaluates no further.
    OtherType,
    /// Of the clause's type, to another destination: `[msg_dst]` too.
    OtherDst,
    /// Both guards hold and the window is shut on this message: its
    /// counter's `incr` and `if` too.
    Shut,
    /// The window is open on a message this many bytes long, and the action
    /// runs — a `corrupt-byte` past its length guard only when the message
    /// is longer than its offset.
    Open(usize),
}

impl Clause {
    /// The interpreter steps one evaluation of the clause's emitted script
    /// takes when it gets as far as `reach`: one step per command,
    /// substitutions included. A step budget of at least this never runs
    /// out on the clause there.
    pub fn steps(&self, reach: Reach) -> u64 {
        let typed = u64::from(self.msg_type.is_some());
        // The `if` around the guards, and the guards it evaluates.
        let guard = |evaluated: u64| if evaluated > 0 { 1 + evaluated } else { 0 };
        let guards = typed + u64::from(self.dst.is_some());
        // `incr cN` and its `if`.
        let window = if self.window == Window::All { 0 } else { 2 };
        match reach {
            Reach::OtherType => guard(1),
            Reach::OtherDst => guard(typed + 1),
            Reach::Shut => guard(guards) + window,
            Reach::Open(len) => {
                // `if` and `[msg_len]`; then `msg_set_byte`, `[expr …]` and
                // `[msg_byte]` when the message is long enough.
                let action = match self.action {
                    FaultAction::CorruptByte { offset, .. } if len > offset => 5,
                    FaultAction::CorruptByte { .. } => 2,
                    _ => 1,
                };
                guard(guards) + window + action
            }
        }
    }
}

/// An ordered list of clauses, lowered to a single filter script.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterProgram {
    clauses: Vec<Clause>,
}

impl FilterProgram {
    /// An empty program (emits the empty script — a pass-through filter).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a clause (builder style).
    pub fn clause(mut self, clause: Clause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// Appends a clause in place.
    pub fn push(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// The clauses in evaluation order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Lowers the program to a Tcl filter script.
    ///
    /// Each clause gets a private counter variable (`c0`, `c1`, …) when
    /// its window needs one, so clauses never interfere; the emitted text
    /// is deterministic in the clause list.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (i, clause) in self.clauses.iter().enumerate() {
            let mut guards: Vec<String> = Vec::new();
            if let Some(t) = &clause.msg_type {
                guards.push(format!(r#"[msg_type] == "{t}""#));
            }
            if let Some(d) = clause.dst {
                guards.push(format!("[msg_dst] == {d}"));
            }
            let body = Self::emit_windowed(i, clause.window, clause.action);
            if guards.is_empty() {
                out.push_str(&body.replace("    ", ""));
            } else {
                out.push_str(&format!("if {{{}}} {{\n{body}}}\n", guards.join(" && ")));
            }
        }
        out
    }

    fn emit_windowed(index: usize, window: Window, action: FaultAction) -> String {
        let act = Self::emit_action(action);
        match window {
            Window::All => format!("    {act}\n"),
            Window::Nth(n) => {
                format!("    incr c{index}\n    if {{$c{index} == {n}}} {{ {act} }}\n")
            }
            Window::After(n) => {
                format!("    incr c{index}\n    if {{$c{index} > {n}}} {{ {act} }}\n")
            }
            Window::First(n) => {
                format!("    incr c{index}\n    if {{$c{index} <= {n}}} {{ {act} }}\n")
            }
        }
    }

    fn emit_action(action: FaultAction) -> String {
        match action {
            FaultAction::Drop => "xDrop".to_string(),
            FaultAction::DelayMs(ms) => format!("xDelay {ms}"),
            FaultAction::Duplicate(n) => format!("xDuplicate {n}"),
            FaultAction::CorruptByte { offset, mask } => format!(
                "if {{[msg_len] > {offset}}} {{ msg_set_byte {offset} \
                 [expr {{([msg_byte {offset}] ^ {mask}) & 0xFF}}] }}"
            ),
            FaultAction::Hold => "xHold".to_string(),
            FaultAction::Release => "xRelease".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfi_script::Script;

    fn all_windows() -> Vec<Window> {
        vec![
            Window::All,
            Window::Nth(1),
            Window::Nth(7),
            Window::After(0),
            Window::After(12),
            Window::First(3),
            Window::First(0),
        ]
    }

    fn all_actions() -> Vec<FaultAction> {
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

    #[test]
    fn every_window_action_combination_parses() {
        for window in all_windows() {
            for action in all_actions() {
                for (msg_type, dst) in [
                    (None, None),
                    (Some("SYN-ACK".to_string()), None),
                    (Some("COMMIT".to_string()), Some(2)),
                    (None, Some(0)),
                ] {
                    let script = FilterProgram::new()
                        .clause(Clause {
                            msg_type: msg_type.clone(),
                            dst,
                            window,
                            action,
                        })
                        .emit();
                    assert!(
                        Script::parse(&script).is_ok(),
                        "unparseable lowering for {window:?}/{action:?}:\n{script}"
                    );
                }
            }
        }
    }

    /// Answers the message commands for one message.
    struct Msg {
        msg_type: &'static str,
        dst: u32,
        len: usize,
    }

    impl pfi_script::Host for Msg {
        fn call(
            &mut self,
            _interp: &mut pfi_script::Interp,
            cmd: &str,
            _args: &[String],
        ) -> Option<Result<String, pfi_script::ScriptError>> {
            let answer = match cmd {
                "msg_type" => self.msg_type.to_string(),
                "msg_dst" => self.dst.to_string(),
                "msg_len" => self.len.to_string(),
                "msg_byte" => "7".to_string(),
                _ => String::new(),
            };
            Some(Ok(answer))
        }
    }

    /// A fresh interpreter's first evaluation of `script` on `msg`
    /// finishes with a budget of `steps`, and runs out with one fewer.
    fn assert_fuel(script: &str, msg: &mut Msg, steps: u64) {
        let parsed = Script::parse(script).unwrap();
        let mut interp = pfi_script::Interp::new();
        interp.set_step_budget(steps);
        let full = interp.eval_parsed(msg, &parsed);
        assert!(full.is_ok(), "{script} at {steps}: {full:?}");
        let mut interp = pfi_script::Interp::new();
        interp.set_step_budget(steps - 1);
        let short = interp.eval_parsed(msg, &parsed).unwrap_err();
        assert!(short.is_budget_exhausted(), "{script} at {}", steps - 1);
    }

    /// How far `clause` gets on `msg`, the first message it sees.
    fn reach(clause: &Clause, msg: &Msg) -> Reach {
        if clause
            .msg_type
            .as_deref()
            .is_some_and(|t| t != msg.msg_type)
        {
            Reach::OtherType
        } else if clause.dst.is_some_and(|d| d != msg.dst) {
            Reach::OtherDst
        } else if clause.window.opens_within(1) {
            Reach::Open(msg.len)
        } else {
            Reach::Shut
        }
    }

    /// `steps` is the interpreter's fuel for a clause as far as it gets:
    /// at that budget its first evaluation finishes, one step below it
    /// runs out — for every window, action and guard, on a message of
    /// another type, to another destination, with the window shut, and
    /// open on a message shorter and longer than a corruption's offset.
    #[test]
    fn steps_are_the_fuel_of_a_clause_as_far_as_it_gets() {
        let msgs = || {
            [
                ("T", 2, 64),
                ("T", 2, 9),
                ("T", 2, 10),
                ("U", 2, 64),
                ("T", 3, 64),
            ]
            .map(|(msg_type, dst, len)| Msg { msg_type, dst, len })
        };
        let mut reached = Vec::new();
        for window in all_windows() {
            for action in all_actions() {
                for (msg_type, dst) in [
                    (None, None),
                    (Some("T".to_string()), None),
                    (Some("T".to_string()), Some(2)),
                    (None, Some(2)),
                ] {
                    let clause = Clause {
                        msg_type,
                        dst,
                        window,
                        action,
                    };
                    let script = FilterProgram::new().clause(clause.clone()).emit();
                    for mut msg in msgs() {
                        let reach = reach(&clause, &msg);
                        assert_fuel(&script, &mut msg, clause.steps(reach));
                        reached.push(std::mem::discriminant(&reach));
                    }
                }
            }
        }
        for every in [
            Reach::OtherType,
            Reach::OtherDst,
            Reach::Shut,
            Reach::Open(0),
        ] {
            assert!(reached.contains(&std::mem::discriminant(&every)));
        }
    }

    /// A filter of several clauses costs each clause's steps on the
    /// message: on a type no clause names, the `if` and `[msg_type]` of
    /// each — what the type gate lets the layer skip — and on a type some
    /// clause names, those guards plus the bodies of that type's clauses.
    #[test]
    fn a_filter_costs_its_guards_plus_the_bodies_for_the_type() {
        let clause = |msg_type: &str, dst, window, action| Clause {
            msg_type: Some(msg_type.to_string()),
            dst,
            window,
            action,
        };
        let corrupt = FaultAction::CorruptByte {
            offset: 9,
            mask: 0x40,
        };
        let filters = [
            vec![clause("T", None, Window::All, FaultAction::Drop)],
            vec![
                clause("T", None, Window::Nth(3), FaultAction::Drop),
                clause("U", Some(2), Window::All, FaultAction::DelayMs(5)),
            ],
            vec![
                clause("U", None, Window::First(2), FaultAction::Hold),
                clause("U", None, Window::Nth(3), FaultAction::Release),
                clause("T", None, Window::All, corrupt),
            ],
            vec![
                clause("T", Some(3), Window::After(0), FaultAction::Duplicate(1)),
                clause("T", None, Window::After(4), FaultAction::Drop),
                clause("T", None, Window::All, corrupt),
            ],
        ];
        for clauses in filters {
            let mut program = FilterProgram::new();
            for c in &clauses {
                program.push(c.clone());
            }
            let script = program.emit();
            let gate = Script::parse(&script).unwrap().type_gate().cloned();
            let gate = gate.expect("every clause is type-guarded");
            for (msg_type, dst, len) in [("T", 2, 64), ("T", 3, 4), ("U", 2, 64), ("V", 2, 64)] {
                let mut msg = Msg { msg_type, dst, len };
                let steps = clauses.iter().map(|c| c.steps(reach(c, &msg))).sum();
                assert_fuel(&script, &mut msg, steps);
                if !gate.admits(msg_type) {
                    assert_eq!(steps, gate.guard_steps(), "{script}");
                }
            }
        }
    }

    #[test]
    fn multi_clause_counters_do_not_collide() {
        let prog = FilterProgram::new()
            .clause(Clause {
                msg_type: Some("A".into()),
                dst: None,
                window: Window::After(3),
                action: FaultAction::Drop,
            })
            .clause(Clause {
                msg_type: Some("B".into()),
                dst: None,
                window: Window::Nth(2),
                action: FaultAction::DelayMs(100),
            });
        let script = prog.emit();
        assert!(
            script.contains("incr c0") && script.contains("incr c1"),
            "{script}"
        );
        assert!(Script::parse(&script).is_ok(), "{script}");
    }

    #[test]
    fn empty_program_is_empty_passthrough() {
        assert_eq!(FilterProgram::new().emit(), "");
    }

    #[test]
    fn unguarded_clause_has_no_if_wrapper() {
        let script = FilterProgram::new()
            .clause(Clause {
                msg_type: None,
                dst: None,
                window: Window::All,
                action: FaultAction::Drop,
            })
            .emit();
        assert_eq!(script, "xDrop\n");
    }

    #[test]
    fn corrupt_byte_is_length_guarded() {
        let script = FilterProgram::new()
            .clause(Clause {
                msg_type: Some("DATA".into()),
                dst: None,
                window: Window::All,
                action: FaultAction::CorruptByte {
                    offset: 2,
                    mask: 0x40,
                },
            })
            .emit();
        assert!(script.contains("[msg_len] > 2"), "{script}");
        assert!(Script::parse(&script).is_ok(), "{script}");
    }
}
