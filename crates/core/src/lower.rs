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

impl Clause {
    /// The most interpreter steps one evaluation of the clause's emitted
    /// script takes: every guard holding, the window open and the action
    /// run — one step per command, substitutions included. A step budget
    /// of at least this never runs out on the clause.
    pub fn max_steps(&self) -> u64 {
        // `if` plus one `[msg_type]` / `[msg_dst]` per guard.
        let guards = u64::from(self.msg_type.is_some()) + u64::from(self.dst.is_some());
        let guard = if guards > 0 { 1 + guards } else { 0 };
        // `incr cN` and its `if`.
        let window = if self.window == Window::All { 0 } else { 2 };
        // `if`, `[msg_len]`, `msg_set_byte`, `[expr …]`, `[msg_byte]`.
        let action = match self.action {
            FaultAction::CorruptByte { .. } => 5,
            _ => 1,
        };
        guard + window + action
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

    /// Answers every message command as if each guard held on a long
    /// message: type `T`, destination 2, 64 bytes.
    struct Matching;

    impl pfi_script::Host for Matching {
        fn call(
            &mut self,
            _interp: &mut pfi_script::Interp,
            cmd: &str,
            _args: &[String],
        ) -> Option<Result<String, pfi_script::ScriptError>> {
            let answer = match cmd {
                "msg_type" => "T",
                "msg_dst" => "2",
                "msg_len" => "64",
                "msg_byte" => "7",
                _ => "",
            };
            Some(Ok(answer.to_string()))
        }
    }

    /// `max_steps` is the interpreter's fuel for a clause that does
    /// everything: at that budget its first evaluation — every guard
    /// holding, every window here open on the first message — finishes,
    /// one step below it runs out.
    #[test]
    fn max_steps_is_the_fuel_of_a_clause_run_in_full() {
        let open_on_first = [
            Window::All,
            Window::Nth(1),
            Window::After(0),
            Window::First(1),
        ];
        for window in open_on_first {
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
                    let script =
                        Script::parse(&FilterProgram::new().clause(clause.clone()).emit()).unwrap();
                    let steps = clause.max_steps();
                    let mut interp = pfi_script::Interp::new();
                    interp.set_step_budget(steps);
                    let full = interp.eval_parsed(&mut Matching, &script);
                    assert!(full.is_ok(), "{clause:?} at {steps}: {full:?}");
                    let mut interp = pfi_script::Interp::new();
                    interp.set_step_budget(steps - 1);
                    let short = interp.eval_parsed(&mut Matching, &script).unwrap_err();
                    assert!(short.is_budget_exhausted(), "{clause:?} at {}", steps - 1);
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
