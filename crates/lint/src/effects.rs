//! Effect summaries: pfi-lint's semantic pass.
//!
//! Where `analysis.rs` asks "can this script run at all", this pass asks
//! "what can it *do* to traffic". An abstract interpretation of the filter
//! script recovers, per effectful command, the guard context it fires
//! under — message type, destination, minimum length, firing window — and
//! the effect it applies (drop / delay / duplicate / corrupt / reorder /
//! inject, plus explicit pass verdicts). Campaign tooling joins these
//! [`ClauseEffect`]s against a protocol's reachability model to prove
//! faults statically inert before a single simulated run.
//!
//! The walk is deliberately an *over*-approximation: any construct it
//! cannot see through (a computed command word, a dynamic `eval`, an
//! unrecognized guard conjunct) widens the summary — an opaque guard
//! means "may match any traffic", never "matches nothing". Consumers may
//! only prove a fault inert from constraints the walk positively
//! recovered. The only narrowing performed is contradiction pruning: a
//! guard requiring `[msg_type]` to equal two different literals can never
//! be true, so its body is unreachable by construction.
//!
//! Interprocedural: calls to script-local `proc`s inline the callee body
//! under the caller's guard context (with a recursion guard), so effects
//! and board traffic inside helpers are attributed to the call site's
//! traffic pattern.

use std::collections::{HashMap, HashSet};

use pfi_script::{
    analyze_expr, analyze_guard, list_parse, CmpOp, GuardAtom, Part, Script, ScriptError, Span,
    Word,
};

/// One verdict/effect a filter command can apply to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// `xDrop` — discard the message.
    Drop,
    /// `xDelay` / `xDelayUs` — deliver late.
    Delay,
    /// `xDuplicate` — forward extra copies.
    Duplicate,
    /// `msg_set_byte` / `msg_set_field` / `msg_set_src` / `msg_set_dst` —
    /// rewrite the wire image in place.
    Corrupt,
    /// `xHold` / `xRelease` — deterministic reordering.
    Reorder,
    /// `xInject` / `xAfter` — introduce traffic that was never sent.
    Inject,
    /// `xPass` — an explicit pass verdict (can overwrite an earlier one).
    Pass,
}

const ALL_EFFECTS: [Effect; 7] = [
    Effect::Drop,
    Effect::Delay,
    Effect::Duplicate,
    Effect::Corrupt,
    Effect::Reorder,
    Effect::Inject,
    Effect::Pass,
];

/// A set of [`Effect`]s — one point of the effect lattice (⊥ = empty =
/// "touches nothing", ⊤ = all effects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet(u8);

impl EffectSet {
    /// The empty set (a pure observer script).
    pub fn empty() -> Self {
        EffectSet(0)
    }

    fn bit(e: Effect) -> u8 {
        1 << (e as u8)
    }

    /// Adds one effect.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= Self::bit(e);
    }

    /// Membership test.
    pub fn contains(&self, e: Effect) -> bool {
        self.0 & Self::bit(e) != 0
    }

    /// True when no effect is present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union (lattice join).
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Drop is absorbing on the same flow: a message that is dropped
    /// renders any delay or corruption of it unobservable downstream.
    /// Duplicate, reorder, and inject survive — copies are forwarded and
    /// held/injected traffic exists regardless of the original's verdict.
    pub fn absorb_under_drop(self) -> EffectSet {
        if self.contains(Effect::Drop) {
            let mut out = self;
            out.0 &= !(Self::bit(Effect::Delay) | Self::bit(Effect::Corrupt));
            out
        } else {
            self
        }
    }

    /// Iterates the present effects in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = Effect> + '_ {
        ALL_EFFECTS.into_iter().filter(|e| self.contains(*e))
    }

    /// True when the two sets share no effect — the first half of the
    /// "effect-disjoint faults commute" test.
    pub fn disjoint(&self, other: &EffectSet) -> bool {
        self.0 & other.0 == 0
    }
}

/// The firing window recovered from a clause's counter guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowBound {
    /// Fires on every matching message.
    All,
    /// Fires only on the `n`th matching message.
    Nth(i64),
    /// Fires on every matching message after the first `n`.
    After(i64),
    /// Fires on the first `n` matching messages.
    First(i64),
    /// A counter guard the walk could not normalize.
    Opaque,
}

/// One effectful command and the guard context it fires under.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseEffect {
    /// `[msg_type] == "T"` constraint, when recovered (`None` = any type).
    pub msg_type: Option<String>,
    /// `[msg_dst] == d` constraint, when recovered.
    pub dst: Option<i64>,
    /// Minimum wire length implied by `[msg_len] > L` / `>= L` guards.
    pub min_len: Option<i64>,
    /// Firing window from the clause's counter guard.
    pub window: WindowBound,
    /// For `msg_set_byte` with a static offset: the byte offset touched.
    pub corrupt_offset: Option<i64>,
    /// What the command does to the matching message.
    pub effects: EffectSet,
    /// True when some guard conjunct on the path was not recovered — the
    /// constraints above are then necessary but not complete, and the
    /// clause may fire on traffic they do not describe. Consumers must
    /// not prove inertness from the *absence* of a constraint here.
    pub opaque_guard: bool,
    /// Source position of the effectful command.
    pub span: Span,
}

/// The full effect summary of one filter script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScriptEffects {
    /// Every effectful command with its recovered guard context.
    pub clauses: Vec<ClauseEffect>,
    /// Keys read from the shared boards (`global_get` / `peer_get`);
    /// `?` for a computed key.
    pub board_reads: Vec<String>,
    /// Keys written to the shared boards (`global_set` / `peer_set`).
    pub board_writes: Vec<String>,
    /// Union of every clause's effects — the script's verdict footprint.
    pub verdicts: EffectSet,
    /// A dynamic construct (computed command word, dynamic `eval`) could
    /// hide arbitrary effects; the summary is then a lower bound only.
    pub opaque: bool,
}

impl ScriptEffects {
    /// True when the analysis proved the script can never affect traffic:
    /// no effectful clause and no opaque escape hatch. (Board writes alone
    /// do not count — another site's script may read them.)
    pub fn provably_inert(&self) -> bool {
        !self.opaque && self.clauses.is_empty() && self.board_writes.is_empty()
    }
}

/// Computes the [`ScriptEffects`] summary for one filter script source.
///
/// # Errors
///
/// Returns the parse error if `src` is not a valid script. (Run the
/// [`Linter`](crate::Linter) first for diagnosable findings; this pass
/// assumes a well-formed input.)
pub fn analyze_effects(src: &str) -> Result<ScriptEffects, ScriptError> {
    let script = Script::parse(src)?;
    let mut walker = Walker {
        procs: HashMap::new(),
        out: ScriptEffects::default(),
        in_flight: HashSet::new(),
    };
    walker.collect_procs(&script);
    let ctx = Ctx::default();
    walker.walk(&script, &ctx);
    Ok(walker.out)
}

/// The abstract guard context a command executes under.
#[derive(Debug, Clone, Default)]
struct Ctx {
    msg_type: Option<String>,
    dst: Option<i64>,
    min_len: Option<i64>,
    window: Option<WindowBound>,
    opaque_guard: bool,
    /// Counter variables `incr`ed on the current path (window guards test
    /// them).
    counters: HashSet<String>,
}

struct Walker {
    procs: HashMap<String, Script>,
    out: ScriptEffects,
    /// Procs currently being inlined, to cut recursion.
    in_flight: HashSet<String>,
}

fn static_text(w: &Word) -> Option<(String, Span)> {
    match w {
        Word::Braced(s, span) => Some((s.to_string(), Span::at(span.line, span.col + 1))),
        Word::Parts(parts, span) => {
            let mut out = String::new();
            for p in parts {
                match p {
                    Part::Lit(s) => out.push_str(s),
                    _ => return None,
                }
            }
            Some((out, *span))
        }
    }
}

impl Walker {
    fn collect_procs(&mut self, script: &Script) {
        for cmd in script.commands() {
            let words = cmd.words();
            let Some((name, _)) = static_text(&words[0]) else {
                continue;
            };
            if name == "proc" {
                if let (Some((pname, _)), Some((body, origin))) = (
                    words.get(1).and_then(static_text),
                    words.get(3).and_then(static_text),
                ) {
                    if let Ok(s) = Script::parse_at(&body, origin) {
                        self.collect_procs(&s);
                        self.procs.insert(pname, s);
                    }
                }
            } else {
                // Procs can be defined inside any statically-known body;
                // sweep the common containers.
                for w in &words[1..] {
                    if let Some((text, origin)) = static_text(w) {
                        if text.contains("proc ") {
                            if let Ok(s) = Script::parse_at(&text, origin) {
                                self.collect_procs(&s);
                            }
                        }
                    }
                }
            }
        }
    }

    fn record(&mut self, e: Effect, ctx: &Ctx, span: Span, corrupt_offset: Option<i64>) {
        let mut effects = EffectSet::empty();
        effects.insert(e);
        self.out.verdicts.insert(e);
        self.out.clauses.push(ClauseEffect {
            msg_type: ctx.msg_type.clone(),
            dst: ctx.dst,
            min_len: ctx.min_len,
            window: ctx.window.unwrap_or(WindowBound::All),
            corrupt_offset,
            effects,
            opaque_guard: ctx.opaque_guard,
            span,
        });
    }

    fn walk(&mut self, script: &Script, ctx: &Ctx) {
        let mut ctx = ctx.clone();
        for cmd in script.commands() {
            let words = cmd.words();
            // Command substitutions in argument words run first and can
            // themselves carry effects (`set x [global_get k]`).
            for w in words {
                if let Word::Parts(parts, _) = w {
                    self.walk_parts(parts, &ctx);
                }
            }
            let Some((name, _)) = static_text(&words[0]) else {
                self.out.opaque = true;
                continue;
            };
            let span = cmd.span();
            match name.as_str() {
                "xDrop" => self.record(Effect::Drop, &ctx, span, None),
                "xDelay" | "xDelayUs" => self.record(Effect::Delay, &ctx, span, None),
                "xDuplicate" => self.record(Effect::Duplicate, &ctx, span, None),
                "xHold" | "xRelease" => self.record(Effect::Reorder, &ctx, span, None),
                "xInject" => self.record(Effect::Inject, &ctx, span, None),
                "xPass" => self.record(Effect::Pass, &ctx, span, None),
                "msg_set_byte" => {
                    let offset = words
                        .get(1)
                        .and_then(static_text)
                        .and_then(|(t, _)| t.trim().parse::<i64>().ok());
                    self.record(Effect::Corrupt, &ctx, span, offset);
                }
                "msg_set_field" | "msg_set_src" | "msg_set_dst" => {
                    self.record(Effect::Corrupt, &ctx, span, None);
                }
                "global_get" | "peer_get" => {
                    let key = words
                        .get(1)
                        .and_then(static_text)
                        .map_or_else(|| "?".to_string(), |(t, _)| t);
                    self.out.board_reads.push(key);
                }
                "global_set" | "peer_set" => {
                    let key = words
                        .get(1)
                        .and_then(static_text)
                        .map_or_else(|| "?".to_string(), |(t, _)| t);
                    self.out.board_writes.push(key);
                }
                "incr" => {
                    if let Some((target, _)) = words.get(1).and_then(static_text) {
                        ctx.counters.insert(target);
                    }
                }
                "expr" => {
                    // Braced expressions defer their `[command]`
                    // substitutions past the word-level walk above.
                    if let Some((text, _)) = words.get(1).and_then(static_text) {
                        if let Ok(summary) = analyze_expr(&text) {
                            for cmd_src in &summary.cmd_scripts {
                                if let Ok(s) = Script::parse(cmd_src) {
                                    self.walk(&s, &ctx);
                                }
                            }
                        }
                    }
                }
                "if" => self.walk_if(words, &ctx),
                "while" | "for" | "foreach" => {
                    // Loop bodies may run under any iteration count; walk
                    // them in the enclosing context (over-approximate).
                    for w in &words[1..] {
                        if let Some((text, origin)) = static_text(w) {
                            if let Ok(s) = Script::parse_at(&text, origin) {
                                self.walk(&s, &ctx);
                            }
                        }
                    }
                }
                "catch" => {
                    if let Some((body, origin)) = words.get(1).and_then(static_text) {
                        if let Ok(s) = Script::parse_at(&body, origin) {
                            self.walk(&s, &ctx);
                        }
                    }
                }
                "switch" => {
                    // The arms narrow on a value we do not track; walk each
                    // body with the guard marked incomplete.
                    let mut arm_ctx = ctx.clone();
                    arm_ctx.opaque_guard = true;
                    if let Some((pairs_src, origin)) = words.last().and_then(static_text) {
                        if let Ok(pairs) = list_parse(&pairs_src) {
                            for body in pairs.iter().skip(1).step_by(2) {
                                if body == "-" {
                                    continue;
                                }
                                if let Ok(s) = Script::parse_at(body, origin) {
                                    self.walk(&s, &arm_ctx);
                                }
                            }
                        }
                    }
                }
                "xAfter" => {
                    // Deferred execution: the body's effects apply to
                    // whatever message is current *then* — no guard from
                    // this path constrains it.
                    self.record(Effect::Inject, &ctx, span, None);
                    if let Some((body, origin)) = words.get(2).and_then(static_text) {
                        if let Ok(s) = Script::parse_at(&body, origin) {
                            let deferred = Ctx {
                                opaque_guard: true,
                                ..Ctx::default()
                            };
                            self.walk(&s, &deferred);
                        }
                    }
                }
                "eval" => {
                    let mut texts = Vec::new();
                    let mut origin = None;
                    let mut all_static = true;
                    for w in &words[1..] {
                        match static_text(w) {
                            Some((t, o)) => {
                                origin.get_or_insert(o);
                                texts.push(t);
                            }
                            None => all_static = false,
                        }
                    }
                    match (all_static, origin) {
                        (true, Some(o)) => {
                            if let Ok(s) = Script::parse_at(&texts.join(" "), o) {
                                self.walk(&s, &ctx);
                            }
                        }
                        _ => self.out.opaque = true,
                    }
                }
                "proc" => {} // bodies analyzed at call sites
                other => {
                    if self.procs.contains_key(other) && !self.in_flight.contains(other) {
                        self.in_flight.insert(other.to_string());
                        let body = self.procs[other].clone();
                        // Callee guards over its parameters are opaque to
                        // the caller's context; its effects inherit ours.
                        self.walk(&body, &ctx);
                        self.in_flight.remove(other);
                    }
                }
            }
        }
    }

    fn walk_parts(&mut self, parts: &[Part], ctx: &Ctx) {
        for p in parts {
            match p {
                Part::Cmd(sub) => self.walk(sub, ctx),
                Part::ArrVar(_, idx) => self.walk_parts(idx, ctx),
                _ => {}
            }
        }
    }

    /// Refines `ctx` through one recognized guard conjunct. Returns
    /// `false` when the conjunct contradicts an existing constraint (the
    /// guarded body is then unreachable).
    fn refine(ctx: &mut Ctx, atom: &GuardAtom) -> bool {
        match atom {
            GuardAtom::CmdEqStr {
                cmd,
                value,
                negated: false,
            } if cmd.trim() == "msg_type" => match &ctx.msg_type {
                Some(t) if t != value => return false,
                _ => ctx.msg_type = Some(value.clone()),
            },
            GuardAtom::CmdCmpInt {
                cmd,
                op: CmpOp::Eq,
                value,
            } if cmd.trim() == "msg_dst" => match ctx.dst {
                Some(d) if d != *value => return false,
                _ => ctx.dst = Some(*value),
            },
            GuardAtom::CmdCmpInt { cmd, op, value } if cmd.trim() == "msg_len" => {
                let floor = match op {
                    CmpOp::Gt => Some(*value + 1),
                    CmpOp::Ge => Some(*value),
                    _ => None,
                };
                match floor {
                    Some(f) => ctx.min_len = Some(ctx.min_len.map_or(f, |m| m.max(f))),
                    None => ctx.opaque_guard = true,
                }
            }
            GuardAtom::VarCmpInt { var, op, value } if ctx.counters.contains(var) => {
                let window = match op {
                    CmpOp::Eq => WindowBound::Nth(*value),
                    CmpOp::Gt => WindowBound::After(*value),
                    CmpOp::Ge => WindowBound::After(*value - 1),
                    CmpOp::Le => WindowBound::First(*value),
                    CmpOp::Lt => WindowBound::First(*value - 1),
                    CmpOp::Ne => WindowBound::Opaque,
                };
                ctx.window = Some(match ctx.window {
                    None => window,
                    Some(_) => WindowBound::Opaque,
                });
            }
            _ => ctx.opaque_guard = true,
        }
        true
    }

    fn walk_if(&mut self, words: &[Word], ctx: &Ctx) {
        let args = &words[1..];
        let mut i = 0;
        loop {
            let cond = args.get(i).and_then(static_text);
            i += 1;
            if matches!(args.get(i).and_then(static_text), Some((t, _)) if t == "then") {
                i += 1;
            }
            let mut branch_ctx = ctx.clone();
            let mut reachable = true;
            match cond {
                Some((text, _)) => match analyze_guard(&text) {
                    Ok(atoms) => {
                        for atom in &atoms {
                            if !Self::refine(&mut branch_ctx, atom) {
                                reachable = false;
                            }
                        }
                        // `[command]` substitutions inside the guard run
                        // regardless of its truth value.
                        if let Ok(summary) = analyze_expr(&text) {
                            for cmd_src in &summary.cmd_scripts {
                                if let Ok(s) = Script::parse(cmd_src) {
                                    self.walk(&s, ctx);
                                }
                            }
                        }
                    }
                    Err(_) => branch_ctx.opaque_guard = true,
                },
                None => branch_ctx.opaque_guard = true,
            }
            if reachable {
                if let Some((body, origin)) = args.get(i).and_then(static_text) {
                    if let Ok(s) = Script::parse_at(&body, origin) {
                        self.walk(&s, &branch_ctx);
                    }
                }
            }
            i += 1;
            match args.get(i).and_then(static_text) {
                Some((t, _)) if t == "elseif" => i += 1,
                Some((t, _)) if t == "else" => {
                    // The else branch fires on the guard's complement —
                    // every constraint from this `if` is void there, and
                    // the complement itself is not representable, so mark
                    // the guard incomplete.
                    if let Some((body, origin)) = args.get(i + 1).and_then(static_text) {
                        if let Ok(s) = Script::parse_at(&body, origin) {
                            let mut else_ctx = ctx.clone();
                            else_ctx.opaque_guard = true;
                            self.walk(&s, &else_ctx);
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowered_drop_nth_recovers_type_window_and_effect() {
        // The exact shape pfi_core::lower emits for DropNth{COMMIT, 3} @ dst 2.
        let src = "if {[msg_type] == \"COMMIT\" && [msg_dst] == 2} {\n    \
                   incr c0\n    if {$c0 == 3} { xDrop cur_msg }\n}\n";
        let fx = analyze_effects(src).unwrap();
        assert_eq!(fx.clauses.len(), 1, "{fx:?}");
        let c = &fx.clauses[0];
        assert_eq!(c.msg_type.as_deref(), Some("COMMIT"));
        assert_eq!(c.dst, Some(2));
        assert_eq!(c.window, WindowBound::Nth(3));
        assert!(c.effects.contains(Effect::Drop));
        assert!(!c.opaque_guard);
        assert!(!fx.opaque);
    }

    #[test]
    fn lowered_corrupt_recovers_min_len_and_offset() {
        let src = "if {[msg_type] == \"DATA\"} {\n    if {[msg_len] > 9} \
                   { msg_set_byte 9 [expr {([msg_byte 9] ^ 64) & 0xFF}] }\n}\n";
        let fx = analyze_effects(src).unwrap();
        assert_eq!(fx.clauses.len(), 1, "{fx:?}");
        let c = &fx.clauses[0];
        assert_eq!(c.msg_type.as_deref(), Some("DATA"));
        assert_eq!(c.min_len, Some(10));
        assert_eq!(c.corrupt_offset, Some(9));
        assert!(c.effects.contains(Effect::Corrupt));
        assert!(!c.opaque_guard);
    }

    #[test]
    fn unguarded_effect_matches_all_traffic() {
        let fx = analyze_effects("xDrop\n").unwrap();
        assert_eq!(fx.clauses.len(), 1);
        assert_eq!(fx.clauses[0].msg_type, None);
        assert_eq!(fx.clauses[0].window, WindowBound::All);
    }

    #[test]
    fn contradictory_type_guards_are_unreachable() {
        let src = "if {[msg_type] == \"ACK\"} {\n  if {[msg_type] == \"DATA\"} \
                   { xDrop }\n}\n";
        let fx = analyze_effects(src).unwrap();
        assert!(fx.clauses.is_empty(), "{fx:?}");
        assert!(fx.provably_inert());
    }

    #[test]
    fn opaque_guards_widen_instead_of_narrowing() {
        let src = "if {[msg_len] % 2 == 0} { xDelay 100 }\n";
        let fx = analyze_effects(src).unwrap();
        assert_eq!(fx.clauses.len(), 1);
        assert!(fx.clauses[0].opaque_guard);
        assert_eq!(fx.clauses[0].msg_type, None);
    }

    #[test]
    fn else_branches_lose_the_guard() {
        let src = "if {[msg_type] == \"ACK\"} { xPass } else { xDrop }\n";
        let fx = analyze_effects(src).unwrap();
        assert_eq!(fx.clauses.len(), 2);
        let drop = fx
            .clauses
            .iter()
            .find(|c| c.effects.contains(Effect::Drop))
            .unwrap();
        assert!(drop.opaque_guard);
        assert_eq!(drop.msg_type, None);
    }

    #[test]
    fn proc_effects_inherit_the_call_site_guard() {
        let src = "proc nuke {} { xDrop cur_msg }\n\
                   if {[msg_type] == \"FIN\"} { nuke }\n";
        let fx = analyze_effects(src).unwrap();
        assert_eq!(fx.clauses.len(), 1, "{fx:?}");
        assert_eq!(fx.clauses[0].msg_type.as_deref(), Some("FIN"));
        assert!(fx.clauses[0].effects.contains(Effect::Drop));
    }

    #[test]
    fn recursive_procs_terminate() {
        let src = "proc loop {} { loop }\nloop\n";
        let fx = analyze_effects(src).unwrap();
        assert!(fx.clauses.is_empty());
    }

    #[test]
    fn board_traffic_is_tracked() {
        let src = "global_set drops [expr {[global_get drops] + 1}]\n\
                   peer_set 1 seen\n";
        let fx = analyze_effects(src).unwrap();
        assert_eq!(fx.board_reads, vec!["drops"]);
        assert_eq!(fx.board_writes, vec!["drops", "1"]);
        assert!(!fx.provably_inert(), "board writes are observable");
    }

    #[test]
    fn dynamic_dispatch_is_opaque() {
        let src = "set op xDrop\n$op cur_msg\n";
        let fx = analyze_effects(src).unwrap();
        assert!(fx.opaque);
        assert!(!fx.provably_inert());
    }

    #[test]
    fn pure_observer_script_is_provably_inert() {
        let src = "set t [msg_type]\nmsg_log \"saw $t\"\n";
        let fx = analyze_effects(src).unwrap();
        assert!(fx.provably_inert(), "{fx:?}");
    }

    #[test]
    fn drop_absorbs_delay_and_corrupt_but_not_duplicate() {
        let mut s = EffectSet::empty();
        s.insert(Effect::Drop);
        s.insert(Effect::Delay);
        s.insert(Effect::Corrupt);
        s.insert(Effect::Duplicate);
        let a = s.absorb_under_drop();
        assert!(a.contains(Effect::Drop));
        assert!(!a.contains(Effect::Delay));
        assert!(!a.contains(Effect::Corrupt));
        assert!(a.contains(Effect::Duplicate));
        // No drop: nothing absorbed.
        let mut s = EffectSet::empty();
        s.insert(Effect::Delay);
        assert_eq!(s.absorb_under_drop(), s);
    }

    #[test]
    fn window_bounds_from_counter_comparisons() {
        for (guard, want) in [
            ("$c0 == 2", WindowBound::Nth(2)),
            ("$c0 > 4", WindowBound::After(4)),
            ("$c0 >= 5", WindowBound::After(4)),
            ("$c0 <= 3", WindowBound::First(3)),
            ("$c0 < 4", WindowBound::First(3)),
            ("$c0 != 1", WindowBound::Opaque),
        ] {
            let src = format!("incr c0\nif {{{guard}}} {{ xDrop }}\n");
            let fx = analyze_effects(&src).unwrap();
            assert_eq!(fx.clauses[0].window, want, "guard {guard}");
        }
    }

    #[test]
    fn xafter_injects_and_defers() {
        let src = "if {[msg_type] == \"SYN\"} { xAfter 10 { xDrop } }\n";
        let fx = analyze_effects(src).unwrap();
        assert!(fx.verdicts.contains(Effect::Inject));
        assert!(fx.verdicts.contains(Effect::Drop));
        // The deferred xDrop is unguarded by the SYN test.
        let drop = fx
            .clauses
            .iter()
            .find(|c| c.effects.contains(Effect::Drop))
            .unwrap();
        assert!(drop.opaque_guard);
    }

    #[test]
    fn effect_sets_disjointness() {
        let mut a = EffectSet::empty();
        a.insert(Effect::Drop);
        let mut b = EffectSet::empty();
        b.insert(Effect::Delay);
        assert!(a.disjoint(&b));
        b.insert(Effect::Drop);
        assert!(!a.disjoint(&b));
        assert_eq!(a.union(b), b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![Effect::Drop]);
    }
}
