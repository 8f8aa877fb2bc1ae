//! The analyzer: command resolution, variable dataflow, dead code &
//! constant conditions, and the determinism lint, as one recursive walk
//! over the `pfi-script` AST.
//!
//! Pass ordering (per scope):
//!
//! 1. **Proc collection** — a full recursive sweep records every
//!    statically-named `proc` (its arity signature) so calls that appear
//!    *before* the definition still resolve.
//! 2. **Scope collection** — a sweep over the scope's reachable bodies
//!    records every name assigned anywhere (any branch), names guarded by
//!    `info exists`, and whether any dynamic construct (computed
//!    `set` target, dynamic `eval`, computed command word) could define
//!    arbitrary names — in which case variable findings are suppressed
//!    entirely rather than risk false positives.
//! 3. **Check walk** — an ordered walk tracking definitely-assigned names
//!    along each path. Reads resolve to three tiers: defined (silent),
//!    assigned-somewhere-but-not-definitely-here (`maybe-undef-var`,
//!    note), never assigned anywhere (`undef-var`, warning).
//!
//! Command words that are not statically known (computed names) are
//! skipped, never flagged: a dynamic dispatch the analysis cannot see
//! must not produce an `error`-severity finding.

use std::collections::{HashMap, HashSet};

use pfi_core::CommandTable;
use pfi_script::{analyze_expr, list_parse, lookup_builtin, Part, Script, Span, Word};

use crate::diag::{Category, Diagnostic, Severity};

/// The static analyzer. Build one per command environment and call
/// [`lint`](Linter::lint) per script.
///
/// # Examples
///
/// ```
/// use pfi_lint::{Category, Linter};
///
/// let diags = Linter::filter().lint("xDorp cur_msg");
/// assert_eq!(diags[0].category, Category::UnknownCommand);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Linter {
    /// Host commands available to the script (None = plain Tcl subset).
    host: Option<CommandTable>,
}

impl Linter {
    /// Lints against the full filter-script environment: interpreter
    /// builtins plus the PFI layer's host commands.
    pub fn filter() -> Self {
        Linter {
            host: Some(CommandTable),
        }
    }

    /// Lints against the interpreter builtins only (plain scripting, no
    /// host).
    pub fn plain() -> Self {
        Linter { host: None }
    }

    /// Runs all passes over `src`, returning findings sorted by source
    /// position. A top-level parse failure yields a single
    /// `parse-error` diagnostic.
    pub fn lint(&self, src: &str) -> Vec<Diagnostic> {
        let script = match Script::parse(src) {
            Ok(s) => s,
            Err(e) => {
                return vec![Diagnostic::new(
                    Severity::Error,
                    Category::ParseError,
                    e.span(),
                    e.message,
                )]
            }
        };
        let mut a = Analysis {
            linter: self,
            procs: HashMap::new(),
            proc_bodies: Vec::new(),
            recording_procs: true,
            called_procs: HashSet::new(),
            reads: HashSet::new(),
            dynamic_dispatch: false,
            diags: Vec::new(),
        };
        let mut scope = Scope::default();
        a.collect(&script, &mut scope);
        a.recording_procs = false;
        let mut flow = Flow::new(false);
        a.check(&script, &scope, &mut flow);

        // Each proc body is its own scope, seeded with its parameters.
        let bodies = std::mem::take(&mut a.proc_bodies);
        for body in &bodies {
            let mut pscope = Scope::default();
            for p in &body.params {
                pscope.guarded.insert(p.clone());
            }
            a.collect(&body.script, &mut pscope);
            let mut pflow = Flow::new(false);
            a.reads.clear();
            a.check(&body.script, &pscope, &mut pflow);
            if !pscope.wildcard {
                for p in &body.required {
                    if !a.reads.contains(p) {
                        a.diag(
                            Severity::Warning,
                            Category::UnusedParam,
                            body.span,
                            format!("proc \"{}\" parameter \"{p}\" is never read", body.name),
                        );
                    }
                }
            }
        }
        // Every call site has now been walked; procs nobody names are
        // dead — unless dynamic dispatch could reach them invisibly.
        if !a.dynamic_dispatch {
            for body in &bodies {
                if !a.called_procs.contains(&body.name) {
                    a.diag(
                        Severity::Warning,
                        Category::DeadProc,
                        body.span,
                        format!("proc \"{}\" is defined but never called", body.name),
                    );
                }
            }
        }

        a.diags.sort_by_key(|d| {
            (
                d.span.line,
                d.span.col,
                std::cmp::Reverse(d.severity),
                d.category,
            )
        });
        a.diags
    }
}

/// Arity signature of a script-local proc.
#[derive(Debug, Clone)]
struct ProcSig {
    min: usize,
    max: Option<usize>,
}

/// A proc body queued for its own scoped analysis.
struct ProcBody {
    name: String,
    /// Position of the proc's name word, for dead-proc/unused-param spans.
    span: Span,
    script: Script,
    params: Vec<String>,
    /// Parameters without a default value — the only ones the
    /// unused-param lint flags (a defaulted parameter may exist purely
    /// for call-site compatibility).
    required: Vec<String>,
}

/// What scope collection learned about one variable scope.
#[derive(Debug, Default)]
struct Scope {
    /// Names assigned anywhere in the scope, on any path.
    assigned_any: HashSet<String>,
    /// Names guarded by `info exists` or seeded as proc parameters —
    /// never flagged.
    guarded: HashSet<String>,
    /// A dynamic construct could define arbitrary names; suppress all
    /// variable findings in this scope.
    wildcard: bool,
}

/// Path state for the ordered check walk.
#[derive(Debug, Clone)]
struct Flow {
    /// Names definitely assigned on every path to the current command.
    definite: HashSet<String>,
    /// Inside a `catch` body: would-be errors are downgraded to notes
    /// (the script author asked for runtime errors to be swallowed).
    in_catch: bool,
    /// False after `return`/`error`.
    reachable: bool,
    /// Dead code is reported once per sequence, not per statement.
    dead_reported: bool,
}

impl Flow {
    fn new(in_catch: bool) -> Self {
        Flow {
            definite: HashSet::new(),
            in_catch,
            reachable: true,
            dead_reported: false,
        }
    }
}

/// The name of a word when it is statically known, plus the origin span
/// for parsing its content as a nested script/expression.
pub(crate) fn static_text(w: &Word) -> Option<(String, Span)> {
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

struct Analysis<'a> {
    linter: &'a Linter,
    procs: HashMap<String, ProcSig>,
    proc_bodies: Vec<ProcBody>,
    /// True during the first collection sweep; proc bodies are queued
    /// exactly once.
    recording_procs: bool,
    /// Proc names with at least one statically-visible call site, from the
    /// main scope or any proc body.
    called_procs: HashSet<String>,
    /// `$var` reads observed by the check walk; snapshotted per proc body
    /// for the unused-param lint.
    reads: HashSet<String>,
    /// A computed command word or dynamic `eval` exists somewhere: any
    /// proc could be called through it, so dead-proc findings are
    /// suppressed for the whole script.
    dynamic_dispatch: bool,
    diags: Vec<Diagnostic>,
}

impl Analysis<'_> {
    fn diag(&mut self, sev: Severity, cat: Category, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::new(sev, cat, span, msg));
    }

    /// Parses braced-body content in the enclosing script's coordinates;
    /// on failure reports and returns None.
    fn parse_body(&mut self, text: &str, origin: Span, in_catch: bool) -> Option<Script> {
        match Script::parse_at(text, origin) {
            Ok(s) => Some(s),
            Err(e) => {
                let sev = if in_catch {
                    Severity::Note
                } else {
                    Severity::Error
                };
                self.diag(
                    sev,
                    Category::ParseError,
                    e.span(),
                    format!("malformed script body: {}", e.message),
                );
                None
            }
        }
    }

    /// Parses body content during collection without reporting: the check
    /// walk owns parse diagnostics.
    fn parse_silent(&self, text: &str, origin: Span) -> Option<Script> {
        Script::parse_at(text, origin).ok()
    }

    // ---- collection sweep ---------------------------------------------

    /// Records assignments, guards, wildcards, and (on the first sweep)
    /// proc signatures, recursing through every same-scope body.
    fn collect(&mut self, script: &Script, scope: &mut Scope) {
        for cmd in script.commands() {
            let words = cmd.words();
            for w in words {
                if let Word::Parts(parts, _) = w {
                    self.collect_parts(parts, scope);
                }
            }
            let Some((name, _)) = static_text(&words[0]) else {
                // A computed command word could be `set` — anything.
                scope.wildcard = true;
                continue;
            };
            match name.as_str() {
                "set" | "incr" => match words.get(1).and_then(static_text) {
                    Some((target, _)) => {
                        scope.assigned_any.insert(target);
                    }
                    None if words.len() > 1 => scope.wildcard = true,
                    None => {}
                },
                "foreach" => {
                    if let Some((vars, _)) = words.get(1).and_then(static_text) {
                        if let Ok(names) = list_parse(&vars) {
                            for n in names {
                                scope.assigned_any.insert(n);
                            }
                        }
                    }
                    self.collect_body_at(words, 3, scope);
                }
                "for" => {
                    self.collect_body_at(words, 1, scope);
                    self.collect_expr_at(words, 2, scope);
                    self.collect_body_at(words, 3, scope);
                    self.collect_body_at(words, 4, scope);
                }
                "while" => {
                    self.collect_expr_at(words, 1, scope);
                    self.collect_body_at(words, 2, scope);
                }
                "expr" if words.len() == 2 => {
                    self.collect_expr_at(words, 1, scope);
                }
                "catch" => {
                    self.collect_body_at(words, 1, scope);
                    if let Some((var, _)) = words.get(2).and_then(static_text) {
                        scope.assigned_any.insert(var);
                    }
                }
                "info" => {
                    if let (Some(("exists", _)), Some((var, _))) = (
                        words
                            .get(1)
                            .and_then(static_text)
                            .as_ref()
                            .map(|(s, p)| (s.as_str(), p)),
                        words.get(2).and_then(static_text),
                    ) {
                        scope.guarded.insert(var);
                    }
                }
                "if" => self.collect_if(words, scope),
                "switch" => self.collect_switch(words, scope),
                "eval" => match self.static_eval_body(words) {
                    Some((text, origin)) => {
                        if let Some(s) = self.parse_silent(&text, origin) {
                            self.collect(&s, scope);
                        }
                    }
                    None => scope.wildcard = true,
                },
                "xAfter" => self.collect_body_at(words, 2, scope),
                "proc" => self.collect_proc(words, scope),
                _ => {}
            }
        }
    }

    fn collect_parts(&mut self, parts: &[Part], scope: &mut Scope) {
        for p in parts {
            if let Part::Cmd(sub) = p {
                self.collect(sub, scope);
            }
        }
    }

    fn collect_body_at(&mut self, words: &[Word], i: usize, scope: &mut Scope) {
        if let Some((text, origin)) = words.get(i).and_then(static_text) {
            if let Some(s) = self.parse_silent(&text, origin) {
                self.collect(&s, scope);
            }
        }
    }

    /// Collects over the `[command]` scripts embedded in an expression
    /// (guards like `[info exists x]` commonly live there).
    fn collect_expr_at(&mut self, words: &[Word], i: usize, scope: &mut Scope) {
        let Some((text, origin)) = words.get(i).and_then(static_text) else {
            return;
        };
        let Ok(summary) = analyze_expr(&text) else {
            return;
        };
        for cmd_src in &summary.cmd_scripts {
            if let Some(s) = self.parse_silent(cmd_src, origin) {
                self.collect(&s, scope);
            }
        }
    }

    fn collect_if(&mut self, words: &[Word], scope: &mut Scope) {
        let args = &words[1..];
        let mut i = 0;
        loop {
            if let Some((text, origin)) = args.get(i).and_then(static_text) {
                if let Ok(summary) = analyze_expr(&text) {
                    for cmd_src in &summary.cmd_scripts {
                        if let Some(s) = self.parse_silent(cmd_src, origin) {
                            self.collect(&s, scope);
                        }
                    }
                }
            }
            i += 1; // past the condition
            if matches!(args.get(i).and_then(static_text), Some((t, _)) if t == "then") {
                i += 1;
            }
            if i >= args.len() {
                break;
            }
            if let Some((text, origin)) = static_text(&args[i]) {
                if let Some(s) = self.parse_silent(&text, origin) {
                    self.collect(&s, scope);
                }
            }
            i += 1;
            match args.get(i).and_then(static_text) {
                Some((t, _)) if t == "elseif" => i += 1,
                Some((t, _)) if t == "else" => {
                    if let Some((text, origin)) = args.get(i + 1).and_then(static_text) {
                        if let Some(s) = self.parse_silent(&text, origin) {
                            self.collect(&s, scope);
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
    }

    fn collect_switch(&mut self, words: &[Word], scope: &mut Scope) {
        let Some((pairs_src, origin)) = words.last().and_then(static_text) else {
            return;
        };
        let Ok(pairs) = list_parse(&pairs_src) else {
            return;
        };
        for body in pairs.iter().skip(1).step_by(2) {
            if body == "-" {
                continue;
            }
            if let Ok(s) = Script::parse_at(body, origin) {
                self.collect(&s, scope);
            }
        }
    }

    fn collect_proc(&mut self, words: &[Word], _scope: &mut Scope) {
        let (Some((name, name_span)), Some((params_src, _)), Some((body, origin))) = (
            words.get(1).and_then(static_text),
            words.get(2).and_then(static_text),
            words.get(3).and_then(static_text),
        ) else {
            return;
        };
        let Ok(param_specs) = list_parse(&params_src) else {
            return;
        };
        let mut params = Vec::new();
        let mut required = Vec::new();
        let mut min = 0usize;
        let mut max = Some(0usize);
        for (i, spec) in param_specs.iter().enumerate() {
            let parts = list_parse(spec).unwrap_or_default();
            let Some(pname) = parts.first() else { continue };
            if pname == "args" && i == param_specs.len() - 1 {
                params.push("args".to_string());
                max = None;
                break;
            }
            params.push(pname.clone());
            max = max.map(|m| m + 1);
            if parts.len() == 1 {
                min += 1;
                required.push(pname.clone());
            }
        }
        if self.recording_procs {
            self.procs.insert(name.clone(), ProcSig { min, max });
            if let Some(script) = self.parse_body(&body, origin, false) {
                // Recurse so procs defined inside this body are recorded;
                // the throwaway scope keeps its assignments out of ours.
                let mut inner = Scope::default();
                self.collect(&script, &mut inner);
                self.proc_bodies.push(ProcBody {
                    name,
                    span: name_span,
                    script,
                    params,
                    required,
                });
            }
        }
    }

    /// `eval` with purely static arguments evaluates a knowable script.
    fn static_eval_body(&mut self, words: &[Word]) -> Option<(String, Span)> {
        let mut texts = Vec::new();
        let mut origin = None;
        for w in &words[1..] {
            let (t, o) = static_text(w)?;
            origin.get_or_insert(o);
            texts.push(t);
        }
        Some((texts.join(" "), origin?))
    }

    // ---- check walk ---------------------------------------------------

    fn check(&mut self, script: &Script, scope: &Scope, flow: &mut Flow) {
        for cmd in script.commands() {
            if !flow.reachable {
                if !flow.dead_reported {
                    self.diag(
                        Severity::Warning,
                        Category::DeadCode,
                        cmd.span(),
                        "unreachable: no path reaches past the previous command",
                    );
                    flow.dead_reported = true;
                }
                continue;
            }
            let words = cmd.words();
            // Substitution reads happen for every non-braced word before
            // the command runs.
            for w in words {
                if let Word::Parts(parts, span) = w {
                    self.check_parts(parts, *span, scope, flow);
                }
            }
            let Some((name, _)) = static_text(&words[0]) else {
                // Computed command word: never flagged, and it could be
                // calling any proc.
                self.dynamic_dispatch = true;
                continue;
            };
            self.resolve_command(&name, words, cmd.span(), flow);
            match name.as_str() {
                "set" => {
                    if let Some((target, span)) = words.get(1).and_then(static_text) {
                        if words.len() == 2 {
                            // `set x` is a read.
                            self.check_read(&target, span, scope, flow);
                        } else {
                            flow.definite.insert(target);
                        }
                    }
                }
                "incr" => {
                    // An unset target counts from 0, so this is an
                    // assignment, not a read.
                    if let Some((target, _)) = words.get(1).and_then(static_text) {
                        flow.definite.insert(target);
                    }
                }
                "unset" => {
                    for w in &words[1..] {
                        if let Some((n, _)) = static_text(w) {
                            flow.definite.remove(&n);
                        }
                    }
                }
                "expr" if words.len() == 2 => {
                    if let Some((text, origin)) = static_text(&words[1]) {
                        self.check_expr(&text, origin, scope, flow);
                    }
                }
                "if" => self.check_if(words, scope, flow),
                "while" => {
                    if let Some((cond, origin)) = words.get(1).and_then(static_text) {
                        // `while {1} {...}` is a loop a `return` or an error
                        // ends; only a constantly-false condition is inert.
                        if self.check_expr(&cond, origin, scope, flow) == Some(false) {
                            self.diag(
                                Severity::Warning,
                                Category::ConstantCondition,
                                origin,
                                "while condition is constantly false; body never runs",
                            );
                        }
                    }
                    self.check_branch_at(words, 2, scope, flow);
                }
                "for" => {
                    // Init always runs, inline in this flow.
                    if let Some((init, origin)) = words.get(1).and_then(static_text) {
                        if let Some(s) = self.parse_body(&init, origin, flow.in_catch) {
                            self.check(&s, scope, flow);
                        }
                    }
                    if let Some((cond, origin)) = words.get(2).and_then(static_text) {
                        if self.check_expr(&cond, origin, scope, flow) == Some(false) {
                            self.diag(
                                Severity::Warning,
                                Category::ConstantCondition,
                                origin,
                                "for condition is constantly false; body never runs",
                            );
                        }
                    }
                    self.check_branch_at(words, 4, scope, flow);
                    self.check_branch_at(words, 3, scope, flow);
                }
                "foreach" => {
                    let mut seeded = flow.clone();
                    if let Some((vars, _)) = words.get(1).and_then(static_text) {
                        if let Ok(names) = list_parse(&vars) {
                            seeded.definite.extend(names);
                        }
                    }
                    if let Some((body, origin)) = words.get(3).and_then(static_text) {
                        if let Some(s) = self.parse_body(&body, origin, flow.in_catch) {
                            self.check(&s, scope, &mut seeded);
                        }
                    }
                }
                "catch" => {
                    if let Some((body, origin)) = words.get(1).and_then(static_text) {
                        if let Some(s) = self.parse_body(&body, origin, true) {
                            let mut sub = flow.clone();
                            sub.in_catch = true;
                            sub.reachable = true;
                            sub.dead_reported = false;
                            self.check(&s, scope, &mut sub);
                        }
                    }
                    if let Some((var, _)) = words.get(2).and_then(static_text) {
                        flow.definite.insert(var);
                    }
                }
                "switch" => self.check_switch(words, scope, flow),
                "eval" => match self.static_eval_body(words) {
                    Some((text, origin)) => {
                        if let Some(s) = self.parse_body(&text, origin, flow.in_catch) {
                            self.check(&s, scope, flow);
                        }
                    }
                    None => self.dynamic_dispatch = true,
                },
                "xAfter" => {
                    // Deferred body: runs later in the same interpreter.
                    self.check_branch_at(words, 2, scope, flow);
                }
                "return" | "error" => {
                    flow.reachable = false;
                }
                _ => {}
            }
        }
    }

    /// Walks a body whose execution is conditional: path state is cloned,
    /// assignments inside do not become definite outside.
    fn check_branch_at(&mut self, words: &[Word], i: usize, scope: &Scope, flow: &Flow) {
        if let Some((body, origin)) = words.get(i).and_then(static_text) {
            if let Some(s) = self.parse_body(&body, origin, flow.in_catch) {
                let mut sub = flow.clone();
                sub.reachable = true;
                sub.dead_reported = false;
                self.check(&s, scope, &mut sub);
            }
        }
    }

    fn check_if(&mut self, words: &[Word], scope: &Scope, flow: &mut Flow) {
        let args = &words[1..];
        let mut i = 0;
        let mut branch_defs: Vec<HashSet<String>> = Vec::new();
        let mut has_else = false;
        let mut all_static = true;
        loop {
            let cond = args.get(i);
            i += 1;
            let constant = match cond.and_then(static_text) {
                Some((text, origin)) => {
                    let c = self.check_expr(&text, origin, scope, flow);
                    match c {
                        Some(false) => self.diag(
                            Severity::Warning,
                            Category::ConstantCondition,
                            origin,
                            "condition is constantly false; branch never taken",
                        ),
                        Some(true) => self.diag(
                            Severity::Warning,
                            Category::ConstantCondition,
                            origin,
                            "condition is constantly true",
                        ),
                        None => {}
                    }
                    c
                }
                None => None,
            };
            let _ = constant;
            if matches!(args.get(i).and_then(static_text), Some((t, _)) if t == "then") {
                i += 1;
            }
            match args.get(i).and_then(static_text) {
                Some((body, origin)) => {
                    if let Some(s) = self.parse_body(&body, origin, flow.in_catch) {
                        let mut sub = flow.clone();
                        sub.reachable = true;
                        sub.dead_reported = false;
                        self.check(&s, scope, &mut sub);
                        branch_defs.push(sub.definite);
                    } else {
                        all_static = false;
                    }
                }
                None => all_static = false,
            }
            i += 1;
            match args.get(i).and_then(static_text) {
                Some((t, _)) if t == "elseif" => i += 1,
                Some((t, _)) if t == "else" => {
                    has_else = true;
                    match args.get(i + 1).and_then(static_text) {
                        Some((body, origin)) => {
                            if let Some(s) = self.parse_body(&body, origin, flow.in_catch) {
                                let mut sub = flow.clone();
                                sub.reachable = true;
                                sub.dead_reported = false;
                                self.check(&s, scope, &mut sub);
                                branch_defs.push(sub.definite);
                            } else {
                                all_static = false;
                            }
                        }
                        None => all_static = false,
                    }
                    break;
                }
                _ => break,
            }
        }
        // With an exhaustive, fully-analyzed branch set, names assigned in
        // every branch are definite afterwards.
        if has_else && all_static && !branch_defs.is_empty() {
            let mut common = branch_defs[0].clone();
            for defs in &branch_defs[1..] {
                common.retain(|n| defs.contains(n));
            }
            flow.definite.extend(common);
        }
    }

    fn check_switch(&mut self, words: &[Word], scope: &Scope, flow: &mut Flow) {
        let Some((pairs_src, origin)) = words.last().and_then(static_text) else {
            return;
        };
        let Ok(pairs) = list_parse(&pairs_src) else {
            return;
        };
        for body in pairs.iter().skip(1).step_by(2) {
            if body == "-" {
                continue;
            }
            // Element offsets inside the list are unknown; anchor at the
            // pairs word.
            if let Ok(s) = Script::parse_at(body, origin) {
                let mut sub = flow.clone();
                sub.reachable = true;
                sub.dead_reported = false;
                self.check(&s, scope, &mut sub);
            }
        }
    }

    fn check_parts(&mut self, parts: &[Part], span: Span, scope: &Scope, flow: &mut Flow) {
        for p in parts {
            match p {
                Part::Lit(_) => {}
                Part::Var(name) => self.check_read(name, span, scope, flow),
                Part::Cmd(sub) => self.check(sub, scope, flow),
            }
        }
    }

    fn check_read(&mut self, name: &str, span: Span, scope: &Scope, flow: &Flow) {
        self.reads.insert(name.to_string());
        if scope.wildcard || flow.definite.contains(name) || scope.guarded.contains(name) {
            return;
        }
        if scope.assigned_any.contains(name) {
            self.diag(
                Severity::Note,
                Category::MaybeUndefVar,
                span,
                format!(
                    "\"{name}\" may be unassigned here: it is only set on some \
                     paths (or later in the script)"
                ),
            );
        } else {
            self.diag(
                Severity::Warning,
                Category::UndefVar,
                span,
                format!("\"{name}\" is read but never assigned in this script"),
            );
        }
    }

    /// Checks an `expr` source: reads, nested `[command]` scripts, and the
    /// constant fold used by the constant-condition lint.
    fn check_expr(
        &mut self,
        text: &str,
        origin: Span,
        scope: &Scope,
        flow: &mut Flow,
    ) -> Option<bool> {
        match analyze_expr(text) {
            Err(e) => {
                let sev = if flow.in_catch {
                    Severity::Note
                } else {
                    Severity::Error
                };
                self.diag(
                    sev,
                    Category::ParseError,
                    origin,
                    format!("malformed expression: {}", e.message),
                );
                None
            }
            Ok(summary) => {
                for var in &summary.vars {
                    self.check_read(var, origin, scope, flow);
                }
                for cmd_src in &summary.cmd_scripts {
                    // The offset inside the expression is unknown; anchor
                    // nested command scripts at the expression itself.
                    if let Ok(s) = Script::parse_at(cmd_src, origin) {
                        self.check(&s, scope, flow);
                    }
                }
                summary.constant
            }
        }
    }

    /// Pass 1: command resolution + arity + determinism for a
    /// statically-known command word.
    fn resolve_command(&mut self, name: &str, words: &[Word], span: Span, flow: &Flow) {
        let argc = words.len() - 1;
        let err_sev = if flow.in_catch {
            Severity::Note
        } else {
            Severity::Error
        };
        if let Some(info) = lookup_builtin(name) {
            if !info.accepts(argc) {
                self.diag(
                    err_sev,
                    Category::BadArity,
                    span,
                    arity_message(name, argc, info.min_args, info.max_args),
                );
            }
            return;
        }
        if let Some(sig) = self.procs.get(name) {
            self.called_procs.insert(name.to_string());
            let (min, max) = (sig.min, sig.max);
            if argc < min || max.is_some_and(|m| argc > m) {
                self.diag(
                    err_sev,
                    Category::BadArity,
                    span,
                    arity_message(name, argc, min, max),
                );
            }
            return;
        }
        if let Some(table) = &self.linter.host {
            if let Some(info) = table.lookup(name) {
                // The bindings skip literal `cur_msg` tokens (the paper's
                // `msg_type cur_msg` spelling).
                let logical = words[1..]
                    .iter()
                    .filter(|w| !matches!(static_text(w), Some((t, _)) if t == "cur_msg"))
                    .count();
                if table.accepts(name, logical) == Some(false) {
                    self.diag(
                        err_sev,
                        Category::BadArity,
                        span,
                        arity_message(name, logical, info.min_args, info.max_args),
                    );
                }
                if !info.deterministic {
                    self.diag(
                        Severity::Warning,
                        Category::Nondeterministic,
                        span,
                        format!(
                            "\"{name}\" draws from the RNG: replayable under a fixed \
                             seed, but outside the deterministic allowlist"
                        ),
                    );
                }
                return;
            }
        }
        self.diag(
            err_sev,
            Category::UnknownCommand,
            span,
            format!("invalid command name \"{name}\""),
        );
    }
}

fn arity_message(name: &str, got: usize, min: usize, max: Option<usize>) -> String {
    let want = match max {
        Some(max) if max == min => format!("{min}"),
        Some(max) => format!("{min}..{max}"),
        None => format!("at least {min}"),
    };
    format!(
        "wrong # args: \"{name}\" expects {want} argument{}, got {got}",
        if want == "1" { "" } else { "s" }
    )
}
