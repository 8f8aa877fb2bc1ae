//! The interpreter: variables, procs, and command dispatch.
//!
//! "In Tcl, an interpreter is simply an object which contains some state
//! about variables and procedures which have been defined" — state persists
//! across evaluations, which is how the paper's filter scripts keep running
//! counters between messages.
//!
//! What is evaluated is the compiled form [`Script::parse`] returns: a
//! command that names a builtin carries it, and its braced bodies and
//! expressions are bound in place ([`crate::Braced`]). What lives here is
//! what belongs to one interpreter and must never leak into a shared
//! script: variables (typed [`Value`]s in ordered maps — no hashing on the
//! per-message path), procs, the step budget, and the caches that
//! compile the sources only run time knows (`eval $x`, computed bodies).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

use crate::builtins::lookup_builtin;
use crate::cache::{CacheStats, SourceCache};
use crate::error::{EvalResult, Exc, ScriptError};
use crate::expr::{eval_ast, ExprAst, Resolver};
use crate::list::list_format;
use crate::parse::{Bind, Braced, Command, Head, Part, Script, Span, Word};
use crate::value::Value;

/// The variables of one scope.
type Vars = BTreeMap<Box<str>, Value>;

/// Extension point for commands implemented by the embedding application —
/// the Rust analogue of Tcl extensions written in C (the paper's
/// "user-defined procedures" and packet stubs).
pub trait Host {
    /// Attempts to handle command `cmd` with fully substituted `args`.
    ///
    /// Returns `None` if the host does not know the command (the interpreter
    /// then reports "invalid command name"), or `Some(result)` if it does.
    fn call(
        &mut self,
        interp: &mut Interp,
        cmd: &str,
        args: &[String],
    ) -> Option<Result<String, ScriptError>>;
}

/// A host providing no commands; useful for plain scripting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHost;

impl Host for NoHost {
    fn call(
        &mut self,
        _interp: &mut Interp,
        _cmd: &str,
        _args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        None
    }
}

#[derive(Debug)]
pub(crate) struct ProcDef {
    pub(crate) params: Vec<(Box<str>, Option<String>)>,
    /// Bound where the `proc` command was written (or compiled through the
    /// script cache); shared so calls never re-parse.
    pub(crate) body: Arc<Script>,
}

/// One substituted word of a command.
#[derive(Debug)]
pub(crate) enum Arg<'w> {
    /// A braced or literal word, borrowed from the script.
    Lit(&'w str),
    /// The value a substitution produced.
    Val(Value),
}

impl Default for Arg<'_> {
    fn default() -> Self {
        Arg::Lit("")
    }
}

impl Arg<'_> {
    /// The word's text; only a number is formatted.
    pub(crate) fn text(&self) -> Cow<'_, str> {
        match self {
            Arg::Lit(s) => Cow::Borrowed(s),
            Arg::Val(v) => v.text(),
        }
    }

    /// Takes the word as a value to store or return.
    pub(crate) fn take(&mut self) -> Value {
        match std::mem::take(self) {
            Arg::Lit(s) => Value::from_text(s),
            Arg::Val(v) => v,
        }
    }

    /// Takes the word as the owned string a host command wants, into a
    /// string that already exists.
    fn take_into(&mut self, out: &mut String) {
        match std::mem::take(self) {
            Arg::Val(Value::Str(s)) => *out = s,
            other => {
                out.clear();
                match other {
                    Arg::Lit(s) => out.push_str(s),
                    Arg::Val(v) => v.write_to(out),
                }
            }
        }
    }
}

/// One command invocation as a builtin sees it.
pub(crate) struct Call<'a, 'w> {
    /// The command being run: `args[i]` is the substitution of
    /// `cmd.words[i + 1]`, whose bound form [`Interp::code_at`] reaches.
    pub(crate) cmd: &'w Command,
    pub(crate) args: &'a mut [Arg<'w>],
    /// Whether anything reads the result. A command nobody listens to
    /// (every command of a body but the last; every command of a `for`
    /// body) skips building one.
    pub(crate) want: bool,
}

impl Call<'_, '_> {
    /// An error at this command's position.
    pub(crate) fn error(&self, message: impl Into<String>) -> Exc {
        Exc::Error(ScriptError::at_span(self.cmd.span, message))
    }

    pub(crate) fn wrong_args(&self, usage: &str) -> Exc {
        self.error(format!("wrong # args: should be \"{usage}\""))
    }
}

/// A compiled body or expression: bound in the script it was written in,
/// or shared with this interpreter's cache.
pub(crate) enum Code<'w, T> {
    Bound(&'w Arc<T>),
    Cached(Arc<T>),
}

impl<T> Code<'_, T> {
    pub(crate) fn into_arc(self) -> Arc<T> {
        match self {
            Code::Bound(code) => Arc::clone(code),
            Code::Cached(code) => code,
        }
    }
}

impl<T> Deref for Code<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Code::Bound(code) => code,
            Code::Cached(code) => code,
        }
    }
}

/// A compiled form with a cache in the interpreter for the sources that
/// cannot be bound where they are written.
pub(crate) trait Cached: Bind {
    fn cache(interp: &mut Interp) -> &mut SourceCache<Self>;
}

impl Cached for Script {
    fn cache(interp: &mut Interp) -> &mut SourceCache<Self> {
        &mut interp.script_cache
    }
}

impl Cached for ExprAst {
    fn cache(interp: &mut Interp) -> &mut SourceCache<Self> {
        &mut interp.expr_cache
    }
}

/// A Tcl-subset interpreter.
///
/// All values are strings (Tcl semantics). Variables, procs, and captured
/// `puts` output persist across [`eval`](Interp::eval) calls.
///
/// # Examples
///
/// ```
/// use pfi_script::{Interp, NoHost};
///
/// let mut interp = Interp::new();
/// let result = interp.eval(&mut NoHost, "
///     set total 0
///     foreach n {1 2 3 4} { incr total $n }
///     expr {$total * 10}
/// ").unwrap();
/// assert_eq!(result, "100");
/// ```
#[derive(Debug, Clone)]
pub struct Interp {
    globals: Vars,
    /// The locals of each proc call in progress, innermost last.
    frames: Vec<Vars>,
    pub(crate) procs: BTreeMap<Box<str>, Arc<ProcDef>>,
    pub(crate) output: String,
    fuel: u64,
    fuel_limit: u64,
    /// Compile-once cache for the scripts only run time knows: `eval`
    /// arguments, computed bodies, embedder-compiled scripts.
    script_cache: SourceCache<Script>,
    /// Compile-once cache for computed `expr` sources.
    expr_cache: SourceCache<ExprAst>,
    /// The argument vector lent to [`Host::call`], kept between calls.
    host_args: Vec<String>,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

/// Default execution budget per top-level `eval` (commands + loop
/// iterations). Generous for filter scripts, small enough to stop runaway
/// loops in a simulation quickly.
const DEFAULT_FUEL: u64 = 5_000_000;

/// Default bound for each compile-once cache. Filter scripts reference a
/// handful of distinct bodies/exprs; 256 leaves ample slack while bounding
/// memory for adversarial script churn.
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Longest string a script may build. One step of the budget must not buy
/// unbounded memory: without a bound, twenty doubling `set s $s$s`s take
/// the process down before the step budget notices anything. Checked on
/// every substituted word and on what `set` stores.
const MAX_STRING: usize = 1 << 20;

/// Capacity above which a host-argument string is not kept for the next
/// call.
const HOST_ARG_KEPT: usize = 256;

/// Refuses a string past [`MAX_STRING`].
pub(crate) fn check_length(v: &Value) -> Result<(), Exc> {
    match v {
        Value::Str(s) if s.len() > MAX_STRING => Err(too_long()),
        _ => Ok(()),
    }
}

fn too_long() -> Exc {
    Exc::Error(ScriptError::new("string too long"))
}

impl Interp {
    /// Creates an interpreter with no variables or procs defined.
    pub fn new() -> Self {
        Interp {
            globals: Vars::default(),
            frames: Vec::new(),
            procs: BTreeMap::new(),
            output: String::new(),
            fuel: DEFAULT_FUEL,
            fuel_limit: DEFAULT_FUEL,
            script_cache: SourceCache::new(DEFAULT_CACHE_CAPACITY),
            expr_cache: SourceCache::new(DEFAULT_CACHE_CAPACITY),
            host_args: Vec::new(),
        }
    }

    /// Caps the number of interpreter steps (commands and loop iterations)
    /// a single top-level `eval` may execute — the runaway-script
    /// watchdog. Exceeding it raises the dedicated
    /// [`ScriptErrorKind::BudgetExhausted`](crate::ScriptErrorKind)
    /// error instead of spinning forever.
    pub fn set_step_budget(&mut self, budget: u64) {
        self.fuel_limit = budget;
    }

    /// The current per-eval step budget.
    pub fn step_budget(&self) -> u64 {
        self.fuel_limit
    }

    /// Whether any proc is defined. One may shadow a host command such as
    /// `msg_type`; builtins always win over procs.
    pub fn has_procs(&self) -> bool {
        !self.procs.is_empty()
    }

    /// Rebounds the script/expr caches. A capacity of 0 disables caching
    /// (every [`eval`](Interp::eval) re-parses its source and everything
    /// in it — the cold path used by determinism cross-checks).
    pub fn set_cache_capacity(&mut self, scripts: usize, exprs: usize) {
        self.script_cache.set_capacity(scripts);
        self.expr_cache.set_capacity(exprs);
    }

    /// Counters for the script (body) cache.
    pub fn script_cache_stats(&self) -> CacheStats {
        self.script_cache.stats()
    }

    /// Counters for the expression cache.
    pub fn expr_cache_stats(&self) -> CacheStats {
        self.expr_cache.stats()
    }

    /// Compiles `src` through the script cache: the first call parses, later
    /// calls with the same source return the shared parse. Embedders compile
    /// timer/control scripts through this so re-armed timers never re-parse.
    pub fn compile(&mut self, src: &str) -> Result<Arc<Script>, ScriptError> {
        self.script_cache.get_or_insert(src, Script::parse)
    }

    /// Parses and evaluates `src`, returning the result of the last command.
    ///
    /// # Errors
    ///
    /// Returns the first parse or runtime error.
    pub fn eval(&mut self, host: &mut dyn Host, src: &str) -> Result<String, ScriptError> {
        let script = self.compile(src)?;
        self.eval_parsed(host, &script)
    }

    /// Evaluates a pre-parsed script (parse once, run per message).
    ///
    /// # Errors
    ///
    /// Returns the first runtime error.
    pub fn eval_parsed(
        &mut self,
        host: &mut dyn Host,
        script: &Script,
    ) -> Result<String, ScriptError> {
        self.fuel = self.fuel_limit;
        match self.eval_script(host, script, true) {
            Ok(v) | Err(Exc::Return(v)) => Ok(v.into_string()),
            Err(e) => Err(e.into_error()),
        }
    }

    /// Reads a variable (respecting the current proc frame).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable is not set.
    pub fn get_var(&self, name: &str) -> Result<String, ScriptError> {
        self.var_ref(name).map(|v| v.text().into_owned())
    }

    /// The scope variables live in: the innermost proc call's locals, or
    /// the globals outside any proc.
    fn scope(&self) -> &Vars {
        self.frames.last().unwrap_or(&self.globals)
    }

    fn scope_mut(&mut self) -> &mut Vars {
        self.frames.last_mut().unwrap_or(&mut self.globals)
    }

    /// Borrowed variable lookup.
    pub(crate) fn var_ref(&self, name: &str) -> Result<&Value, ScriptError> {
        self.scope()
            .get(name)
            .ok_or_else(|| ScriptError::new(format!("can't read \"{name}\": no such variable")))
    }

    /// The slot of a variable that is set, to update in place.
    pub(crate) fn var_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.scope_mut().get_mut(name)
    }

    /// Sets a variable (respecting the current proc frame).
    pub fn set_var(&mut self, name: &str, value: impl Into<String>) {
        self.set_value(name, Value::from_string(value.into()));
    }

    pub(crate) fn set_value(&mut self, name: &str, value: Value) {
        let vars = self.scope_mut();
        match vars.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                vars.insert(name.into(), value);
            }
        }
    }

    /// Removes a variable; no-op if unset.
    pub fn unset_var(&mut self, name: &str) {
        self.scope_mut().remove(name);
    }

    /// Whether a variable is currently set.
    pub fn var_exists(&self, name: &str) -> bool {
        self.scope().contains_key(name)
    }

    /// Output accumulated by `puts` since the last
    /// [`take_output`](Interp::take_output).
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Takes and clears the accumulated `puts` output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// A sorted snapshot of all global variables (name, value). Used by
    /// embedders to compare interpreter state across runs.
    pub fn globals_snapshot(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .globals
            .iter()
            .map(|(k, v)| (k.to_string(), v.text().into_owned()))
            .collect();
        out.sort();
        out
    }

    // ---- internals ----------------------------------------------------

    pub(crate) fn burn(&mut self, span: Span) -> Result<(), Exc> {
        if self.fuel == 0 {
            return Err(Exc::Error(ScriptError::budget_exhausted(span)));
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Compiles a source only run time knows through this interpreter's
    /// cache.
    pub(crate) fn cached<'w, T: Cached>(&mut self, src: &str) -> Result<Code<'w, T>, Exc> {
        T::cache(self)
            .get_or_insert(src, T::compile)
            .map(Code::Cached)
            .map_err(Exc::Error)
    }

    /// The compiled form bound to a braced word, compiling it on first use
    /// (counted as a miss of this interpreter's cache, which it is the
    /// first and last use of for that word).
    pub(crate) fn code_of<'w, T: Cached>(&mut self, word: &'w Braced) -> Result<Code<'w, T>, Exc> {
        let mut compiled = false;
        let bound = word.bound::<T>(&mut compiled);
        if compiled {
            T::cache(self).note_miss();
        }
        match bound.map_err(Exc::Error)? {
            Some(code) => Ok(Code::Bound(code)),
            None => self.cached(word),
        }
    }

    /// Argument `i` of `call` as a body or expression: bound in place when
    /// the word is braced, through the cache when it was computed.
    pub(crate) fn code_at<'w, T: Cached>(
        &mut self,
        call: &Call<'_, 'w>,
        i: usize,
    ) -> Result<Code<'w, T>, Exc> {
        match call.cmd.words.get(i + 1) {
            Some(Word::Braced(word, _)) => self.code_of(word),
            _ => self.cached(&call.args[i].text()),
        }
    }

    pub(crate) fn eval_script(
        &mut self,
        host: &mut dyn Host,
        script: &Script,
        want: bool,
    ) -> EvalResult {
        let mut last = Value::empty();
        let count = script.commands.len();
        for (i, cmd) in script.commands.iter().enumerate() {
            self.burn(cmd.span)?;
            last = self.eval_command(host, cmd, want && i + 1 == count)?;
        }
        Ok(last)
    }

    fn eval_command(&mut self, host: &mut dyn Host, cmd: &Command, want: bool) -> EvalResult {
        // Nearly every command is a few words (`incr c0`, `if cond body`,
        // `for a b c d`): those expand into this frame; longer ones spill
        // to the heap. Two sizes, because clearing and dropping six slots
        // for a two-word command shows: one six-slot array for both reads
        // 3.5 % fewer `interpose` messages per second (EXPERIMENTS.md).
        match cmd.words.len() {
            0..=3 => self.run_command(host, cmd, want, &mut <[Arg<'_>; 3]>::default()),
            4..=6 => self.run_command(host, cmd, want, &mut <[Arg<'_>; 6]>::default()),
            n => {
                let mut spilled = Vec::new();
                spilled.resize_with(n, Arg::default);
                self.run_command(host, cmd, want, &mut spilled)
            }
        }
    }

    /// Substitutes `cmd`'s words into `words` and runs it.
    fn run_command<'w>(
        &mut self,
        host: &mut dyn Host,
        cmd: &'w Command,
        want: bool,
        words: &mut [Arg<'w>],
    ) -> EvalResult {
        // The name of a builtin resolved at parse is never read again.
        let resolved = usize::from(matches!(cmd.head, Head::Builtin(_)));
        for (slot, w) in words.iter_mut().zip(&cmd.words).skip(resolved) {
            *slot = self.expand_word(host, w)?;
        }
        let Some((name, args)) = words[..cmd.words.len()].split_first_mut() else {
            return Ok(Value::empty());
        };
        let mut call = Call { cmd, args, want };
        let builtin = match cmd.head {
            Head::Builtin(builtin) => builtin,
            Head::Named => return self.invoke(host, &name.text(), &mut call),
            Head::Computed => {
                let name = name.text();
                match lookup_builtin(&name) {
                    Some(builtin) => builtin,
                    None => return self.invoke(host, &name, &mut call),
                }
            }
        };
        (builtin.run)(self, host, &mut call)
    }

    /// Substitutes one word. Braced words and single literals — every
    /// control-flow condition and body, every command name — stay borrowed
    /// from the parsed script; a lone `$var` or `[cmd]` hands its value on
    /// as it is; only a word that concatenates builds a string.
    fn expand_word<'w>(&mut self, host: &mut dyn Host, w: &'w Word) -> Result<Arg<'w>, Exc> {
        match w {
            Word::Braced(s, _) => Ok(Arg::Lit(s)),
            Word::Parts(parts, _) => match parts.as_slice() {
                [Part::Lit(s)] => Ok(Arg::Lit(s)),
                [Part::Cmd(script)] => self.eval_script(host, script, true).map(Arg::Val),
                [Part::Var(name)] => Ok(Arg::Val(self.var_ref(name)?.clone())),
                _ => self
                    .expand_parts(host, parts)
                    .map(|s| Arg::Val(Value::Str(s))),
            },
        }
    }

    fn expand_parts(&mut self, host: &mut dyn Host, parts: &[Part]) -> Result<String, Exc> {
        let mut out = String::new();
        for p in parts {
            match p {
                Part::Lit(s) => out.push_str(s),
                Part::Var(name) => self.var_ref(name)?.write_to(&mut out),
                Part::Cmd(script) => self.eval_script(host, script, true)?.write_to(&mut out),
            }
            if out.len() > MAX_STRING {
                return Err(too_long());
            }
        }
        Ok(out)
    }

    pub(crate) fn eval_expr(&mut self, host: &mut dyn Host, ast: &ExprAst) -> Result<Value, Exc> {
        struct R<'a, 'b> {
            interp: &'a mut Interp,
            host: &'b mut dyn Host,
        }
        impl Resolver for R<'_, '_> {
            fn var(&mut self, name: &str) -> Result<&Value, ScriptError> {
                self.interp.var_ref(name)
            }
            fn cmd(&mut self, script: &Script) -> Result<Value, ScriptError> {
                self.interp
                    .eval_script(&mut *self.host, script, true)
                    .map_err(Exc::into_error)
            }
        }
        let mut r = R { interp: self, host };
        eval_ast(ast, &mut r).map_err(Exc::Error)
    }

    /// Truthiness of a compiled condition.
    pub(crate) fn expr_truthy(&mut self, host: &mut dyn Host, ast: &ExprAst) -> Result<bool, Exc> {
        self.eval_expr(host, ast)?.truthy().map_err(Exc::Error)
    }

    /// Runs a command that is not a builtin: a proc of this interpreter,
    /// else the host's.
    fn invoke(&mut self, host: &mut dyn Host, name: &str, call: &mut Call<'_, '_>) -> EvalResult {
        if let Some(def) = self.procs.get(name).cloned() {
            return self.call_proc(host, name, &def, call);
        }
        // `Host::call` wants the arguments owned. The strings they are
        // written into are this interpreter's, kept between calls so that
        // `xDrop cur_msg` on every message allocates nothing, and taken for
        // the call: a host may evaluate a script, which may call the host.
        let mut owned = std::mem::take(&mut self.host_args);
        let count = call.args.len();
        if owned.len() < count {
            owned.resize_with(count, String::new);
        }
        for (arg, slot) in call.args.iter_mut().zip(&mut owned) {
            arg.take_into(slot);
        }
        let result = host.call(self, name, &owned[..count]);
        for slot in &mut owned[..count] {
            if slot.capacity() > HOST_ARG_KEPT {
                *slot = String::new();
            }
        }
        self.host_args = owned;
        match result {
            Some(r) => r.map(Value::from_string).map_err(Exc::Error),
            None => Err(call.error(format!("invalid command name \"{name}\""))),
        }
    }

    fn call_proc(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        def: &ProcDef,
        call: &mut Call<'_, '_>,
    ) -> EvalResult {
        if self.frames.len() >= 64 {
            return Err(call.error("too many nested proc calls"));
        }
        let wrong_args =
            |call: &Call<'_, '_>| call.wrong_args(&format!("{name} {}", proc_usage(def)));
        let mut frame = Vars::default();
        let mut ai = 0usize;
        for (pi, (pname, default)) in def.params.iter().enumerate() {
            if &**pname == "args" && pi == def.params.len() - 1 {
                let rest: Vec<_> = call.args[ai.min(call.args.len())..]
                    .iter()
                    .map(Arg::text)
                    .collect();
                frame.insert("args".into(), Value::Str(list_format(&rest)));
                ai = call.args.len();
                break;
            }
            let value = match (call.args.get_mut(ai), default) {
                (Some(arg), _) => {
                    ai += 1;
                    arg.take()
                }
                (None, Some(default)) => Value::from_text(default),
                (None, None) => return Err(wrong_args(call)),
            };
            frame.insert(pname.clone(), value);
        }
        if ai < call.args.len() {
            return Err(wrong_args(call));
        }
        self.frames.push(frame);
        let result = self.eval_script(host, &def.body, call.want);
        self.frames.pop();
        match result {
            Ok(v) | Err(Exc::Return(v)) => Ok(v),
            Err(e) => Err(e),
        }
    }
}

fn proc_usage(def: &ProcDef) -> String {
    def.params
        .iter()
        .map(|(n, d)| match d {
            Some(_) => format!("?{n}?"),
            None => n.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str) -> Result<String, ScriptError> {
        Interp::new().eval(&mut NoHost, src)
    }

    fn ev_ok(src: &str) -> String {
        ev(src).unwrap()
    }

    #[test]
    fn set_and_get() {
        assert_eq!(ev_ok("set x 5"), "5");
        assert_eq!(ev_ok("set x 5; set x"), "5");
        assert!(ev("set nope").is_err());
    }

    #[test]
    fn variable_substitution() {
        assert_eq!(ev_ok("set x 5; set y $x$x"), "55");
        assert_eq!(ev_ok("set x abc; set y \"<$x>\""), "<abc>");
    }

    #[test]
    fn command_substitution() {
        assert_eq!(ev_ok("set x [expr {2 + 3}]"), "5");
        assert_eq!(ev_ok("set a 1; set b [set a]"), "1");
    }

    #[test]
    fn incr_and_append() {
        assert_eq!(ev_ok("incr c"), "1");
        assert_eq!(ev_ok("set c 5; incr c 10"), "15");
        assert_eq!(ev_ok("incr c -3"), "-3");
        assert_eq!(ev_ok("set s a; set s ${s}bc"), "abc");
        assert!(ev("set c abc; incr c").is_err());
    }

    /// `incr` at the edge of `i64` is `expr`'s error, in a debug build (where
    /// the unchecked add panicked) and a release build (where it wrapped).
    #[test]
    fn incr_overflow_is_the_error_expr_raises() {
        let of_expr = ev("expr {9223372036854775807 + 1}").unwrap_err();
        assert_eq!(of_expr.message, "integer overflow");
        for src in [
            "set x 9223372036854775807; incr x",
            "set x -9223372036854775807; incr x -2",
            "set x 1; incr x 9223372036854775807",
        ] {
            assert_eq!(ev(src).unwrap_err(), of_expr, "{src}");
        }
        // The variable keeps its value, and the last step that fits works.
        assert_eq!(
            ev_ok("set x 9223372036854775806; incr x; catch {incr x}; set x"),
            "9223372036854775807"
        );
        assert_eq!(
            ev_ok("set x -9223372036854775807; incr x -1; incr x 1"),
            "-9223372036854775807"
        );
    }

    #[test]
    fn integers_stay_integers_and_strings_stay_as_written() {
        // A counter is never formatted until something reads it as text...
        assert_eq!(ev_ok("set n 5; incr n; incr n 10; set n"), "16");
        // ...and a string that only looks like a number is never rewritten.
        assert_eq!(ev_ok("set x 007; set x"), "007");
        assert_eq!(ev_ok("set x 007; incr x; set x"), "8");
        assert_eq!(ev_ok("set x 0x10; set r \"$x [expr {$x + 1}]\""), "0x10 17");
        assert_eq!(ev_ok("set x \" 5\"; set r \"[incr x] $x\""), "6 6");
        assert_eq!(ev_ok("set x -0; set x"), "-0");
        assert_eq!(
            ev_ok("set x [expr {1.5 * 2}]; set r \"$x [expr {$x + 1}]\""),
            "3.0 4.0"
        );
        assert_eq!(
            ev_ok("set x 1e3; set r \"$x [expr {$x + 1}]\""),
            "1e3 1001.0"
        );
        // The API sees the same text the script does.
        let mut i = Interp::new();
        i.eval(&mut NoHost, "set a 007; set b 7; incr b").unwrap();
        assert_eq!(i.get_var("a").unwrap(), "007");
        assert_eq!(i.get_var("b").unwrap(), "8");
        i.set_var("c", "012");
        assert_eq!(i.eval(&mut NoHost, "set c").unwrap(), "012");
    }

    /// One step of the budget must not buy unbounded memory: a word that
    /// concatenates refuses past 1 MiB instead of aborting the process, and
    /// what only grows a step at a time — a constant appended in a loop —
    /// is the step budget's to stop.
    #[test]
    fn no_single_step_builds_an_unbounded_string() {
        let too_long = |src: &str| {
            let mut interp = Interp::new();
            interp.set_step_budget(10_000);
            let e = interp.eval(&mut NoHost, src).unwrap_err();
            assert_eq!(e.message, "string too long", "{src}");
        };
        // 1 MiB is built; one byte more, at either end, is refused.
        let mut interp = Interp::new();
        let mib = "set s a; for {set i 0} {$i < 20} {incr i} {set s $s$s}";
        interp.eval(&mut NoHost, mib).unwrap();
        assert_eq!(interp.get_var("s").unwrap().len(), MAX_STRING);
        for src in ["set t ${s}x", "set t x$s", "set t \"$s[set i]\""] {
            let e = interp.eval(&mut NoHost, src).unwrap_err();
            assert_eq!(e.message, "string too long", "{src}");
            assert!(!interp.var_exists("t"), "{src}");
        }
        // A longer value from outside the script is refused when `set`
        // stores it.
        interp.set_var("big", "x".repeat(MAX_STRING + 1));
        let e = interp.eval(&mut NoHost, "set t $big").unwrap_err();
        assert_eq!(e.message, "string too long");
        // Doubling reaches any size in a few dozen steps.
        too_long("set s a; while {1} {set s $s$s}");
        too_long("set s a; while {1} {set s \"$s $s\"}");
        too_long("set s a; while {1} {set s [set s]$s}");
        // Linear growth costs a step per element: the budget ends it.
        for src in [
            "set s {}; while {1} {set s ${s}x}",
            "set s {}; while {1} {set s \"$s x\"}",
        ] {
            let mut interp = Interp::new();
            interp.set_step_budget(1_000);
            let e = interp.eval(&mut NoHost, src).unwrap_err();
            assert!(e.is_budget_exhausted(), "{src}: {e}");
        }
    }

    #[test]
    fn if_elseif_else() {
        assert_eq!(ev_ok("if {1} {set r yes}"), "yes");
        assert_eq!(ev_ok("if {0} {set r yes}"), "");
        assert_eq!(ev_ok("if {0} {set r a} else {set r b}"), "b");
        assert_eq!(
            ev_ok("set x 2; if {$x == 1} {set r a} elseif {$x == 2} {set r b} else {set r c}"),
            "b"
        );
        assert_eq!(ev_ok("if {1} then {set r yes}"), "yes");
    }

    /// A loop ends when its condition fails (or at a `return` or an
    /// error); `break` and `continue` are not in the subset, so a guard
    /// skips what `continue` would.
    #[test]
    fn while_loop_with_break_continue() {
        let src = "
            set sum 0
            set i 0
            while {$i < 5} {
                incr i
                if {$i != 3} { set sum [expr {$sum + $i}] }
            }
            set sum
        ";
        // 1+2+4+5 = 12
        assert_eq!(ev_ok(src), "12");
        for word in ["break", "continue"] {
            let e = ev(&format!("while {{1}} {{ {word} }}")).unwrap_err();
            assert_eq!(e.message, format!("invalid command name \"{word}\""));
        }
    }

    #[test]
    fn for_loop() {
        assert_eq!(
            ev_ok("set s 0; for {set i 1} {$i <= 4} {incr i} {incr s $i}; set s"),
            "10"
        );
    }

    #[test]
    fn foreach_single_and_multi_var() {
        assert_eq!(
            ev_ok("set s {}; foreach x {a b c} {set s $s$x}; set s"),
            "abc"
        );
        assert_eq!(
            ev_ok("set s {}; foreach {k v} {a 1 b 2} {set s $s$k=$v,}; set s"),
            "a=1,b=2,"
        );
    }

    #[test]
    fn procs_with_defaults_and_args() {
        let src = "
            proc add {a {b 10}} { expr {$a + $b} }
            set r1 [add 1 2]
            set r2 [add 5]
            set r \"$r1 $r2\"
        ";
        assert_eq!(ev_ok(src), "3 15");
        let src = "
            proc count {args} { set n 0; foreach a $args { incr n }; set n }
            count a b {c d} e
        ";
        assert_eq!(ev_ok(src), "4");
        // `args` is the rest of the words as one list.
        assert_eq!(
            ev_ok("proc all {args} { set args }; all a {b c}"),
            "a {b c}"
        );
    }

    #[test]
    fn proc_return_and_scoping() {
        let src = "
            set x global
            proc f {} { set x local; return $x }
            set r \"[f] $x\"
        ";
        assert_eq!(ev_ok(src), "local global");
    }

    #[test]
    fn wrong_arg_counts_error() {
        assert!(ev("proc f {a} {set a}; f").is_err());
        assert!(ev("proc f {a} {set a}; f 1 2").is_err());
    }

    #[test]
    fn recursion_with_fuel() {
        let src = "
            proc fib {n} {
                if {$n < 2} { return $n }
                expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
            }
            fib 12
        ";
        assert_eq!(ev_ok(src), "144");
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut interp = Interp::new();
        interp.set_step_budget(10_000);
        let err = interp.eval(&mut NoHost, "while {1} {}").unwrap_err();
        assert!(err.message.contains("budget"), "{err}");
        assert!(err.is_budget_exhausted(), "{err:?}");
    }

    #[test]
    fn step_budget_is_the_watchdog_knob() {
        let mut interp = Interp::new();
        interp.set_step_budget(50);
        assert_eq!(interp.step_budget(), 50);
        let err = interp.eval(&mut NoHost, "while {1} {}").unwrap_err();
        assert!(err.is_budget_exhausted(), "{err:?}");
        // Ordinary errors are not the watchdog class.
        let err = interp.eval(&mut NoHost, "set").unwrap_err();
        assert!(!err.is_budget_exhausted(), "{err:?}");
        // The budget resets per top-level eval: a fresh script still runs.
        assert!(interp.eval(&mut NoHost, "expr {1 + 1}").is_ok());
    }

    #[test]
    fn infinite_recursion_stopped() {
        let err = ev("proc f {} {f}; f").unwrap_err();
        assert!(err.message.contains("nested"), "{err}");
    }

    #[test]
    fn catch_and_error() {
        assert_eq!(ev_ok("catch {error boom} msg"), "1");
        assert_eq!(ev_ok("catch {error boom} msg; set msg"), "boom");
        assert_eq!(ev_ok("catch {set x 1} msg; set msg"), "1");
        assert_eq!(
            ev_ok("catch {break} msg; set msg"),
            "invalid command name \"break\""
        );
        assert_eq!(ev_ok("proc f {} { catch {return r} v; set v }; f"), "r");
    }

    #[test]
    fn puts_captured() {
        let mut i = Interp::new();
        i.eval(
            &mut NoHost,
            "puts hello; puts -nonewline wor; puts -nonewline ld",
        )
        .unwrap();
        assert_eq!(i.take_output(), "hello\nworld");
        assert_eq!(i.output(), "");
    }

    #[test]
    fn switch_exact_glob_default_fallthrough() {
        assert_eq!(
            ev_ok("switch b {a {set r 1} b {set r 2} default {set r 3}}"),
            "2"
        );
        assert_eq!(ev_ok("switch zzz {a {set r 1} default {set r 3}}"), "3");
        assert_eq!(ev_ok("switch zzz {a {set r 1}}"), "");
        assert_eq!(
            ev_ok("switch -glob ACK2 {AC* {set r ack} default {set r other}}"),
            "ack"
        );
        assert_eq!(ev_ok("switch b {a - b {set r shared}}"), "shared");
    }

    #[test]
    fn info_exists() {
        assert_eq!(ev_ok("info exists x"), "0");
        assert_eq!(ev_ok("set x 1; info exists x"), "1");
    }

    #[test]
    fn eval_command() {
        assert_eq!(ev_ok("set cmd {set x}; eval $cmd 42; set x"), "42");
    }

    #[test]
    fn unknown_command_errors() {
        let e = ev("frobnicate 1 2").unwrap_err();
        assert!(e.message.contains("invalid command name"), "{e}");
    }

    #[test]
    fn state_persists_across_evals() {
        let mut i = Interp::new();
        i.eval(&mut NoHost, "set count 0").unwrap();
        for _ in 0..5 {
            i.eval(&mut NoHost, "incr count").unwrap();
        }
        assert_eq!(i.eval(&mut NoHost, "set count").unwrap(), "5");
    }

    #[test]
    fn host_commands_dispatch() {
        struct Doubler;
        impl Host for Doubler {
            fn call(
                &mut self,
                interp: &mut Interp,
                cmd: &str,
                args: &[String],
            ) -> Option<Result<String, ScriptError>> {
                if cmd == "twice" {
                    let n: i64 = args[0].parse().unwrap_or(0);
                    interp.set_var("last_doubled", args[0].clone());
                    Some(Ok((n * 2).to_string()))
                } else {
                    None
                }
            }
        }
        let mut i = Interp::new();
        assert_eq!(i.eval(&mut Doubler, "twice 21").unwrap(), "42");
        assert_eq!(i.eval(&mut Doubler, "set last_doubled").unwrap(), "21");
        assert_eq!(i.eval(&mut Doubler, "expr {[twice 5] + 1}").unwrap(), "11");
    }

    #[test]
    fn paper_style_drop_ack_script() {
        // The example script from §3 of the paper, lightly adapted to the
        // host commands being stubbed out.
        struct Pfi {
            dropped: bool,
        }
        impl Host for Pfi {
            fn call(
                &mut self,
                _interp: &mut Interp,
                cmd: &str,
                _args: &[String],
            ) -> Option<Result<String, ScriptError>> {
                match cmd {
                    "msg_type" => Some(Ok("0x1".to_string())),
                    "msg_log" => Some(Ok(String::new())),
                    "xDrop" => {
                        self.dropped = true;
                        Some(Ok(String::new()))
                    }
                    _ => None,
                }
            }
        }
        let script = r#"
            # Message types are ACK, NACK, and GACK.
            set ACK 0x1
            set NACK 0x2
            set GACK 0x4
            puts -nonewline "receive filter: "
            msg_log cur_msg
            set type [msg_type cur_msg]
            if {$type == $ACK} {
                xDrop cur_msg
            }
        "#;
        let mut host = Pfi { dropped: false };
        let mut i = Interp::new();
        i.eval(&mut host, script).unwrap();
        assert!(host.dropped, "ACK message should have been dropped");
    }

    #[test]
    fn braced_bodies_defer_substitution() {
        // $i inside braces must not be substituted at definition time.
        assert_eq!(ev_ok("set i 0; while {$i < 3} {incr i}; set i"), "3");
    }

    #[test]
    fn nested_data_structures_via_lists() {
        let src = "
            set rows {{sunos ok} {aix ok} {solaris failed}}
            set r {}
            foreach row $rows {
                foreach {name status} $row {
                    if {$status ne \"ok\"} { set r $name }
                }
            }
            set r
        ";
        assert_eq!(ev_ok(src), "solaris");
    }
}

#[cfg(test)]
mod array_tests {
    use super::*;

    fn ev_ok(src: &str) -> String {
        Interp::new().eval(&mut NoHost, src).unwrap()
    }

    fn ev(src: &str) -> Result<String, ScriptError> {
        Interp::new().eval(&mut NoHost, src)
    }

    /// The subset has no arrays: `a(x)` is a variable of that flat name,
    /// which `set` and `incr` name like any other, and `$a(x)` is refused
    /// when the script is parsed, never read as `$a` followed by `(x)`.
    #[test]
    fn set_and_read_array_elements() {
        assert_eq!(ev_ok("set a(x) 1; set a(y) 2; set a(x)"), "1");
        assert_eq!(ev_ok("set a(x) hi; puts [set a(x)]; set a(x)"), "hi");
        let e = Script::parse("set a 1; set a(x) hi; puts $a(x)").unwrap_err();
        assert_eq!(e.message, "can't read \"a(…)\": no array variables");
        assert_eq!((e.line, e.col), (1, 30));
        assert!(Script::parse("puts \"$a(x)\"").is_err());
    }

    #[test]
    fn array_index_substitutes_variables() {
        assert_eq!(
            ev_ok("set k foo; set a(foo) 42; set v [set a($k)]; set v"),
            "42"
        );
    }

    #[test]
    fn arrays_as_per_type_counters() {
        // Counting per message type with one variable per type.
        let src = r#"
            foreach t {ACK ACK DATA ACK COMMIT DATA} {
                if {![info exists seen($t)]} { set seen($t) 0 }
                incr seen($t)
            }
            set r "[set seen(ACK)] [set seen(DATA)] [set seen(COMMIT)]"
        "#;
        assert_eq!(ev_ok(src), "3 2 1");
    }

    #[test]
    fn expr_refuses_array_elements() {
        for src in ["set a(n) 6; expr {$a(n) * 7}", "set t A; expr {$c($t) + 1}"] {
            let e = ev(src).unwrap_err();
            assert!(e.message.ends_with("no array variables"), "{src}: {e}");
        }
        assert_eq!(ev_ok("set a(n) 6; expr {[set a(n)] * 7}"), "42");
    }

    #[test]
    fn braced_name_does_not_take_index() {
        // ${a}(x) is the variable `a` followed by the literal "(x)".
        assert_eq!(ev_ok(r"set a V; set r ${a}(x); set r"), "V(x)");
    }

    #[test]
    fn arrays_respect_proc_scope() {
        let src = r#"
            set g(k) outer
            proc f {} {
                set g(k) inner
                set g(k)
            }
            set r "[f] [set g(k)]"
        "#;
        assert_eq!(ev_ok(src), "inner outer");
        // A proc sees only its locals: there is no `global`.
        let e = ev("set g 1; proc f {} { global g; set g }; f").unwrap_err();
        assert_eq!(e.message, "invalid command name \"global\"");
    }

    #[test]
    fn unbalanced_index_is_a_parse_error() {
        assert!(Script::parse("set x $a(oops").is_err());
    }
}
