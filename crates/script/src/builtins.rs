//! The builtin commands: one table of name, arity and handler.
//!
//! The table is what the interpreter dispatches through — the parser
//! resolves a literal command word against it once, and a computed one is
//! looked up in it when it runs — and what `pfi-lint` checks
//! statically-known command words and argument counts against without
//! running anything. The arity bounds are the linter's; each handler
//! raises its own `wrong # args` message.
//!
//! The table is the Tcl subset the paper's filter scripts are written in —
//! variables, control flow, procs, `expr`, `puts` — and no more. A word
//! that names no row is a proc or a host command, or else an unknown
//! command.

use std::borrow::Cow;
use std::fmt;

use crate::error::{EvalResult, Exc};
use crate::expr::{overflow, ExprAst};
use crate::interp::{check_length, Arg, Call, Code, Host, Interp, ProcDef};
use crate::list::{glob_match, list_parse};
use crate::parse::{Bind, Script, SwitchArms, Word};
use crate::value::Value;

/// What runs a builtin: the interpreter, the host (for bodies and
/// `[command]` operands that call into it) and the invocation.
pub(crate) type Handler = fn(&mut Interp, &mut dyn Host, &mut Call<'_, '_>) -> EvalResult;

/// Name and arity bounds for one interpreter builtin.
#[derive(Clone, Copy)]
pub struct BuiltinInfo {
    /// The command word.
    pub name: &'static str,
    /// Minimum number of arguments (after the command word).
    pub min_args: usize,
    /// Maximum number of arguments, or `None` for variadic commands.
    pub max_args: Option<usize>,
    pub(crate) run: Handler,
}

impl BuiltinInfo {
    /// Whether `n` arguments is an acceptable count for this builtin.
    pub fn accepts(&self, n: usize) -> bool {
        n >= self.min_args && self.max_args.is_none_or(|max| n <= max)
    }
}

impl fmt::Debug for BuiltinInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuiltinInfo")
            .field("name", &self.name)
            .field("min_args", &self.min_args)
            .field("max_args", &self.max_args)
            .finish()
    }
}

/// Names are unique in the table, so a row is its name.
impl PartialEq for BuiltinInfo {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for BuiltinInfo {}

const fn b(
    name: &'static str,
    min_args: usize,
    max_args: Option<usize>,
    run: Handler,
) -> BuiltinInfo {
    BuiltinInfo {
        name,
        min_args,
        max_args,
        run,
    }
}

/// Every builtin the interpreter dispatches, sorted by name.
///
/// `if` and `switch` are syntactically variadic (`elseif`/`else` chains,
/// optional `-exact`/`-glob` flags), so their upper bounds are `None` even
/// though the interpreter enforces more structure at runtime.
const TABLE: &[BuiltinInfo] = &[
    b("break", 0, Some(0), |_, _, _| Err(Exc::Break)),
    b("catch", 1, Some(2), catch),
    b("continue", 0, Some(0), |_, _, _| Err(Exc::Continue)),
    b("error", 1, Some(1), error),
    b("eval", 0, None, eval),
    b("expr", 1, None, expr),
    b("for", 4, Some(4), for_),
    b("foreach", 3, Some(3), foreach),
    b("global", 0, None, global),
    b("if", 2, None, if_),
    b("incr", 1, Some(2), incr),
    b("info", 2, Some(2), info),
    b("proc", 3, Some(3), proc_),
    b("puts", 1, Some(2), puts),
    b("return", 0, Some(1), return_),
    b("set", 1, Some(2), set),
    b("switch", 2, Some(3), switch),
    b("unset", 0, None, unset),
    b("while", 2, Some(2), while_),
];

/// Where each initial letter's rows start in [`TABLE`]: rows
/// `FIRST[l]..FIRST[l + 1]` begin with the `l`th letter. The parser looks
/// every literal command word up, and most (`msg_type`, `xDrop`) are not
/// builtins: they are told apart after at most a handful of comparisons.
const FIRST: [u8; 27] = {
    let mut first = [0u8; 27];
    let mut row = 0;
    let mut letter = 0;
    while letter < 27 {
        while row < TABLE.len() && ((TABLE[row].name.as_bytes()[0] - b'a') as usize) < letter {
            row += 1;
        }
        first[letter] = row as u8;
        letter += 1;
    }
    first
};

/// The interpreter's builtin commands with their arity bounds, sorted by
/// name.
pub fn builtins() -> &'static [BuiltinInfo] {
    TABLE
}

/// Looks up a builtin by command word.
pub fn lookup_builtin(name: &str) -> Option<&'static BuiltinInfo> {
    let letter = usize::from(name.bytes().next()?.checked_sub(b'a')?);
    let rows = usize::from(*FIRST.get(letter)?)..usize::from(*FIRST.get(letter + 1)?);
    TABLE[rows].iter().find(|info| info.name == name)
}

// ---- helpers ------------------------------------------------------------

/// The texts of a run of arguments, for `expr` and `eval` to join into
/// one source.
fn texts<'a>(args: &'a [Arg<'_>]) -> Vec<Cow<'a, str>> {
    args.iter().map(Arg::text).collect()
}

fn parse_list(arg: &Arg<'_>) -> Result<Vec<String>, Exc> {
    list_parse(&arg.text()).map_err(Exc::Error)
}

/// An integer argument as `incr` reads one.
fn integer(call: &Call<'_, '_>, text: &str) -> Result<i64, Exc> {
    text.trim()
        .parse()
        .map_err(|_| call.error(format!("expected integer but got \"{text}\"")))
}

/// Runs a loop body; `Ok(false)` means `break`.
fn loop_body(
    interp: &mut Interp,
    host: &mut dyn Host,
    body: &Script,
    want: bool,
    last: &mut Value,
) -> Result<bool, Exc> {
    match interp.eval_script(host, body, want) {
        Ok(v) => *last = v,
        Err(Exc::Continue) => {}
        Err(Exc::Break) => return Ok(false),
        Err(e) => return Err(e),
    }
    Ok(true)
}

// ---- variables ----------------------------------------------------------

fn set(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    match &mut *call.args {
        [name] => interp.var_ref(&name.text()).cloned().map_err(Exc::Error),
        [name, value] => {
            // The answer is a copy only if something reads it.
            let value = value.take();
            check_length(&value)?;
            let answer = if call.want {
                value.clone()
            } else {
                Value::empty()
            };
            interp.set_value(&name.text(), value);
            Ok(answer)
        }
        _ => Err(call.wrong_args("set varName ?newValue?")),
    }
}

fn unset(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    for name in call.args.iter() {
        interp.unset_var(&name.text());
    }
    Ok(Value::empty())
}

fn incr(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let (name, delta) = match &*call.args {
        [name] => (name, 1),
        [name, Arg::Val(Value::Int(delta))] => (name, *delta),
        [name, delta] => (name, integer(call, &delta.text())?),
        _ => return Err(call.wrong_args("incr varName ?increment?")),
    };
    let name = name.text();
    let add = |current: i64| match current.checked_add(delta) {
        // `i64::MIN` is the one integer that does not read back as one.
        Some(i64::MIN) => Ok(Value::Int(i64::MIN).normalized()),
        Some(next) => Ok(Value::Int(next)),
        None => Err(Exc::Error(overflow())),
    };
    match interp.var_mut(&name) {
        Some(slot) => {
            // A counter is an integer already; anything else is read as
            // text, the way it would be had it never been anything but a
            // string.
            let current = match &*slot {
                Value::Int(i) => *i,
                other => integer(call, &other.text())?,
            };
            *slot = add(current)?;
            Ok(slot.clone())
        }
        None => {
            let next = add(0)?;
            interp.set_value(&name, next.clone());
            Ok(next)
        }
    }
}

fn global(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    interp.link_globals(call.args.iter().map(Arg::text));
    Ok(Value::empty())
}

fn info(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    match &*call.args {
        [sub, name] if sub.text() == "exists" => Ok(Value::bool(interp.var_exists(&name.text()))),
        _ => Err(call.error("info supports only: info exists varName")),
    }
}

// ---- control flow -------------------------------------------------------

fn expr(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let ast: Code<'_, ExprAst> = match &*call.args {
        [] => return Err(call.wrong_args("expr arg ?arg ...?")),
        // The common braced form is bound where it is written.
        [_] => interp.code_at(call, 0)?,
        args => interp.cached(&texts(args).join(" "))?,
    };
    Ok(interp.eval_expr(host, &ast)?.normalized())
}

fn if_(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let is = |i: usize, keyword: &str| call.args.get(i).is_some_and(|a| a.text() == keyword);
    let mut i = 0;
    loop {
        if i + 1 > call.args.len() {
            return Err(call.error("wrong # args: no expression after \"if\""));
        }
        let cond = i;
        i += 1;
        if is(i, "then") {
            i += 1;
        }
        if i >= call.args.len() {
            return Err(call.error("wrong # args: no script following condition"));
        }
        let body = i;
        i += 1;
        let test: Code<'_, ExprAst> = interp.code_at(call, cond)?;
        if interp.expr_truthy(host, &test)? {
            let body: Code<'_, Script> = interp.code_at(call, body)?;
            return interp.eval_script(host, &body, call.want);
        }
        if is(i, "elseif") {
            i += 1;
            continue;
        }
        if is(i, "else") {
            if i + 1 >= call.args.len() {
                return Err(call.error("wrong # args: no script following \"else\""));
            }
            let body: Code<'_, Script> = interp.code_at(call, i + 1)?;
            return interp.eval_script(host, &body, call.want);
        }
        return match call.args.get(i) {
            Some(other) => Err(call.error(format!(
                "invalid argument \"{}\" after if body",
                other.text()
            ))),
            None => Ok(Value::empty()),
        };
    }
}

fn while_(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    if call.args.len() != 2 {
        return Err(call.wrong_args("while test command"));
    }
    let body: Code<'_, Script> = interp.code_at(call, 1)?;
    let test: Code<'_, ExprAst> = interp.code_at(call, 0)?;
    let mut last = Value::empty();
    loop {
        interp.burn(call.cmd.span)?;
        if !interp.expr_truthy(host, &test)?
            || !loop_body(interp, host, &body, call.want, &mut last)?
        {
            return Ok(last);
        }
    }
}

fn for_(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    if call.args.len() != 4 {
        return Err(call.wrong_args("for start test next command"));
    }
    let init: Code<'_, Script> = interp.code_at(call, 0)?;
    let test: Code<'_, ExprAst> = interp.code_at(call, 1)?;
    let next: Code<'_, Script> = interp.code_at(call, 2)?;
    let body: Code<'_, Script> = interp.code_at(call, 3)?;
    interp.eval_script(host, &init, false)?;
    loop {
        interp.burn(call.cmd.span)?;
        if !interp.expr_truthy(host, &test)?
            || !loop_body(interp, host, &body, false, &mut Value::empty())?
        {
            return Ok(Value::empty());
        }
        interp.eval_script(host, &next, false)?;
    }
}

fn foreach(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let [vars, list, _] = &*call.args else {
        return Err(call.wrong_args("foreach varList list command"));
    };
    let names = parse_list(vars)?;
    if names.is_empty() {
        return Err(call.error("foreach varlist is empty"));
    }
    let items = parse_list(list)?;
    let body: Code<'_, Script> = interp.code_at(call, 2)?;
    let mut items = items.into_iter();
    while items.len() > 0 {
        interp.burn(call.cmd.span)?;
        for name in &names {
            let item = items.next().unwrap_or_default();
            interp.set_value(name, Value::from_string(item));
        }
        if !loop_body(interp, host, &body, false, &mut Value::empty())? {
            break;
        }
    }
    Ok(Value::empty())
}

fn return_(_: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    match &mut *call.args {
        [] => Err(Exc::Return(Value::empty())),
        [value] => Err(Exc::Return(value.take())),
        _ => Err(call.wrong_args("return ?value?")),
    }
}

fn proc_(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let [name, params, _] = &*call.args else {
        return Err(call.wrong_args("proc name args body"));
    };
    let mut specs = Vec::new();
    for param in parse_list(params)? {
        let mut parts = list_parse(&param).map_err(Exc::Error)?.into_iter();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(name), default, None) => specs.push((name.into_boxed_str(), default)),
            _ => return Err(call.error(format!("malformed parameter \"{param}\""))),
        }
    }
    let body: Code<'_, Script> = interp.code_at(call, 2)?;
    let def = ProcDef {
        params: specs,
        body: body.into_arc(),
    };
    interp.procs.insert(name.text().into(), def.into());
    Ok(Value::empty())
}

fn puts(interp: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let (newline, text) = match &*call.args {
        [text] => (true, text),
        [flag, text] if flag.text() == "-nonewline" => (false, text),
        _ => return Err(call.wrong_args("puts ?-nonewline? string")),
    };
    interp.output.push_str(&text.text());
    if newline {
        interp.output.push('\n');
    }
    Ok(Value::empty())
}

fn catch(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    if !(1..=2).contains(&call.args.len()) {
        return Err(call.wrong_args("catch script ?varName?"));
    }
    let body: Code<'_, Script> = interp.code_at(call, 0)?;
    let var = call.args.get(1);
    let (code, result) = match interp.eval_script(host, &body, var.is_some()) {
        Ok(v) => (0, v),
        Err(Exc::Error(e)) => (1, Value::Str(e.message)),
        Err(Exc::Return(v)) => (2, v),
        Err(Exc::Break) => (3, Value::empty()),
        Err(Exc::Continue) => (4, Value::empty()),
    };
    if let Some(var) = var {
        interp.set_value(&var.text(), result);
    }
    Ok(Value::Int(code))
}

fn error(_: &mut Interp, _: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    match &*call.args {
        [message] => Err(call.error(message.text())),
        _ => Err(call.wrong_args("error message")),
    }
}

fn eval(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let script: Code<'_, Script> = match &*call.args {
        [_] => interp.code_at(call, 0)?,
        args => interp.cached(&texts(args).join(" "))?,
    };
    interp.eval_script(host, &script, call.want)
}

fn switch(interp: &mut Interp, host: &mut dyn Host, call: &mut Call<'_, '_>) -> EvalResult {
    let (glob, value, arms_at) = match &*call.args {
        [value, _] => (false, value, 1),
        [mode, value, _] if mode.text() == "-exact" || mode.text() == "-glob" => {
            (mode.text() == "-glob", value, 2)
        }
        _ => return Err(call.wrong_args("switch ?-exact|-glob? string {pattern body ...}")),
    };
    // A braced arm list is split once and each arm binds its own body; a
    // computed one is split now and its body goes through the cache.
    let bound = match call.cmd.words.get(arms_at + 1) {
        Some(Word::Braced(word, _)) => word.bound::<SwitchArms>(&mut false).map_err(Exc::Error)?,
        _ => None,
    };
    let computed;
    let arms = match bound {
        Some(arms) => &arms.0,
        None => {
            computed = SwitchArms::compile(&call.args[arms_at].text()).map_err(Exc::Error)?;
            &computed.0
        }
    };
    if arms.len() % 2 != 0 {
        return Err(call.error("extra switch pattern with no body"));
    }
    let value = value.text();
    let matched = arms.chunks(2).enumerate().position(|(i, arm)| {
        let pattern = arm[0].as_str();
        let is_default = pattern == "default" && i * 2 + 2 == arms.len();
        is_default
            || if glob {
                glob_match(pattern, &value)
            } else {
                pattern == &*value
            }
    });
    let Some(matched) = matched else {
        return Ok(Value::empty());
    };
    // Tcl fallthrough: a body of "-" uses the next pattern's body.
    let mut body = matched * 2 + 1;
    while arms[body].as_str() == "-" {
        body += 2;
        if body >= arms.len() {
            return Err(call.error("no body specified for final fallthrough pattern"));
        }
    }
    let body: Code<'_, Script> = match bound {
        Some(_) => interp.code_of(&arms[body])?,
        None => interp.cached(&arms[body])?,
    };
    interp.eval_script(host, &body, call.want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, NoHost};

    /// The first-letter index is built from a sorted table of lowercase
    /// names.
    #[test]
    fn table_is_sorted_for_binary_search() {
        for pair in TABLE.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
        for info in TABLE {
            assert!(
                info.name.bytes().all(|b| b.is_ascii_lowercase()),
                "{}",
                info.name
            );
        }
        assert_eq!(usize::from(FIRST[26]), TABLE.len());
    }

    #[test]
    fn lookup_finds_every_entry() {
        for info in TABLE {
            assert_eq!(lookup_builtin(info.name), Some(info));
        }
        for name in [
            "frobnicate",
            "",
            "i",
            "iff",
            "Set",
            "zip",
            "{",
            "~",
            "étude",
            "switc",
            "switches",
            // Outside the subset.
            "append",
            "array",
            "concat",
            "format",
            "join",
            "lappend",
            "lindex",
            "linsert",
            "list",
            "llength",
            "lrange",
            "lreplace",
            "lreverse",
            "lsearch",
            "lsort",
            "split",
            "string",
        ] {
            assert_eq!(lookup_builtin(name), None, "{name:?}");
        }
    }

    #[test]
    fn accepts_bounds() {
        let set = lookup_builtin("set").unwrap();
        assert!(!set.accepts(0));
        assert!(set.accepts(1));
        assert!(set.accepts(2));
        assert!(!set.accepts(3));
        let unset = lookup_builtin("unset").unwrap();
        assert!(unset.accepts(0));
        assert!(unset.accepts(100));
    }

    /// Growing the subset is a reviewed change to this list.
    #[test]
    fn the_table_is_the_paper_subset() {
        let names: Vec<&str> = builtins().iter().map(|info| info.name).collect();
        assert_eq!(
            names.join(" "),
            "break catch continue error eval expr for foreach global if incr info \
             proc puts return set switch unset while"
        );
    }

    /// The table is the dispatch table, so every row is dispatched by
    /// construction; what can still drift is the parser resolving a
    /// literal command word differently from the run-time lookup of a
    /// computed one. Both must reach the same builtin, and neither may
    /// fall through to "invalid command name".
    #[test]
    fn table_matches_the_interpreter() {
        for info in TABLE {
            for src in [info.name.to_string(), format!("set c {}; $c", info.name)] {
                // Zero args: any error is fine except the unknown-command
                // error.
                if let Err(e) = Interp::new().eval(&mut NoHost, &src) {
                    assert!(
                        !e.message.contains("invalid command name"),
                        "\"{src}\" did not reach the builtin \"{}\"",
                        info.name
                    );
                }
            }
        }
    }

    /// Below-minimum and above-maximum argument counts must be rejected at
    /// runtime for bounded builtins — the linter's arity errors are only
    /// trustworthy if the interpreter agrees.
    #[test]
    fn arity_bounds_agree_with_runtime() {
        for info in TABLE {
            if info.min_args > 0 {
                let words = vec![info.name.to_string(); 1]; // zero args
                let src = words.join(" ");
                let r = Interp::new().eval(&mut NoHost, &src);
                assert!(
                    r.is_err(),
                    "\"{src}\" should fail with too few args (min {})",
                    info.min_args
                );
            }
            if let Some(max) = info.max_args {
                let src = format!("{} {}", info.name, vec!["0"; max + 1].join(" "));
                let r = Interp::new().eval(&mut NoHost, &src);
                assert!(r.is_err(), "\"{src}\" should fail with too many args");
            }
        }
    }
}
