//! The `expr` evaluator.
//!
//! Tcl's `expr` takes a string (typically a braced word, so substitutions
//! are deferred) and evaluates it with its own `$var`/`[cmd]` substitution,
//! numeric coercion and short-circuiting boolean operators. What it
//! accepts is the part of Tcl's `expr` the paper's filters are written in:
//! integer, hex, double and `"quoted"` literals, comparisons, `eq`/`ne`,
//! `&&`/`||`/`!`, `?:`, `+ - * / %`, `&` and `^`, unary `-` and the one
//! math function `int(…)`. Everything else — another math function, `**`,
//! shifts, `|`, `~`, unary `+`, the boolean words, a `{braced}` string, an
//! array element `$a(i)` — is a parse error.
//!
//! Evaluation is split into two phases so expression sources compile once:
//! [`parse_expr`] turns a source string into a resolver-free [`ExprAst`]
//! (cacheable, shareable), and [`eval_ast`] walks that tree resolving
//! `$var`/`[cmd]` substitutions lazily through a [`Resolver`]. Laziness means
//! `&&`/`||`/`?:` short-circuit both arithmetic errors *and* substitutions in
//! the untaken branch (e.g. `$n != 0 && $x / $n > 2` never reads the second
//! `$n` when the guard fails), matching Tcl's deferred-substitution
//! semantics for braced expressions.

use std::borrow::Cow;

use crate::error::ScriptError;
use crate::parse::Script;
use crate::value::{parse_int, Value};

/// Resolves `$var` and `[command]` substitutions inside an expression.
pub(crate) trait Resolver {
    /// The value a variable holds.
    fn var(&mut self, name: &str) -> Result<&Value, ScriptError>;
    /// Runs a `[command]` operand, parsed when the expression was.
    fn cmd(&mut self, script: &Script) -> Result<Value, ScriptError>;
}

/// A held value as an operand: a string that spells a number is that
/// number, and one that does not stays borrowed.
fn operand_of(v: &Value) -> Cow<'_, Value> {
    match v {
        Value::Str(_) => v.numeric().map_or(Cow::Borrowed(v), Cow::Owned),
        _ => Cow::Borrowed(v),
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Val(Value),
    /// `$name` — resolved through the [`Resolver`] at eval time.
    Var(String),
    /// `[script]` — run through the [`Resolver`] at eval time.
    Cmd(String),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, ScriptError> {
    let chars: Vec<char> = src.chars().collect();
    let mut pos = 0usize;
    let mut toks = Vec::new();
    while pos < chars.len() {
        let c = chars[pos];
        if c.is_whitespace() {
            pos += 1;
            continue;
        }
        if c.is_ascii_digit()
            || (c == '.' && chars.get(pos + 1).is_some_and(|n| n.is_ascii_digit()))
        {
            let start = pos;
            let mut is_dbl = false;
            while pos < chars.len() {
                let c = chars[pos];
                if c.is_ascii_digit() {
                    pos += 1;
                } else if c == '.' {
                    is_dbl = true;
                    pos += 1;
                } else if c == 'e' || c == 'E' {
                    // Exponent (only if followed by digit or sign+digit).
                    let next = chars.get(pos + 1).copied();
                    let next2 = chars.get(pos + 2).copied();
                    if next.is_some_and(|n| n.is_ascii_digit())
                        || (matches!(next, Some('+') | Some('-'))
                            && next2.is_some_and(|n| n.is_ascii_digit()))
                    {
                        is_dbl = true;
                        pos += 2;
                    } else {
                        break;
                    }
                } else if (c == 'x' || c == 'X') && pos == start + 1 && chars[start] == '0' {
                    pos += 1;
                    while pos < chars.len() && chars[pos].is_ascii_hexdigit() {
                        pos += 1;
                    }
                    break;
                } else {
                    break;
                }
            }
            let text: String = chars[start..pos].iter().collect();
            let v = if is_dbl {
                Value::Dbl(
                    text.parse::<f64>()
                        .map_err(|_| ScriptError::new(format!("invalid number \"{text}\"")))?,
                )
            } else {
                Value::Int(
                    parse_int(&text)
                        .ok_or_else(|| ScriptError::new(format!("invalid number \"{text}\"")))?,
                )
            };
            toks.push(Tok::Val(v));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = pos;
            while pos < chars.len() && (chars[pos].is_ascii_alphanumeric() || chars[pos] == '_') {
                pos += 1;
            }
            toks.push(Tok::Ident(chars[start..pos].iter().collect()));
            continue;
        }
        match c {
            '$' => {
                pos += 1;
                let name = if chars.get(pos) == Some(&'{') {
                    pos += 1;
                    let start = pos;
                    while pos < chars.len() && chars[pos] != '}' {
                        pos += 1;
                    }
                    if pos >= chars.len() {
                        return Err(ScriptError::new("missing close-brace for variable name"));
                    }
                    let n: String = chars[start..pos].iter().collect();
                    pos += 1;
                    n
                } else {
                    let start = pos;
                    while pos < chars.len()
                        && (chars[pos].is_ascii_alphanumeric() || chars[pos] == '_')
                    {
                        pos += 1;
                    }
                    if pos == start {
                        return Err(ScriptError::new("invalid character \"$\" in expression"));
                    }
                    chars[start..pos].iter().collect()
                };
                if chars.get(pos) == Some(&'(') {
                    return Err(ScriptError::new(no_arrays(&name)));
                }
                toks.push(Tok::Var(name));
            }
            '[' => {
                pos += 1;
                let start = pos;
                let mut depth = 1usize;
                while pos < chars.len() {
                    match chars[pos] {
                        '\\' => pos += 1,
                        '[' => depth += 1,
                        ']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    pos += 1;
                }
                if depth != 0 {
                    return Err(ScriptError::new("missing close-bracket in expression"));
                }
                let script: String = chars[start..pos].iter().collect();
                pos += 1;
                toks.push(Tok::Cmd(script));
            }
            '"' => {
                pos += 1;
                let mut s = String::new();
                loop {
                    if pos >= chars.len() {
                        return Err(ScriptError::new("missing close-quote in expression"));
                    }
                    match chars[pos] {
                        '"' => {
                            pos += 1;
                            break;
                        }
                        '\\' if pos + 1 < chars.len() => {
                            s.push(chars[pos + 1]);
                            pos += 2;
                        }
                        c => {
                            s.push(c);
                            pos += 1;
                        }
                    }
                }
                toks.push(Tok::Val(Value::Str(s)));
            }
            '(' => {
                toks.push(Tok::LParen);
                pos += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                pos += 1;
            }
            _ => {
                let two: String = chars[pos..(pos + 2).min(chars.len())].iter().collect();
                let op2 = ["<=", ">=", "==", "!=", "&&", "||"]
                    .iter()
                    .find(|&&o| o == two);
                if let Some(&op) = op2 {
                    toks.push(Tok::Op(op));
                    pos += 2;
                } else {
                    let op1 = ["+", "-", "*", "/", "%", "<", ">", "!", "&", "^", "?", ":"]
                        .iter()
                        .find(|&&o| o.starts_with(c));
                    match op1 {
                        Some(&op) => {
                            toks.push(Tok::Op(op));
                            pos += 1;
                        }
                        None => {
                            return Err(ScriptError::new(format!(
                                "invalid character \"{c}\" in expression"
                            )))
                        }
                    }
                }
            }
        }
    }
    Ok(toks)
}

/// `$name(…)`, the array element the subset has no arrays for. A word and
/// an expression refuse it alike, so it is never read as `$name` followed
/// by the text `(…)`.
pub(crate) fn no_arrays(name: &str) -> String {
    format!("can't read \"{name}(…)\": no array variables")
}

#[derive(Debug)]
enum Node {
    Val(Value),
    /// Lazy `$name` substitution.
    Var(String),
    /// Lazy `[script]` substitution: the source text (for static analysis)
    /// and its parse. A parse error surfaces when the operand is evaluated,
    /// as it did when the text was parsed on first use.
    Cmd(String, Result<Script, ScriptError>),
    Unary(UnOp, Box<Node>),
    Bin(BinOp, Box<Node>, Box<Node>),
    Ternary(Box<Node>, Box<Node>, Box<Node>),
}

/// A one-operand operator; `int(…)` is one too, resolved at parse like
/// the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnOp {
    Not,
    Neg,
    Int,
}

impl UnOp {
    fn as_str(self) -> &'static str {
        match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
            UnOp::Int => "int",
        }
    }
}

/// A binary operator, resolved from its spelling when the expression is
/// parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Or,
    And,
    BitXor,
    BitAnd,
    Cmp(CmpOp),
    StrEq,
    StrNe,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// How each binary operator is spelled.
const SPELLINGS: [(&str, BinOp); 17] = [
    ("||", BinOp::Or),
    ("&&", BinOp::And),
    ("^", BinOp::BitXor),
    ("&", BinOp::BitAnd),
    ("==", BinOp::Cmp(CmpOp::Eq)),
    ("!=", BinOp::Cmp(CmpOp::Ne)),
    ("<", BinOp::Cmp(CmpOp::Lt)),
    ("<=", BinOp::Cmp(CmpOp::Le)),
    (">", BinOp::Cmp(CmpOp::Gt)),
    (">=", BinOp::Cmp(CmpOp::Ge)),
    ("eq", BinOp::StrEq),
    ("ne", BinOp::StrNe),
    ("+", BinOp::Add),
    ("-", BinOp::Sub),
    ("*", BinOp::Mul),
    ("/", BinOp::Div),
    ("%", BinOp::Rem),
];

impl BinOp {
    fn from_str(op: &str) -> Option<BinOp> {
        SPELLINGS.iter().find(|(s, _)| *s == op).map(|(_, o)| *o)
    }

    /// The operator's spelling, for error messages.
    fn as_str(self) -> &'static str {
        SPELLINGS
            .iter()
            .find(|(_, o)| *o == self)
            .map_or("?", |(s, _)| s)
    }

    /// Left and right binding power (all left-associative).
    fn binding_power(self) -> (u8, u8) {
        match self {
            BinOp::Or => (2, 3),
            BinOp::And => (3, 4),
            BinOp::BitXor => (5, 6),
            BinOp::BitAnd => (6, 7),
            BinOp::Cmp(CmpOp::Eq | CmpOp::Ne) | BinOp::StrEq | BinOp::StrNe => (7, 8),
            BinOp::Cmp(_) => (8, 9),
            BinOp::Add | BinOp::Sub => (10, 11),
            BinOp::Mul | BinOp::Div | BinOp::Rem => (11, 12),
        }
    }
}

/// A compiled expression: the parsed tree for one `expr` source string,
/// independent of any interpreter state. Compile once, evaluate many times
/// against different [`Resolver`]s.
#[derive(Debug)]
pub(crate) struct ExprAst {
    root: Node,
}

struct ExprParser {
    toks: Vec<Tok>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_op(&mut self, op: &str) -> Result<(), ScriptError> {
        match self.bump() {
            Some(Tok::Op(o)) if o == op => Ok(()),
            other => Err(ScriptError::new(format!(
                "expected \"{op}\", got {other:?}"
            ))),
        }
    }

    fn parse_primary(&mut self) -> Result<Node, ScriptError> {
        match self.bump() {
            Some(Tok::Val(v)) => Ok(Node::Val(v)),
            Some(Tok::Var(name)) => Ok(Node::Var(name)),
            Some(Tok::Cmd(src)) => {
                let script = Script::parse(&src);
                Ok(Node::Cmd(src, script))
            }
            Some(Tok::Ident(name)) if self.peek() == Some(&Tok::LParen) => {
                if name != "int" {
                    return Err(ScriptError::new(format!(
                        "unknown math function \"{name}\""
                    )));
                }
                self.bump();
                let arg = self.parse_bp(1)?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(Node::Unary(UnOp::Int, Box::new(arg))),
                    other => Err(ScriptError::new(format!("expected \")\", got {other:?}"))),
                }
            }
            Some(Tok::Ident(name)) => match name.to_ascii_lowercase().as_str() {
                "eq" | "ne" => Err(ScriptError::new(format!("misplaced operator \"{name}\""))),
                _ => Err(ScriptError::new(format!(
                    "unknown identifier \"{name}\" in expression"
                ))),
            },
            Some(Tok::LParen) => {
                let node = self.parse_bp(1)?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(node),
                    other => Err(ScriptError::new(format!("expected \")\", got {other:?}"))),
                }
            }
            Some(Tok::Op(op)) if matches!(op, "-" | "!") => {
                let operand = self.parse_bp(13)?;
                let op = if op == "-" { UnOp::Neg } else { UnOp::Not };
                Ok(Node::Unary(op, Box::new(operand)))
            }
            other => Err(ScriptError::new(format!(
                "unexpected token {other:?} in expression"
            ))),
        }
    }

    fn parse_bp(&mut self, min_bp: u8) -> Result<Node, ScriptError> {
        let mut lhs = self.parse_primary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Op(o)) => *o,
                Some(Tok::Ident(i)) if i == "eq" || i == "ne" => {
                    if i == "eq" {
                        "eq"
                    } else {
                        "ne"
                    }
                }
                _ => break,
            };
            if op == ":" {
                break;
            }
            if op == "?" {
                if min_bp > 1 {
                    break;
                }
                self.bump();
                let mid = self.parse_bp(1)?;
                self.expect_op(":")?;
                let rhs = self.parse_bp(1)?;
                lhs = Node::Ternary(Box::new(lhs), Box::new(mid), Box::new(rhs));
                continue;
            }
            let Some(op) = BinOp::from_str(op) else {
                return Err(ScriptError::new(format!("unexpected operator \"{op}\"")));
            };
            let (l_bp, r_bp) = op.binding_power();
            if l_bp < min_bp {
                break;
            }
            self.bump();
            let rhs = self.parse_bp(r_bp)?;
            lhs = Node::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }
}

/// What a static pass can learn about an `expr` source without evaluating
/// it against interpreter state: the variables it reads, the `[command]`
/// substitution scripts it would run, and — when it contains no
/// substitutions at all — its constant truth value.
///
/// Produced by [`analyze_expr`]; consumed by `pfi-lint`'s dataflow and
/// constant-condition passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExprSummary {
    /// Names of `$var` reads, in first-occurrence order, deduplicated.
    pub vars: Vec<String>,
    /// Raw source text of each `[command]` substitution, in order.
    pub cmd_scripts: Vec<String>,
    /// `Some(truth)` when the expression has no substitutions and folds to
    /// a value with a defined truthiness; `None` otherwise.
    pub constant: Option<bool>,
}

/// Statically analyzes an expression source string. See [`ExprSummary`].
///
/// # Errors
///
/// Returns a [`ScriptError`] if the source does not parse as an expression.
pub fn analyze_expr(src: &str) -> Result<ExprSummary, ScriptError> {
    let ast = parse_expr(src)?;
    let mut summary = ExprSummary::default();
    collect_summary(&ast.root, &mut summary);
    if summary.vars.is_empty() && summary.cmd_scripts.is_empty() {
        // No substitutions: the expression is a pure function of literals.
        // Fold it with a resolver that can never be reached.
        struct NoSubst;
        impl Resolver for NoSubst {
            fn var(&mut self, name: &str) -> Result<&Value, ScriptError> {
                Err(ScriptError::new(format!("unexpected var \"{name}\"")))
            }
            fn cmd(&mut self, _script: &Script) -> Result<Value, ScriptError> {
                Err(ScriptError::new("unexpected cmd"))
            }
        }
        if let Ok(v) = eval_node(&ast.root, &mut NoSubst) {
            summary.constant = v.truthy().ok();
        }
    }
    let mut seen = Vec::new();
    summary.vars.retain(|v| {
        if seen.contains(v) {
            false
        } else {
            seen.push(v.clone());
            true
        }
    });
    Ok(summary)
}

/// A comparison operator as it appears in a guard atom, normalized so the
/// substitution (`[cmd]` or `$var`) is always the left-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==` / `eq`
    Eq,
    /// `!=` / `ne`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The mirror operator: what `a OP b` becomes when rewritten `b OP' a`.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Whether `lhs OP rhs` holds given how `lhs` orders against `rhs`.
    fn admits(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// One conjunct of a guard expression, as recovered by [`analyze_guard`].
///
/// The PFI campaign lowerer emits filter guards of the shape
/// `[msg_type] == "COMMIT" && [msg_dst] == 2` and counter tests like
/// `$c1 == 3`; this type is the static view of such conjuncts. Anything a
/// pass cannot prove the shape of degrades to [`GuardAtom::Opaque`], which
/// consumers must treat as "may be true or false".
#[derive(Debug, Clone, PartialEq)]
pub enum GuardAtom {
    /// `[cmd] == "literal"` (or the mirrored / `eq` spelling).
    CmdEqStr {
        /// The command-substitution source text, e.g. `msg_type`.
        cmd: String,
        /// The string literal it is compared against.
        value: String,
        /// `false` for `==`/`eq`, `true` for `!=`/`ne`.
        negated: bool,
    },
    /// `[cmd] OP int` (or the mirrored spelling), e.g. `[msg_len] > 8`.
    CmdCmpInt {
        /// The command-substitution source text, e.g. `msg_dst`.
        cmd: String,
        /// The normalized operator with the command on the left.
        op: CmpOp,
        /// The integer literal.
        value: i64,
    },
    /// `$var OP int` (or the mirrored spelling), e.g. `$c1 == 3`.
    VarCmpInt {
        /// The variable name.
        var: String,
        /// The normalized operator with the variable on the left.
        op: CmpOp,
        /// The integer literal.
        value: i64,
    },
    /// A conjunct no static shape was recovered for.
    Opaque,
}

/// Splits a guard expression into its top-level `&&` conjuncts and
/// classifies each as a [`GuardAtom`]. Disjunctions, ternaries, and any
/// other shape collapse to a single [`GuardAtom::Opaque`] conjunct —
/// sound for consumers that only act on atoms they fully recognize.
///
/// # Errors
///
/// Returns a [`ScriptError`] if the source does not parse as an expression.
pub fn analyze_guard(src: &str) -> Result<Vec<GuardAtom>, ScriptError> {
    let ast = parse_expr(src)?;
    let mut atoms = Vec::new();
    collect_guard(&ast.root, &mut atoms);
    Ok(atoms)
}

fn collect_guard(n: &Node, out: &mut Vec<GuardAtom>) {
    match n {
        Node::Bin(BinOp::And, a, b) => {
            collect_guard(a, out);
            collect_guard(b, out);
        }
        other => out.push(classify_atom(other)),
    }
}

fn classify_atom(n: &Node) -> GuardAtom {
    let Node::Bin(op, a, b) = n else {
        return GuardAtom::Opaque;
    };
    let cmp = match *op {
        BinOp::Cmp(cmp) => cmp,
        BinOp::StrEq => CmpOp::Eq,
        BinOp::StrNe => CmpOp::Ne,
        _ => return GuardAtom::Opaque,
    };
    // Normalize so the substitution sits on the left.
    let (lhs, rhs, cmp) = match (&**a, &**b) {
        (Node::Cmd(..) | Node::Var(_), Node::Val(_)) => (&**a, &**b, cmp),
        (Node::Val(_), Node::Cmd(..) | Node::Var(_)) => (&**b, &**a, cmp.flip()),
        _ => return GuardAtom::Opaque,
    };
    let Node::Val(val) = rhs else {
        return GuardAtom::Opaque;
    };
    match (lhs, val) {
        (Node::Cmd(cmd, _), Value::Int(i)) => GuardAtom::CmdCmpInt {
            cmd: cmd.clone(),
            op: cmp,
            value: *i,
        },
        (Node::Cmd(cmd, _), Value::Str(s)) => match cmp {
            CmpOp::Eq | CmpOp::Ne => GuardAtom::CmdEqStr {
                cmd: cmd.clone(),
                value: s.clone(),
                negated: cmp == CmpOp::Ne,
            },
            _ => GuardAtom::Opaque,
        },
        (Node::Var(var), Value::Int(i)) => GuardAtom::VarCmpInt {
            var: var.clone(),
            op: cmp,
            value: *i,
        },
        _ => GuardAtom::Opaque,
    }
}

fn collect_summary(n: &Node, out: &mut ExprSummary) {
    match n {
        Node::Val(_) => {}
        Node::Var(name) => out.vars.push(name.clone()),
        Node::Cmd(src, _) => out.cmd_scripts.push(src.clone()),
        Node::Unary(_, a) => collect_summary(a, out),
        Node::Bin(_, a, b) => {
            collect_summary(a, out);
            collect_summary(b, out);
        }
        Node::Ternary(c, t, f) => {
            collect_summary(c, out);
            collect_summary(t, out);
            collect_summary(f, out);
        }
    }
}

/// Compiles an expression source string into a reusable [`ExprAst`].
pub(crate) fn parse_expr(src: &str) -> Result<ExprAst, ScriptError> {
    let toks = tokenize(src)?;
    if toks.is_empty() {
        return Err(ScriptError::new("empty expression"));
    }
    let mut p = ExprParser { toks, pos: 0 };
    let root = p.parse_bp(1)?;
    if p.pos != p.toks.len() {
        return Err(ScriptError::new("trailing tokens in expression"));
    }
    Ok(ExprAst { root })
}

/// Evaluates a compiled expression, resolving substitutions through `r`.
pub(crate) fn eval_ast(ast: &ExprAst, r: &mut impl Resolver) -> Result<Value, ScriptError> {
    eval_node(&ast.root, r)
}

/// Evaluates a Tcl expression string, resolving substitutions through `r`.
/// One-shot convenience for tests; production paths compile with
/// [`parse_expr`] and reuse the [`ExprAst`] through the interpreter's cache.
#[cfg(test)]
pub(crate) fn eval_expr(src: &str, r: &mut impl Resolver) -> Result<Value, ScriptError> {
    eval_ast(&parse_expr(src)?, r)
}

fn eval_node(n: &Node, r: &mut impl Resolver) -> Result<Value, ScriptError> {
    match n {
        Node::Val(v) => Ok(v.clone()),
        Node::Var(name) => Ok(operand_of(r.var(name)?).into_owned()),
        Node::Cmd(_, script) => {
            let script = script.as_ref().map_err(Clone::clone)?;
            Ok(r.cmd(script)?.into_operand())
        }
        Node::Unary(op, a) => {
            let v = eval_node(a, r)?;
            match op {
                UnOp::Not => Ok(Value::bool(!v.truthy()?)),
                UnOp::Neg => match v.numeric() {
                    Some(Value::Int(i)) => Ok(Value::Int(i.checked_neg().ok_or_else(overflow)?)),
                    Some(Value::Dbl(d)) => Ok(Value::Dbl(-d)),
                    _ => Err(non_numeric(&v, op.as_str())),
                },
                UnOp::Int => match v.numeric() {
                    Some(Value::Int(i)) => Ok(Value::Int(i)),
                    Some(Value::Dbl(d)) => Ok(Value::Int(d.trunc() as i64)),
                    _ => Err(non_numeric(&v, op.as_str())),
                },
            }
        }
        Node::Bin(op, a, b) => eval_bin(*op, a, b, r),
        Node::Ternary(c, t, f) => {
            if eval_node(c, r)?.truthy()? {
                eval_node(t, r)
            } else {
                eval_node(f, r)
            }
        }
    }
}

fn non_numeric(v: &Value, op: &str) -> ScriptError {
    ScriptError::new(format!(
        "can't use non-numeric string \"{}\" as operand of \"{op}\"",
        v.text()
    ))
}

/// An operand of a binary operator: a literal stays borrowed from the
/// compiled expression, everything else is evaluated.
fn eval_operand<'n>(n: &'n Node, r: &mut impl Resolver) -> Result<Cow<'n, Value>, ScriptError> {
    match n {
        Node::Val(v) => Ok(Cow::Borrowed(v)),
        _ => eval_node(n, r).map(Cow::Owned),
    }
}

pub(crate) fn overflow() -> ScriptError {
    ScriptError::new("integer overflow")
}

/// Tcl's integer division floors toward negative infinity.
fn floor_div(a: i64, b: i64) -> Result<i64, ScriptError> {
    if b == 0 {
        return Err(ScriptError::new("divide by zero"));
    }
    let q = a.checked_div(b).ok_or_else(overflow)?;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        Ok(q - 1)
    } else {
        Ok(q)
    }
}

/// Tcl's `%` takes the sign of the divisor.
fn floor_mod(a: i64, b: i64) -> Result<i64, ScriptError> {
    if b == 0 {
        return Err(ScriptError::new("divide by zero"));
    }
    let r = a.checked_rem(b).ok_or_else(overflow)?;
    if r != 0 && ((r < 0) != (b < 0)) {
        Ok(r + b)
    } else {
        Ok(r)
    }
}

fn eval_bin(op: BinOp, an: &Node, bn: &Node, r: &mut impl Resolver) -> Result<Value, ScriptError> {
    // Short-circuit operators evaluate lazily — including substitutions.
    match op {
        BinOp::And => {
            return Ok(Value::bool(
                eval_node(an, r)?.truthy()? && eval_node(bn, r)?.truthy()?,
            ));
        }
        BinOp::Or => {
            return Ok(Value::bool(
                eval_node(an, r)?.truthy()? || eval_node(bn, r)?.truthy()?,
            ));
        }
        _ => {}
    }
    // A variable against a literal — the shape of nearly every guard — is
    // read where it lives: nothing else is evaluated while it is borrowed.
    let (a, b) = match (an, bn) {
        (Node::Var(name), Node::Val(lit)) => (operand_of(r.var(name)?), Cow::Borrowed(lit)),
        (Node::Val(lit), Node::Var(name)) => (Cow::Borrowed(lit), operand_of(r.var(name)?)),
        _ => (eval_operand(an, r)?, eval_operand(bn, r)?),
    };
    // Counters and lengths: both operands are integers already, so no
    // coercion is needed.
    if let (Value::Int(i), Value::Int(j)) = (&*a, &*b) {
        if let BinOp::Cmp(cmp) = op {
            return Ok(Value::bool(cmp.admits(i.cmp(j))));
        }
        if !matches!(op, BinOp::StrEq | BinOp::StrNe) {
            return int_arith(op, *i, *j);
        }
    }
    match op {
        BinOp::StrEq => return Ok(Value::bool(a.text() == b.text())),
        BinOp::StrNe => return Ok(Value::bool(a.text() != b.text())),
        // Comparisons: numeric when both are numeric, else string compare.
        BinOp::Cmp(cmp) => {
            let ord = match (a.numeric(), b.numeric()) {
                (Some(Value::Int(i)), Some(Value::Int(j))) => i.cmp(&j),
                (Some(x), Some(y)) => as_f64(&x)
                    .partial_cmp(&as_f64(&y))
                    .unwrap_or(std::cmp::Ordering::Equal),
                _ => a.text().cmp(&b.text()),
            };
            return Ok(Value::bool(cmp.admits(ord)));
        }
        _ => {}
    }
    // Arithmetic / bitwise: numeric operands required.
    let x = a.numeric().ok_or_else(|| non_numeric(&a, op.as_str()))?;
    let y = b.numeric().ok_or_else(|| non_numeric(&b, op.as_str()))?;
    match (x, y) {
        (Value::Int(i), Value::Int(j)) => int_arith(op, i, j),
        (x, y) => {
            let i = as_f64(&x);
            let j = as_f64(&y);
            Ok(Value::Dbl(match op {
                BinOp::Add => i + j,
                BinOp::Sub => i - j,
                BinOp::Mul => i * j,
                BinOp::Div if j == 0.0 => return Err(ScriptError::new("divide by zero")),
                BinOp::Div => i / j,
                _ => {
                    return Err(ScriptError::new(format!(
                        "can't use floating-point value as operand of \"{}\"",
                        op.as_str()
                    )))
                }
            }))
        }
    }
}

/// An arithmetic or bitwise operator over two integers.
fn int_arith(op: BinOp, i: i64, j: i64) -> Result<Value, ScriptError> {
    Ok(Value::Int(match op {
        BinOp::Add => i.checked_add(j).ok_or_else(overflow)?,
        BinOp::Sub => i.checked_sub(j).ok_or_else(overflow)?,
        BinOp::Mul => i.checked_mul(j).ok_or_else(overflow)?,
        BinOp::Div => floor_div(i, j)?,
        BinOp::Rem => floor_mod(i, j)?,
        BinOp::BitAnd => i & j,
        BinOp::BitXor => i ^ j,
        BinOp::And | BinOp::Or | BinOp::StrEq | BinOp::StrNe | BinOp::Cmp(_) => {
            unreachable!("not arithmetic: {op:?}")
        }
    }))
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Dbl(d) => *d,
        Value::Str(_) => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::fmt_double;
    use std::collections::HashMap;

    struct MapResolver(HashMap<String, Value>);
    impl Resolver for MapResolver {
        fn var(&mut self, name: &str) -> Result<&Value, ScriptError> {
            self.0
                .get(name)
                .ok_or_else(|| ScriptError::new(format!("can't read \"{name}\": no such variable")))
        }
        fn cmd(&mut self, script: &Script) -> Result<Value, ScriptError> {
            // Test stub: `[twice X]` returns 2 * X.
            use crate::parse::{Part, Word};
            let lit = |w: &Word| match w {
                Word::Parts(parts, _) => match parts.as_slice() {
                    [Part::Lit(s)] => s.clone(),
                    other => panic!("test commands are literal words, got {other:?}"),
                },
                Word::Braced(s, _) => s.to_string(),
            };
            let words: Vec<String> = script.commands()[0].words().iter().map(lit).collect();
            if let [cmd, n] = words.as_slice() {
                if cmd == "twice" {
                    let n: i64 = n.parse().unwrap();
                    return Ok(Value::Int(n * 2));
                }
            }
            Err(ScriptError::new(format!("unknown cmd {words:?}")))
        }
    }

    fn ev(src: &str) -> Result<String, ScriptError> {
        let mut r = MapResolver(HashMap::from([
            ("x".to_string(), Value::Int(10)),
            ("y".to_string(), Value::Str("2.5".to_string())),
            ("s".to_string(), Value::Str("hello".to_string())),
            ("zero".to_string(), Value::Str("0".to_string())),
        ]));
        eval_expr(src, &mut r).map(Value::into_string)
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(ev("1 + 2 * 3").unwrap(), "7");
        assert_eq!(ev("(1 + 2) * 3").unwrap(), "9");
        assert_eq!(ev("10 - 3 - 2").unwrap(), "5"); // left assoc
    }

    #[test]
    fn integer_division_floors() {
        assert_eq!(ev("-7 / 2").unwrap(), "-4");
        assert_eq!(ev("7 / 2").unwrap(), "3");
        assert_eq!(ev("-7 % 2").unwrap(), "1"); // sign of divisor
        assert_eq!(ev("7 % -2").unwrap(), "-1");
    }

    #[test]
    fn doubles_and_mixing() {
        assert_eq!(ev("1 / 2.0").unwrap(), "0.5");
        assert_eq!(ev("2.5 * 2").unwrap(), "5.0");
        assert_eq!(ev("1e3 + 1").unwrap(), "1001.0");
        assert_eq!(ev(".5 + .5").unwrap(), "1.0");
    }

    #[test]
    fn divide_by_zero_errors() {
        assert!(ev("1 / 0").unwrap_err().message.contains("divide by zero"));
        assert!(ev("1 % 0").is_err());
        assert!(ev("1.0 / 0").is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev("3 < 10").unwrap(), "1");
        assert_eq!(ev("3 >= 10").unwrap(), "0");
        // Numeric compare even when one side is a numeric string.
        assert_eq!(ev("\"10\" == 10").unwrap(), "1");
        // Non-numeric strings compare lexicographically.
        assert_eq!(ev("\"abc\" < \"abd\"").unwrap(), "1");
        assert_eq!(ev("$s eq \"hello\"").unwrap(), "1");
        assert_eq!(ev("$s ne \"hello\"").unwrap(), "0");
    }

    #[test]
    fn logical_short_circuit() {
        assert_eq!(ev("$zero != 0 && 1 / $zero > 2").unwrap(), "0");
        assert_eq!(ev("1 || 1 / 0").unwrap(), "1");
        assert!(ev("1 && 1 / 0").is_err());
    }

    #[test]
    fn ternary() {
        assert_eq!(ev("$x > 5 ? \"big\" : \"small\"").unwrap(), "big");
        assert_eq!(ev("0 ? 1/0 : 42").unwrap(), "42");
        assert_eq!(ev("1 ? 2 : 3 + 100").unwrap(), "2");
    }

    #[test]
    fn unary_ops() {
        assert_eq!(ev("-$x").unwrap(), "-10");
        assert_eq!(ev("!0").unwrap(), "1");
        assert_eq!(ev("!3").unwrap(), "0");
        assert_eq!(ev("- - 5").unwrap(), "5");
    }

    #[test]
    fn variables_and_command_substitution() {
        assert_eq!(ev("$x + $y").unwrap(), "12.5");
        assert_eq!(ev("[twice 21]").unwrap(), "42");
        assert_eq!(ev("[twice 3] * [twice 2]").unwrap(), "24");
        assert!(ev("$missing").is_err());
    }

    #[test]
    fn math_functions() {
        assert_eq!(ev("int(3.9)").unwrap(), "3");
        assert_eq!(ev("int(-3.9)").unwrap(), "-3");
        assert_eq!(ev("int($x / 4)").unwrap(), "2");
        assert_eq!(ev("int($y) * 2").unwrap(), "4");
        assert_eq!(ev("int(\"7\") + 1").unwrap(), "8");
        assert!(ev("int($s)").is_err());
        for bad in ["nosuch(1)", "int()", "int(1, 2)", "int(1", "int 1"] {
            assert!(parse_expr(bad).is_err(), "{bad}");
        }
    }

    /// `&` and `^` are the lowered corrupt action's byte mask; shifts and
    /// `|` are not in the subset.
    #[test]
    fn bitwise_and_shift() {
        assert_eq!(ev("0x0F & 0x3C").unwrap(), "12");
        assert_eq!(ev("5 ^ 1").unwrap(), "4");
        assert_eq!(ev("[twice 3] ^ 0x40").unwrap(), "70");
        assert!(ev("1.5 & 2").is_err());
        for src in ["1 << 10", "1024 >> 3", "1 | 6"] {
            assert!(parse_expr(src).is_err(), "{src}");
        }
    }

    /// Tcl's boolean words are not in the subset: as literals they do not
    /// parse, and a string a variable holds is not a truth value.
    #[test]
    fn booleans_as_words() {
        assert_eq!(
            parse_expr("true && on").unwrap_err().message,
            "unknown identifier \"true\" in expression"
        );
        assert!(parse_expr("false || off").is_err());
        let mut r = MapResolver(HashMap::from([(
            "w".to_string(),
            Value::Str("yes".to_string()),
        )]));
        let e = eval_expr("$w || 1", &mut r).unwrap_err();
        assert_eq!(e.message, "expected boolean value but got \"yes\"");
        assert_eq!(ev("1 && 2.5").unwrap(), "1");
        let e = ev(r#""yes" || 1"#).unwrap_err();
        assert_eq!(e.message, "expected boolean value but got \"yes\"");
    }

    /// A quoted literal that spells a number is that number as a truth
    /// value too, exactly as a variable holding it is.
    #[test]
    fn quoted_numbers_are_truth_values() {
        use crate::interp::{Interp, NoHost};
        for (src, want) in [
            (r#"expr {"1" && 1}"#, "1"),
            (r#"if {"1"} { set r yes } else { set r no }"#, "yes"),
            (r#"set x "1"; if {$x} { set r yes }"#, "yes"),
            (r#"expr {!"0" && "2.5"}"#, "1"),
            (r#"expr {"0x0" ? 1 : 2}"#, "2"),
            (r#"expr {"2" + 3}"#, "5"),
        ] {
            let got = Interp::new().eval(&mut NoHost, src).map_err(|e| e.message);
            assert_eq!(got.as_deref(), Ok(want), "{src}");
        }
    }

    /// The paper's filters count, compare and guard; what else Tcl's
    /// `expr` knows is refused when the expression is parsed, never
    /// evaluated to something. Growing the subset is a reviewed change to
    /// these lists.
    #[test]
    fn the_expression_subset_is_the_paper_subset() {
        for kept in [
            "1 + 2 - 3 * 4 / 5 % 6",
            "1 < 2 && 2 <= 3 || 3 > 4 && 4 >= 5",
            "1 == 1 && 1 != 2",
            "\"a\" eq \"a\" && \"a\" ne \"b\"",
            "!0 ? -1 : 2",
            "(0xF0 & 0x3C) ^ 0x40",
            "int(2.5) + .5 + 1e3",
            "$x + [twice 2]",
        ] {
            assert!(ev(kept).is_ok(), "{kept}");
        }
        let functions = [
            "abs", "double", "round", "floor", "ceil", "sqrt", "exp", "log", "log10", "sin", "cos",
            "tan", "atan", "atan2", "pow", "fmod", "hypot", "min", "max",
        ];
        for f in functions {
            let e = parse_expr(&format!("{f}(1)")).unwrap_err();
            assert_eq!(e.message, format!("unknown math function \"{f}\""));
            assert!(parse_expr(&format!("{f}(1, 2)")).is_err(), "{f}");
        }
        let operators = ["2 ** 3", "1 << 2", "8 >> 1", "1 | 2", "~0", "+1", "1 + +1"];
        let words = ["true", "false", "yes", "no", "on", "off", "TRUE", "Off"];
        let arrays = ["$a(1)", "$a($k) + 1", "$a() == 0"];
        let braced = ["{ACK} eq \"ACK\""];
        for src in operators
            .into_iter()
            .chain(words)
            .chain(arrays)
            .chain(braced)
        {
            assert!(parse_expr(src).is_err(), "{src} must not parse");
        }
        assert_eq!(
            parse_expr("$seen(ACK) > 0").unwrap_err().message,
            "can't read \"seen(…)\": no array variables"
        );
    }

    /// A string in an expression is quoted; Tcl's braced form is not in
    /// the subset.
    #[test]
    fn braced_string_literal() {
        assert_eq!(ev("\"abc\" eq \"abc\"").unwrap(), "1");
        assert_eq!(
            parse_expr("{abc} eq {abc}").unwrap_err().message,
            "invalid character \"{\" in expression"
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(ev("").is_err());
        assert!(ev("1 +").is_err());
        assert!(ev("(1").is_err());
        assert!(ev("1 2").is_err());
        assert!(ev("\"a\" + 1").is_err());
        assert!(ev("@").is_err());
    }

    #[test]
    fn hex_literals() {
        assert_eq!(ev("0xff").unwrap(), "255");
        assert_eq!(ev("0x10 + 1").unwrap(), "17");
    }

    #[test]
    fn overflow_detected() {
        assert!(ev("9223372036854775807 + 1").is_err());
        assert!(ev("-9223372036854775807 - 2").is_err());
    }

    #[test]
    fn double_formatting() {
        assert_eq!(fmt_double(2.0), "2.0");
        assert_eq!(fmt_double(2.5), "2.5");
        assert_eq!(fmt_double(0.1), "0.1");
    }

    #[test]
    fn analyze_collects_vars_and_cmds() {
        let s = analyze_expr("$x + $y * $x").unwrap();
        assert_eq!(s.vars, vec!["x", "y"]); // deduplicated, first-seen order
        assert!(s.cmd_scripts.is_empty());
        assert_eq!(s.constant, None);

        let s = analyze_expr("[msg_type] == \"ACK\" && $seen > $t").unwrap();
        assert_eq!(s.vars, vec!["seen", "t"]);
        assert_eq!(s.cmd_scripts, vec!["msg_type"]);
        assert_eq!(s.constant, None);
    }

    #[test]
    fn analyze_folds_constants() {
        assert_eq!(analyze_expr("1").unwrap().constant, Some(true));
        assert_eq!(analyze_expr("0").unwrap().constant, Some(false));
        assert_eq!(analyze_expr("2 > 3").unwrap().constant, Some(false));
        assert_eq!(analyze_expr("1 + 1 == 2").unwrap().constant, Some(true));
        // Substitutions make the value unknowable statically.
        assert_eq!(analyze_expr("$x > 0").unwrap().constant, None);
        // A constant that errors (divide by zero) has no truth value.
        assert_eq!(analyze_expr("1 / 0").unwrap().constant, None);
        // A non-boolean string constant has no truth value either.
        assert_eq!(analyze_expr("\"hello\"").unwrap().constant, None);
    }

    #[test]
    fn analyze_guard_recovers_lowered_conjuncts() {
        let atoms = analyze_guard("[msg_type] == \"COMMIT\" && [msg_dst] == 2").unwrap();
        assert_eq!(
            atoms,
            vec![
                GuardAtom::CmdEqStr {
                    cmd: "msg_type".into(),
                    value: "COMMIT".into(),
                    negated: false,
                },
                GuardAtom::CmdCmpInt {
                    cmd: "msg_dst".into(),
                    op: CmpOp::Eq,
                    value: 2,
                },
            ]
        );
        let atoms = analyze_guard("$c1 == 3").unwrap();
        assert_eq!(
            atoms,
            vec![GuardAtom::VarCmpInt {
                var: "c1".into(),
                op: CmpOp::Eq,
                value: 3,
            }]
        );
        // Mirrored spellings normalize; the operator flips with them.
        let atoms = analyze_guard("8 < [msg_len]").unwrap();
        assert_eq!(
            atoms,
            vec![GuardAtom::CmdCmpInt {
                cmd: "msg_len".into(),
                op: CmpOp::Gt,
                value: 8,
            }]
        );
        // Disjunctions and unrecognized shapes degrade to Opaque.
        let atoms = analyze_guard("[msg_type] eq \"ACK\" || $x > 0").unwrap();
        assert_eq!(atoms, vec![GuardAtom::Opaque]);
        let atoms = analyze_guard("$a == $b && [msg_len] >= 4").unwrap();
        assert_eq!(
            atoms,
            vec![
                GuardAtom::Opaque,
                GuardAtom::CmdCmpInt {
                    cmd: "msg_len".into(),
                    op: CmpOp::Ge,
                    value: 4,
                },
            ]
        );
    }

    #[test]
    fn analyze_rejects_malformed_sources() {
        assert!(analyze_expr("1 +").is_err());
        assert!(analyze_expr("").is_err());
    }
}
