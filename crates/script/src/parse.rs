//! Parser for the Tcl-subset scripting language.
//!
//! Follows Tcl's word rules: commands are separated by newlines or `;`,
//! words by whitespace. A word is either `{braced}` (literal, nestable),
//! `"quoted"` (with `$`, `[…]`, and `\` substitution), or bare (same
//! substitutions). `[…]` holds a nested script, parsed recursively so that
//! arbitrary nesting of braces/brackets/quotes works structurally.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::builtins::{lookup_builtin, BuiltinInfo};
use crate::error::ScriptError;
use crate::expr::{parse_expr, ExprAst};
use crate::gate::TypeGate;
use crate::list::list_parse;

/// A line/column position in script source (both 1-based; `0` = unknown).
///
/// Spans point at the first character of the construct they describe and
/// are carried on every parsed [`Command`] and [`Word`], so both runtime
/// errors and static analysis (`pfi-lint`) can report exact positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Span {
    /// A span at an explicit line/column.
    pub fn at(line: u32, col: u32) -> Span {
        Span { line, col }
    }
}

/// A parsed script: a sequence of commands — the compiled form the
/// interpreter evaluates.
///
/// Parsing is separated from evaluation so that filter scripts can be parsed
/// once when installed into a PFI layer and then executed per message.
/// Everything that is a function of the source text alone is resolved
/// here and never again: a command whose first word is a literal builtin
/// name carries that builtin, and a braced word remembers its compiled
/// body or expression from the first evaluation that uses it as one
/// ([`Braced`]). Nothing an interpreter knows (procs, variables, the
/// host) is ever stored in a script, so one `Arc<Script>` serves any
/// number of interpreters and threads.
///
/// # Examples
///
/// ```
/// use pfi_script::Script;
///
/// let s = Script::parse("set x 1; incr x").unwrap();
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone)]
pub struct Script {
    pub(crate) commands: Vec<Command>,
    /// [`Script::type_gate`], decided on first use. Boxed: every `[…]`
    /// word holds a script, and an unboxed gate would widen them all.
    gate: OnceLock<Option<Box<TypeGate>>>,
}

/// Scripts are equal when their commands are: the gate follows from them.
impl PartialEq for Script {
    fn eq(&self, other: &Self) -> bool {
        self.commands == other.commands
    }
}

impl fmt::Debug for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Script")
            .field("commands", &self.commands)
            .finish()
    }
}

impl Script {
    /// Parses source text into a script.
    ///
    /// # Errors
    ///
    /// Returns a [`ScriptError`] on malformed input (unbalanced braces,
    /// brackets, or quotes, or trailing garbage after a closing brace).
    pub fn parse(src: &str) -> Result<Script, ScriptError> {
        Self::parse_at(src, Span::at(1, 1))
    }

    /// Parses source text that originated at `origin` within a larger
    /// script (e.g. the contents of a braced word), so that command spans
    /// and parse errors come out in the enclosing script's coordinates.
    ///
    /// # Errors
    ///
    /// Returns a [`ScriptError`] on malformed input, positioned relative
    /// to `origin`.
    pub fn parse_at(src: &str, origin: Span) -> Result<Script, ScriptError> {
        let mut p = Parser::new_at(src, origin);
        let script = p.parse_script(None)?;
        Ok(script)
    }

    /// Number of commands in the script.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the script contains no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// The parsed commands, in source order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// What this script can act on when it is made only of clauses
    /// guarded by `[msg_type] == "literal"`; `None` for any other shape.
    /// Decided on the first call and remembered.
    pub fn type_gate(&self) -> Option<&TypeGate> {
        self.gate
            .get_or_init(|| TypeGate::of(self).map(Box::new))
            .as_deref()
    }
}

/// One command: a list of words, plus the source position it starts at.
#[derive(Debug, Clone)]
pub struct Command {
    pub(crate) words: Vec<Word>,
    pub(crate) span: Span,
    pub(crate) head: Head,
}

/// What word 0 of a command says about which command runs — as much of
/// dispatch as the source alone decides.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Head {
    /// A literal builtin name. Builtins win over procs and host commands
    /// of the same name, so the builtin is resolved here, once.
    Builtin(&'static BuiltinInfo),
    /// A literal that names no builtin: a proc or a host command, which
    /// only the interpreter running it can tell.
    Named,
    /// A substitution: known when it has been evaluated.
    Computed,
}

/// Commands are equal when their source is: `head` follows from word 0.
impl PartialEq for Command {
    fn eq(&self, other: &Self) -> bool {
        self.span == other.span && self.words == other.words
    }
}

impl Command {
    /// The command's words (word 0 is the command name).
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Source position of the command's first word.
    pub fn span(&self) -> Span {
        self.span
    }
}

/// One word of a command, with the source position it starts at.
#[derive(Debug, Clone, PartialEq)]
pub enum Word {
    /// `{…}`: a literal with no substitution. The span points at the
    /// opening brace; the content starts one column later.
    Braced(Braced, Span),
    /// Bare or `"…"`: concatenation of parts, substituted at eval time.
    Parts(Vec<Part>, Span),
}

impl Word {
    /// Source position of the word's first character.
    pub fn span(&self) -> Span {
        match self {
            Word::Braced(_, s) | Word::Parts(_, s) => *s,
        }
    }
}

/// The content of a `{…}` word, with the compiled form of that content
/// bound beside it.
///
/// Dereferences to the raw text. The first evaluation that uses the word
/// as a script body (`if`/`while`/`for`/`foreach`/`catch`/`eval`/`proc`),
/// an `expr` source or a `switch` arm list compiles it and leaves the
/// result here; later evaluations — by any interpreter, on any thread —
/// read it back without a cache lookup. Binding is lazy, so a body that
/// is never taken is never parsed and its errors are never raised; a
/// compile error is returned to the caller and not remembered. What is
/// bound is a function of the text alone.
#[derive(Clone)]
pub struct Braced {
    text: String,
    bound: OnceLock<Bound>,
}

/// What a braced word has been used as.
#[derive(Clone)]
pub(crate) enum Bound {
    Script(Arc<Script>),
    Expr(Arc<ExprAst>),
    Arms(Arc<SwitchArms>),
}

/// A compiled form a braced word can be bound as.
pub(crate) trait Bind: Sized {
    fn compile(src: &str) -> Result<Self, ScriptError>;
    fn wrap(this: Arc<Self>) -> Bound;
    fn unwrap(bound: &Bound) -> Option<&Arc<Self>>;
}

impl Bind for Script {
    fn compile(src: &str) -> Result<Self, ScriptError> {
        Script::parse(src)
    }
    fn wrap(this: Arc<Self>) -> Bound {
        Bound::Script(this)
    }
    fn unwrap(bound: &Bound) -> Option<&Arc<Self>> {
        match bound {
            Bound::Script(s) => Some(s),
            _ => None,
        }
    }
}

impl Bind for ExprAst {
    fn compile(src: &str) -> Result<Self, ScriptError> {
        parse_expr(src)
    }
    fn wrap(this: Arc<Self>) -> Bound {
        Bound::Expr(this)
    }
    fn unwrap(bound: &Bound) -> Option<&Arc<Self>> {
        match bound {
            Bound::Expr(e) => Some(e),
            _ => None,
        }
    }
}

/// The `{pattern body …}` word of a `switch`, split once: patterns and
/// bodies alternate, and each body binds its own script.
#[derive(Debug)]
pub(crate) struct SwitchArms(pub(crate) Vec<Braced>);

impl Bind for SwitchArms {
    fn compile(src: &str) -> Result<Self, ScriptError> {
        Ok(SwitchArms(
            list_parse(src)?.into_iter().map(Braced::new).collect(),
        ))
    }
    fn wrap(this: Arc<Self>) -> Bound {
        Bound::Arms(this)
    }
    fn unwrap(bound: &Bound) -> Option<&Arc<Self>> {
        match bound {
            Bound::Arms(a) => Some(a),
            _ => None,
        }
    }
}

impl Braced {
    fn new(text: String) -> Self {
        Braced {
            text,
            bound: OnceLock::new(),
        }
    }

    /// The word's text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The word compiled as a `T`, compiling on first use; `compiled`
    /// reports that a compile was made (even one that failed), so an
    /// interpreter can count it as a cache miss. `None` when the word is
    /// already bound as another kind (`$kw {…}` deciding at run time
    /// whether `{…}` is a body or a condition): the caller compiles
    /// through its own cache instead.
    pub(crate) fn bound<T: Bind>(
        &self,
        compiled: &mut bool,
    ) -> Result<Option<&Arc<T>>, ScriptError> {
        if let Some(bound) = self.bound.get() {
            return Ok(T::unwrap(bound));
        }
        *compiled = true;
        let fresh = T::wrap(Arc::new(T::compile(&self.text)?));
        // A concurrent evaluation may have bound the word first; its
        // result is the same function of the same text.
        Ok(T::unwrap(self.bound.get_or_init(|| fresh)))
    }
}

impl Deref for Braced {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl fmt::Debug for Braced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.text, f)
    }
}

/// Braced words are equal when their text is; what is bound follows from it.
impl PartialEq for Braced {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

/// A fragment of a substituting word.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// Literal text.
    Lit(String),
    /// `$name` / `${name}` variable substitution.
    Var(String),
    /// `$name(index)` array-element substitution; the index itself is
    /// substituted at eval time.
    ArrVar(String, Vec<Part>),
    /// `[…]` command substitution (pre-parsed).
    Cmd(Script),
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Parser {
    fn new_at(src: &str, origin: Span) -> Self {
        Parser {
            chars: src.chars().collect(),
            pos: 0,
            line: origin.line.max(1),
            col: origin.col.max(1),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScriptError {
        ScriptError::at_span(self.span(), msg)
    }

    /// Skips spaces/tabs and backslash-newline continuations (not command
    /// separators).
    fn skip_blank(&mut self) {
        loop {
            match self.peek() {
                Some(' ') | Some('\t') | Some('\r') => {
                    self.bump();
                }
                Some('\\') if self.chars.get(self.pos + 1) == Some(&'\n') => {
                    self.bump();
                    self.bump();
                }
                _ => break,
            }
        }
    }

    /// Parses a script until EOF or the given terminator character (which is
    /// consumed).
    fn parse_script(&mut self, terminator: Option<char>) -> Result<Script, ScriptError> {
        let mut commands = Vec::new();
        loop {
            self.skip_blank();
            match self.peek() {
                None => {
                    if let Some(t) = terminator {
                        return Err(self.err(format!("missing close-{}", name_of(t))));
                    }
                    break;
                }
                Some(c) if Some(c) == terminator => {
                    self.bump();
                    break;
                }
                Some('\n') | Some(';') => {
                    self.bump();
                }
                Some('#') => {
                    // Comment to end of line.
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        // Backslash-newline continues the comment.
                        if c == '\\' && self.chars.get(self.pos + 1) == Some(&'\n') {
                            self.bump();
                        }
                        self.bump();
                    }
                }
                Some(_) => {
                    let cmd = self.parse_command(terminator)?;
                    if !cmd.words.is_empty() {
                        commands.push(cmd);
                    }
                }
            }
        }
        Ok(Script {
            commands,
            gate: OnceLock::new(),
        })
    }

    /// Parses one command; stops (without consuming) at `\n`, `;`, EOF, or
    /// the enclosing terminator.
    fn parse_command(&mut self, terminator: Option<char>) -> Result<Command, ScriptError> {
        let span = self.span();
        let mut words = Vec::new();
        loop {
            self.skip_blank();
            match self.peek() {
                None => break,
                Some(c) if c == '\n' || c == ';' => break,
                Some(c) if Some(c) == terminator => break,
                Some(_) => words.push(self.parse_word(terminator)?),
            }
        }
        let literal = match words.first() {
            Some(Word::Braced(name, _)) => Some(name.as_str()),
            Some(Word::Parts(parts, _)) => match parts.as_slice() {
                [Part::Lit(name)] => Some(name.as_str()),
                _ => None,
            },
            None => None,
        };
        let head = match literal {
            Some(name) => lookup_builtin(name).map_or(Head::Named, Head::Builtin),
            None => Head::Computed,
        };
        Ok(Command { words, span, head })
    }

    fn at_word_end(&self, terminator: Option<char>) -> bool {
        match self.peek() {
            None => true,
            Some(c) => {
                c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' || Some(c) == terminator
            }
        }
    }

    fn parse_word(&mut self, terminator: Option<char>) -> Result<Word, ScriptError> {
        let span = self.span();
        match self.peek() {
            Some('{') => {
                let content = self.parse_braced()?;
                if !self.at_word_end(terminator) {
                    return Err(self.err("extra characters after close-brace"));
                }
                Ok(Word::Braced(Braced::new(content), span))
            }
            Some('"') => {
                self.bump();
                let parts = self.parse_parts(PartsEnd::Quote)?;
                if !self.at_word_end(terminator) {
                    return Err(self.err("extra characters after close-quote"));
                }
                Ok(Word::Parts(parts, span))
            }
            _ => {
                let parts = self.parse_parts(PartsEnd::Bare(terminator))?;
                Ok(Word::Parts(parts, span))
            }
        }
    }

    /// Parses `{…}` with nesting; returns the raw content.
    fn parse_braced(&mut self) -> Result<String, ScriptError> {
        debug_assert_eq!(self.peek(), Some('{'));
        self.bump();
        let mut depth = 1usize;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("missing close-brace")),
                Some('\\') => {
                    // A backslash escapes the next character (kept verbatim,
                    // including the backslash, per Tcl brace semantics).
                    out.push('\\');
                    if let Some(c) = self.bump() {
                        out.push(c);
                    }
                }
                Some('{') => {
                    depth += 1;
                    out.push('{');
                }
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(out);
                    }
                    out.push('}');
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_parts(&mut self, end: PartsEnd) -> Result<Vec<Part>, ScriptError> {
        let mut parts = Vec::new();
        let mut lit = String::new();
        macro_rules! flush {
            () => {
                if !lit.is_empty() {
                    parts.push(Part::Lit(std::mem::take(&mut lit)));
                }
            };
        }
        loop {
            let c = match self.peek() {
                None => {
                    match end {
                        PartsEnd::Quote => return Err(self.err("missing close-quote")),
                        PartsEnd::Paren => {
                            return Err(self.err("missing close-paren for array index"))
                        }
                        PartsEnd::Bare(_) => {}
                    }
                    break;
                }
                Some(c) => c,
            };
            match end {
                PartsEnd::Quote => {
                    if c == '"' {
                        self.bump();
                        break;
                    }
                }
                PartsEnd::Paren => {
                    if c == ')' {
                        self.bump();
                        break;
                    }
                }
                PartsEnd::Bare(term) => {
                    if c == ' '
                        || c == '\t'
                        || c == '\r'
                        || c == '\n'
                        || c == ';'
                        || Some(c) == term
                    {
                        break;
                    }
                }
            }
            match c {
                '\\' => {
                    self.bump();
                    match self.bump() {
                        None => lit.push('\\'),
                        Some('n') => lit.push('\n'),
                        Some('t') => lit.push('\t'),
                        Some('r') => lit.push('\r'),
                        Some('\n') => lit.push(' '), // line continuation
                        Some(other) => lit.push(other),
                    }
                }
                '$' => {
                    self.bump();
                    let braced_name = self.peek() == Some('{');
                    let name = self.parse_var_name()?;
                    match name {
                        Some(n) => {
                            flush!();
                            // `$name(index)`: an array element (only for
                            // bare names; `${a}(x)` is a var plus literal).
                            if !braced_name && self.peek() == Some('(') {
                                self.bump();
                                let index = self.parse_parts(PartsEnd::Paren)?;
                                parts.push(Part::ArrVar(n, index));
                            } else {
                                parts.push(Part::Var(n));
                            }
                        }
                        None => lit.push('$'),
                    }
                }
                '[' => {
                    self.bump();
                    let script = self.parse_script(Some(']'))?;
                    flush!();
                    parts.push(Part::Cmd(script));
                }
                other => {
                    self.bump();
                    lit.push(other);
                }
            }
        }
        flush!();
        if parts.is_empty() {
            parts.push(Part::Lit(String::new()));
        }
        Ok(parts)
    }

    /// Parses the name after `$`; `None` means the `$` was literal.
    fn parse_var_name(&mut self) -> Result<Option<String>, ScriptError> {
        match self.peek() {
            Some('{') => {
                self.bump();
                let mut name = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.err("missing close-brace for variable name")),
                        Some('}') => break,
                        Some(c) => name.push(c),
                    }
                }
                Ok(Some(name))
            }
            Some(c) if c.is_ascii_alphanumeric() || c == '_' => {
                let mut name = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Some(name))
            }
            _ => Ok(None),
        }
    }
}

#[derive(Clone, Copy)]
enum PartsEnd {
    Quote,
    Bare(Option<char>),
    /// Array index: runs to the matching `)`.
    Paren,
}

fn name_of(c: char) -> &'static str {
    match c {
        ']' => "bracket",
        '}' => "brace",
        _ => "delimiter",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<Word> {
        let s = Script::parse(src).unwrap();
        assert_eq!(s.commands.len(), 1, "expected one command in {src:?}");
        s.commands[0].words.clone()
    }

    /// The parts of a substituting word (panics on braced words).
    fn parts(w: &Word) -> &[Part] {
        match w {
            Word::Parts(p, _) => p,
            other => panic!("expected a parts word, got {other:?}"),
        }
    }

    /// The content of a braced word (panics on substituting words).
    fn braced(w: &Word) -> &str {
        match w {
            Word::Braced(s, _) => s.as_str(),
            other => panic!("expected a braced word, got {other:?}"),
        }
    }

    #[test]
    fn simple_command_splits_words() {
        let w = words("set x 10");
        assert_eq!(w.len(), 3);
        assert_eq!(parts(&w[0]), &[Part::Lit("set".into())]);
    }

    #[test]
    fn commands_split_on_newline_and_semicolon() {
        let s = Script::parse("a\nb; c\n\n;\nd").unwrap();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn comments_are_skipped() {
        let s = Script::parse("# a comment\nset x 1\n  # another ; with ; semis\nset y 2").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn braced_word_is_literal() {
        let w = words("set x {hello $world [cmd]}");
        assert_eq!(braced(&w[2]), "hello $world [cmd]");
    }

    #[test]
    fn braces_nest() {
        let w = words("proc f {} {if {1} {puts hi}}");
        assert_eq!(braced(&w[3]), "if {1} {puts hi}");
    }

    #[test]
    fn quoted_word_substitutes() {
        let w = words(r#"puts "x is $x!""#);
        assert_eq!(
            parts(&w[1]),
            &[
                Part::Lit("x is ".into()),
                Part::Var("x".into()),
                Part::Lit("!".into())
            ]
        );
    }

    #[test]
    fn bare_word_with_var_and_cmd() {
        let w = words("set y $x[foo]z");
        let p = parts(&w[2]);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], Part::Var("x".into()));
        assert!(matches!(p[1], Part::Cmd(_)));
        assert_eq!(p[2], Part::Lit("z".into()));
    }

    #[test]
    fn dollar_brace_var() {
        let w = words("puts ${weird name}");
        assert_eq!(parts(&w[1]), &[Part::Var("weird name".into())]);
    }

    #[test]
    fn lone_dollar_is_literal() {
        let w = words("puts a$ b");
        assert_eq!(parts(&w[1]), &[Part::Lit("a$".into())]);
    }

    #[test]
    fn escapes_in_bare_and_quoted() {
        let w = words(r#"puts a\ b"#);
        assert_eq!(parts(&w[1]), &[Part::Lit("a b".into())]);
        let w = words(r#"puts "tab\there""#);
        assert_eq!(parts(&w[1]), &[Part::Lit("tab\there".into())]);
    }

    #[test]
    fn escaped_dollar_is_literal() {
        let w = words(r#"puts \$x"#);
        assert_eq!(parts(&w[1]), &[Part::Lit("$x".into())]);
    }

    #[test]
    fn line_continuation_joins_command() {
        let s = Script::parse("set x \\\n 5").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.commands[0].words.len(), 3);
    }

    #[test]
    fn nested_brackets_parse_recursively() {
        let w = words("set x [outer [inner a b] c]");
        match &parts(&w[2])[0] {
            Part::Cmd(s) => {
                assert_eq!(s.len(), 1);
                assert_eq!(s.commands[0].words.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn brackets_containing_braces_with_brackets() {
        // The braced word inside the bracket contains an unbalanced-looking
        // bracket; structural parsing must handle it.
        let w = words("set x [switch -glob $v {[a]} {set r 1}]");
        assert!(matches!(&parts(&w[2])[0], Part::Cmd(_)));
    }

    #[test]
    fn unbalanced_inputs_error() {
        assert!(Script::parse("set x {oops").is_err());
        assert!(Script::parse("set x [oops").is_err());
        assert!(Script::parse("set x \"oops").is_err());
        assert!(Script::parse("set x {a}b").is_err());
    }

    #[test]
    fn error_carries_line_and_column() {
        let e = Script::parse("set a 1\nset b \"unclosed").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 16); // one past the end of `set b "unclosed`
        let e = Script::parse("set x {a}b").unwrap_err();
        assert_eq!((e.line, e.col), (1, 10));
    }

    #[test]
    fn empty_and_whitespace_scripts() {
        assert!(Script::parse("").unwrap().is_empty());
        assert!(Script::parse("  \n\t ;; \n# just a comment")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn backslash_escaped_brace_inside_braces() {
        let w = words(r"set x {a\}b}");
        assert_eq!(braced(&w[2]), r"a\}b");
    }

    #[test]
    fn command_line_numbers() {
        let s = Script::parse("a\n\nb\nc").unwrap();
        let lines: Vec<u32> = s.commands.iter().map(|c| c.span.line).collect();
        assert_eq!(lines, vec![1, 3, 4]);
    }

    #[test]
    fn command_and_word_columns() {
        let s = Script::parse("set x 1\n  incr  counter 2").unwrap();
        assert_eq!(s.commands[0].span, Span::at(1, 1));
        assert_eq!(s.commands[1].span, Span::at(2, 3));
        let w = &s.commands[1].words;
        assert_eq!(w[0].span(), Span::at(2, 3));
        assert_eq!(w[1].span(), Span::at(2, 9));
        assert_eq!(w[2].span(), Span::at(2, 17));
    }

    #[test]
    fn braced_words_carry_the_open_brace_span() {
        let s = Script::parse("if {$x} {\n  puts hi\n}").unwrap();
        let w = &s.commands[0].words;
        assert_eq!(w[1].span(), Span::at(1, 4));
        assert_eq!(w[2].span(), Span::at(1, 9));
    }

    #[test]
    fn parse_at_offsets_spans() {
        let s = Script::parse_at("puts a\nputs b", Span::at(5, 11)).unwrap();
        assert_eq!(s.commands[0].span, Span::at(5, 11));
        // After a newline the origin column no longer applies.
        assert_eq!(s.commands[1].span, Span::at(6, 1));
        let e = Script::parse_at("set x \"oops", Span::at(7, 3)).unwrap_err();
        assert_eq!(e.line, 7);
    }

    #[test]
    fn semicolon_inside_quotes_is_literal() {
        let s = Script::parse(r#"puts "a;b""#).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(parts(&s.commands[0].words[1]), &[Part::Lit("a;b".into())]);
    }

    #[test]
    fn multiline_braced_word() {
        let s = Script::parse("proc f {} {\n puts a\n puts b\n}").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.commands[0].words.len(), 4);
    }
}
