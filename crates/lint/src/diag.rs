//! Diagnostic types and the rustc-style text renderer.

use std::fmt;

use pfi_script::Span;

/// How serious a finding is.
///
/// `Error` means the script cannot work as written (unknown command,
/// impossible arity, malformed body). `Warning` flags code that runs but
/// is almost certainly not what was meant. `Note` marks conservative
/// "maybe" findings the analysis cannot prove either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Conservative finding; may be fine.
    Note,
    /// Runs, but suspicious.
    Warning,
    /// Cannot work as written.
    Error,
}

impl Severity {
    /// The lowercase label used in rendered diagnostics.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What kind of defect a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Source text does not parse (top level, a script body, or an
    /// `expr`).
    ParseError,
    /// A statically-known command word resolves to nothing: not a
    /// builtin, not a host command, not a script-local proc.
    UnknownCommand,
    /// A known command is called with an impossible argument count.
    BadArity,
    /// A `$var` read of a name never assigned anywhere in the script.
    UndefVar,
    /// A `$var` read of a name assigned only on some paths (e.g. in one
    /// branch of an `if`), or after the read.
    MaybeUndefVar,
    /// A statement that can never execute (after `return`, `break`,
    /// `continue`, or `error`).
    DeadCode,
    /// An `if`/`while`/`for` condition that folds to a constant, making a
    /// branch or body inert.
    ConstantCondition,
    /// A command outside the deterministic allowlist (RNG-drawing
    /// commands): replayable under a fixed seed, but draw-order
    /// dependent.
    Nondeterministic,
    /// A script-local `proc` that is never called, statically or from any
    /// other proc body.
    DeadProc,
    /// A `proc` parameter its body never reads.
    UnusedParam,
    /// A scheduled fault the reachability analysis proved can never fire
    /// against the target's protocol spec and topology.
    InertFault,
}

impl Category {
    /// Every category, for CLI enumeration.
    pub const ALL: &'static [Category] = &[
        Category::ParseError,
        Category::UnknownCommand,
        Category::BadArity,
        Category::UndefVar,
        Category::MaybeUndefVar,
        Category::DeadCode,
        Category::ConstantCondition,
        Category::Nondeterministic,
        Category::DeadProc,
        Category::UnusedParam,
        Category::InertFault,
    ];

    /// The kebab-case slug used in rendered diagnostics and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::ParseError => "parse-error",
            Category::UnknownCommand => "unknown-command",
            Category::BadArity => "bad-arity",
            Category::UndefVar => "undef-var",
            Category::MaybeUndefVar => "maybe-undef-var",
            Category::DeadCode => "dead-code",
            Category::ConstantCondition => "constant-condition",
            Category::Nondeterministic => "nondeterministic",
            Category::DeadProc => "dead-proc",
            Category::UnusedParam => "unused-param",
            Category::InertFault => "inert-fault",
        }
    }

    /// Parses a CLI slug back into a category.
    pub fn from_slug(s: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

/// One finding: a severity, a category, an exact source position, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is (may be adjusted by CLI `--deny`/
    /// `--warn` before rendering).
    pub severity: Severity,
    /// What kind of defect this is.
    pub category: Category,
    /// Where in the source the finding anchors (1-based; 0 = unknown).
    pub span: Span,
    /// One-line description.
    pub message: String,
}

impl Diagnostic {
    /// Builds a finding. Public so campaign tooling (e.g. the schedule
    /// reachability analyzer) can report through the same renderer.
    pub fn new(
        severity: Severity,
        category: Category,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            category,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.category.as_str(),
            self.message
        )?;
        // An unknown span (line 0) has no position to show.
        if self.span.line > 0 {
            write!(f, " (line {}:{})", self.span.line, self.span.col)?;
        }
        Ok(())
    }
}

/// Renders diagnostics rustc-style against their source text:
///
/// ```text
/// error[unknown-command]: invalid command name "xDorp"
///   --> drop_acks.tcl:4:5
///    |
///  4 |     xDorp cur_msg
///    |     ^
/// ```
///
/// Diagnostics with an unknown span render without the source window.
pub fn render(src: &str, name: &str, diags: &[Diagnostic]) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}]: {}\n",
            d.severity.as_str(),
            d.category.as_str(),
            d.message
        ));
        if d.span.line == 0 {
            out.push_str(&format!("  --> {name}\n"));
            out.push('\n');
            continue;
        }
        out.push_str(&format!("  --> {name}:{}:{}\n", d.span.line, d.span.col));
        if let Some(text) = lines.get(d.span.line as usize - 1) {
            let n = d.span.line.to_string();
            let gutter = " ".repeat(n.len());
            out.push_str(&format!("{gutter} |\n"));
            out.push_str(&format!("{n} | {text}\n"));
            let col = (d.span.col as usize).max(1);
            let caret_pad: String = text
                .chars()
                .take(col - 1)
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            out.push_str(&format!("{gutter} | {caret_pad}^\n"));
        }
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if errors > 0 || warnings > 0 {
        let mut parts = Vec::new();
        if errors > 0 {
            parts.push(format!(
                "{errors} error{}",
                if errors == 1 { "" } else { "s" }
            ));
        }
        if warnings > 0 {
            parts.push(format!(
                "{warnings} warning{}",
                if warnings == 1 { "" } else { "s" }
            ));
        }
        out.push_str(&format!("{name}: {}\n", parts.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::from_slug(c.as_str()), Some(*c));
        }
        assert_eq!(Category::from_slug("nope"), None);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn render_points_at_the_column() {
        let src = "set x 1\nfrobnicate a b\n";
        let d = Diagnostic::new(
            Severity::Error,
            Category::UnknownCommand,
            Span::at(2, 1),
            "invalid command name \"frobnicate\"",
        );
        let out = render(src, "t.tcl", &[d]);
        assert!(out.contains("error[unknown-command]"), "{out}");
        assert!(out.contains("--> t.tcl:2:1"), "{out}");
        assert!(out.contains("2 | frobnicate a b"), "{out}");
        assert!(out.contains("  | ^"), "{out}");
        assert!(out.contains("t.tcl: 1 error"), "{out}");
    }
}
