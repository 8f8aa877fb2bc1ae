//! Script error and internal control-flow exception types.

use std::fmt;

use crate::parse::Span;
use crate::value::Value;

/// What class of failure a [`ScriptError`] reports.
///
/// Almost every error is [`General`](ScriptErrorKind::General) — a parse or
/// runtime failure of the script itself.
/// [`BudgetExhausted`](ScriptErrorKind::BudgetExhausted) is the watchdog class: the
/// interpreter's step budget ([`crate::Interp::set_step_budget`]) ran out,
/// which means the *script* may be fine but is looping — campaign runners
/// escalate it to a `Hung` verdict instead of treating it as a script bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScriptErrorKind {
    /// A parse or runtime error of the script.
    #[default]
    General,
    /// The interpreter's step budget ran out before the script finished.
    BudgetExhausted,
}

/// An error raised while parsing or evaluating a script.
///
/// The [`Display`](fmt::Display) form matches Tcl's terse error style
/// (lowercase, no trailing punctuation), e.g. `can't read "x": no such
/// variable`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line the error was raised on (0 if unknown).
    pub line: u32,
    /// 1-based source column the error was raised on (0 if unknown).
    pub col: u32,
    /// Failure class (almost always [`ScriptErrorKind::General`]).
    pub kind: ScriptErrorKind,
}

impl ScriptError {
    /// Creates an error with no source attribution.
    pub fn new(message: impl Into<String>) -> Self {
        ScriptError {
            message: message.into(),
            line: 0,
            col: 0,
            kind: ScriptErrorKind::General,
        }
    }

    /// Creates an error attributed to a source line (column unknown).
    pub fn at(line: u32, message: impl Into<String>) -> Self {
        ScriptError {
            message: message.into(),
            line,
            col: 0,
            kind: ScriptErrorKind::General,
        }
    }

    /// Creates an error attributed to an exact source position.
    pub fn at_span(span: Span, message: impl Into<String>) -> Self {
        ScriptError {
            message: message.into(),
            line: span.line,
            col: span.col,
            kind: ScriptErrorKind::General,
        }
    }

    /// Creates the step-budget-exhausted watchdog error.
    pub fn budget_exhausted(span: Span) -> Self {
        ScriptError {
            message: "script execution budget exhausted".to_string(),
            line: span.line,
            col: span.col,
            kind: ScriptErrorKind::BudgetExhausted,
        }
    }

    /// Whether this is the step-budget watchdog error (a looping script,
    /// not a broken one).
    pub fn is_budget_exhausted(&self) -> bool {
        self.kind == ScriptErrorKind::BudgetExhausted
    }

    /// The error's source position (`line`/`col` may be 0 = unknown).
    pub fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 && self.col > 0 {
            write!(f, "{} (line {}:{})", self.message, self.line, self.col)
        } else if self.line > 0 {
            write!(f, "{} (line {})", self.message, self.line)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ScriptError {}

/// Internal control flow used during evaluation: errors plus the non-error
/// exceptional returns of Tcl (`break`, `continue`, `return`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Exc {
    Error(ScriptError),
    Break,
    Continue,
    Return(Value),
}

impl From<ScriptError> for Exc {
    fn from(e: ScriptError) -> Self {
        Exc::Error(e)
    }
}

impl Exc {
    /// Converts a loop-less context's exception into a user-facing error.
    pub(crate) fn into_error(self) -> ScriptError {
        match self {
            Exc::Error(e) => e,
            Exc::Break => ScriptError::new("invoked \"break\" outside of a loop"),
            Exc::Continue => ScriptError::new("invoked \"continue\" outside of a loop"),
            Exc::Return(_) => ScriptError::new("invoked \"return\" outside of a proc"),
        }
    }
}

pub(crate) type EvalResult = Result<Value, Exc>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_line() {
        assert_eq!(ScriptError::new("boom").to_string(), "boom");
        assert_eq!(ScriptError::at(3, "boom").to_string(), "boom (line 3)");
        assert_eq!(
            ScriptError::at_span(Span::at(3, 7), "boom").to_string(),
            "boom (line 3:7)"
        );
    }

    #[test]
    fn budget_errors_carry_their_kind() {
        let e = ScriptError::budget_exhausted(Span::at(2, 5));
        assert!(e.is_budget_exhausted());
        assert_eq!(e.line, 2);
        assert_eq!(
            e.to_string(),
            "script execution budget exhausted (line 2:5)"
        );
        assert!(!ScriptError::new("boom").is_budget_exhausted());
    }

    #[test]
    fn exc_into_error() {
        assert_eq!(
            Exc::Break.into_error().message,
            "invoked \"break\" outside of a loop"
        );
        let e = ScriptError::new("x");
        assert_eq!(Exc::Error(e.clone()).into_error(), e);
    }
}
