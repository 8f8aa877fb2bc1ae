//! Tcl values with a dual representation.
//!
//! Every Tcl value is a string, but a counter that is only ever `incr`ed
//! and compared should not be formatted and re-parsed on every message. A
//! [`Value`] is therefore an integer, a double or a string — with one
//! invariant that keeps the representation invisible: an `Int` or `Dbl`
//! stands for exactly the text Tcl would print for it, and reading that
//! text back as an `expr` operand yields the same `Int` or `Dbl`. So a
//! string only becomes an `Int` when it is the integer's canonical
//! decimal spelling (`set x 007` stays the string `007`), and a double
//! result that prints like an integer becomes that integer
//! ([`Value::normalized`]).

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::error::ScriptError;

/// A Tcl value: integer, double, or string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Int(i64),
    Dbl(f64),
    Str(String),
}

impl Default for Value {
    /// The empty string — what a command with nothing to say returns.
    fn default() -> Self {
        Value::Str(String::new())
    }
}

impl Value {
    /// The empty string (allocates nothing).
    pub(crate) fn empty() -> Value {
        Value::default()
    }

    /// A 0/1 truth value.
    pub(crate) fn bool(b: bool) -> Value {
        Value::Int(b as i64)
    }

    /// A string as a stored value: an `Int` when it is that integer's
    /// canonical spelling, otherwise the string itself.
    pub(crate) fn from_text(s: &str) -> Value {
        canonical_int(s).map_or_else(|| Value::Str(s.to_string()), Value::Int)
    }

    /// [`from_text`](Value::from_text) of an owned string, which a
    /// non-canonical value keeps instead of copying.
    pub(crate) fn from_string(s: String) -> Value {
        canonical_int(&s).map_or(Value::Str(s), Value::Int)
    }

    /// This value as an `expr` operand: a string that spells a number is
    /// that number.
    pub(crate) fn into_operand(self) -> Value {
        match self {
            Value::Str(s) => parse_numeric(&s).unwrap_or(Value::Str(s)),
            v => v,
        }
    }

    /// A computed number as a stored value, upholding the read-back
    /// invariant at its two edges. A double that prints without a fraction
    /// or exponent (integral, 1e16 ≤ |d| < 2⁶³) reads back as the integer
    /// those digits spell, so it becomes that integer; `i64::MIN` prints
    /// digits that `expr` reads back as a double, so it becomes its text.
    pub(crate) fn normalized(self) -> Value {
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Value::Dbl(d) if d.fract() == 0.0 && (1e16..TWO_63).contains(&d.abs()) => {
                fmt_double(d).parse().map_or(self, Value::Int)
            }
            Value::Int(i64::MIN) => Value::Str(i64::MIN.to_string()),
            v => v,
        }
    }

    /// The value as Tcl prints it; a string is borrowed.
    pub(crate) fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Dbl(d) => Cow::Owned(fmt_double(*d)),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    /// The value as an owned string; a string is moved, not copied.
    pub(crate) fn into_string(self) -> String {
        match self {
            Value::Str(s) => s,
            v => v.text().into_owned(),
        }
    }

    /// Appends the value's text to `out`.
    pub(crate) fn write_to(&self, out: &mut String) {
        match self {
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Dbl(d) => out.push_str(&fmt_double(*d)),
            Value::Str(s) => out.push_str(s),
        }
    }

    /// A condition's truth: a number is true when it is not zero. A string
    /// is not a truth value (the subset has no boolean words).
    pub(crate) fn truthy(&self) -> Result<bool, ScriptError> {
        match self {
            Value::Int(i) => Ok(*i != 0),
            Value::Dbl(d) => Ok(*d != 0.0),
            Value::Str(s) => Err(ScriptError::new(format!(
                "expected boolean value but got \"{}\"",
                s.trim().to_ascii_lowercase()
            ))),
        }
    }

    /// The number this value is or spells, if any.
    pub(crate) fn numeric(&self) -> Option<Value> {
        match self {
            Value::Int(_) | Value::Dbl(_) => Some(self.clone()),
            Value::Str(s) => parse_numeric(s),
        }
    }
}

/// The integer `s` is the canonical decimal spelling of, if it is one:
/// optional `-`, no leading zeros, no `-0`, no surrounding space. Up to 18
/// digits, which cannot overflow; longer spellings stay strings.
fn canonical_int(s: &str) -> Option<i64> {
    let (neg, digits) = match s.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        all => (false, all),
    };
    match digits {
        [b'0'] if !neg => return Some(0),
        [b'1'..=b'9', ..] if digits.len() <= 18 => {}
        _ => return None,
    }
    let mut v = 0i64;
    for b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + i64::from(b - b'0');
    }
    Some(if neg { -v } else { v })
}

/// The integer (decimal or hex) or double a Tcl string spells, if any.
fn parse_numeric(s: &str) -> Option<Value> {
    let t = s.trim();
    // Every spelling either parser accepts starts with a digit, a sign, a
    // point, or the `i`/`n` of `inf`/`nan`: a message type or any other
    // word (the other side of most guards) is ruled out on its first byte.
    if !matches!(
        t.as_bytes().first()?,
        b'0'..=b'9' | b'+' | b'-' | b'.' | b'i' | b'I' | b'n' | b'N'
    ) {
        return None;
    }
    if let Some(i) = parse_int(t) {
        return Some(Value::Int(i));
    }
    // Tcl accepts Inf/NaN spellings as doubles; so does `f64::from_str`.
    t.parse::<f64>().ok().map(Value::Dbl)
}

pub(crate) fn parse_int(t: &str) -> Option<i64> {
    let (neg, body) = match t.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

/// Formats a double the way Tcl prints expr results: integral values keep a
/// trailing `.0` so the type stays visible.
pub(crate) fn fmt_double(d: f64) -> String {
    if d.is_finite() && d.fract() == 0.0 && d.abs() < 1e16 {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_canonical_spellings_become_integers() {
        for (text, want) in [
            ("0", Some(0)),
            ("7", Some(7)),
            ("-7", Some(-7)),
            ("123456789012345678", Some(123_456_789_012_345_678)),
            ("007", None),
            ("-0", None),
            ("+7", None),
            (" 7", None),
            ("7 ", None),
            ("0x10", None),
            ("1.0", None),
            ("", None),
            ("-", None),
            ("12a", None),
            ("9223372036854775807", None),
        ] {
            assert_eq!(canonical_int(text), want, "{text:?}");
            let v = Value::from_text(text);
            assert_eq!(v.text(), text, "{text:?} must read back unchanged");
            assert_eq!(matches!(v, Value::Int(_)), want.is_some(), "{text:?}");
        }
    }

    /// The first-byte shortcut of `parse_numeric` rules out nothing either
    /// parser would have accepted.
    #[test]
    fn every_numeric_spelling_survives_the_first_byte_check() {
        for text in [
            "0",
            "7",
            "-7",
            "+7",
            " 12 ",
            "0x1F",
            "-0X10",
            ".5",
            "-.5",
            "+.5e3",
            "1e3",
            "1.",
            "inf",
            "-inf",
            "+Infinity",
            "INF",
            "nan",
            "NaN",
            "-nan",
            "infinity",
        ] {
            let slow = parse_int(text.trim())
                .map(Value::Int)
                .or_else(|| text.trim().parse().ok().map(Value::Dbl));
            assert!(slow.is_some(), "{text:?} is a number");
            let fast = parse_numeric(text);
            match (&fast, &slow) {
                (Some(Value::Dbl(a)), Some(Value::Dbl(b))) if a.is_nan() => assert!(b.is_nan()),
                _ => assert_eq!(fast, slow, "{text:?}"),
            }
        }
        for text in [
            "", "  ", "ACK", "COMMIT", "none", "NACK", "e3", "x10", "_1", "(1)",
        ] {
            assert_eq!(parse_numeric(text), None, "{text:?}");
        }
    }

    /// The invariant the engine rests on: a typed value and its text are
    /// the same `expr` operand.
    #[test]
    fn a_typed_value_reads_back_as_itself() {
        let reads_back = |v: Value, text: String| {
            assert_eq!(v.text(), text);
            if !matches!(v, Value::Str(_)) {
                assert_eq!(Value::Str(text.clone()).into_operand(), v, "{text}");
            }
        };
        let doubles = [
            0.0,
            -0.0,
            0.5,
            2.0,
            -3.25,
            1e15,
            9_999_999_999_999_998.0,
            1e16,
            1e17,
            -1e17,
            1_152_921_504_606_846_976.0, // 2^60: prints rounded digits
            9.2e18,
            9_223_372_036_854_774_784.0,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            1e19,
            1e300,
            1e-7,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for d in doubles {
            reads_back(Value::Dbl(d).normalized(), fmt_double(d));
        }
        assert!(matches!(Value::Dbl(f64::NAN).normalized(), Value::Dbl(d) if d.is_nan()));
        for i in [
            0,
            1,
            -1,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
            10_000_000_000_000_000,
        ] {
            reads_back(Value::Int(i).normalized(), i.to_string());
        }
        assert_eq!(
            Value::Dbl(1e17).normalized(),
            Value::Int(100_000_000_000_000_000)
        );
        assert!(matches!(Value::Int(i64::MIN).normalized(), Value::Str(_)));
    }
}
