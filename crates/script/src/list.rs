//! Tcl list parsing (`foreach`, `proc` parameters, `switch` arms) and
//! formatting (a proc's `args`), plus glob matching for `switch -glob`.
//!
//! Tcl lists are strings: elements are separated by whitespace; elements
//! containing special characters are wrapped in braces (or backslash-escaped
//! when braces cannot represent them).

use crate::error::ScriptError;

/// Splits a Tcl list string into its elements.
///
/// # Errors
///
/// Returns an error on unbalanced braces or a missing close quote.
///
/// # Examples
///
/// ```
/// use pfi_script::list_parse;
///
/// let v = list_parse("a {b c} d").unwrap();
/// assert_eq!(v, vec!["a", "b c", "d"]);
/// ```
pub fn list_parse(src: &str) -> Result<Vec<String>, ScriptError> {
    let chars: Vec<char> = src.chars().collect();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < chars.len() {
        while pos < chars.len() && chars[pos].is_whitespace() {
            pos += 1;
        }
        if pos >= chars.len() {
            break;
        }
        match chars[pos] {
            '{' => {
                pos += 1;
                let mut depth = 1usize;
                let mut elem = String::new();
                loop {
                    if pos >= chars.len() {
                        return Err(ScriptError::new("unmatched open brace in list"));
                    }
                    let c = chars[pos];
                    pos += 1;
                    match c {
                        '\\' => {
                            elem.push('\\');
                            if pos < chars.len() {
                                elem.push(chars[pos]);
                                pos += 1;
                            }
                        }
                        '{' => {
                            depth += 1;
                            elem.push('{');
                        }
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                            elem.push('}');
                        }
                        c => elem.push(c),
                    }
                }
                if pos < chars.len() && !chars[pos].is_whitespace() {
                    return Err(ScriptError::new(
                        "list element in braces followed by garbage",
                    ));
                }
                out.push(elem);
            }
            '"' => {
                pos += 1;
                let mut elem = String::new();
                loop {
                    if pos >= chars.len() {
                        return Err(ScriptError::new("unmatched open quote in list"));
                    }
                    let c = chars[pos];
                    pos += 1;
                    match c {
                        '\\' => {
                            if pos < chars.len() {
                                elem.push(unescape(chars[pos]));
                                pos += 1;
                            }
                        }
                        '"' => break,
                        c => elem.push(c),
                    }
                }
                out.push(elem);
            }
            _ => {
                let mut elem = String::new();
                while pos < chars.len() && !chars[pos].is_whitespace() {
                    let c = chars[pos];
                    pos += 1;
                    if c == '\\' && pos < chars.len() {
                        elem.push(unescape(chars[pos]));
                        pos += 1;
                    } else {
                        elem.push(c);
                    }
                }
                out.push(elem);
            }
        }
    }
    Ok(out)
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

/// Joins elements into a Tcl list string, quoting as needed so that
/// [`list_parse`] recovers the original elements.
///
/// # Examples
///
/// ```
/// use pfi_script::{list_format, list_parse};
///
/// let elems = vec!["a".to_string(), "b c".to_string(), "".to_string()];
/// let s = list_format(&elems);
/// assert_eq!(list_parse(&s).unwrap(), elems);
/// ```
pub fn list_format<S: AsRef<str>>(elems: &[S]) -> String {
    let mut out = String::new();
    for (i, e) in elems.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&quote_elem(e.as_ref()));
    }
    out
}

fn needs_quoting(s: &str) -> bool {
    s.is_empty()
        || s.chars().any(|c| {
            c.is_whitespace() || matches!(c, '{' | '}' | '"' | '\\' | '[' | ']' | '$' | ';' | '#')
        })
}

fn braces_balanced(s: &str) -> bool {
    let mut depth = 0i64;
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                let _ = chars.next();
            }
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0
}

fn quote_elem(s: &str) -> String {
    if !needs_quoting(s) {
        return s.to_string();
    }
    if braces_balanced(s) && !s.ends_with('\\') {
        return format!("{{{s}}}");
    }
    // Fall back to backslash escaping.
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_whitespace()
                || matches!(c, '{' | '}' | '"' | '\\' | '[' | ']' | '$' | ';' | '#') =>
            {
                out.push('\\');
                out.push(c);
            }
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("{}");
    }
    out
}

/// Tcl-style glob matching (`switch -glob`): `*` matches any run, `?` any
/// single character, `[a-z]` character classes, `\x` escapes.
///
/// # Examples
///
/// ```
/// use pfi_script::glob_match;
///
/// assert!(glob_match("AC*", "ACK"));
/// assert!(glob_match("m[12]", "m2"));
/// assert!(!glob_match("?", "ab"));
/// ```
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    glob_inner(&p, &t)
}

fn glob_inner(p: &[char], t: &[char]) -> bool {
    if p.is_empty() {
        return t.is_empty();
    }
    match p[0] {
        '*' => {
            // Collapse runs of '*'.
            let rest = &p[1..];
            (0..=t.len()).any(|i| glob_inner(rest, &t[i..]))
        }
        '?' => !t.is_empty() && glob_inner(&p[1..], &t[1..]),
        '[' => {
            if t.is_empty() {
                return false;
            }
            let close = match p.iter().position(|&c| c == ']') {
                Some(i) if i > 0 => i,
                _ => return false,
            };
            let class = &p[1..close];
            if class_matches(class, t[0]) {
                glob_inner(&p[close + 1..], &t[1..])
            } else {
                false
            }
        }
        '\\' if p.len() > 1 => !t.is_empty() && p[1] == t[0] && glob_inner(&p[2..], &t[1..]),
        c => !t.is_empty() && c == t[0] && glob_inner(&p[1..], &t[1..]),
    }
}

fn class_matches(class: &[char], c: char) -> bool {
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            if class[i] <= c && c <= class[i + 2] {
                return true;
            }
            i += 3;
        } else {
            if class[i] == c {
                return true;
            }
            i += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        assert_eq!(list_parse("a b c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(list_parse("").unwrap(), Vec::<String>::new());
        assert_eq!(list_parse("  one  ").unwrap(), vec!["one"]);
    }

    #[test]
    fn parse_braced_elements() {
        assert_eq!(list_parse("{a b} c").unwrap(), vec!["a b", "c"]);
        assert_eq!(
            list_parse("{nested {braces here}}").unwrap(),
            vec!["nested {braces here}"]
        );
        assert_eq!(list_parse("{}").unwrap(), vec![""]);
    }

    #[test]
    fn parse_quoted_elements() {
        assert_eq!(list_parse(r#""a b" c"#).unwrap(), vec!["a b", "c"]);
    }

    #[test]
    fn parse_errors() {
        assert!(list_parse("{unbalanced").is_err());
        assert!(list_parse(r#""unclosed"#).is_err());
    }

    #[test]
    fn format_round_trips() {
        let cases: Vec<Vec<String>> = vec![
            vec!["a".into(), "b".into()],
            vec!["with space".into()],
            vec!["".into(), "".into()],
            vec!["{braces}".into(), "$dollar".into(), "semi;colon".into()],
            vec!["tab\there".into()],
            vec!["ends with backslash\\".into()],
            vec!["un{balanced".into()],
        ];
        for case in cases {
            let s = list_format(&case);
            assert_eq!(list_parse(&s).unwrap(), case, "formatted as {s:?}");
        }
    }

    #[test]
    fn glob_basics() {
        assert!(glob_match("", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("a*c", "ac"));
        assert!(!glob_match("a*c", "ab"));
        assert!(glob_match("??", "ab"));
        assert!(!glob_match("??", "a"));
    }

    #[test]
    fn glob_classes() {
        assert!(glob_match("[abc]x", "bx"));
        assert!(!glob_match("[abc]x", "dx"));
        assert!(glob_match("[a-f]*", "deadbeef"));
        assert!(!glob_match("[a-f]", "g"));
        assert!(!glob_match("[", "x"));
    }

    #[test]
    fn glob_escape() {
        assert!(glob_match(r"\*", "*"));
        assert!(!glob_match(r"\*", "x"));
    }

    #[test]
    fn multiple_stars() {
        assert!(glob_match("*a*b*", "xxaxxbxx"));
        assert!(!glob_match("*a*b*", "xxbxxaxx"));
    }
}
