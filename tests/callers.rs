//! Every capability has a caller.
//!
//! A public function in `crates/*/src`, a `PfiControl` variant or a PFI
//! host command is kept only if code other than tests names it: a target
//! or oracle, an experiment or `repro`, an example, a `scripts/*.tcl`
//! filter, a tool or `bench/`. What is kept without such a caller is listed,
//! one `name  reason` line each, in `tests/fixtures/kept-without-caller.txt`
//! (a variant as `PfiControl::Kill`, a command as `command:pfi_dir`).
//!
//! The check is a token scan, not a resolver. The scanned code is every
//! `.rs` file under `crates/*/src`, `src`, `examples` and `bench/src`, cut at
//! its first `#[cfg(test)]` and without its comments, plus `scripts/*.tcl`.
//! A name counts as called when it appears there other than right after
//! `fn`, and, for a function or a `PfiControl` variant, outside Rust string
//! and char literals: a help text or a wire verb that spells a function's
//! name does not call it. A command is still found inside strings, where
//! Rust code spells the scripts it evaluates. So a name reached only
//! through a trait, or shared with another item, is not told apart: such
//! an item goes on the list with its reason.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Where the kept list lives, relative to the root of the scanned tree.
const KEPT: &str = "tests/fixtures/kept-without-caller.txt";

/// What the check finds wrong with a tree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Finding {
    /// An item nothing names outside tests, and not on the kept list: its
    /// label and the file that defines it.
    Uncalled(String, String),
    /// A kept line whose item no longer exists.
    Gone(String),
    /// A kept line whose item now has a caller.
    Called(String),
    /// A kept line that is not `name  reason`, or repeats a name.
    Malformed(usize, String),
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Uncalled(label, file) => write!(
                f,
                "{label} ({file}): nothing outside tests names it; delete it, \
                 or keep it with a reason in {KEPT}"
            ),
            Finding::Gone(label) => write!(f, "{label}: kept in {KEPT}, but no such item exists"),
            Finding::Called(label) => {
                write!(
                    f,
                    "{label}: kept in {KEPT}, but it has a caller now; drop the line"
                )
            }
            Finding::Malformed(line, text) => {
                write!(
                    f,
                    "{KEPT}:{line}: not a `name  reason` line, or a repeat: {text:?}"
                )
            }
        }
    }
}

/// One scanned file: its path below the root, the lines that count, and
/// those lines' code: for Rust, without its literals and comments.
struct Source {
    path: String,
    lines: Vec<String>,
    code: String,
}

/// The identifier tokens of a line, in order.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// `text` with every Rust string and char literal and every comment
/// blanked out (lifetimes and labels stay).
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let find = |from: usize, pat: &[char]| {
        (from..chars.len())
            .find(|&j| chars[j..].starts_with(pat))
            .map_or(chars.len(), |j| j + pat.len())
    };
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let rest = &chars[i..];
        let raw = |at: usize| {
            let hashes = chars[at..].iter().take_while(|&&c| c == '#').count();
            (chars.get(at + hashes) == Some(&'"')).then(|| {
                let close: Vec<char> = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                find(at + hashes + 1, &close)
            })
        };
        let after_ident = i > 0 && ident(chars[i - 1]);
        // Where the literal or comment that starts here ends, if one does.
        let end = match rest {
            ['/', '/', ..] => Some(find(i, &['\n'])),
            ['/', '*', ..] => Some(find(i + 2, &['*', '/'])),
            ['"', ..] => {
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += if chars[j] == '\\' { 2 } else { 1 };
                }
                Some(j + 1)
            }
            ['r', ..] if !after_ident => raw(i + 1),
            ['b', 'r', ..] if !after_ident => raw(i + 2),
            ['\'', '\\', ..] => Some(find(i + 3, &['\''])),
            ['\'', _, '\'', ..] => Some(i + 3),
            _ => None,
        };
        match end {
            Some(end) => {
                out.push(' ');
                i = end.min(chars.len());
            }
            None => {
                out.push(chars[i]);
                i += 1;
            }
        }
    }
    out
}

/// The `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The scanned code of the tree at `root`.
fn load(root: &Path) -> Vec<Source> {
    let mut dirs = vec![
        root.join("src"),
        root.join("examples"),
        root.join("bench/src"),
    ];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .collect();
    crates.sort();
    dirs.extend(crates);
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    let relative = |p: &Path| p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
    let mut sources: Vec<Source> = files
        .iter()
        .map(|path| {
            let lines: Vec<String> = fs::read_to_string(path)
                .unwrap()
                .lines()
                .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
                .filter(|l| !l.trim_start().starts_with("//"))
                .map(String::from)
                .collect();
            Source {
                path: relative(path),
                code: code_only(&lines.join("\n")),
                lines,
            }
        })
        .collect();
    let mut scripts: Vec<PathBuf> = fs::read_dir(root.join("scripts"))
        .map(|dir| dir.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    scripts.retain(|p| p.extension().is_some_and(|e| e == "tcl"));
    scripts.sort();
    sources.extend(scripts.iter().map(|path| {
        let text = fs::read_to_string(path).unwrap();
        Source {
            path: relative(path),
            lines: text.lines().map(String::from).collect(),
            code: text,
        }
    }));
    sources
}

/// The items the rule covers, by label, each with the file defining it and
/// the files whose mentions do not count as callers.
fn items(sources: &[Source]) -> BTreeMap<String, (String, Vec<&'static str>)> {
    let mut items = BTreeMap::new();
    for src in sources.iter().filter(|s| s.path.starts_with("crates/")) {
        for line in &src.lines {
            let toks: Vec<&str> = tokens(line).collect();
            let at = match toks.as_slice() {
                ["pub", "fn", ..] => 2,
                ["pub", "const", "fn", ..] => 3,
                _ => continue,
            };
            if let Some(name) = toks.get(at) {
                items.insert(name.to_string(), (src.path.clone(), Vec::new()));
            }
        }
    }
    let file = |path: &str| sources.iter().find(|s| s.path == path);
    const CONTROL: &str = "crates/core/src/control.rs";
    if let Some(control) = file(CONTROL) {
        let variants = control
            .lines
            .iter()
            .skip_while(|l| !l.starts_with("pub enum PfiControl"))
            .skip(1)
            .take_while(|l| *l != "}");
        for line in variants {
            let ident = line.strip_prefix("    ").unwrap_or("");
            if ident.starts_with(|c: char| c.is_ascii_uppercase()) {
                let name = tokens(ident).next().unwrap();
                let skip = vec![CONTROL, "crates/core/src/layer.rs"];
                items.insert(format!("PfiControl::{name}"), (CONTROL.to_string(), skip));
            }
        }
    }
    const COMMANDS: &str = "crates/core/src/commands.rs";
    if let Some(commands) = file(COMMANDS) {
        let rows = commands
            .lines
            .iter()
            .skip_while(|l| !l.starts_with("const TABLE"))
            .take_while(|l| *l != "];");
        for row in rows {
            if let Some((_, rest)) = row.split_once("(\"") {
                let name = rest.split('"').next().unwrap();
                let skip = vec![COMMANDS, "crates/core/src/bindings.rs", "crates/lint/src/"];
                items.insert(format!("command:{name}"), (COMMANDS.to_string(), skip));
            }
        }
    }
    items
}

/// Every name the scanned code mentions other than right after `fn`, with
/// the files that mention it: in the code alone, or (`literals`) in its
/// string and char literals too.
fn mentions(sources: &[Source], literals: bool) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut seen: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for src in sources {
        let lines: Vec<&str> = if literals {
            src.lines.iter().map(String::as_str).collect()
        } else {
            vec![&src.code]
        };
        for line in lines {
            let mut prev = "";
            for tok in tokens(line) {
                if prev != "fn" {
                    seen.entry(tok).or_default().insert(&src.path);
                }
                prev = tok;
            }
        }
    }
    seen
}

/// Runs the rule over the tree at `root` against its kept list.
fn check(root: &Path) -> Vec<Finding> {
    let sources = load(root);
    let items = items(&sources);
    let (in_code, in_text) = (mentions(&sources, false), mentions(&sources, true));
    let called = |label: &str, skip: &[&str]| {
        let (seen, name) = match label.strip_prefix("command:") {
            Some(name) => (&in_text, name),
            None => (&in_code, label.rsplit(':').next().unwrap()),
        };
        seen.get(name)
            .is_some_and(|files| files.iter().any(|f| !skip.iter().any(|s| f.starts_with(s))))
    };

    let mut findings = Vec::new();
    let mut kept = BTreeSet::new();
    let text = fs::read_to_string(root.join(KEPT)).unwrap_or_default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let (label, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        if reason.trim().is_empty() || !kept.insert(label.to_string()) {
            findings.push(Finding::Malformed(i + 1, line.to_string()));
        } else if let Some((_, skip)) = items.get(label) {
            if called(label, skip) {
                findings.push(Finding::Called(label.to_string()));
            }
        } else {
            findings.push(Finding::Gone(label.to_string()));
        }
    }
    for (label, (file, skip)) in &items {
        if !kept.contains(label) && !called(label, skip) {
            findings.push(Finding::Uncalled(label.clone(), file.clone()));
        }
    }
    findings.sort();
    findings
}

#[test]
fn every_capability_has_a_caller() {
    let findings = check(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report: Vec<String> = findings.iter().map(Finding::to_string).collect();
    assert!(findings.is_empty(), "\n{}\n", report.join("\n"));
}

/// The scan reads the whole command table and the whole `PfiControl` enum:
/// a row or variant it missed would never be checked.
#[test]
fn the_scan_sees_every_command_and_control_op() {
    let sources = load(Path::new(env!("CARGO_MANIFEST_DIR")));
    let items = items(&sources);
    let scanned: Vec<&str> = items
        .keys()
        .filter_map(|label| label.strip_prefix("command:"))
        .collect();
    let table: Vec<&str> = pfi::core::CommandTable
        .commands()
        .iter()
        .map(|info| info.name)
        .collect();
    assert_eq!(scanned, table);
    for op in ["SetSendFilter", "Kill", "Revive", "Probe"] {
        assert!(items.contains_key(&format!("PfiControl::{op}")), "{op}");
    }
}

/// A fresh directory holding `files`, each `(path, contents)`.
fn tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("callers-{name}"));
    let _ = fs::remove_dir_all(&root);
    for (path, text) in files {
        let path = root.join(path);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }
    root
}

/// A small workspace with one item of every kind the rule covers, called
/// in every way the scan must tell apart.
const LIB: &str = "\
pub fn used() {}
pub fn only_tested() {}
pub fn only_commented() {}
pub fn only_in_tcl() {}
pub const fn kept_on_purpose() {}
pub(crate) fn internal() {}

fn caller() {
    // only_commented() is no caller.
    used();
}

#[cfg(test)]
mod tests {
    fn t() {
        super::only_tested();
    }
}
";

const CONTROL: &str = "\
pub enum PfiControl {
    /// Called from the example.
    Called,
    Dispatched(String),
}
";

const LAYER: &str = "\
fn control(op: PfiControl) {
    match op {
        PfiControl::Called => {}
        PfiControl::Dispatched(_) => {}
    }
}
";

const COMMANDS: &str = "\
const TABLE: &[CommandInfo] = &[
    cmd(\"called_cmd\", 0, Some(0)),
    rng_cmd(\"linted_cmd\", 1, Some(1)),
];
";

fn synthetic(name: &str, kept: &str) -> PathBuf {
    tree(
        name,
        &[
            ("crates/a/src/lib.rs", LIB),
            ("crates/core/src/control.rs", CONTROL),
            ("crates/core/src/layer.rs", LAYER),
            ("crates/core/src/commands.rs", COMMANDS),
            ("crates/core/src/bindings.rs", "\"linted_cmd\" => {}\n"),
            (
                "crates/lint/src/lib.rs",
                "const SEEN: &str = \"linted_cmd\";\n",
            ),
            ("examples/demo.rs", "fn main() { PfiControl::Called; }\n"),
            ("scripts/filter.tcl", "only_in_tcl\ncalled_cmd\n"),
            (KEPT, kept),
        ],
    )
}

#[test]
fn the_check_flags_what_only_tests_or_comments_name() {
    let kept = "# what stays without a caller\nkept_on_purpose  a reason\n";
    let root = synthetic("flags", kept);
    let uncalled = |label: &str, file: &str| Finding::Uncalled(label.into(), file.into());
    assert_eq!(
        check(&root),
        vec![
            uncalled("PfiControl::Dispatched", "crates/core/src/control.rs"),
            uncalled("command:linted_cmd", "crates/core/src/commands.rs"),
            uncalled("only_commented", "crates/a/src/lib.rs"),
            uncalled("only_tested", "crates/a/src/lib.rs"),
        ]
    );
}

#[test]
fn the_check_fails_on_stale_kept_lines() {
    let kept = "\
kept_on_purpose  a reason
gone_fn  deleted since
used  called since
PfiControl::Dispatched  kept on purpose
command:called_cmd  called since
only_tested
only_commented  listed
only_commented  twice
";
    let root = synthetic("stale", kept);
    assert_eq!(
        check(&root),
        vec![
            Finding::Uncalled(
                "command:linted_cmd".into(),
                "crates/core/src/commands.rs".into()
            ),
            Finding::Uncalled("only_tested".into(), "crates/a/src/lib.rs".into()),
            Finding::Gone("gone_fn".into()),
            Finding::Called("command:called_cmd".into()),
            Finding::Called("used".into()),
            Finding::Malformed(6, "only_tested".into()),
            Finding::Malformed(8, "only_commented  twice".into()),
        ]
    );
}

/// A function spelled only inside a string or char literal, or a comment,
/// has no caller; a command spelled only inside a Rust string has one.
#[test]
fn names_inside_literals_call_commands_but_not_functions() {
    const LIB: &str = r##"
pub fn only_in_strings() {}
pub fn after_a_quote_char() {}
pub fn after_a_raw_string() {}

fn caller() {
    let help = "only_in_strings: \"escaped\" too";
    let raw = r#"only_in_strings "quoted""#;
    let quote = '"';
    after_a_quote_char(); // only_in_strings, or an unclosed " here
    let bytes = br"only_in_strings";
    after_a_raw_string(); /* only_in_strings */
}
"##;
    let root = tree(
        "literals",
        &[
            ("crates/a/src/lib.rs", LIB),
            (
                "crates/core/src/commands.rs",
                "const TABLE: &[CommandInfo] = &[\n    cmd(\"string_cmd\", 0, Some(0)),\n];\n",
            ),
            (
                "examples/demo.rs",
                "fn main() { layer.eval(\"string_cmd; xDrop\"); }\n",
            ),
            (KEPT, ""),
        ],
    );
    assert_eq!(
        check(&root),
        vec![Finding::Uncalled(
            "only_in_strings".into(),
            "crates/a/src/lib.rs".into()
        )]
    );
}
