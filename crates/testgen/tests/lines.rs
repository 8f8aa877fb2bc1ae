//! The one line codec (`pfi_testgen::lines`): the grammar, the torn-tail
//! rule a reader applies, the cut an appender makes, and the free-text
//! escaper.

use std::borrow::Cow;
use std::io::Write;

use pfi_testgen::lines::{complete, decode, one_line, truncate_torn_tail};

#[test]
fn the_grammar_names_each_offence() {
    assert_eq!(decode(b"ping"), Ok("ping"));
    assert_eq!(decode(b"ping\r"), Ok("ping"));
    assert_eq!(decode(b""), Ok(""));
    assert_eq!(decode(b"pi\0ng"), Err("embedded NUL byte"));
    assert_eq!(decode(b"pi\rng"), Err("embedded CR"));
    assert_eq!(decode(b"ping\r\r"), Err("embedded CR"));
    assert_eq!(decode(&[0xff, b'a']), Err("non-UTF-8 bytes"));
}

#[test]
fn a_line_without_its_newline_is_never_yielded() {
    fn all(bytes: &[u8]) -> Vec<Result<&str, &'static str>> {
        complete(bytes).collect()
    }
    assert!(all(b"").is_empty());
    assert!(all(b"torn").is_empty());
    assert_eq!(all(b"a\n\nb\ntorn"), [Ok("a"), Ok(""), Ok("b")]);
    assert_eq!(all(b"a\n\nb\r\ntorn"), [Ok("a"), Ok(""), Ok("b")]);
    assert_eq!(
        all(b"a\n\xffb\nc\n"),
        [Ok("a"), Err("non-UTF-8 bytes"), Ok("c")],
        "a bad line costs that line only"
    );
}

#[test]
fn the_appender_cuts_a_torn_tail_and_nothing_else() {
    let path = std::env::temp_dir().join(format!("pfi_lines_{}_torn", std::process::id()));
    for (before, after) in [
        (&b""[..], &b""[..]),
        (b"torn", b""),
        (b"a\n", b"a\n"),
        (b"a\nb\ntorn", b"a\nb\n"),
    ] {
        std::fs::write(&path, before).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .unwrap();
        truncate_torn_tail(&mut f).unwrap();
        f.write_all(b"next\n").unwrap();
        let want = [after, b"next\n"].concat();
        assert_eq!(std::fs::read(&path).unwrap(), want);
    }
    // A long torn tail goes whole.
    let long = [&b"a\n"[..], &[b'x'; 10_000]].concat();
    std::fs::write(&path, long).unwrap();
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .open(&path)
        .unwrap();
    truncate_torn_tail(&mut f).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"a\n");
    std::fs::remove_file(&path).ok();
}

#[test]
fn free_text_becomes_one_line() {
    assert!(matches!(one_line("plain"), Cow::Borrowed("plain")));
    assert_eq!(one_line("a\nb\r\nc\0d"), "a b  c d");
}
