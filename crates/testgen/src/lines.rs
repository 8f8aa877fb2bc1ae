//! The one line codec — what a line is ([`decode`]), which lines a file
//! holds ([`complete`]), how an appender cuts a torn tail
//! ([`truncate_torn_tail`]), how free text becomes one line ([`one_line`])
//! — for the journal, repro artifacts, the pfi-serve store files and the
//! wire. The rule (DESIGN.md, "Line files and torn tails"): a line without
//! its newline is torn.

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};

/// The line grammar, over one line's bytes without their newline: UTF-8,
/// one trailing CR stripped, no other CR, no NUL. The error names the offence.
pub fn decode(bytes: &[u8]) -> Result<&str, &'static str> {
    if bytes.contains(&0) {
        return Err("embedded NUL byte");
    }
    let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
    if bytes.contains(&b'\r') {
        return Err("embedded CR");
    }
    std::str::from_utf8(bytes).map_err(|_| "non-UTF-8 bytes")
}

/// The torn-tail rule: how many trailing bytes of `bytes` follow its
/// last newline. Those bytes are a line the writer never finished.
fn torn_len(bytes: &[u8]) -> usize {
    bytes.len() - bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// Each newline-terminated line of `bytes`, [`decode`]d, in order. The
/// torn tail is never yielded.
pub fn complete(bytes: &[u8]) -> impl Iterator<Item = Result<&str, &'static str>> {
    let whole = &bytes[..bytes.len() - torn_len(bytes)];
    // Each line of UTF-8 text without NUL or CR decodes to itself: such a
    // file is checked at once and only split, as fast as one `from_utf8`.
    let clean = !whole.contains(&0) && !whole.contains(&b'\r');
    let (text, other) = match std::str::from_utf8(whole) {
        Ok(text) if clean => (text, &[][..]),
        _ => ("", whole),
    };
    let decoded = other
        .split_inclusive(|&b| b == b'\n')
        .map(|line| decode(&line[..line.len() - 1]));
    text.split_terminator('\n').map(Ok).chain(decoded)
}

/// Cuts `file` back to just after its last newline, so a torn tail never
/// becomes part of the next line. Reads one byte of a file nothing tore.
pub fn truncate_torn_tail(file: &mut File) -> io::Result<()> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(file.metadata()?.len().saturating_sub(1)))?;
    file.read_to_end(&mut bytes)?;
    if torn_len(&bytes) > 0 {
        bytes.clear();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        file.set_len((bytes.len() - torn_len(&bytes)) as u64)?;
    }
    Ok(())
}

/// Free text (a verdict or violation message, a panic payload) as the one
/// line a record field holds: every newline, CR and NUL becomes a space.
pub fn one_line(text: &str) -> Cow<'_, str> {
    const BREAKS: [char; 3] = ['\n', '\r', '\0'];
    if text.contains(BREAKS) {
        Cow::Owned(text.replace(BREAKS, " "))
    } else {
        Cow::Borrowed(text)
    }
}
