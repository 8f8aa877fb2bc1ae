//! The benchmark's own pfi-serve client: write a line, read the head
//! line, un-dot-stuff the payload up to the lone `.`.
//!
//! Deliberately independent of `pfi_serve::proto` — the end-to-end
//! numbers must survive any refactor of the product's client code, and a
//! benchmark that shared the codec would also share its bugs. The grammar
//! is the one documented at the top of `crates/serve/src/proto.rs`.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// One reply: the head line and (for `status` / `results` / `corpus`)
/// the un-stuffed payload lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The head line without its newline: `ok …` or `err …`.
    pub head: String,
    /// Payload lines, dot-unstuffed, terminator excluded.
    pub payload: Vec<String>,
}

impl Reply {
    /// Whether the daemon answered `ok`.
    pub fn is_ok(&self) -> bool {
        self.head == "ok" || self.head.starts_with("ok ")
    }

    /// The value of `key=` in the head line.
    pub fn kv(&self, key: &str) -> Option<&str> {
        kv(&self.head, key)
    }
}

/// The value of the `key=value` token in a space-separated line.
pub fn kv<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Reads one complete line, newline stripped. A line without its newline
/// is a torn reply and reads as `UnexpectedEof`, never as data.
fn full_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 || !line.ends_with('\n') {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    line.pop();
    if line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads one reply. `payload` says whether the request verb carries a
/// payload block on success (an `err` head never does).
///
/// # Errors
///
/// I/O errors, and `UnexpectedEof` for a reply torn anywhere before its
/// terminator.
pub fn read_reply<R: BufRead>(r: &mut R, payload: bool) -> io::Result<Reply> {
    let head = full_line(r)?;
    let mut reply = Reply {
        head,
        payload: Vec::new(),
    };
    if payload && reply.is_ok() {
        loop {
            let line = full_line(r)?;
            if line == "." {
                break;
            }
            reply
                .payload
                .push(line.strip_prefix('.').unwrap_or(&line).to_string());
        }
    }
    Ok(reply)
}

/// A connection to a pfi-serve daemon on a Unix socket.
#[derive(Debug)]
pub struct Client {
    stream: BufReader<UnixStream>,
}

impl Client {
    /// Connects. Requests time out after `timeout` so a wedged daemon
    /// fails the benchmark instead of hanging it.
    ///
    /// # Errors
    ///
    /// The connect or socket-option failure.
    pub fn connect(socket: &Path, timeout: Duration) -> io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads its reply.
    ///
    /// # Errors
    ///
    /// See [`read_reply`]; an `err` head is a reply, not an error.
    pub fn request(&mut self, line: &str, payload: bool) -> io::Result<Reply> {
        let stream = self.stream.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        read_reply(&mut self.stream, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn unstuffs_payload_up_to_the_lone_dot() {
        let mut wire =
            Cursor::new("ok exit=0 failures=1\ndigest abc\n..leading dot\n...\n\n.\nok pong\n");
        let reply = read_reply(&mut wire, true).unwrap();
        assert!(reply.is_ok());
        assert_eq!(reply.kv("exit"), Some("0"));
        assert_eq!(reply.kv("failures"), Some("1"));
        assert_eq!(reply.kv("missing"), None);
        assert_eq!(reply.payload, ["digest abc", ".leading dot", "..", ""]);
        // The next reply on the same stream is untouched.
        let next = read_reply(&mut wire, false).unwrap();
        assert_eq!(next.head, "ok pong");
    }

    #[test]
    fn err_heads_carry_no_payload() {
        let mut wire = Cursor::new("err no such campaign c9\nok\n");
        let reply = read_reply(&mut wire, true).unwrap();
        assert!(!reply.is_ok());
        assert!(reply.payload.is_empty());
        assert!(read_reply(&mut wire, false).unwrap().is_ok());
    }

    #[test]
    fn torn_replies_are_eof_never_data() {
        for torn in [
            "",
            "ok id=c",
            "ok campaigns=1\nc1 state=done\n",
            "ok x\nline\n.",
        ] {
            let err = read_reply(&mut Cursor::new(torn), true).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{torn:?}");
        }
    }

    #[test]
    fn ok_prefix_must_be_a_whole_token() {
        let reply = read_reply(&mut Cursor::new("okay\n"), false).unwrap();
        assert!(!reply.is_ok());
        let reply = read_reply(&mut Cursor::new("ok\r\n"), false).unwrap();
        assert!(reply.is_ok());
    }
}
