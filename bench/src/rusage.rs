//! Child CPU time and peak RSS via `wait4(2)`, declared by hand (the
//! workspace is offline, so there is no `libc` crate to lean on).

use std::io;
use std::os::raw::{c_int, c_long};
use std::process::Child;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (the first) is read here.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, wstatus: *mut c_int, options: c_int, rusage: *mut RawRusage) -> c_int;
}

/// How a reaped child ended and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildUsage {
    /// Exit code, when the child exited normally.
    pub exit_code: Option<i32>,
    /// Terminating signal, when it did not.
    pub signal: Option<i32>,
    /// User + system CPU seconds, threads included.
    pub cpu_s: f64,
    /// Peak resident set size in kilobytes.
    pub max_rss_kb: u64,
}

/// Blocks until `child` exits and reaps it, returning its resource usage.
/// Consumes the handle: once `wait4` has reaped the pid, `Child::wait` or
/// `Child::kill` on it would address a process that no longer exists.
///
/// # Errors
///
/// Propagates the `wait4` failure (other than `EINTR`, which is retried).
pub fn wait_with_usage(child: Child) -> io::Result<ChildUsage> {
    let pid = c_int::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "pid out of range"))?;
    let mut status: c_int = 0;
    let mut raw = RawRusage::default();
    loop {
        // SAFETY: `status` and `raw` are live, exclusively borrowed locals
        // of exactly the types wait4(2) writes (`int`, `struct rusage` as
        // laid out above for 64-bit Linux); `pid` names our own unreaped
        // child, so the call cannot reap anything std still tracks.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    // The classic wait-status encoding: low 7 bits are the terminating
    // signal (0 = exited normally), the next byte the exit code.
    let signal = status & 0x7f;
    Ok(ChildUsage {
        exit_code: (signal == 0).then_some((status >> 8) & 0xff),
        signal: (signal != 0).then_some(signal),
        cpu_s: secs(&raw.ru_utime) + secs(&raw.ru_stime),
        max_rss_kb: u64::try_from(raw.ru_maxrss).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    #[test]
    fn reports_exit_code_and_nonzero_usage() {
        let child = Command::new("sh")
            .args([
                "-c",
                "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; exit 7",
            ])
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        let usage = wait_with_usage(child).unwrap();
        assert_eq!(usage.exit_code, Some(7));
        assert_eq!(usage.signal, None);
        assert!(usage.max_rss_kb > 0);
        assert!(usage.cpu_s > 0.0);
    }

    #[test]
    fn reports_a_terminating_signal() {
        let child = Command::new("sh")
            .args(["-c", "kill -9 $$"])
            .spawn()
            .unwrap();
        let usage = wait_with_usage(child).unwrap();
        assert_eq!(usage.exit_code, None);
        assert_eq!(usage.signal, Some(9));
    }
}
