//! PFI turned on itself: deterministic fault injection for the daemon's
//! own wire and disk I/O.
//!
//! The paper's interposition argument — drop, delay, duplicate, corrupt
//! at a layer boundary exposes robustness bugs clean-path testing never
//! reaches — applies one level down, to the service layer that runs the
//! campaigns. This module is that interposition layer: a seeded,
//! budget-bounded [`FaultPlan`] in the `FaultSchedule` spirit drives
//!
//! - **wire faults** on every stream the daemon accepts, via
//!   [`FaultStream`]: partial reads and writes, injected `EINTR`
//!   ([`io::ErrorKind::Interrupted`]) and `EAGAIN`
//!   ([`io::ErrorKind::WouldBlock`]), mid-frame disconnects, and
//!   per-operation byte delays (a deterministic slow-loris); and
//! - **disk faults** on the store's write paths, via
//!   [`FaultPlan::disk_fault`]: `ENOSPC`, short writes that tear the
//!   trailing line, and fsync failures.
//!
//! Determinism and liveness: every decision is drawn from one seeded
//! xorshift stream under a mutex, so a given seed injects the same fault
//! *sequence* (the k-th faultable operation gets the same decision on
//! every run with that seed), and the plan stops injecting after
//! `max_faults` total injections — the chaos suite's guarantee that a
//! retrying client always eventually gets through. The faults perturb
//! only the service I/O, never the campaign engine, so the acceptance
//! invariant is exact: every campaign that completes under injection must
//! report a digest byte-identical to the clean path's.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning for one fault plan. Probabilities are per-mille per faultable
/// operation; `max_faults` bounds the total injections so chaos runs
/// always terminate.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// RNG seed: same seed, same fault sequence.
    pub seed: u64,
    /// Per-mille chance a wire (stream) operation is faulted.
    pub wire_permille: u16,
    /// Per-mille chance a disk (store write/fsync) operation is faulted.
    pub disk_permille: u16,
    /// Total injection budget across the plan's lifetime (0 = unlimited —
    /// only sensible for unit tests that count injections themselves).
    pub max_faults: u64,
    /// Upper bound on one injected byte delay.
    pub max_delay_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 42,
            wire_permille: 100,
            disk_permille: 100,
            max_faults: 128,
            max_delay_ms: 10,
        }
    }
}

/// What a faulted wire operation does instead of the real I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver (or accept) only a prefix of the buffer — a legal partial
    /// read/write that exercises every `read_exact`/`write_all` loop.
    Short,
    /// `EINTR`: a signal interrupted the call; correct callers retry.
    Eintr,
    /// `EAGAIN`: on the daemon's deadline-carrying sockets this is
    /// indistinguishable from a read/write timeout firing.
    Eagain,
    /// The peer vanished mid-frame: EOF on read, `ECONNRESET` on write.
    Disconnect,
    /// Stall before the operation — the slow-loris arm.
    DelayMs(u64),
}

/// What a faulted disk operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The write fails outright with `ENOSPC`; nothing reaches the file.
    Enospc,
    /// Only a prefix of the bytes lands before the failure — the torn
    /// trailing line every store reader must tolerate.
    ShortWrite,
    /// The data lands but `fsync` reports failure; the caller must treat
    /// the write as unacknowledged.
    SyncFail,
}

/// A shared, seeded, budget-bounded fault decision stream.
///
/// One plan serves every connection and every store operation of a
/// daemon; cloning the [`Arc`] is the intended sharing model.
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Mutex<u64>,
    injected_wire: AtomicU64,
    injected_disk: AtomicU64,
}

impl FaultPlan {
    /// Builds a plan from its config. A zero seed is remapped so the
    /// xorshift stream never degenerates.
    pub fn new(cfg: FaultConfig) -> Arc<FaultPlan> {
        let seed = if cfg.seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            cfg.seed
        };
        Arc::new(FaultPlan {
            cfg,
            rng: Mutex::new(seed),
            injected_wire: AtomicU64::new(0),
            injected_disk: AtomicU64::new(0),
        })
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Wire faults injected so far.
    pub fn wire_injected(&self) -> u64 {
        self.injected_wire.load(Ordering::Relaxed)
    }

    /// Disk faults injected so far.
    pub fn disk_injected(&self) -> u64 {
        self.injected_disk.load(Ordering::Relaxed)
    }

    fn budget_left(&self) -> bool {
        self.cfg.max_faults == 0
            || self.wire_injected() + self.disk_injected() < self.cfg.max_faults
    }

    /// One xorshift64* draw; the only source of randomness in the layer.
    fn next_u64(&self) -> u64 {
        let mut s = self.rng.lock().unwrap();
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Decides the fate of one wire operation. `None` = run it clean.
    pub fn wire_fault(&self) -> Option<WireFault> {
        if self.cfg.wire_permille == 0 || !self.budget_left() {
            return None;
        }
        let roll = self.next_u64();
        if roll % 1000 >= self.cfg.wire_permille as u64 {
            return None;
        }
        self.injected_wire.fetch_add(1, Ordering::Relaxed);
        Some(match (roll >> 10) % 100 {
            0..=29 => WireFault::Short,
            30..=44 => WireFault::Eintr,
            45..=54 => WireFault::Eagain,
            55..=69 => WireFault::Disconnect,
            _ => WireFault::DelayMs(1 + (roll >> 17) % self.cfg.max_delay_ms.max(1)),
        })
    }

    /// Decides the fate of one disk write/fsync. `None` = run it clean.
    pub fn disk_fault(&self) -> Option<DiskFault> {
        if self.cfg.disk_permille == 0 || !self.budget_left() {
            return None;
        }
        let roll = self.next_u64();
        if roll % 1000 >= self.cfg.disk_permille as u64 {
            return None;
        }
        self.injected_disk.fetch_add(1, Ordering::Relaxed);
        Some(match (roll >> 10) % 100 {
            0..=39 => DiskFault::Enospc,
            40..=69 => DiskFault::ShortWrite,
            _ => DiskFault::SyncFail,
        })
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("cfg", &self.cfg)
            .field("wire_injected", &self.wire_injected())
            .field("disk_injected", &self.disk_injected())
            .finish()
    }
}

/// A stream wrapper that interposes the fault plan on every read and
/// write — the daemon's own PFI layer.
pub struct FaultStream<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S> FaultStream<S> {
    /// Wraps a stream under a plan.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> FaultStream<S> {
        FaultStream { inner, plan }
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.plan.wire_fault() {
            None => self.inner.read(buf),
            Some(WireFault::Short) if buf.len() > 1 => {
                let cap = (buf.len() / 7).max(1);
                self.inner.read(&mut buf[..cap])
            }
            Some(WireFault::Short) => self.inner.read(buf),
            Some(WireFault::Eintr) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected EINTR (faultio)",
            )),
            Some(WireFault::Eagain) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected EAGAIN (faultio)",
            )),
            Some(WireFault::Disconnect) => Ok(0),
            Some(WireFault::DelayMs(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(buf)
            }
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.plan.wire_fault() {
            None => self.inner.write(buf),
            Some(WireFault::Short) if buf.len() > 1 => {
                let cap = (buf.len() / 7).max(1);
                self.inner.write(&buf[..cap])
            }
            Some(WireFault::Short) => self.inner.write(buf),
            Some(WireFault::Eintr) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected EINTR (faultio)",
            )),
            Some(WireFault::Eagain) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected EAGAIN (faultio)",
            )),
            Some(WireFault::Disconnect) => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected disconnect (faultio)",
            )),
            Some(WireFault::DelayMs(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes `bytes` to `w` under the plan's disk decisions. On
/// [`DiskFault::ShortWrite`] a strict prefix lands before the error, so
/// the file carries exactly the torn tail the store's loaders must
/// recover from; on [`DiskFault::Enospc`] nothing lands at all.
/// Returns `Ok(sync_must_fail)` — the caller passes it to
/// [`faulty_sync`] so an injected `SyncFail` spans the write+sync pair.
pub fn faulty_write_all<W: Write>(
    w: &mut W,
    bytes: &[u8],
    plan: Option<&Arc<FaultPlan>>,
) -> io::Result<bool> {
    match plan.and_then(|p| p.disk_fault()) {
        None => {
            w.write_all(bytes)?;
            Ok(false)
        }
        Some(DiskFault::Enospc) => Err(enospc()),
        Some(DiskFault::ShortWrite) => {
            let torn = bytes.len() / 2;
            w.write_all(&bytes[..torn])?;
            w.flush()?;
            Err(enospc())
        }
        Some(DiskFault::SyncFail) => {
            w.write_all(bytes)?;
            Ok(true)
        }
    }
}

/// Completes the write+sync pair begun by [`faulty_write_all`].
pub fn faulty_sync(f: &std::fs::File, sync_must_fail: bool) -> io::Result<()> {
    if sync_must_fail {
        return Err(io::Error::other("injected fsync failure (faultio)"));
    }
    f.sync_all()
}

/// `ENOSPC` as an [`io::Error`], the canonical injected disk failure.
fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn same_seed_same_decision_sequence() {
        let mk = || {
            FaultPlan::new(FaultConfig {
                seed: 7,
                wire_permille: 500,
                disk_permille: 0,
                max_faults: 0,
                max_delay_ms: 5,
            })
        };
        let (a, b) = (mk(), mk());
        let seq_a: Vec<_> = (0..64).map(|_| a.wire_fault()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.wire_fault()).collect();
        assert_eq!(seq_a, seq_b, "a seed must pin the whole fault sequence");
        assert!(
            seq_a.iter().any(Option::is_some) && seq_a.iter().any(Option::is_none),
            "at 500‰ the sequence must mix faults and clean ops"
        );
    }

    #[test]
    fn budget_bounds_total_injections() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            wire_permille: 1000,
            disk_permille: 1000,
            max_faults: 5,
            max_delay_ms: 1,
        });
        let mut injected = 0;
        for i in 0..1000 {
            let hit = if i % 2 == 0 {
                plan.wire_fault().is_some()
            } else {
                plan.disk_fault().is_some()
            };
            if hit {
                injected += 1;
            }
        }
        assert_eq!(
            injected, 5,
            "the plan must go quiet once the budget is spent"
        );
        assert_eq!(plan.wire_injected() + plan.disk_injected(), 5);
    }

    #[test]
    fn fault_stream_eventually_delivers_through_retries() {
        // A reader that treats the stream the way the daemon does —
        // retrying EINTR, giving up on nothing else — must still pull the
        // full message through a heavily-faulted stream once the budget
        // runs dry.
        let plan = FaultPlan::new(FaultConfig {
            seed: 11,
            wire_permille: 700,
            disk_permille: 0,
            max_faults: 16,
            max_delay_ms: 1,
        });
        let payload = b"the quick brown fox jumps over the lazy dog";
        let mut stream = FaultStream::new(Cursor::new(payload.to_vec()), plan);
        let mut out = Vec::new();
        loop {
            let mut buf = [0u8; 8];
            match stream.read(&mut buf) {
                Ok(0) => {
                    // An injected Disconnect also reads as Ok(0); only
                    // trust EOF once the real cursor is exhausted.
                    if out.len() == payload.len() {
                        break;
                    }
                }
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                    ) => {}
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert_eq!(out, payload);
    }

    #[test]
    fn faulty_write_short_write_leaves_strict_prefix() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            wire_permille: 0,
            disk_permille: 1000,
            max_faults: 0,
            max_delay_ms: 1,
        });
        let line = b"campaign c9 proto=gmp seed=42\n";
        // Walk the decision stream until a ShortWrite lands, proving the
        // prefix invariant for it and the nothing-lands invariant for
        // Enospc.
        let mut saw_short = false;
        let mut saw_enospc = false;
        for _ in 0..64 {
            let mut sink = Vec::new();
            match faulty_write_all(&mut sink, line, Some(&plan)) {
                Ok(_) => assert_eq!(sink, line),
                Err(_) if sink.is_empty() => saw_enospc = true,
                Err(_) => {
                    assert!(
                        sink.len() < line.len(),
                        "short write must be a strict prefix"
                    );
                    assert_eq!(&sink[..], &line[..sink.len()]);
                    saw_short = true;
                }
            }
            if saw_short && saw_enospc {
                return;
            }
        }
        panic!("expected both ShortWrite and Enospc within 64 draws");
    }
}
