//! A hand-rolled multi-producer / multi-consumer channel.
//!
//! The workspace carries no external dependencies, so the fleet's two
//! queues (master → workers jobs, workers → master results) are built on
//! `Mutex<VecDeque>` + `Condvar` directly. The channel is deliberately
//! small: blocking `recv`, non-blocking `send` and `try_recv`, explicit
//! `close`, and a high-water mark so the campaign report can show how deep
//! the queues actually ran. A `send` wakes a receiver only when one is
//! blocked, so a queue filled and drained by one thread (a fleet of one)
//! never touches the condvar.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Chan::send`] on a closed channel; hands the value
/// back to the caller instead of silently dropping it.
///
/// Closing and sending race freely across threads — the outcome is decided
/// under the channel's one mutex, never by condvar wakeup ordering: a send
/// that acquires the lock before `close` delivers, one that acquires it
/// after gets its value back in this error. There is no third state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "send on a closed channel")
    }
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    high_water: usize,
    /// Receivers blocked in `recv` right now.
    waiting: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

/// One endpoint of an unbounded MPMC channel. Cloning produces another
/// handle to the same channel; the channel lives until every handle is
/// dropped, but delivery stops as soon as any handle calls
/// [`close`](Chan::close).
pub struct Chan<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Chan<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Chan<T> {
    /// Creates an empty, open channel.
    pub fn new() -> Self {
        Chan {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    closed: false,
                    high_water: 0,
                    waiting: 0,
                }),
                ready: Condvar::new(),
            }),
        }
    }

    /// Enqueues a value; a closed channel refuses it with
    /// [`SendError`], handing the value back. The closed check happens
    /// under the same lock `close` takes, so concurrent senders see a
    /// consistent answer regardless of condvar wakeup ordering.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.state.lock().expect("channel lock poisoned");
        if st.closed {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        if st.queue.len() > st.high_water {
            st.high_water = st.queue.len();
        }
        // A receiver registers under this lock before it blocks, so none
        // waiting now means none can miss the value.
        let wake = st.waiting > 0;
        drop(st);
        if wake {
            self.inner.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks until a value is available or the channel is both closed and
    /// drained; `None` means no value will ever arrive again.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.inner.state.lock().expect("channel lock poisoned");
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Some(v);
            }
            if st.closed {
                return None;
            }
            st.waiting += 1;
            st = self.inner.ready.wait(st).expect("channel lock poisoned");
            st.waiting -= 1;
        }
    }

    /// Takes the oldest queued value without blocking; `None` when the
    /// queue is empty right now, open or closed.
    pub fn try_recv(&self) -> Option<T> {
        self.inner
            .state
            .lock()
            .expect("channel lock poisoned")
            .queue
            .pop_front()
    }

    /// Closes the channel: senders start failing, receivers drain what is
    /// queued and then get `None`.
    pub fn close(&self) {
        let mut st = self.inner.state.lock().expect("channel lock poisoned");
        st.closed = true;
        drop(st);
        self.inner.ready.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("channel lock poisoned")
            .queue
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("channel lock poisoned")
            .high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn delivers_in_fifo_order_single_consumer() {
        let ch = Chan::new();
        for i in 0..10 {
            assert!(ch.send(i).is_ok());
        }
        assert_eq!(ch.high_water(), 10);
        for i in 0..10 {
            assert_eq!(ch.recv(), Some(i));
        }
        ch.close();
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn try_recv_never_blocks() {
        let ch = Chan::new();
        assert_eq!(ch.try_recv(), None);
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        assert_eq!(ch.try_recv(), Some(1));
        ch.close();
        assert_eq!(ch.try_recv(), Some(2), "a closed channel still drains");
        assert_eq!(ch.try_recv(), None);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let ch = Chan::new();
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        ch.close();
        assert_eq!(
            ch.send(3),
            Err(SendError(3)),
            "send after close must hand the value back"
        );
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn blocking_recv_wakes_on_send_across_threads() {
        let ch: Chan<u32> = Chan::new();
        let rx = ch.clone();
        let h = thread::spawn(move || rx.recv());
        ch.send(7).unwrap();
        assert_eq!(h.join().unwrap(), Some(7));
    }

    /// The close-while-sending contract: every send racing a concurrent
    /// `close` either delivers its value or gets it back in `SendError` —
    /// decided under the channel mutex, never by condvar wakeup order. No
    /// value may be both refused and delivered, and none may vanish.
    #[test]
    fn close_racing_senders_never_loses_or_duplicates_values() {
        for _ in 0..50 {
            let ch: Chan<u64> = Chan::new();
            let senders: Vec<_> = (0..4u64)
                .map(|p| {
                    let tx = ch.clone();
                    thread::spawn(move || {
                        let mut refused = Vec::new();
                        for i in 0..25 {
                            let v = p * 100 + i;
                            if let Err(SendError(back)) = tx.send(v) {
                                assert_eq!(back, v, "error must return the refused value");
                                refused.push(v);
                            }
                        }
                        refused
                    })
                })
                .collect();
            let closer = {
                let c = ch.clone();
                thread::spawn(move || c.close())
            };
            let mut refused: Vec<u64> = Vec::new();
            for h in senders {
                refused.extend(h.join().unwrap());
            }
            closer.join().unwrap();
            let mut delivered = Vec::new();
            while let Some(v) = ch.recv() {
                delivered.push(v);
            }
            let mut all = delivered.clone();
            all.extend(&refused);
            all.sort_unstable();
            let mut want: Vec<u64> = (0..4u64)
                .flat_map(|p| (0..25).map(move |i| p * 100 + i))
                .collect();
            want.sort_unstable();
            assert_eq!(all, want, "every value is delivered xor refused");
            // After close, sends fail consistently — forever.
            assert_eq!(ch.send(999), Err(SendError(999)));
        }
    }

    #[test]
    fn blocked_receivers_wake_on_close() {
        let ch: Chan<u32> = Chan::new();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let rx = ch.clone();
                thread::spawn(move || rx.recv())
            })
            .collect();
        ch.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn many_producers_one_consumer_loses_nothing() {
        let ch: Chan<u64> = Chan::new();
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = ch.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        let mut got: Vec<u64> = (0..400).map(|_| ch.recv().unwrap()).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
