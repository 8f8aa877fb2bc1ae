//! The predefined Tcl command library exposed to filter scripts.
//!
//! These are the paper's "rich set of predefined library routines":
//! message recognition (`msg_type`, `msg_field`, …), manipulation (`xDrop`,
//! `xDelay`, `xDuplicate`, `xHold`/`xRelease`, byte corruption), injection
//! (`xInject` through the generation stub), cross-interpreter state
//! (`peer_set`/`peer_get`), cross-node state (`global_set`/`global_get`),
//! clocks (`now_ms`), and probability distributions (`dst_normal`, …).

use pfi_script::{Host, Interp, ScriptError};
use pfi_sim::{BoardStore, SimDuration};

use crate::filter::{Direction, FilterCtx};
use crate::globals::GlobalBoard;

/// Host for filter scripts: bridges commands onto the current message's
/// [`FilterCtx`] and the *other* direction's interpreter (`peer_*`).
pub(crate) struct Bindings<'a, 'b> {
    pub(crate) fctx: FilterCtx<'a>,
    pub(crate) peer: &'b mut Interp,
}

/// A borrowed view of a builtin's arguments with `cur_msg` tokens skipped,
/// so the paper's `msg_type cur_msg` spelling works: there is exactly one
/// current message, so the handle is implicit. Filtering happens lazily at
/// access time — the per-call fast path allocates nothing (the old
/// `strip_cur_msg` cloned the whole `Vec<String>` on every builtin call).
#[derive(Clone, Copy)]
struct Args<'a>(&'a [String]);

impl<'a> Args<'a> {
    fn get(&self, i: usize) -> Option<&'a str> {
        self.0
            .iter()
            .filter(|a| a.as_str() != "cur_msg")
            .nth(i)
            .map(String::as_str)
    }

    fn first(&self) -> Option<&'a str> {
        self.get(0)
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|a| a.as_str() == "cur_msg")
    }

    /// Owned tail starting at logical index `i` (slow path: `xInject` hands
    /// these to the generation stub, which takes `&[String]`).
    fn rest_owned(&self, i: usize) -> Vec<String> {
        self.0
            .iter()
            .filter(|a| a.as_str() != "cur_msg")
            .skip(i)
            .cloned()
            .collect()
    }
}

fn want<T: std::str::FromStr>(args: Args<'_>, i: usize, what: &str) -> Result<T, ScriptError> {
    let a = args
        .get(i)
        .ok_or_else(|| ScriptError::new(format!("missing argument: expected {what}")))?;
    a.trim()
        .parse::<T>()
        .map_err(|_| ScriptError::new(format!("expected {what} but got \"{a}\"")))
}

impl Host for Bindings<'_, '_> {
    fn call(
        &mut self,
        interp: &mut Interp,
        cmd: &str,
        raw_args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        let args = Args(raw_args);
        let ok = |s: String| Some(Ok(s));
        let unit = || Some(Ok(String::new()));
        match cmd {
            // --- recognition ------------------------------------------
            "msg_type" => ok(self
                .fctx
                .msg_type()
                .unwrap_or_else(|| "unknown".to_string())),
            "msg_len" => ok(self.fctx.msg().len().to_string()),
            "msg_dst" => ok(self.fctx.msg().dst().index().to_string()),
            "msg_byte" => Some((|| {
                let off: usize = want(args, 0, "byte offset")?;
                self.fctx
                    .msg()
                    .byte_at(off)
                    .map(|b| b.to_string())
                    .ok_or_else(|| ScriptError::new(format!("offset {off} out of range")))
            })()),
            "msg_field" => Some((|| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::new("missing field name"))?;
                self.fctx
                    .field(name)
                    .map(|v| v.to_string())
                    .ok_or_else(|| ScriptError::new(format!("no such field \"{name}\"")))
            })()),
            "msg_log" => {
                self.fctx.log_msg();
                unit()
            }
            // --- manipulation -----------------------------------------
            "msg_set_byte" => Some((|| {
                let off: usize = want(args, 0, "byte offset")?;
                let val: u8 = want(args, 1, "byte value")?;
                if self.fctx.msg_mut().set_byte_at(off, val) {
                    Ok(String::new())
                } else {
                    Err(ScriptError::new(format!("offset {off} out of range")))
                }
            })()),
            "msg_set_field" => Some((|| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::new("missing field name"))?;
                let val: i64 = want(args, 1, "field value")?;
                if self.fctx.set_field(name, val) {
                    Ok(String::new())
                } else {
                    Err(ScriptError::new(format!("no such field \"{name}\"")))
                }
            })()),
            "xDrop" => {
                self.fctx.drop_msg();
                unit()
            }
            "xPass" => {
                self.fctx.pass();
                unit()
            }
            "xDelay" => Some((|| {
                let ms: u64 = want(args, 0, "delay in milliseconds")?;
                self.fctx.delay(SimDuration::from_millis(ms));
                Ok(String::new())
            })()),
            "xDuplicate" => {
                let n: u32 = if args.is_empty() {
                    1
                } else {
                    match want(args, 0, "copy count") {
                        Ok(n) => n,
                        Err(e) => return Some(Err(e)),
                    }
                };
                self.fctx.duplicate(n);
                unit()
            }
            "xHold" => {
                self.fctx.hold();
                unit()
            }
            "xRelease" => {
                self.fctx.release();
                unit()
            }
            // --- timers -------------------------------------------------
            "xAfter" => Some((|| {
                let ms: u64 = want(args, 0, "delay in milliseconds")?;
                let src = args
                    .get(1)
                    .ok_or_else(|| ScriptError::new("xAfter: missing script"))?;
                // Compile through the interpreter's script cache: a timer
                // re-armed every message parses its body exactly once.
                let script = interp.compile(src)?;
                self.fctx.after(SimDuration::from_millis(ms), script);
                Ok(String::new())
            })()),
            // --- injection ---------------------------------------------
            "xInject" => Some((|| {
                let dir = match args.first() {
                    Some("down") | Some("send") => Direction::Send,
                    Some("up") | Some("receive") => Direction::Receive,
                    other => {
                        return Err(ScriptError::new(format!(
                            "xInject: expected direction down|up, got {other:?}"
                        )))
                    }
                };
                let node = self.fctx.node();
                let msg = self
                    .fctx
                    .stub()
                    .generate(node, &args.rest_owned(1))
                    .map_err(ScriptError::new)?;
                self.fctx.inject(dir, msg);
                Ok(String::new())
            })()),
            // --- cross-interpreter / cross-node state -------------------
            "peer_set" => Some((|| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::new("peer_set: missing variable name"))?;
                self.peer.set_var(name, args.get(1).unwrap_or(""));
                Ok(String::new())
            })()),
            "peer_get" => Some((|| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::new("peer_get: missing variable name"))?;
                match self.peer.get_var(name) {
                    Ok(v) => Ok(v),
                    Err(e) => args.get(1).map(str::to_string).ok_or(e),
                }
            })()),
            "global_set" => Some((|| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::new("global_set: missing key"))?;
                self.fctx.global_set(name, args.get(1).unwrap_or(""));
                Ok(String::new())
            })()),
            "global_get" => Some((|| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::new("global_get: missing key"))?;
                match self.fctx.global_get(name) {
                    Some(v) => Ok(v),
                    None => args
                        .get(1)
                        .map(str::to_string)
                        .ok_or_else(|| ScriptError::new(format!("no such global \"{name}\""))),
                }
            })()),
            // --- clocks, identity --------------------------------------
            "now_ms" => ok(self.fctx.now().as_millis().to_string()),
            "node_id" => ok(self.fctx.node().index().to_string()),
            "pfi_dir" => ok(self.fctx.dir().as_str().to_string()),
            // --- probability distributions -----------------------------
            "dst_normal" => Some((|| {
                let mean: f64 = want(args, 0, "mean")?;
                let var: f64 = want(args, 1, "variance")?;
                if var < 0.0 {
                    return Err(ScriptError::new("variance must be non-negative"));
                }
                Ok(self.fctx.rng().normal(mean, var).to_string())
            })()),
            "dst_uniform" => Some((|| {
                let lo: f64 = want(args, 0, "lower bound")?;
                let hi: f64 = want(args, 1, "upper bound")?;
                if lo >= hi {
                    return Err(ScriptError::new("empty uniform range"));
                }
                Ok(self.fctx.rng().uniform(lo, hi).to_string())
            })()),
            "dst_exponential" => Some((|| {
                let mean: f64 = want(args, 0, "mean")?;
                if mean <= 0.0 {
                    return Err(ScriptError::new("mean must be positive"));
                }
                Ok(self.fctx.rng().exponential(mean).to_string())
            })()),
            "coin" => Some((|| {
                let p: f64 = want(args, 0, "probability")?;
                Ok((self.fctx.rng().coin(p) as i32).to_string())
            })()),
            _ => None,
        }
    }
}

/// Host for scripts evaluated through control ops, outside any message
/// context: only state commands are available.
pub(crate) struct ControlBindings<'a, 'b> {
    pub(crate) globals: GlobalBoard,
    pub(crate) boards: &'a mut BoardStore,
    pub(crate) peer: &'b mut Interp,
}

impl Host for ControlBindings<'_, '_> {
    fn call(
        &mut self,
        _interp: &mut Interp,
        cmd: &str,
        args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        match cmd {
            "peer_set" => {
                let name = args.first()?.clone();
                self.peer
                    .set_var(&name, args.get(1).cloned().unwrap_or_default());
                Some(Ok(String::new()))
            }
            "peer_get" => {
                let name = args.first()?.clone();
                Some(match self.peer.get_var(&name) {
                    Ok(v) => Ok(v),
                    Err(e) => args.get(1).cloned().ok_or(e),
                })
            }
            "global_set" => {
                let name = args.first()?.clone();
                self.globals
                    .set(self.boards, name, args.get(1).cloned().unwrap_or_default());
                Some(Ok(String::new()))
            }
            "global_get" => {
                let name = args.first()?.clone();
                Some(match self.globals.get(self.boards, &name) {
                    Some(v) => Ok(v),
                    None => args
                        .get(1)
                        .cloned()
                        .ok_or_else(|| ScriptError::new(format!("no such global \"{name}\""))),
                })
            }
            _ => None,
        }
    }
}
