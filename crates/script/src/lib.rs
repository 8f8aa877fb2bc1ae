//! # pfi-script — a Tcl-subset interpreter for fault-injection scripts
//!
//! The paper argues that fault-injection scripts should be written in "a
//! popular interpreted language with a collection of predefined libraries"
//! and chooses Tcl. This crate is a from-scratch implementation of the Tcl
//! subset those scripts need: Tcl word/substitution rules, variables and
//! arrays, `expr`, control flow, procs and `puts` (the commands are
//! [`builtins`]) — plus a [`Host`] trait through which the embedding
//! application (the PFI layer) exposes commands like `msg_type`, `xDrop`,
//! and `xDelay`, exactly as Tcl extensions written in C would be.
//!
//! # Examples
//!
//! Plain scripting:
//!
//! ```
//! use pfi_script::{Interp, NoHost};
//!
//! let mut interp = Interp::new();
//! let out = interp.eval(&mut NoHost, r#"
//!     proc classify {n} {
//!         if {$n % 2 == 0} { return even } else { return odd }
//!     }
//!     classify 7
//! "#).unwrap();
//! assert_eq!(out, "odd");
//! ```
//!
//! Host commands (the PFI extension mechanism):
//!
//! ```
//! use pfi_script::{Host, Interp, ScriptError};
//!
//! struct Counter(u32);
//! impl Host for Counter {
//!     fn call(&mut self, _i: &mut Interp, cmd: &str, _args: &[String])
//!         -> Option<Result<String, ScriptError>>
//!     {
//!         (cmd == "bump").then(|| { self.0 += 1; Ok(self.0.to_string()) })
//!     }
//! }
//!
//! let mut interp = Interp::new();
//! let mut host = Counter(0);
//! assert_eq!(interp.eval(&mut host, "bump; bump; bump").unwrap(), "3");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builtins;
mod cache;
mod error;
mod expr;
mod gate;
mod interp;
mod list;
mod parse;
mod value;

pub use builtins::{builtins, lookup_builtin, BuiltinInfo};
pub use cache::CacheStats;
pub use error::{ScriptError, ScriptErrorKind};
pub use expr::{analyze_expr, analyze_guard, CmpOp, ExprSummary, GuardAtom};
pub use gate::TypeGate;
pub use interp::{Host, Interp, NoHost};
pub use list::{glob_match, list_format, list_parse};
pub use parse::{Braced, Command, Part, Script, Span, Word};
