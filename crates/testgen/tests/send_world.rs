//! The Send boundary, asserted at compile time.
//!
//! Everything a fleet job carries — typed fault schedules out, the
//! campaign's one shared target alongside — is plain data that crosses
//! worker threads by *moving* or behind an `Arc`.
//! (`World: Send` itself is compile-asserted in `crates/sim/src/world.rs`.)

use std::sync::Arc;

use pfi_testgen::{FaultSchedule, TestTarget};

const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    // What a fleet job is made of: a typed fault schedule, and the shared
    // handle on the campaign's target every worker reads.
    assert_send::<FaultSchedule>();
    assert_send_sync::<Arc<dyn TestTarget>>();
};
