//! An allocation budget for the driven phase of a campaign execution.
//!
//! The simulator recycles its per-event scratch (work deque, action
//! buffer), the trace log is a column arena, rudp frames in place and a
//! filter is compiled once and evaluated on typed values — so what a
//! driven event allocates is what the protocol and the filter's host
//! commands need, and nothing per event, per callback or per trace record
//! on top. This test
//! pins that as a count: heap allocations per processed simulator event,
//! taken with a counting allocator local to this test binary. The count is
//! a program count and repeats exactly; it says nothing about speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfi_core::{Filter, PfiControl, PfiReply};
use pfi_testgen::{run_schedule, FaultSchedule, GmpTarget, RunLimits, TestTarget};

thread_local! {
    /// Allocations made by this thread. Per thread, so the libtest harness
    /// and other tests of this binary cannot disturb a measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` the calling thread makes.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down, when the counter is gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`; both are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One drop, one delay, one corrupt on the 60 s GMP target: the three
/// clause shapes `FaultSchedule::lower` emits (counter window, plain
/// action, length-guarded byte rewrite), on both filter directions.
const THREE_FAULTS: [&str; 3] = [
    "n1 recv drop-nth HEARTBEAT 3",
    "n0 send delay-ms COMMIT 250",
    "n2 recv corrupt-byte HEARTBEAT 9 64",
];

fn schedule(faults: &[&str]) -> FaultSchedule {
    FaultSchedule::from_lines(faults.iter().copied()).expect("fixture schedule")
}

/// Forks the target's built base, installs `faults` and drives it, the
/// way one campaign execution does. Returns the allocations made between
/// the fork and the end of the drive, and the events the drive processed.
fn fork_and_drive(target: &GmpTarget, faults: &[&str]) -> (u64, u64) {
    let (mut base, sites) = target.build();
    base.trace_timers = true;
    let snapshot = base.try_snapshot().expect("the GMP base forks");
    let scripts = schedule(faults).lower();

    let before = allocations();
    let mut world = snapshot.fork();
    for s in &scripts {
        let (node, pfi_layer) = sites[s.site as usize];
        for (script, install) in [
            (&s.send, PfiControl::SetSendFilter as fn(Filter) -> _),
            (&s.recv, PfiControl::SetRecvFilter as fn(Filter) -> _),
        ] {
            if !script.is_empty() {
                let filter = Filter::script(script).expect("lowered scripts parse");
                let _: PfiReply = world.control(node, pfi_layer, install(filter));
            }
        }
    }
    let forked_at = world.events_processed();
    let capped = target.drive(&mut world, &RunLimits::default());
    let allocated = allocations() - before;
    assert!(!capped, "a 60 s GMP drive stays far below the event cap");
    (allocated, world.events_processed() - forked_at)
}

#[test]
fn a_driven_event_stays_within_its_allocation_budget() {
    let target = GmpTarget::default();
    assert_eq!(target.fault_secs, 60);

    // (a) The whole execution's count is a pure function of the schedule.
    // One untimed run first lets lazy one-off state (thread locals, the
    // harness's own buffers) settle.
    let faults = schedule(&THREE_FAULTS);
    let warm = run_schedule(&target, &faults);
    let mut counts = [0u64; 2];
    for count in &mut counts {
        let before = allocations();
        let run = run_schedule(&target, &faults);
        *count = allocations() - before;
        assert_eq!(run.verdict, warm.verdict);
        assert_eq!(run.coverage, warm.coverage);
    }
    assert_eq!(counts[0], counts[1], "the allocation count must repeat");

    // (b) Three installed filters: at most 2 allocations per processed
    // event from fork to the end of the drive (1.3 when this was written
    // — what is left of a filter evaluation is the strings `Host::call`
    // returns).
    let (allocated, events) = fork_and_drive(&target, &THREE_FAULTS);
    assert!(events > 1_000, "a 60 s drive is over a thousand events");
    println!("three faults: {allocated} allocations over {events} events");
    assert!(
        allocated <= 2 * events,
        "{allocated} allocations over {events} events exceeds 2 per event"
    );

    // (c) No filter installed: at most 4 per processed event (0.5 when
    // this was written) — what GMP and rudp allocate for the packets and
    // state they genuinely keep.
    let (allocated, events) = fork_and_drive(&target, &[]);
    println!("fault-free: {allocated} allocations over {events} events");
    assert!(
        allocated <= 4 * events,
        "{allocated} allocations over {events} events exceeds 4 per event"
    );
}
