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
use pfi_sim::{NodeId, World, WorldSnapshot};
use pfi_testgen::{run_schedule, FaultSchedule, GmpTarget, RunLimits, TcpTarget, TestTarget};

thread_local! {
    /// Allocations made by this thread. Per thread, so the libtest harness
    /// and other tests of this binary cannot disturb a measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// How many of them were `realloc`s — a buffer outgrowing itself.
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` the calling thread makes.
struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down, when the counter is gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        let _ = REALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// `(allocations, reallocations, bytes)` so far on this thread.
fn counters() -> [u64; 3] {
    [
        allocations(),
        REALLOCATIONS.with(Cell::get),
        BYTES.with(Cell::get),
    ]
}

/// What `f` allocated: `(allocations, reallocations, bytes)`.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 3]) {
    let before = counters();
    let out = f();
    let after = counters();
    (out, [0, 1, 2].map(|i| after[i] - before[i]))
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

/// The target's built base as a campaign captures it, with its sites.
fn base(target: &GmpTarget) -> (WorldSnapshot, Vec<(NodeId, usize)>) {
    let (mut base, sites) = target.build();
    base.trace_timers = true;
    (base.try_snapshot().expect("the GMP base forks"), sites)
}

/// `faults` lowered and parsed into the control ops that install them.
fn install_ops(sites: &[(NodeId, usize)], faults: &[&str]) -> Vec<(NodeId, usize, PfiControl)> {
    let mut ops = Vec::new();
    for s in &schedule(faults).lower() {
        let (node, pfi_layer) = sites[s.site as usize];
        for (script, install) in [
            (&s.send, PfiControl::SetSendFilter as fn(Filter) -> _),
            (&s.recv, PfiControl::SetRecvFilter as fn(Filter) -> _),
        ] {
            if !script.is_empty() {
                let filter = Filter::script(script).expect("lowered scripts parse");
                ops.push((node, pfi_layer, install(filter)));
            }
        }
    }
    ops
}

/// Installs `ops` on `world` — a fresh restore of the base — and drives
/// it, the way one campaign execution does; the events the drive
/// processed.
fn install_and_drive(
    target: &GmpTarget,
    world: &mut World,
    ops: Vec<(NodeId, usize, PfiControl)>,
) -> u64 {
    for (node, pfi_layer, op) in ops {
        let _: PfiReply = world.control(node, pfi_layer, op);
    }
    let forked_at = world.events_processed();
    let capped = target.drive(world, &RunLimits::default());
    assert!(!capped, "a 60 s GMP drive stays far below the event cap");
    world.events_processed() - forked_at
}

/// Forks the target's built base, installs `faults` and drives it.
/// Returns the allocations made between the fork and the end of the
/// drive, and the events the drive processed.
fn fork_and_drive(target: &GmpTarget, faults: &[&str]) -> (u64, u64) {
    let (snapshot, sites) = base(target);
    let (events, [allocated, ..]) = counted(|| {
        let mut world = snapshot.fork();
        install_and_drive(target, &mut world, install_ops(&sites, faults))
    });
    (allocated, events)
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

/// A campaign worker keeps the world it last ran and restores the base
/// into it. From then on restore plus drive stop growing the world's
/// buffers: the trace arena, the queue and the timer table already have
/// the capacity the previous run reached. Fault-free, so that what is
/// counted is the world and its layers and not a filter's strings (17
/// reallocations and 510 KB per run from a fresh fork when this was
/// written; 0 and 48 KB into the retired world).
#[test]
fn a_run_restored_into_the_retired_world_stops_growing_buffers() {
    let target = GmpTarget::default();
    let (snapshot, sites) = base(&target);

    let (_, fresh) = counted(|| {
        let mut world = snapshot.fork();
        install_and_drive(&target, &mut world, Vec::new())
    });

    // The retired world comes from a *different* run: three faults, so
    // other trace columns, parked messages and another queue shape than
    // the measured runs'.
    let mut world = snapshot.fork();
    install_and_drive(&target, &mut world, install_ops(&sites, &THREE_FAULTS));
    let mut runs = [[0u64; 3]; 3];
    for run in &mut runs {
        let (_, counts) = counted(|| {
            world.restore(&snapshot);
            install_and_drive(&target, &mut world, Vec::new())
        });
        *run = counts;
    }
    println!("fresh fork:    {fresh:?} (allocations, reallocations, bytes)");
    println!("retired world: {:?}, then {:?}", runs[0], runs[1]);
    assert_eq!(runs[1], runs[2], "the counts must repeat");
    let [_, reallocations, bytes] = runs[1];
    assert!(
        reallocations <= 1 && fresh[1] > 10,
        "{reallocations} buffers still outgrew themselves (fresh fork: {})",
        fresh[1]
    );
    assert!(
        bytes * 4 <= fresh[2],
        "{bytes} bytes allocated is not under a quarter of a fresh fork's {}",
        fresh[2]
    );
}

/// What one tcp execution asks the allocator for. The 8 KB payload used
/// to be moved a byte at a time through `VecDeque::extend` and
/// `drain(..).collect()`; it is copied by slice now. The count is a
/// program count and repeats exactly.
#[test]
fn a_tcp_execution_reports_what_it_allocates() {
    let target = TcpTarget::default();
    let warm = run_schedule(&target, &FaultSchedule::empty());
    let mut runs = [[0u64; 3]; 2];
    for run in &mut runs {
        let (again, counts) = counted(|| run_schedule(&target, &FaultSchedule::empty()));
        assert_eq!(again.verdict, warm.verdict);
        *run = counts;
    }
    println!(
        "tcp execution: {:?} (allocations, reallocations, bytes) for an {} byte payload",
        runs[0], target.payload_len
    );
    assert_eq!(runs[0], runs[1], "the counts must repeat");
}
