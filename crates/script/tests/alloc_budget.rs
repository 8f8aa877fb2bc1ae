//! An allocation budget for one warm filter evaluation.
//!
//! A compiled script evaluates without looking anything up and without
//! formatting what nobody reads: counters stay integers, a result that is
//! dropped is never built, the argument strings lent to the host are
//! reused. What is left is what `Host::call` must return — an owned
//! `String` per answer — and the strings a filter genuinely stores. This
//! test pins that as a count per evaluation for the four filters of the
//! `interpose` benchmark, taken with a counting allocator local to this
//! test binary (the pattern of `crates/testgen/tests/alloc_budget.rs`).
//! The count is a program count and repeats exactly; it says nothing
//! about speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfi_script::{Host, Interp, Script, ScriptError};

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

/// `TYPED_DELAY` of `bench/src/bin/pfi_bench_interpose.rs`.
const TYPED_DELAY: &str = r#"
    incr n
    set t [msg_type]
    if {$n % 100 == 0 && $t != "none"} { xDelay 1 }
"#;

/// `LOOP8` of `bench/src/bin/pfi_bench_interpose.rs`.
const LOOP8: &str = r#"
    set sum 0
    for {set i 0} {$i < 8} {incr i} {
        set sum [expr {$sum + [msg_len] * $i}]
    }
    if {$sum > 100000} { xDrop }
"#;

const EXP1_RECV: &str = include_str!("../../../scripts/exp1_recv_filter.tcl");

/// What the benchmark's `lowered3()` emits (`FilterProgram::emit` over a
/// drop-after, a delay-nth and a corrupt-first clause).
const LOWERED3: &str = r#"if {[msg_type] == "COMMIT"} {
    incr c0
    if {$c0 > 100} { xDrop }
}
if {[msg_type] == "ACK"} {
    incr c1
    if {$c1 == 7} { xDelay 2 }
}
if {[msg_dst] == 1} {
    incr c2
    if {$c2 <= 50} { if {[msg_len] > 3} { msg_set_byte 3 [expr {([msg_byte 3] ^ 64) & 0xFF}] } }
}
"#;

/// Answers the predefined commands the four filters call, each with the
/// owned `String` the `Host` trait requires.
struct Bindings {
    message: u32,
}

impl Host for Bindings {
    fn call(
        &mut self,
        _interp: &mut Interp,
        cmd: &str,
        _args: &[String],
    ) -> Option<Result<String, ScriptError>> {
        const TYPES: [&str; 4] = ["HEARTBEAT", "COMMIT", "ACK", "DATA"];
        Some(Ok(match cmd {
            "msg_type" => TYPES[self.message as usize % 4].to_string(),
            "msg_len" => "16".to_string(),
            "msg_dst" => "1".to_string(),
            "msg_byte" => "7".to_string(),
            "msg_log" | "xDrop" | "xDelay" | "msg_set_byte" => String::new(),
            _ => return None,
        }))
    }
}

/// Allocations of each of 100 warm evaluations (messages 200..300, after
/// 200 have warmed every branch and closed every counter window).
fn warm_counts(src: &str) -> Vec<u64> {
    let script = Script::parse(src).expect("filter parses");
    let mut interp = Interp::new();
    let mut host = Bindings { message: 0 };
    let mut evaluate = |message: u32| {
        host.message = message;
        let before = allocations();
        let result = interp.eval_parsed(&mut host, &script);
        let allocated = allocations() - before;
        result.expect("filter evaluates");
        allocated
    };
    (0..200).for_each(|m| {
        evaluate(m);
    });
    (200..300).map(evaluate).collect()
}

#[test]
fn a_warm_evaluation_stays_within_its_allocation_budget() {
    for (name, src, budget) in [
        // 8 of these are the eight `[msg_len]` answers.
        ("loop8", LOOP8, 12),
        // `[msg_type]`'s answer; every hundredth message also reads `$t`
        // and passes `1` to `xDelay`.
        ("typed_delay", TYPED_DELAY, 3),
        // `cur_msg` goes to the host twice, in strings kept between calls.
        ("exp1_recv", EXP1_RECV, 2),
        // Two `[msg_type]` answers and one `[msg_dst]`.
        ("lowered3", LOWERED3, 4),
    ] {
        let counts = warm_counts(src);
        let worst = counts.iter().copied().max().unwrap_or(0);
        println!(
            "{name}: at most {worst} allocations per warm evaluation, {} over 100 \
             (budget {budget})",
            counts.iter().sum::<u64>()
        );
        assert!(
            worst <= budget,
            "{name}: {worst} allocations in one evaluation exceeds {budget}"
        );
        assert_eq!(counts, warm_counts(src), "{name}: the count must repeat");
    }
}
