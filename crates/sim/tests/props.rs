//! Property-based tests for the simulator substrate.

use pfi_sim::{Context, Layer, Message, NodeId, SimDuration, SimTime, World};
use proptest::prelude::*;
use std::any::Any;

proptest! {
    /// Duration arithmetic is saturating and order-preserving.
    #[test]
    fn duration_arithmetic(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        let sum = da + db;
        prop_assert!(sum >= da.max(db));
        prop_assert_eq!(da.max(db).min(da.min(db)), da.min(db));
        let t = SimTime::from_micros(a) + db;
        prop_assert!(t >= SimTime::from_micros(a));
    }

    /// Backoff doubles until the cap and never exceeds it.
    #[test]
    fn backoff_never_exceeds_cap(start in 1u64..1_000_000, cap in 1u64..100_000_000, steps in 0usize..80) {
        let cap = SimDuration::from_micros(cap);
        let mut d = SimDuration::from_micros(start);
        for _ in 0..steps {
            let next = d.backoff(cap);
            prop_assert!(next <= cap);
            prop_assert!(next >= d.min(cap));
            d = next;
        }
    }

    /// Message header stacking: any sequence of pushes then matching strips
    /// recovers the payload and headers in LIFO order.
    #[test]
    fn header_stack_lifo(
        payload in proptest::collection::vec(any::<u8>(), 0..100),
        headers in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 0..6),
    ) {
        let mut m = Message::new(NodeId::new(0), NodeId::new(1), &payload);
        for h in &headers {
            m.push_header(h);
        }
        for h in headers.iter().rev() {
            let got = m.strip_header(h.len()).unwrap();
            prop_assert_eq!(&got, h);
        }
        prop_assert_eq!(m.bytes(), &payload[..]);
    }

    /// Scheduled callbacks always run in (time, insertion) order, whatever
    /// the insertion order of their deadlines.
    #[test]
    fn callbacks_run_in_time_order(delays in proptest::collection::vec(0u64..10_000, 1..40)) {
        let mut world = World::new(1);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let log = log.clone();
            world.schedule_in(SimDuration::from_micros(d), move |w| {
                log.lock().unwrap().push((w.now().as_micros(), i));
            });
        }
        world.run_for(SimDuration::from_millis(20));
        let fired = log.lock().unwrap();
        prop_assert_eq!(fired.len(), delays.len());
        for pair in fired.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "insertion order violated on tie");
            }
        }
    }

    /// Echo traffic under arbitrary loss/jitter is deterministic per seed
    /// and never duplicates a message the network delivered once.
    #[test]
    fn network_delivery_counts_are_sane(seed in any::<u64>(), loss in 0.0f64..1.0, n in 1u32..60) {
        struct Sink(std::sync::Arc<std::sync::atomic::AtomicU32>);
        impl Layer for Sink {
            fn name(&self) -> &'static str { "sink" }
            fn push(&mut self, m: Message, c: &mut Context<'_>) { c.send_down(m); }
            fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        struct Src;
        struct Fire(NodeId, u32);
        impl Layer for Src {
            fn name(&self) -> &'static str { "src" }
            fn push(&mut self, m: Message, c: &mut Context<'_>) { c.send_down(m); }
            fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
            fn control(&mut self, op: Box<dyn Any>, c: &mut Context<'_>) -> Box<dyn Any> {
                let Fire(dst, n) = *op.downcast::<Fire>().unwrap();
                for i in 0..n {
                    c.send_down(Message::new(c.node(), dst, &i.to_be_bytes()));
                }
                Box::new(())
            }
        }
        let count = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut world = World::new(seed);
        world.network_mut().default_link_mut().loss = loss;
        let a = world.add_node(vec![Box::new(Src)]);
        let b = world.add_node(vec![Box::new(Sink(count.clone()))]);
        world.control::<()>(a, 0, Fire(b, n));
        world.run_for(SimDuration::from_secs(1));
        let delivered = count.load(std::sync::atomic::Ordering::Relaxed);
        prop_assert!(delivered <= n, "the network must not duplicate: {delivered} > {n}");
        if loss == 0.0 {
            prop_assert_eq!(delivered, n, "lossless link must deliver everything");
        }
    }
}

/// A snapshot-capable chatterbox: every ~1 ms it sends a message to its
/// peer and re-arms, a bounded number of times. All of its state is plain
/// data, so `clone_box` can participate in world snapshots.
#[derive(Clone)]
struct Chatter {
    peer: Option<NodeId>,
    remaining: u32,
}

impl Layer for Chatter {
    fn name(&self) -> &'static str {
        "chatter"
    }
    fn push(&mut self, m: Message, c: &mut Context<'_>) {
        c.send_down(m);
    }
    fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
    fn timer(&mut self, _t: u64, c: &mut Context<'_>) {
        if let Some(peer) = self.peer {
            if self.remaining > 0 {
                self.remaining -= 1;
                c.send_down(Message::new(c.node(), peer, b"tick"));
                c.set_timer(SimDuration::from_micros(997), 0);
            }
        }
    }
    fn control(&mut self, op: Box<dyn Any>, c: &mut Context<'_>) -> Box<dyn Any> {
        self.peer = Some(*op.downcast::<NodeId>().unwrap());
        c.set_timer(SimDuration::from_micros(997), 0);
        Box::new(())
    }
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot → diverge → restore is a lossless round trip for any seed,
    /// link loss, and warm-up point: the restored world and a fresh fork
    /// both reproduce the captured digest, and driving either forward is
    /// byte-equivalent — post-snapshot divergence leaves no residue.
    #[test]
    fn snapshot_restore_round_trips(
        seed in any::<u64>(),
        loss in 0.0f64..1.0,
        warm in 1_000u64..50_000,
        diverge in 1_000u64..100_000,
    ) {
        let mut world = World::new(seed);
        world.network_mut().default_link_mut().loss = loss;
        let a = world.add_node(vec![Box::new(Chatter { peer: None, remaining: 200 })]);
        let b = world.add_node(vec![Box::new(Chatter { peer: None, remaining: 200 })]);
        world.control::<()>(a, 0, b);
        world.control::<()>(b, 0, a);
        world.run_for(SimDuration::from_micros(warm));

        let snap = world.try_snapshot().expect("plain-data layers must snapshot");
        let captured = world.snapshot_digest();
        prop_assert_eq!(snap.digest(), captured, "snapshot digest mirrors the live world");

        let mut forked = snap.fork();
        prop_assert_eq!(forked.snapshot_digest(), captured, "fork lands on the captured state");

        // Diverge hard: more traffic, a crash, a board write.
        world.run_for(SimDuration::from_micros(diverge));
        world.crash(b);
        let board = world.alloc_board();
        world.boards_mut().set(board, "phase", "diverged");
        world.run_for(SimDuration::from_micros(diverge));
        prop_assert!(world.snapshot_digest() != captured, "divergence must be visible");

        world.restore(&snap);
        prop_assert_eq!(world.snapshot_digest(), captured, "restore erases the divergence");

        // The restored world and the fork are the same world: driving both
        // forward by the same duration keeps them digest-identical.
        world.run_for(SimDuration::from_micros(diverge));
        forked.run_for(SimDuration::from_micros(diverge));
        prop_assert_eq!(world.snapshot_digest(), forked.snapshot_digest());
    }
}

#[test]
fn run_until_idle_drains_finite_event_chains() {
    struct Countdown(u32);
    impl Layer for Countdown {
        fn name(&self) -> &'static str {
            "countdown"
        }
        fn push(&mut self, _m: Message, _c: &mut Context<'_>) {}
        fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
        fn timer(&mut self, _t: u64, c: &mut Context<'_>) {
            if self.0 > 0 {
                self.0 -= 1;
                c.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn control(&mut self, _op: Box<dyn Any>, c: &mut Context<'_>) -> Box<dyn Any> {
            c.set_timer(SimDuration::from_millis(10), 0);
            Box::new(())
        }
    }
    let mut world = World::new(1);
    let n = world.add_node(vec![Box::new(Countdown(25))]);
    world.control::<()>(n, 0, ());
    world.run_until_idle();
    // 26 timer hops of 10 ms each.
    assert_eq!(world.now(), SimTime::from_micros(260_000));
}
