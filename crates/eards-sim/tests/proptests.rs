//! Property tests for the DES engine: the event queue against a reference
//! model, and time arithmetic laws.

use proptest::prelude::*;

use eards_sim::{EventQueue, SimDuration, SimTime};

/// Operations to drive the queue model.
#[derive(Debug, Clone)]
enum Op {
    Schedule(u64),
    /// Cancel the i-th still-live handle (mod live count).
    Cancel(usize),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..10_000).prop_map(Op::Schedule),
        1 => (0usize..64).prop_map(Op::Cancel),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    /// The queue behaves exactly like a sorted reference list under any
    /// interleaving of schedule / cancel / pop.
    #[test]
    fn queue_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut queue = EventQueue::new();
        // Reference: Vec of (time, seq, payload, handle) kept sorted by (time, seq).
        let mut reference: Vec<(SimTime, u64, u64, eards_sim::EventHandle)> = Vec::new();
        let mut next_payload = 0u64;

        for op in ops {
            match op {
                Op::Schedule(ms) => {
                    let t = SimTime::from_millis(ms);
                    let h = queue.schedule(t, next_payload);
                    reference.push((t, next_payload, next_payload, h));
                    next_payload += 1;
                }
                Op::Cancel(i) => {
                    if reference.is_empty() {
                        prop_assert!(queue.is_empty());
                        continue;
                    }
                    let idx = i % reference.len();
                    let (_, _, _, h) = reference.remove(idx);
                    prop_assert!(queue.cancel(h), "live handle must cancel");
                    prop_assert!(!queue.cancel(h), "double cancel must fail");
                }
                Op::Pop => {
                    reference.sort_by_key(|&(t, seq, _, _)| (t, seq));
                    match queue.pop() {
                        Some((t, _, payload)) => {
                            let (rt, _, rp, _) = reference.remove(0);
                            prop_assert_eq!(t, rt);
                            prop_assert_eq!(payload, rp);
                        }
                        None => prop_assert!(reference.is_empty()),
                    }
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
        }

        // Drain: the remainder pops in exact (time, insertion) order.
        reference.sort_by_key(|&(t, seq, _, _)| (t, seq));
        for (rt, _, rp, _) in reference {
            let (t, _, p) = queue.pop().expect("queue must match reference");
            prop_assert_eq!(t, rt);
            prop_assert_eq!(p, rp);
        }
        prop_assert!(queue.pop().is_none());
    }

    /// Pop order is globally sorted and FIFO-stable for equal timestamps.
    #[test]
    fn pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, _, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal time");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Duration arithmetic: associativity-ish laws within u64 range.
    #[test]
    fn time_arithmetic_laws(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, k in 0.0f64..8.0) {
        let ta = SimTime::from_millis(a);
        let db = SimDuration::from_millis(b);
        // add-then-subtract round trips.
        prop_assert_eq!((ta + db) - ta, db);
        prop_assert_eq!((ta + db).saturating_since(ta), db);
        // saturating_since in the other direction is zero.
        prop_assert_eq!(ta.saturating_since(ta + db + SimDuration::from_millis(1)), SimDuration::ZERO);
        // scaling by a non-negative factor preserves ordering.
        let scaled = db.mul_f64(k);
        if k >= 1.0 {
            prop_assert!(scaled >= db);
        } else {
            prop_assert!(scaled <= db);
        }
        // seconds round trip within rounding.
        let rt = SimDuration::from_secs_f64(db.as_secs_f64());
        let diff = rt.as_millis().abs_diff(db.as_millis());
        prop_assert!(diff <= 1, "round trip drift {diff}");
    }
}
