//! The pending-event set of the discrete-event engine.
//!
//! A binary min-heap ordered by `(time, sequence)`: two events scheduled for
//! the same instant pop in scheduling order, which makes runs reproducible
//! regardless of heap internals. Cancellation is *lazy*: cancelling drops
//! the handle from the live set, and a heap entry whose sequence number is
//! not live is a tombstone, discarded when it surfaces. `schedule` stays
//! O(log n) and `cancel` O(1).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::int_hash::IntBuildHasher;
use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::SimTime;

/// An opaque handle identifying one scheduled event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Manual impls: the heap is a max-heap, so reverse the natural order to get
// earliest-first, and among equal times, lowest sequence first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: the core data structure of the DES engine.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers that are scheduled and not cancelled. A heap
    /// entry missing from this set is a tombstone.
    // lint:allow(D001): membership tests and counts only, never iterated
    pending: HashSet<u64, IntBuildHasher>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::default(),
            next_seq: 0,
        }
    }

    /// Number of live (non-cancelled) scheduled events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedules `payload` at `time`, returning a handle for cancellation.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        self.pending.insert(seq);
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.pending.remove(&handle.0)
    }

    /// The `(time, handle)` key of the next live event, if any: the key
    /// the queue pops by.
    pub fn peek(&mut self) -> Option<(SimTime, EventHandle)> {
        self.skim();
        self.heap.peek().map(|e| (e.time, EventHandle(e.seq)))
    }

    /// The handle the next [`EventQueue::schedule`] will return. Handles
    /// grow with every schedule, so an event scheduled before this call
    /// has a smaller handle than one scheduled after it.
    pub fn next_handle(&self) -> EventHandle {
        EventHandle(self.next_seq)
    }

    /// The payloads of the live events, in no particular order.
    pub fn payloads(&self) -> impl Iterator<Item = &E> {
        self.heap
            .iter()
            .filter(|e| self.pending.contains(&e.seq))
            .map(|e| &e.payload)
    }

    /// Removes and returns the next live event as `(time, handle, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventHandle, E)> {
        self.skim();
        let entry = self.heap.pop()?;
        self.pending.remove(&entry.seq);
        Some((entry.time, EventHandle(entry.seq), entry.payload))
    }

    /// Drops tombstones sitting at the top of the heap.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.pending.contains(&top.seq) {
                break;
            }
            self.heap.pop();
        }
    }
}

impl Persist for EventHandle {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(EventHandle(r.get_u64()?))
    }
}

/// Canonical state: `next_seq` plus the live entries with their original
/// sequence numbers, written sorted by `(time, seq)`. Tombstones are
/// compacted away (restore holds live entries only), but sequence numbers
/// are preserved so [`EventHandle`]s held by callers remain valid across a
/// snapshot.
impl<E: Persist> Persist for EventQueue<E> {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.next_seq);
        let mut live: Vec<&Entry<E>> = self
            .heap
            .iter()
            .filter(|e| self.pending.contains(&e.seq))
            .collect();
        // `(time, seq)` is unique per entry, so the unstable sort is exact.
        live.sort_unstable_by_key(|e| (e.time, e.seq));
        w.put_len(live.len());
        for entry in live {
            entry.time.persist(w);
            w.put_u64(entry.seq);
            entry.payload.persist(w);
        }
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let next_seq = r.get_u64()?;
        let n = r.get_len()?;
        let mut entries = Vec::with_capacity(n);
        let mut pending = HashSet::with_capacity_and_hasher(n, IntBuildHasher::default());
        for _ in 0..n {
            let time = SimTime::restore(r)?;
            let seq = r.get_u64()?;
            let payload = E::restore(r)?;
            if seq >= next_seq {
                return Err(PersistError::Corrupt(format!(
                    "event seq {seq} not below next_seq {next_seq}"
                )));
            }
            if !pending.insert(seq) {
                return Err(PersistError::Corrupt(format!("duplicate event seq {seq}")));
            }
            entries.push(Entry { time, seq, payload });
        }
        Ok(EventQueue {
            // One O(n) heapify. Pop order is fixed by the unique
            // `(time, seq)` keys, not by the heap's layout.
            heap: BinaryHeap::from(entries),
            pending,
            next_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(h1), "double cancel must fail");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_fails() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), ());
        let (_, popped, _) = q.pop().unwrap();
        assert_eq!(popped, h);
        assert!(!q.cancel(h));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_handle_fails() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle(12345)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "dead");
        let live = q.next_handle();
        q.schedule(t(2), "live");
        q.cancel(h);
        assert_eq!(q.peek(), Some((t(2), live)));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("live"));
    }

    #[test]
    fn persist_round_trip_preserves_order_and_handles() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 50u64);
        let doomed = q.schedule(t(1), 10u64);
        q.schedule(t(3), 30u64);
        let live = q.schedule(t(3), 31u64);
        q.cancel(doomed);

        let mut w = crate::persist::Writer::new();
        q.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = crate::persist::Reader::new(&bytes);
        let mut restored: EventQueue<u64> = EventQueue::restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.len(), q.len());
        // Handles issued before the snapshot still cancel the right entry.
        assert!(restored.cancel(live));
        assert!(q.cancel(live));
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
        // New schedules in both queues keep issuing identical handles.
        assert_eq!(q.schedule(t(9), 90u64), restored.schedule(t(9), 90u64));
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(20), 20);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(10));
        q.schedule(t(15), 15);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(15));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(20));
        assert_eq!(q.pop().map(|(ti, _, _)| ti), None);
        let _ = SimDuration::ZERO; // keep import used in this cfg
    }
}
