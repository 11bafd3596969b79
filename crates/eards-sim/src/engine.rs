//! The discrete-event simulation loop.
//!
//! [`Simulator`] owns the clock and the future-event list. It is generic over
//! the event payload type `E`; the datacenter driver defines its own event
//! enum and drives the loop with [`Simulator::step`] or
//! [`Simulator::step_before`].
//! Keeping the engine payload-agnostic mirrors how the paper's OMNeT++
//! substrate is separate from their datacenter model (§IV).

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::queue::{EventHandle, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator: a monotonic clock plus a future-event list.
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at `t = 0`.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a causality violation that would
    /// silently corrupt any downstream time-integrated statistic.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, requested = {}",
            self.now,
            at
        );
        self.queue.schedule(at, event)
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<(SimTime, EventHandle, E)> {
        let (time, handle, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue yielded a past event");
        self.now = time;
        self.processed += 1;
        Some((time, handle, event))
    }

    /// Pops the next event only if it fires strictly before `end`.
    ///
    /// Leaves later events queued and does *not* advance the clock past
    /// them.
    pub fn step_before(&mut self, end: SimTime) -> Option<(SimTime, EventHandle, E)> {
        if self.queue.peek_time()? >= end {
            return None;
        }
        self.step()
    }
}

/// Canonical state: the clock (`SimClock` role of the engine), the
/// processed-event counter, and the future-event list.
impl<E: Persist> Persist for Simulator<E> {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.now.persist(w);
        w.put_u64(self.processed);
        self.queue.persist(w);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Simulator {
            now: SimTime::restore(r)?,
            processed: r.get_u64()?,
            queue: EventQueue::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), Ev::Ping(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Ping(0));
        assert_eq!(sim.now(), SimTime::ZERO);
        let (t, _, e) = sim.step().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), Ev::Ping(0)));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.step().unwrap();
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.step().is_none());
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(10), Ev::Stop);
        sim.step();
        sim.schedule_at(SimTime::from_secs(3), Ev::Stop);
    }

    #[test]
    fn step_before_respects_horizon() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), Ev::Ping(1));
        sim.schedule_at(SimTime::from_secs(10), Ev::Ping(2));
        assert!(sim.step_before(SimTime::from_secs(5)).is_some());
        assert!(sim.step_before(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.pending(), 1, "later event must stay queued");
        assert_eq!(sim.now(), SimTime::from_secs(1), "the clock stays put");
    }

    #[test]
    fn persist_round_trip_resumes_mid_run() {
        use crate::persist::{Reader, Writer};

        let mut sim = Simulator::new();
        for i in 0..6u32 {
            sim.schedule_at(SimTime::from_secs(u64::from(i) + 1), Ev::Ping(i));
        }
        sim.step();
        sim.step();

        let mut w = Writer::new();
        sim.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let mut restored: Simulator<Ev> = Simulator::restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.now(), sim.now());
        assert_eq!(restored.processed(), sim.processed());
        loop {
            let (a, b) = (sim.step(), restored.step());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    impl Persist for Ev {
        fn persist(&self, w: &mut Writer) {
            match self {
                Ev::Ping(i) => {
                    w.put_u8(0);
                    w.put_u32(*i);
                }
                Ev::Stop => w.put_u8(1),
            }
        }
        fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
            match r.get_u8()? {
                0 => Ok(Ev::Ping(r.get_u32()?)),
                1 => Ok(Ev::Stop),
                t => Err(PersistError::Corrupt(format!("bad Ev tag {t}"))),
            }
        }
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulator::new();
        let h = sim.schedule_at(SimTime::from_secs(1), Ev::Ping(1));
        sim.schedule_at(SimTime::from_secs(2), Ev::Ping(2));
        assert!(sim.cancel(h));
        let (_, _, e) = sim.step().unwrap();
        assert_eq!(e, Ev::Ping(2));
    }
}
