//! DES engine throughput: the future-event list under the access patterns
//! a datacenter week generates (schedule/pop churn, cancellations from
//! completion-event rescheduling, same-timestamp bursts).

use eards_bench::timing::Recorder;
use eards_sim::{EventQueue, SimDuration, SimRng, SimTime};

fn bench_schedule_pop(rec: &mut Recorder) {
    for n in [1_000usize, 10_000, 100_000] {
        let mut rng = SimRng::seed_from_u64(3);
        let times: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_millis(rng.next_u64() % 1_000_000_000))
            .collect();
        rec.bench(&format!("event_queue/schedule_pop/{n}"), || {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut acc = 0usize;
            while let Some((_, _, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        });
    }
}

fn bench_cancel_heavy(rec: &mut Recorder) {
    // The driver cancels and reschedules a completion event on every
    // reallocation: cancellation is on the hot path.
    let mut rng = SimRng::seed_from_u64(4);
    let offsets: Vec<u64> = (0..10_000).map(|_| 1 + rng.next_u64() % 10_000).collect();
    rec.bench("event_queue/cancel_reschedule_churn", || {
        let mut q = EventQueue::new();
        let mut handles = Vec::with_capacity(1_000);
        for i in 0..1_000usize {
            handles.push(q.schedule(SimTime::from_millis(i as u64), i));
        }
        // Churn: cancel + reschedule.
        for (i, &off) in offsets.iter().enumerate() {
            let idx = i % handles.len();
            q.cancel(handles[idx]);
            handles[idx] = q.schedule(SimTime::from_millis(off), idx);
        }
        let mut count = 0usize;
        while q.pop().is_some() {
            count += 1;
        }
        count
    });
}

fn bench_simulator_loop(rec: &mut Recorder) {
    // A self-perpetuating event chain, driven the way the runner drives
    // its queue: pop the next event, schedule its successor.
    rec.bench("event_queue/simulator_hot_loop", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0);
        let mut acc = 0u64;
        while let Some((now, _, v)) = q.pop() {
            acc = acc.wrapping_add(v);
            if v < 50_000 {
                q.schedule(now + SimDuration::from_millis(1), v + 1);
            }
        }
        acc
    });
}

fn main() {
    let mut rec = Recorder::default();
    bench_schedule_pop(&mut rec);
    bench_cancel_heavy(&mut rec);
    bench_simulator_loop(&mut rec);
}
