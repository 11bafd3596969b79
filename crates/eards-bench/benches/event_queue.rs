//! DES engine throughput: the future-event list under the access patterns
//! a datacenter week generates (schedule/pop churn, cancellations from
//! completion-event rescheduling, same-timestamp bursts).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eards_sim::{EventQueue, SimDuration, SimRng, SimTime};

fn bench_schedule_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/schedule_pop");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = SimRng::seed_from_u64(3);
            let times: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_millis(rng.next_u64() % 1_000_000_000))
                .collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(t, i);
                }
                let mut acc = 0usize;
                while let Some((_, _, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_cancel_heavy(c: &mut Criterion) {
    // The driver cancels and reschedules a completion event on every
    // reallocation: cancellation is on the hot path.
    c.bench_function("event_queue/cancel_reschedule_churn", |b| {
        let mut rng = SimRng::seed_from_u64(4);
        let offsets: Vec<u64> = (0..10_000).map(|_| 1 + rng.next_u64() % 10_000).collect();
        b.iter(|| {
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
        })
    });
}

fn bench_simulator_loop(c: &mut Criterion) {
    // A self-perpetuating event chain, driven the way the runner drives
    // its queue: pop the next event, schedule its successor.
    c.bench_function("event_queue/simulator_hot_loop", |b| {
        b.iter(|| {
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
        })
    });
}

criterion_group!(
    benches,
    bench_schedule_pop,
    bench_cancel_heavy,
    bench_simulator_loop
);
criterion_main!(benches);
