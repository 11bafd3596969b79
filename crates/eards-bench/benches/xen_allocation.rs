//! Credit-scheduler water-filling cost: runs on every host event, so its
//! constant matters for end-to-end simulation speed.

use eards_bench::timing::Recorder;
use eards_model::xen::{allocate, CpuContender};
use eards_sim::SimRng;

fn contenders(n: usize, seed: u64) -> Vec<CpuContender> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let demand = 100.0 * (1 + rng.index(4)) as f64;
            CpuContender {
                demand,
                weight: 256.0,
                cap: demand,
            }
        })
        .collect()
}

fn main() {
    let mut rec = Recorder::default();
    // Typical host populations (a 4-way node holds a handful of VMs) and a
    // pathological stack (what Random produces under a burst).
    for n in [2usize, 4, 8, 16, 64] {
        let cs = contenders(n, n as u64);
        rec.bench(&format!("xen/allocate/{n}"), || allocate(400.0, &cs));
    }
    // The common fast case: everything fits, one round.
    let cs = vec![CpuContender::simple(100.0), CpuContender::simple(200.0)];
    rec.bench("xen/allocate_uncontended", || allocate(400.0, &cs));
}
