//! Extending EARDS with your own scheduling policy.
//!
//! The paper argues its matrix formulation "lends itself easily to
//! extension" (§VI); on the library side, every scheduler is just an
//! implementation of [`Policy`]. This example writes a first-fit policy
//! from scratch against the public API and races it against the built-in
//! Backfilling and score-based schedulers.
//!
//! Run with: `cargo run --release --example custom_policy`

use eards::prelude::*;

/// First-fit: each queued VM goes to the lowest-numbered powered-on host
/// where it fits without overcommitting. Simpler than Backfilling (no
/// best-fit search) — and measurably worse at consolidating.
struct FirstFitPolicy;

impl Policy for FirstFitPolicy {
    fn name(&self) -> String {
        "FirstFit".into()
    }

    fn schedule(&mut self, cluster: &Cluster, _ctx: &ScheduleContext) -> Vec<Action> {
        let mut actions = Vec::new();
        // Track capacity we have already promised in this round.
        let mut planned: Vec<f64> = (0..cluster.num_hosts())
            .map(|i| {
                let h = HostId(i as u32);
                cluster.committed(h).cpu.as_f64()
            })
            .collect();
        for &vm in cluster.queue() {
            let demand = cluster.vm(vm).requested.cpu.as_f64();
            let target = (0..cluster.num_hosts())
                .map(|i| HostId(i as u32))
                .find(|&h| {
                    cluster.host(h).power.is_ready()
                        && cluster.can_place(h, vm)
                        && planned[h.raw() as usize] + demand <= cluster.host(h).spec.cpu.as_f64()
                });
            if let Some(host) = target {
                planned[host.raw() as usize] += demand;
                actions.push(Action::Create { vm, host });
            }
        }
        actions
    }
}

fn main() {
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_days(2),
            ..SynthConfig::grid5000_week()
        },
        3,
    );
    let hosts = eards::datacenter::paper_datacenter();

    // Each point builds its policy inside the sweep's worker thread.
    let point = |label: &str, policy: fn() -> Box<dyn Policy>| SweepPoint {
        label: label.into(),
        config: RunConfig::default(),
        policy: Box::new(policy),
    };
    let contenders = vec![
        point("FirstFit", || Box::new(FirstFitPolicy)),
        point("BF", || Box::new(BackfillingPolicy::new())),
        point("SB", || Box::new(ScoreScheduler::new(ScoreConfig::sb()))),
    ];
    let reports = run_sweep(&hosts, &trace, contenders, None);
    println!("{}", RunReport::table(&reports).to_markdown());
    println!(
        "first-fit fills the lowest-numbered hosts but ignores how full each \
         one is; best-fit (BF) packs tighter, and the score-based scheduler \
         additionally weighs virtualization overheads and migration."
    );
}
