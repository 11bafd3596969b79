//! End-to-end simulation throughput: a day of datacenter time per policy.
//! The paper's selling point for simulation (§IV) is that "a large
//! virtualized datacenter executing a workload for a week" runs in about
//! an hour on one machine; this measures our equivalent (a week runs in
//! seconds — see the `week_in_the_datacenter` example).

use eards_bench::timing::Recorder;
use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{paper_datacenter, RunConfig, Runner};
use eards_model::Policy;
use eards_policies::{BackfillingPolicy, DynamicBackfillingPolicy, RandomPolicy};
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig, Trace};

fn day_trace() -> Trace {
    generate(
        &SynthConfig {
            span: SimDuration::from_days(1),
            ..SynthConfig::grid5000_week()
        },
        7,
    )
}

fn make(policy: &str) -> Box<dyn Policy> {
    match policy {
        "RD" => Box::new(RandomPolicy::new(1)),
        "BF" => Box::new(BackfillingPolicy::new()),
        "DBF" => Box::new(DynamicBackfillingPolicy::new()),
        "SB" => Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        _ => unreachable!(),
    }
}

fn main() {
    let mut rec = Recorder::default();
    let trace = day_trace();
    for policy in ["RD", "BF", "DBF", "SB"] {
        rec.bench(&format!("end_to_end/simulated_day/{policy}"), || {
            Runner::new(
                paper_datacenter(),
                trace.clone(),
                make(policy),
                RunConfig::default(),
            )
            .run()
        });
    }
    rec.bench("end_to_end/generate_week_trace", || {
        generate(&SynthConfig::grid5000_week(), 7)
    });
}
