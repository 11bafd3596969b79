//! Fault tolerance in action: a datacenter with flaky nodes, failure
//! injection, periodic checkpointing, and the `P_fault`-aware score
//! scheduler — the extension machinery §III-A.6 and §III-C describe and
//! the paper leaves to future work.
//!
//! Run with: `cargo run --release --example failure_recovery`

use eards::prelude::*;

fn flaky_hosts() -> Vec<HostSpec> {
    (0..20u32)
        .map(|i| {
            let mut spec = HostSpec::standard(HostId(i), HostClass::Medium);
            if i % 4 == 0 {
                spec.reliability = 0.93; // ~0.4 h MTTF with a 30 min repair
            }
            spec
        })
        .collect()
}

fn variant(label: &str, fault_penalty: bool, checkpoints: bool) -> SweepPoint {
    let mut score_cfg = ScoreConfig::sb().named(label);
    score_cfg.fault_penalty = fault_penalty;
    let config = RunConfig {
        checkpoint_period: checkpoints.then(|| SimDuration::from_mins(10)),
        ..RunConfig::default()
    }
    // Reliability-driven host crashes, repaired after the default 30 min.
    .with_faults(FaultPlan::crashes());
    SweepPoint {
        label: label.into(),
        config,
        policy: Box::new(move || Box::new(ScoreScheduler::new(score_cfg.clone()))),
    }
}

fn main() {
    println!(
        "20-node datacenter, every fourth node flaky (reliability 0.93); one \
         day of load; failures injected from each node's reliability factor.\n"
    );
    let variants = [
        ("reliability-blind", false, false),
        ("P_fault aware", true, false),
        ("P_fault + checkpoints", true, true),
    ];
    let mut table = Table::new([
        "variant",
        "host failures",
        "VMs displaced",
        "jobs done",
        "S (%)",
        "delay (%)",
        "Pwr (kWh)",
    ]);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_days(1),
            ..SynthConfig::grid5000_week()
        },
        11,
    );
    let points = variants
        .into_iter()
        .map(|(label, fault, ckpt)| variant(label, fault, ckpt))
        .collect();
    for r in run_sweep(&flaky_hosts(), &trace, points, None) {
        table.row([
            r.label.clone(),
            r.host_failures.to_string(),
            r.vms_displaced.to_string(),
            format!("{}/{}", r.jobs_completed, r.jobs_total),
            format!("{:.1}", r.satisfaction_pct),
            format!("{:.1}", r.delay_pct),
            format!("{:.1}", r.energy_kwh),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "P_fault keeps VMs off flaky nodes when reliable capacity exists; \
         checkpoints bound the work a crash destroys to one interval."
    );
}
