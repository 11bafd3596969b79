//! Table I — virtualized server power usage.
//!
//! The paper measures a real 4-way Xen node under eight VM/CPU
//! configurations and finds the draw depends only on total CPU. This
//! experiment replays the same eight configurations through the model
//! stack — VMs placed on one host, the credit scheduler allocating CPU,
//! the calibrated power model converting to Watts — and regenerates the
//! table.

use eards_metrics::{fnum, Table};
use eards_model::{
    CalibratedPowerModel, Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState,
};
use eards_sim::{SimDuration, SimTime};

use crate::common::ExperimentResult;

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "table1_power_model";

/// One measured configuration of Table I: the per-VM virtual-CPU loads.
struct Config {
    /// Display label, e.g. `1+2`.
    label: &'static str,
    /// CPU demand of each VM, in percent points.
    vm_loads: &'static [u32],
    /// The paper's measured Watts.
    paper_watts: f64,
}

const CONFIGS: &[Config] = &[
    Config {
        label: "1 @ 100%",
        vm_loads: &[100],
        paper_watts: 259.0,
    },
    Config {
        label: "1+1 @ 2x100%",
        vm_loads: &[100, 100],
        paper_watts: 273.0,
    },
    Config {
        label: "2 @ 200%",
        vm_loads: &[200],
        paper_watts: 273.0,
    },
    Config {
        label: "1+2 @ 100%+200%",
        vm_loads: &[100, 200],
        paper_watts: 291.0,
    },
    Config {
        label: "3 @ 300%",
        vm_loads: &[300],
        paper_watts: 291.0,
    },
    Config {
        label: "1+1+1+1 @ 4x100%",
        vm_loads: &[100, 100, 100, 100],
        paper_watts: 304.0,
    },
    Config {
        label: "4 @ 400%",
        vm_loads: &[400],
        paper_watts: 304.0,
    },
    Config {
        label: "1+1+1+1 @ 4x0%",
        vm_loads: &[0, 0, 0, 0],
        paper_watts: 230.0,
    },
];

/// Builds a one-host cluster running VMs at the given loads and returns
/// its measured power.
fn measure(vm_loads: &[u32]) -> f64 {
    let mut cluster = Cluster::new(
        vec![HostSpec::standard(HostId(0), HostClass::Medium)],
        PowerState::On,
    );
    let t0 = SimTime::ZERO;
    for (i, &load) in vm_loads.iter().enumerate() {
        let vm = cluster.submit_job(Job::new(
            JobId(i as u64),
            t0,
            Cpu(load),
            Mem::gib(1),
            SimDuration::from_hours(1),
            2.0,
        ));
        cluster.start_creation(vm, HostId(0), t0, t0 + SimDuration::from_secs(40));
        cluster.finish_creation(vm, t0 + SimDuration::from_secs(40));
    }
    cluster.reallocate_host(HostId(0), t0 + SimDuration::from_secs(40));
    cluster.total_power(&CalibratedPowerModel::paper_4way())
}

/// Regenerates Table I.
pub fn run() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        ID,
        "Table I — virtualized server power usage",
        "230 W idle → 304 W at 400% CPU; draw depends only on total CPU, \
         not on the number or shape of VMs (§IV-A).",
    );

    let mut table = Table::new(["#VCPUs / %CPU", "Paper (W)", "Model (W)", "Δ (W)"]);
    let mut max_abs_err: f64 = 0.0;
    for cfg in CONFIGS {
        let watts = measure(cfg.vm_loads);
        max_abs_err = max_abs_err.max((watts - cfg.paper_watts).abs());
        table.row([
            cfg.label.to_string(),
            fnum(cfg.paper_watts, 0),
            fnum(watts, 0),
            fnum(watts - cfg.paper_watts, 1),
        ]);
    }
    result.tables.push(("Power by configuration".into(), table));

    // The headline property: VM shape is irrelevant, only total CPU counts.
    let shapes_200 = [measure(&[200]), measure(&[100, 100])];
    let shapes_300 = [
        measure(&[300]),
        measure(&[100, 200]),
        measure(&[100, 100, 100]),
    ];
    let invariant = shapes_200.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9)
        && shapes_300.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9);
    result.notes.push(format!(
        "maximum absolute deviation from the paper's measurements: {max_abs_err:.2} W \
         (0 by construction — the model interpolates the published points)"
    ));
    result.notes.push(format!(
        "shape-independence invariant (same total CPU ⇒ same Watts): {}",
        if invariant { "HOLDS" } else { "VIOLATED" }
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_every_table_1_row_exactly() {
        for cfg in CONFIGS {
            assert_eq!(
                measure(cfg.vm_loads),
                cfg.paper_watts,
                "config {}",
                cfg.label
            );
        }
    }

    #[test]
    fn result_has_all_rows_and_invariant_note() {
        let r = run();
        assert_eq!(r.tables[0].1.len(), CONFIGS.len());
        assert!(r.notes.iter().any(|n| n.contains("HOLDS")));
    }
}
