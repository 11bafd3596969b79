//! Rendering the score matrix the way §III-B prints it.
//!
//! The paper walks through a worked example: first the raw cost matrix
//! (hosts × VMs, `∞` for impossible allocations, plus the virtual host
//! row), then the delta-normalized matrix after subtracting each VM's
//! current-host cost. [`render_matrix`] and [`render_delta_matrix`]
//! reproduce those two views for any [`Eval`], which makes scheduler
//! decisions inspectable (see the `scheduler_explain` example).

use eards_metrics::Table;
use eards_model::HostId;

use crate::eval::Eval;
use crate::score::Score;

fn vm_headers(eval: &Eval<'_>) -> Vec<String> {
    let mut header = vec!["".to_string()];
    header.extend(eval.vms().iter().map(|vm| vm.to_string()));
    header
}

/// The raw score matrix: one row per host plus the virtual-host row `HV`,
/// one column per matrix VM — the first matrix of §III-B.
pub fn render_matrix(eval: &Eval<'_>) -> Table {
    let mut table = Table::new(vm_headers(eval));
    for h in 0..eval.num_hosts() {
        let mut row = vec![HostId(h as u32).to_string()];
        for v in 0..eval.num_vms() {
            row.push(eval.score(h, v).to_string());
        }
        table.row(row);
    }
    // The virtual host holds unallocated VMs at infinite cost.
    let mut hv = vec!["HV".to_string()];
    for _ in 0..eval.num_vms() {
        hv.push("∞".into());
    }
    table.row(hv);
    table
}

/// The delta-normalized matrix: each cell minus the VM's current-host
/// cost — "positive scores mean degradation and negative scores mean
/// improvement" — the second matrix of §III-B. The current placement
/// itself renders as `0.0`; cells that are not candidates (target
/// infeasible) render as `∞`; a queued VM's feasible cells render as
/// `−∞` (maximum benefit).
pub fn render_delta_matrix(eval: &Eval<'_>) -> Table {
    let mut table = Table::new(vm_headers(eval));
    for h in 0..eval.num_hosts() {
        let mut row = vec![HostId(h as u32).to_string()];
        for v in 0..eval.num_vms() {
            let text = if eval.placement_of(v) == Some(h) {
                "0.0".to_string()
            } else {
                match Score::delta(eval.score(h, v), eval.current_cost(v)) {
                    None => "∞".into(),
                    Some(d) if d == f64::NEG_INFINITY => "-∞".into(),
                    Some(d) => format!("{d:.1}"),
                }
            };
            row.push(text);
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreConfig;
    use eards_model::{Cluster, Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState};
    use eards_sim::{SimDuration, SimTime};

    fn setup() -> (Cluster, Vec<eards_model::VmId>) {
        let mut c = Cluster::new(
            vec![
                HostSpec::standard(HostId(0), HostClass::Medium),
                HostSpec::standard(HostId(1), HostClass::Medium),
            ],
            PowerState::On,
        );
        // One running VM on host 0, one queued.
        let a = c.submit_job(Job::new(
            JobId(0),
            SimTime::ZERO,
            Cpu(300),
            Mem::gib(2),
            SimDuration::from_secs(6000),
            1.5,
        ));
        c.start_creation(a, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        c.finish_creation(a, SimTime::from_secs(40));
        let b = c.submit_job(Job::new(
            JobId(1),
            SimTime::ZERO,
            Cpu(200),
            Mem::gib(1),
            SimDuration::from_secs(600),
            1.5,
        ));
        (c, vec![a, b])
    }

    #[test]
    fn matrix_has_virtual_host_row_of_infinities() {
        let (c, vms) = setup();
        let cfg = ScoreConfig::sb();
        let eval = Eval::new(&c, &cfg, SimTime::from_secs(60), vms);
        let md = render_matrix(&eval).to_markdown();
        let hv = md.lines().last().unwrap();
        assert!(hv.contains("HV"));
        assert_eq!(hv.matches('∞').count(), 2, "{hv}");
        // Infeasible cell: vm1 (200) cannot join host 0 beside the 300.
        assert!(md.contains('∞'));
    }

    #[test]
    fn delta_matrix_marks_current_placement_zero_and_queued_neg_inf() {
        let (c, vms) = setup();
        let cfg = ScoreConfig::sb();
        let eval = Eval::new(&c, &cfg, SimTime::from_secs(60), vms);
        let md = render_delta_matrix(&eval).to_markdown();
        let rows: Vec<&str> = md.lines().collect();
        // Row h0: vm0 is there (0.0); vm1 infeasible there (∞).
        assert!(
            rows[2].contains("0.0") && rows[2].contains('∞'),
            "{}",
            rows[2]
        );
        // Row h1: vm1 queued and feasible ⇒ −∞ (maximum allocation benefit).
        assert!(rows[3].contains("-∞"), "{}", rows[3]);
    }
}
