//! Inside the score-based scheduler: reproduce the worked example of the
//! paper's §III-B — print the raw score matrix, the delta-normalized
//! matrix, and the moves hill climbing picks, for a small hand-built
//! situation.
//!
//! Run with: `cargo run --release --example scheduler_explain`
//! (`cargo test --example scheduler_explain` runs the renderers' tests).

use eards::core::{solve, Eval, Score, ScoreConfig};
use eards::prelude::*;

fn vm_headers(eval: &Eval<'_>) -> Vec<String> {
    let mut header = vec!["".to_string()];
    header.extend(eval.vms().iter().map(|vm| vm.to_string()));
    header
}

/// The raw score matrix: one row per host plus the virtual-host row `HV`,
/// one column per matrix VM — the first matrix of §III-B.
fn render_matrix(eval: &Eval<'_>) -> Table {
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
fn render_delta_matrix(eval: &Eval<'_>) -> Table {
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

fn main() {
    // A small datacenter mid-flight: three hosts (one fast, two medium),
    // two running VMs spread across two hosts, two new VMs in the queue.
    let mut cluster = Cluster::new(
        vec![
            HostSpec::standard(HostId(0), HostClass::Fast),
            HostSpec::standard(HostId(1), HostClass::Medium),
            HostSpec::standard(HostId(2), HostClass::Medium),
        ],
        PowerState::On,
    );
    let t0 = SimTime::ZERO;
    let t40 = SimTime::from_secs(40);
    let place = |cluster: &mut Cluster, id: u64, cpu: u32, host: HostId| {
        let vm = cluster.submit_job(Job::new(
            JobId(id),
            t0,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(6000),
            1.5,
        ));
        cluster.start_creation(vm, host, t0, t40);
        cluster.finish_creation(vm, t40);
        vm
    };
    let vm0 = place(&mut cluster, 0, 200, HostId(1)); // running on h1
    let vm1 = place(&mut cluster, 1, 100, HostId(2)); // lonely on h2
    let vm2 = cluster.submit_job(Job::new(
        JobId(2),
        t40,
        Cpu(100),
        Mem::gib(1),
        SimDuration::from_secs(1200),
        1.5,
    ));
    let vm3 = cluster.submit_job(Job::new(
        JobId(3),
        t40,
        Cpu(300),
        Mem::gib(2),
        SimDuration::from_secs(3600),
        1.2,
    ));

    let cfg = ScoreConfig::sb();
    let now = SimTime::from_secs(100);
    let mut eval = Eval::new(&cluster, &cfg, now, vec![vm0, vm1, vm2, vm3]);

    println!("situation: vm0 (200%) on h1, vm1 (100%) on h2, vm2 (100%) and vm3 (300%) queued\n");
    println!("score matrix (cost of holding each VM on each host, §III-A):\n");
    println!("{}", render_matrix(&eval).to_markdown());
    println!("delta matrix (cell − current-host cost; negative = improvement, §III-B):\n");
    println!("{}", render_delta_matrix(&eval).to_markdown());

    let sol = solve(&mut eval, cfg.max_moves);
    println!(
        "hill climbing applied {} moves (in order):",
        sol.moves.len()
    );
    for (i, &(v, h)) in sol.moves.iter().enumerate() {
        let vm = eval.vms()[v];
        let verb = if eval.original_of(v).is_none() {
            "create"
        } else {
            "migrate"
        };
        println!("  {}. {verb} {vm} → h{h}", i + 1);
    }
    println!("\nfinal hypothetical state:");
    println!("{}", render_delta_matrix(&eval).to_markdown());
    println!(
        "every remaining negative cell is below the migration hysteresis \
         (min gain = {}); the matrix is settled.",
        cfg.min_migration_gain
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Cluster, Vec<VmId>) {
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
