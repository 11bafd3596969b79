//! Provider decision support: sweep the (λ_min, λ_max) on/off thresholds
//! in parallel (the Figure 2/3 experiment) and pick the most
//! energy-efficient setting that still clears an SLA floor — the
//! trade-off resolution §V-A describes ("whose resolution will eventually
//! depend on the provider's interests").
//!
//! Run with: `cargo run --release --example threshold_tuning [sla_floor]`

use eards::datacenter::{lambda_grid, paper_datacenter, run_sweep};
use eards::prelude::*;

fn main() {
    let sla_floor: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(99.0);

    // A shorter trace keeps the example snappy; the bench binary
    // `fig2_3_threshold_sweep` runs the full week.
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_days(2),
            ..SynthConfig::grid5000_week()
        },
        7,
    );
    let hosts = paper_datacenter();
    let sb = || -> Box<dyn Policy> { Box::new(ScoreScheduler::new(ScoreConfig::sb())) };
    let points = lambda_grid(
        &RunConfig::default(),
        sb,
        &[10, 20, 30, 40, 50, 60],
        &[50, 60, 70, 80, 90, 100],
    );
    println!(
        "sweeping {} (λ_min, λ_max) settings in parallel ...",
        points.len()
    );

    #[allow(clippy::disallowed_methods)]
    // lint:allow(D002): example times its own wall-clock run, not sim state
    let t0 = std::time::Instant::now();
    let reports = run_sweep(&hosts, &trace, points, None);
    println!("swept in {:.1?}\n", t0.elapsed());

    let mut table = Table::new(["setting", "Pwr (kWh)", "S (%)", "meets floor"]);
    let mut best: Option<&RunReport> = None;
    for r in &reports {
        let meets = r.satisfaction_pct >= sla_floor;
        table.row([
            r.label.clone(),
            format!("{:.1}", r.energy_kwh),
            format!("{:.2}", r.satisfaction_pct),
            if meets { "yes" } else { "no" }.to_string(),
        ]);
        if meets && best.is_none_or(|b| r.energy_kwh < b.energy_kwh) {
            best = Some(r);
        }
    }
    println!("{}", table.to_markdown());

    match best {
        Some(r) => println!(
            "recommendation for an SLA floor of {sla_floor}%: {} \
             ({:.1} kWh at {:.2}% satisfaction)",
            r.label, r.energy_kwh, r.satisfaction_pct
        ),
        None => println!(
            "no setting in the sweep reaches {sla_floor}% satisfaction — \
             lower the floor or grow the datacenter"
        ),
    }
}
