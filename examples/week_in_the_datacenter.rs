//! The paper's headline scenario end to end: a week of Grid5000-like load
//! on the 100-node datacenter of §V, comparing plain Backfilling against
//! the score-based scheduler at both λ settings — and reporting the power
//! saving at matched SLA, the way §V-D does.
//!
//! Run with: `cargo run --release --example week_in_the_datacenter`

use eards::datacenter::paper_datacenter;
use eards::metrics::pct_change;
use eards::prelude::*;

fn main() {
    let trace = eards::workload::generate(&SynthConfig::grid5000_week(), 7);
    let stats = trace.stats();
    println!(
        "one week of load: {} jobs, {:.0} CPU·hours (≈ {:.1} busy cores on average)\n",
        stats.jobs, stats.total_cpu_hours, stats.avg_offered_cores
    );

    let bf = || -> Box<dyn Policy> { Box::new(BackfillingPolicy::new()) };
    let sb = || -> Box<dyn Policy> { Box::new(ScoreScheduler::new(ScoreConfig::sb())) };
    let runs = vec![
        SweepPoint {
            label: "BF λ30-90".into(),
            config: RunConfig::default(),
            policy: Box::new(bf),
        },
        SweepPoint {
            label: "SB λ30-90".into(),
            config: RunConfig::default(),
            policy: Box::new(sb),
        },
        SweepPoint {
            label: "SB λ40-90".into(),
            config: RunConfig::default().with_lambdas(40, 90),
            policy: Box::new(sb),
        },
    ];
    #[allow(clippy::disallowed_methods)]
    // lint:allow(D002): example times its own wall-clock run, not sim state
    let t0 = std::time::Instant::now();
    let reports = run_sweep(&paper_datacenter(), &trace, runs, None);
    println!(
        "simulated {} weeks side by side in {:.1?}",
        reports.len(),
        t0.elapsed()
    );
    println!("\n{}", RunReport::table(&reports).to_markdown());

    let bf = &reports[0];
    let sb_tuned = &reports[2];
    println!(
        "score-based scheduling at λ40-90 uses {:.1}% {} energy than Backfilling \
         (paper: −15%), at {:.1}% vs {:.1}% client satisfaction",
        pct_change(bf.energy_kwh, sb_tuned.energy_kwh).abs(),
        if sb_tuned.energy_kwh < bf.energy_kwh {
            "less"
        } else {
            "more"
        },
        sb_tuned.satisfaction_pct,
        bf.satisfaction_pct,
    );
}
