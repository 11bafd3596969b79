use eards_bench::common::{make_policy, paper_trace};
use eards_datacenter::{paper_datacenter, run_sweep, RunConfig, SweepPoint};
use eards_metrics::RunReport;

fn main() {
    let trace = paper_trace();
    let stats = trace.stats();
    eprintln!(
        "trace: {} jobs, {:.0} cpu-h, {:.1} avg cores",
        stats.jobs, stats.total_cpu_hours, stats.avg_offered_cores
    );
    let rows = [
        ("RD", "RD", 30),
        ("RR", "RR", 30),
        ("BF", "BF", 30),
        ("SB0", "SB0", 30),
        ("SB", "SB", 30),
        ("DBF", "DBF", 30),
        ("SB 40-90", "SB", 40),
    ];
    let points = rows
        .into_iter()
        .map(|(label, name, lo)| SweepPoint {
            label: label.into(),
            config: RunConfig::default().with_lambdas(lo, 90),
            policy: Box::new(move || make_policy(name)),
        })
        .collect();
    #[allow(clippy::disallowed_methods)] // smoke run reports wall time
    let t0 = std::time::Instant::now();
    let reports = run_sweep(&paper_datacenter(), &trace, points, None);
    eprintln!("{} runs: {:?} wall", reports.len(), t0.elapsed());
    println!("{}", RunReport::table(&reports).to_markdown());
}
