//! Runs the degradation-ladder experiment, or — with `--smoke` — a short
//! strict-mode budgeted run for CI that panics on the first invariant
//! violation or work-bound breach.
//!
//! The full mode writes `BENCH_degrade.json` at the workspace root: the
//! machine-readable boundedness + quality-loss baseline next to
//! `BENCH_chaos.json`.

fn main() -> std::io::Result<()> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // Strict auditing + the in-process work-bound assert: reaching
        // the print below is the gate CI cares about.
        let (stats, parked, report) = eards_bench::exp_degrade::smoke();
        eprintln!(
            "degrade smoke: {} rounds ({} degraded, {} exhausted), max work \
             {}, rungs {:?}, {} parked, {} audit passes, {} violations, {}/{} jobs",
            stats.rounds,
            stats.degraded_rounds,
            stats.exhausted_rounds,
            stats.max_round_work,
            stats.rounds_at,
            parked,
            report.faults.invariant_checks,
            report.faults.invariant_violations,
            report.jobs_completed,
            report.jobs_total,
        );
        return Ok(());
    }
    let result = eards_bench::exp_degrade::run();
    eards_bench::emit(&result);
    let violated = result
        .notes
        .iter()
        .filter(|n| n.contains("VIOLATED"))
        .count();
    let json = result
        .artifacts
        .iter()
        .find(|(name, _)| name == "BENCH_degrade.json")
        .map(|(_, contents)| contents.clone())
        .unwrap_or_default();
    if violated > 0 {
        eprintln!("!! {violated} shape check(s) VIOLATED");
        std::process::exit(1);
    }
    eards_bench::common::write_baseline("BENCH_degrade.json", &json)?;
    Ok(())
}
