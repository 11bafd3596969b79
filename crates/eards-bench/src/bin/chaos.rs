//! Runs the chaos experiment, or — with `--smoke` — a short strict-mode
//! run for CI that panics on the first invariant violation.
//!
//! The full mode writes `BENCH_chaos.json` at the workspace root: the
//! machine-readable fault/recovery baseline next to `BENCH_solver.json`.
//! The smoke mode writes nothing, so it never replaces that baseline.

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // Strict auditing: a violation panics before we get here, so this
        // run succeeding is the gate CI cares about.
        for r in &eards_bench::exp_chaos::smoke() {
            eprintln!(
                "{}: {} crashes, {} creation failures, {} audit passes, \
                 {} violations, {}/{} jobs",
                r.label,
                r.host_failures,
                r.faults.creation_failures,
                r.faults.invariant_checks,
                r.faults.invariant_violations,
                r.jobs_completed,
                r.jobs_total,
            );
        }
        return;
    }
    let result = eards_bench::exp_chaos::run();
    eards_bench::emit(&result);
    let violated = result
        .notes
        .iter()
        .filter(|n| n.contains("VIOLATED"))
        .count();
    let json = result
        .artifacts
        .iter()
        .find(|(name, _)| name == "BENCH_chaos.json")
        .map(|(_, contents)| contents.clone())
        .unwrap_or_default();
    if violated > 0 {
        eprintln!("!! {violated} shape check(s) VIOLATED");
        std::process::exit(1);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path} ({} bytes)", json.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
