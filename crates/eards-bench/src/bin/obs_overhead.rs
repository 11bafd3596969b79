//! Measures the observability layer's overhead and verifies that a traced
//! run is bit-identical to an untraced one. Writes `BENCH_obs.json` at the
//! workspace root next to the other machine-readable baselines; exits
//! non-zero if any shape check is violated.

fn main() -> std::io::Result<()> {
    let result = eards_bench::exp_obs::run();
    eards_bench::emit(&result);
    let json = result
        .artifacts
        .iter()
        .find(|(name, _)| name == "BENCH_obs.json")
        .map(|(_, contents)| contents.clone())
        .unwrap_or_default();
    eards_bench::common::write_baseline("BENCH_obs.json", &json)?;
    let violated = result
        .notes
        .iter()
        .filter(|n| n.contains("VIOLATED"))
        .count();
    if violated > 0 {
        eprintln!("!! {violated} shape check(s) VIOLATED");
        std::process::exit(1);
    }
    Ok(())
}
