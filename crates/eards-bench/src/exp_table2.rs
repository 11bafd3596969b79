//! Table II — static allocation (policies without migration).
//!
//! §V-B compares Random, Round Robin, Backfilling and the basic
//! score-based variant SB0 at λ = 30–90. The paper's findings:
//! non-consolidating policies (RD, RR) give poor energy efficiency *and*
//! violate many SLAs; BF consolidates well; SB0 behaves "very similar" to
//! BF.

use eards_datacenter::{paper_datacenter, run_sweep};
use eards_metrics::{pct_change, RunReport};

use crate::common::{paper_trace, point, verdict, ExperimentResult};

/// Runs the four static policies over the canonical week.
pub fn reports() -> Vec<RunReport> {
    let points = ["RD", "RR", "BF", "SB0"]
        .into_iter()
        .map(|name| point(name.to_string(), name, 30, 90))
        .collect();
    run_sweep(&paper_datacenter(), &paper_trace(), points, None)
}

/// Regenerates Table II.
pub fn run() -> ExperimentResult {
    let reports = reports();
    let mut result = ExperimentResult::new(
        "table2_static",
        "Table II — scheduling results of policies without migration",
        "RD 1952 kWh / S 33% / delay 475%; RR 2321 kWh / S 60% / delay \
         338%; BF 1007 kWh / S 98%; SB0 1016 kWh / S 98% — RD/RR are worst \
         on both axes, BF consolidates, SB0 ≈ BF.",
    );
    result
        .tables
        .push(("λ = 30–90, no migration".into(), RunReport::table(&reports)));

    let by = |label: &str| reports.iter().find(|r| r.label == label).unwrap();
    let (rd, rr, bf, sb0) = (by("RD"), by("RR"), by("BF"), by("SB0"));

    let shape_naive_power = rd.energy_kwh > bf.energy_kwh && rr.energy_kwh > bf.energy_kwh;
    let shape_naive_sla =
        rd.satisfaction_pct < bf.satisfaction_pct && rr.satisfaction_pct < bf.satisfaction_pct;
    let shape_rd_vs_rr = rd.satisfaction_pct < rr.satisfaction_pct && rr.energy_kwh > rd.energy_kwh;
    let shape_sb0_like_bf = pct_change(bf.energy_kwh, sb0.energy_kwh).abs() < 3.0
        && (sb0.satisfaction_pct - bf.satisfaction_pct).abs() < 2.0;

    result.notes.push(format!(
        "naive policies lose on both axes (power AND satisfaction): {}",
        verdict(shape_naive_power && shape_naive_sla)
    ));
    result.notes.push(format!(
        "RR burns more power than RD but satisfies more clients (its spread \
         avoids collisions): {}",
        verdict(shape_rd_vs_rr)
    ));
    result.notes.push(format!(
        "SB0 behaves like BF (within 3% power, 2 points of S): {}",
        verdict(shape_sb0_like_bf)
    ));
    result.notes.push(format!(
        "RD/RR satisfaction penalties are milder here than the paper's 33/60% \
         — our synthetic trace's bursts are capped at 120-task campaigns; the \
         ordering and both-axes-worse shape hold (delays: RD {:.0}% vs RR {:.0}% \
         vs BF {:.1}%)",
        rd.delay_pct, rr.delay_pct, bf.delay_pct
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let r = run();
        assert_eq!(r.tables[0].1.len(), 4);
        let violated = r.notes.iter().filter(|n| n.contains("VIOLATED")).count();
        assert_eq!(violated, 0, "{:#?}", r.notes);
    }
}
