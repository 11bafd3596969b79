//! Table IV — impact of migration.
//!
//! §V-D enables migration: Dynamic Backfilling (BF + cost-oblivious
//! consolidation moves) vs the full score-based policy SB (all overhead
//! penalties + migration). The paper's findings: DBF improves on BF but
//! pays migration overhead; SB migrates *less* (87 vs 124) yet
//! consolidates better; with λ = 40–90, SB reaches 850 kWh — "a reduction
//! in the datacenter power consumption of 15% with regard to Backfilling
//! and 12% compared with the dynamic variant" — the paper's headline.

use eards_datacenter::{paper_datacenter, run_sweep};
use eards_metrics::{pct_change, RunReport, Table};

use crate::common::{paper_trace, point, verdict, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "table4_migration";

/// The Table IV rows: (policy, λ_min, λ_max).
pub const ROWS: &[(&str, u32, u32)] = &[("DBF", 30, 90), ("SB", 30, 90), ("SB", 40, 90)];

/// Runs the Table IV configurations plus the BF reference.
pub fn reports() -> Vec<RunReport> {
    let reference = point("BF λ30-90 (ref)".into(), "BF", 30, 90);
    let rows = ROWS
        .iter()
        .map(|&(name, lo, hi)| point(format!("{name} λ{lo}-{hi}"), name, lo, hi));
    let points = std::iter::once(reference).chain(rows).collect();
    run_sweep(&paper_datacenter(), &paper_trace(), points, None)
}

/// Regenerates Table IV.
pub fn run() -> ExperimentResult {
    let reports = reports();
    let mut result = ExperimentResult::new(
        ID,
        "Table IV — scheduling results of policies with migration",
        "DBF 970.6 kWh / S 98.1 / 124 mig; SB 956.4 / 99.1 / 87 mig; \
         SB λ40-90: 850.2 kWh / S 98.4 — −15% vs BF, −12% vs DBF.",
    );
    let mut t = Table::new(RunReport::paper_header());
    for r in &reports {
        t.row(r.paper_row());
    }
    result.tables.push(("Migration-enabled policies".into(), t));

    let by = |label: &str| reports.iter().find(|r| r.label == label).unwrap();
    let bf = by("BF λ30-90 (ref)");
    let dbf = by("DBF λ30-90");
    let sb = by("SB λ30-90");
    let sbt = by("SB λ40-90");

    let headline_vs_bf = pct_change(bf.energy_kwh, sbt.energy_kwh);
    let headline_vs_dbf = pct_change(dbf.energy_kwh, sbt.energy_kwh);

    result.notes.push(format!(
        "migration improves on BF (DBF {:.1}%, SB {:.1}% at λ30-90): {}",
        pct_change(bf.energy_kwh, dbf.energy_kwh),
        pct_change(bf.energy_kwh, sb.energy_kwh),
        verdict(dbf.energy_kwh < bf.energy_kwh && sb.energy_kwh < bf.energy_kwh)
    ));
    result.notes.push(format!(
        "SB beats DBF on power at equal λ while migrating less ({} vs {} \
         migrations): {}",
        sb.migrations,
        dbf.migrations,
        verdict(sb.energy_kwh < dbf.energy_kwh && sb.migrations < dbf.migrations)
    ));
    result.notes.push(format!(
        "HEADLINE — SB λ40-90 vs BF: {headline_vs_bf:.1}% (paper: −15%); vs DBF: \
         {headline_vs_dbf:.1}% (paper: −12%) at similar SLA: {}",
        verdict(
            headline_vs_bf <= -10.0 && (sbt.satisfaction_pct - bf.satisfaction_pct).abs() < 2.0
        )
    ));
    result.notes.push(
        "absolute migration counts are higher than the paper's 87/124 — our \
         consolidation round is every 10 min; the count *ordering* (SB < DBF) \
         and the per-migration benefit shape hold"
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_headline_holds() {
        let r = run();
        assert_eq!(r.tables[0].1.len(), ROWS.len() + 1);
        let violated = r.notes.iter().filter(|n| n.contains("VIOLATED")).count();
        assert_eq!(violated, 0, "{:#?}", r.notes);
    }
}
