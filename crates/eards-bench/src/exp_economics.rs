//! Extension — provider economics.
//!
//! The paper names "global revenue" as a first-class provider interest
//! (§I, §III) and defers "economical decision making" to future work
//! (§VI). This experiment prices every Table II/IV policy on the standard
//! week with a simple 2010-flavoured tariff (revenue per CPU·hour
//! delivered, linear SLA refunds, a flat electricity price) and ranks
//! them by profit — collapsing the power-vs-SLA trade-off into the number
//! a provider actually optimizes.

use eards_datacenter::{paper_datacenter, run_sweep};
use eards_metrics::{fnum, PricingModel, RunReport};

use crate::common::{paper_trace, point, verdict, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "economics";

/// The priced policies: every contender from Tables II and IV.
pub const POLICIES: &[(&str, u32, u32)] = &[
    ("RD", 30, 90),
    ("RR", 30, 90),
    ("BF", 30, 90),
    ("DBF", 30, 90),
    ("SB", 30, 90),
    ("SB", 40, 90),
];

/// Runs every policy and returns the raw reports.
pub fn reports() -> Vec<RunReport> {
    let points = POLICIES
        .iter()
        .map(|&(name, lo, hi)| point(format!("{name} λ{lo}-{hi}"), name, lo, hi))
        .collect();
    run_sweep(&paper_datacenter(), &paper_trace(), points, None)
}

/// Runs the economics extension.
pub fn run() -> ExperimentResult {
    let reports = reports();
    let pricing = PricingModel::default();
    let mut result = ExperimentResult::new(
        ID,
        "Extension — provider economics (revenue / SLA credits / energy / profit)",
        "not quantified in the paper; it argues consolidation must be \
         weighed against \"QoS, reliability, and global revenue\" (§I–III). \
         Expected shape: naive policies bleed SLA credits, spreading \
         policies bleed energy, and the overhead-aware score-based policy \
         maximizes profit.",
    );

    result.tables.push((
        format!(
            "Week priced at {:.2}/CPU·h revenue, {:.2}/kWh energy, full SLA refunds",
            pricing.revenue_per_cpu_hour, pricing.energy_cost_per_kwh
        ),
        pricing.table(&reports),
    ));

    let econ: Vec<_> = reports.iter().map(|r| pricing.evaluate(r)).collect();
    let best = econ
        .iter()
        .max_by(|a, b| a.profit.total_cmp(&b.profit))
        .expect("non-empty");
    let by = |label: &str| econ.iter().find(|e| e.label == label).unwrap();
    let rd = by("RD λ30-90");
    let rr = by("RR λ30-90");
    let bf = by("BF λ30-90");
    let sb = by("SB λ40-90");

    result.notes.push(format!(
        "the tuned score-based policy is the most profitable ({} at {}): {}",
        best.label,
        fnum(best.profit, 2),
        verdict(best.label.starts_with("SB"))
    ));
    result.notes.push(format!(
        "naive policies pay twice — RD refunds {} in SLA credits, RR burns {} \
         in energy, both dwarfing BF's ({} / {}): {}",
        fnum(rd.sla_credits, 2),
        fnum(rr.energy_cost, 2),
        fnum(bf.sla_credits, 2),
        fnum(bf.energy_cost, 2),
        verdict(rd.sla_credits > 3.0 * bf.sla_credits && rr.energy_cost > bf.energy_cost)
    ));
    result.notes.push(format!(
        "energy-awareness converts directly into margin: SB λ40-90 keeps {} \
         more profit than BF on identical revenue: {}",
        fnum(sb.profit - bf.profit, 2),
        verdict(sb.profit > bf.profit)
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn economics_shape_holds() {
        let r = run();
        assert_eq!(r.tables[0].1.len(), POLICIES.len());
        let violated = r.notes.iter().filter(|n| n.contains("VIOLATED")).count();
        assert_eq!(violated, 0, "{:#?}", r.notes);
    }

    /// A provider can't profit from violating SLAs: pricing punishes RD's
    /// delays more than its energy savings earn.
    #[test]
    fn sla_violations_do_not_pay() {
        let reports = reports();
        let pricing = PricingModel::default();
        let rd = pricing.evaluate(&reports[0]);
        let bf = pricing.evaluate(&reports[2]);
        assert!(
            rd.profit < bf.profit,
            "RD {} vs BF {}",
            rd.profit,
            bf.profit
        );
    }
}
