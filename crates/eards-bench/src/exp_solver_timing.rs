//! Solver timing — full-rescan reference vs the incremental engine.
//!
//! Not a paper table: this section tracks the performance contract of the
//! incremental hill-climb engine (`eards_core::solve`, the single-shard
//! form of `solve_sharded`). It times one hill-climbing round on growing
//! ⟨hosts, VMs⟩ cases two ways —
//!
//! * **reference** — `solve_reference`, the original `O(M·N)`-per-sweep
//!   full rescan,
//! * **incremental** — `solve`, cached cells + dirty-row invalidation —
//!
//! verifies both produce the identical solution (the differential
//! contract the `shard_oracle` proptests pin down), and shape-checks that
//! the incremental engine is ≥ 3× faster than the reference on the
//! 100-host/200-VM case.

use eards_core::{solve, solve_reference, EvalBuffers, ScoreConfig, Solution};
use eards_metrics::Table;
use eards_model::{Cluster, VmId};

use crate::common::{recycled_round, solver_case, ExperimentResult};
use crate::timing::{per_iter_pair, REPS};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "solver_timing";

/// Move cap for the timed climbs: high enough that the 200-VM case runs
/// its full placement cascade rather than stopping at the paper's
/// per-round default.
const CAP: usize = 256;

/// Minimum incremental-vs-reference speedup the 100h/200v case must show.
const SPEEDUP_FLOOR: f64 = 3.0;

fn run_reference(
    cluster: &Cluster,
    cols: &[VmId],
    cfg: &ScoreConfig,
    buf: &mut EvalBuffers,
) -> Solution {
    recycled_round(cluster, cfg, cols, buf, |e| solve_reference(e, CAP))
}

fn run_incremental(
    cluster: &Cluster,
    cols: &[VmId],
    cfg: &ScoreConfig,
    buf: &mut EvalBuffers,
) -> Solution {
    recycled_round(cluster, cfg, cols, buf, |e| solve(e, CAP))
}

/// Regenerates the solver-timing section.
pub fn run() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        ID,
        "Solver timing — incremental engine vs full rescan",
        "§III-B bounds one round by O(#Hosts · #VMs) · C; the incremental \
         engine drops the per-sweep cost from M·N rescored cells to the two \
         rows a move dirties.",
    );

    let cfg = ScoreConfig::sb();
    let mut table = Table::new([
        "case",
        "reference (ms)",
        "incremental (ms)",
        "speedup",
        "moves",
        "sweeps",
    ]);
    let mut csv = String::from("case,reference_ms,incremental_ms,speedup,moves,sweeps\n");
    let mut headline_speedup = 0.0;
    let mut all_identical = true;

    for &(hosts, running, queued) in &[(25u32, 25u64, 25u64), (50, 50, 50), (100, 100, 100)] {
        let vms = running + queued;
        let label = format!("{hosts}h_{vms}v");
        let (cluster, cols) = solver_case(hosts, running, queued);

        // The `solver` bench's statistic for its cold_vs_incremental pair.
        let (mut buf_ref, mut buf_inc) = (EvalBuffers::default(), EvalBuffers::default());
        let ((t_ref, sol_ref), (t_inc, sol_inc)) = per_iter_pair(
            REPS,
            || run_reference(&cluster, &cols, &cfg, &mut buf_ref),
            || run_incremental(&cluster, &cols, &cfg, &mut buf_inc),
        );

        all_identical &= sol_ref == sol_inc;
        let speedup = t_ref / t_inc;
        if hosts == 100 {
            headline_speedup = speedup;
        }
        table.row([
            label.clone(),
            format!("{:.3}", t_ref * 1e3),
            format!("{:.3}", t_inc * 1e3),
            format!("{speedup:.1}x"),
            sol_ref.moves.len().to_string(),
            sol_ref.sweeps.to_string(),
        ]);
        use std::fmt::Write as _;
        let _ = writeln!(
            csv,
            "{label},{:.4},{:.4},{speedup:.2},{},{}",
            t_ref * 1e3,
            t_inc * 1e3,
            sol_ref.moves.len(),
            sol_ref.sweeps,
        );
    }

    result.tables.push((
        format!(
            "One scheduling round (matrix build + hill climb), recycled buffers, \
             best of {REPS} interleaved batches per side"
        ),
        table,
    ));
    result.artifacts.push(("solver_timing.csv".into(), csv));

    result.notes.push(if all_identical {
        "Shape check: both paths return identical move sequences — holds.".into()
    } else {
        "Shape check: both paths return identical move sequences — VIOLATED.".into()
    });
    result.notes.push(format!(
        "Noise bounds: each point is the fastest of {REPS} batches of at least \
         1 ms (the statistic of every `solver` bench point too), and a \
         case's reference and incremental batches alternate, so a change \
         of machine speed during the run slows both sides: on a 2-vCPU \
         shared VM the 100h_200v speedup read 26.9x to 31.9x over six \
         runs, against 16.4x to 31.0x with one side timed after the \
         other. That filters noise within a run but not drift of a \
         shared machine between runs, where the same point has read up \
         to 2x apart, so compare points of one run only; within a run, \
         adjacent points of any sweep closer than about 5% are unordered \
         noise. The bench's \
         `max_moves` sweep therefore uses a case large enough that every \
         cap truncates the climb — a converged case makes the top caps \
         equal-work and their ordering a coin flip."
    ));
    result.notes.push(if headline_speedup >= SPEEDUP_FLOOR {
        format!(
            "Shape check: incremental >= {SPEEDUP_FLOOR:.0}x reference on 100h_200v \
             (measured {headline_speedup:.1}x) — holds."
        )
    } else {
        format!(
            "Shape check: incremental >= {SPEEDUP_FLOOR:.0}x reference on 100h_200v \
             (measured {headline_speedup:.1}x) — VIOLATED."
        )
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_agree_on_a_small_case() {
        let cfg = ScoreConfig::sb();
        let (cluster, cols) = solver_case(10, 10, 10);
        let mut buf = EvalBuffers::default();
        let a = run_reference(&cluster, &cols, &cfg, &mut buf);
        let b = run_incremental(&cluster, &cols, &cfg, &mut buf);
        assert_eq!(a, b);
        assert!(!a.moves.is_empty(), "queued VMs must be placed");
    }
}
