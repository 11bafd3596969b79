//! Hill-climbing solver scaling — backs the paper's complexity claim
//! (§III-B): "the algorithm complexity has an upper boundary of
//! O(#Hosts · #VMs) · C since it iterates over the ⟨host,VM⟩ matrix C
//! times".
//!
//! Benchmarks the full scheduling round (matrix build + solve) over
//! increasing datacenter sizes, over the iteration cap, over the penalty
//! sets, on the paper's consolidated shape (most hosts off, a few queued
//! arrivals), and — the `cold_vs_incremental` group — the full-rescan
//! reference solver against the incremental hill-climb engine. Every
//! case recycles one set of evaluator buffers across its rounds, as the
//! scheduler does.
//!
//! Besides the per-benchmark stdout lines, the run writes every result
//! to `BENCH_solver.json` at the workspace root: a machine-readable
//! baseline future PRs diff against for a perf trajectory.

use eards_bench::common::{merge_solver_baseline, paper_shape_case, recycled_round, solver_case};
use eards_bench::timing::Recorder;
use eards_core::{solve, solve_reference, EvalBuffers, ScoreConfig};

fn bench_matrix_scaling(rec: &mut Recorder) {
    let cfg = ScoreConfig::sb();
    for &(hosts, vms) in &[(25u32, 20u64), (50, 40), (100, 80), (200, 160), (400, 320)] {
        let (cluster, cols) = solver_case(hosts, vms / 2, vms / 2);
        let mut buf = EvalBuffers::default();
        rec.bench(&format!("solver/hosts_x_vms/{hosts}h_{vms}v"), || {
            recycled_round(&cluster, &cfg, &cols, &mut buf, |e| solve(e, cfg.max_moves))
        });
    }
}

fn bench_iteration_cap(rec: &mut Recorder) {
    // The sweep only orders by cap if every cap truncates the climb: with
    // 150 queued creations plus migration cleanup there are well over 256
    // beneficial moves, so 4 < 16 < 64 < 256 is monotone by construction.
    // (A smaller case converges before the larger caps, making those
    // points equal-work and their ordering pure measurement noise.)
    let (cluster, cols) = solver_case(150, 150, 150);
    let cfg = ScoreConfig::sb();
    for cap in [4usize, 16, 64, 256] {
        let mut buf = EvalBuffers::default();
        rec.bench(&format!("solver/max_moves/{cap}"), || {
            recycled_round(&cluster, &cfg, &cols, &mut buf, |e| solve(e, cap))
        });
    }
}

fn bench_penalty_sets(rec: &mut Recorder) {
    let (cluster, cols) = solver_case(100, 40, 40);
    for (name, cfg) in [
        ("sb0", ScoreConfig::sb0()),
        ("sb2", ScoreConfig::sb2()),
        ("full", ScoreConfig::full()),
    ] {
        let mut buf = EvalBuffers::default();
        rec.bench(&format!("solver/penalty_sets/{name}"), || {
            recycled_round(&cluster, &cfg, &cols, &mut buf, |e| solve(e, cfg.max_moves))
        });
    }
}

/// An arrival round at the paper's scale and shape: 100 hosts with three
/// quarters powered off by consolidation, 8 queued VMs. Most of the
/// matrix sits on rows whose host is not `On`.
fn bench_paper_shape(rec: &mut Recorder) {
    let (cluster, cols) = paper_shape_case(100, 25, 8);
    let cfg = ScoreConfig::sb();
    let mut buf = EvalBuffers::default();
    rec.bench("solver/paper_shape/100h_75off_8q", || {
        recycled_round(&cluster, &cfg, &cols, &mut buf, |e| solve(e, cfg.max_moves))
    });
}

/// The acceptance case of the incremental engine: one 100-host / 200-VM
/// hill-climbing round, full-rescan reference vs the cached engine.
/// `reference` and `incremental` must stay ≥ 3× apart (the `run_all`
/// solver-timing section shape-checks this with the same statistic;
/// here the two results land side by side in `BENCH_solver.json`).
fn bench_cold_vs_incremental(rec: &mut Recorder) {
    let (cluster, cols) = solver_case(100, 100, 100);
    let cfg = ScoreConfig::sb();
    let cap = 256usize;
    let mut buf = EvalBuffers::default();
    rec.bench("solver/cold_vs_incremental/reference_100h_200v", || {
        recycled_round(&cluster, &cfg, &cols, &mut buf, |e| solve_reference(e, cap))
    });
    rec.bench("solver/cold_vs_incremental/incremental_100h_200v", || {
        recycled_round(&cluster, &cfg, &cols, &mut buf, |e| solve(e, cap))
    });
}

/// Runs every case, then merges the results into `BENCH_solver.json`
/// (preserving the `solver_scale` bench's points, recomputing the
/// derived reference/incremental speedup).
fn main() -> std::io::Result<()> {
    let mut rec = Recorder::default();
    bench_matrix_scaling(&mut rec);
    bench_iteration_cap(&mut rec);
    bench_penalty_sets(&mut rec);
    bench_paper_shape(&mut rec);
    bench_cold_vs_incremental(&mut rec);
    merge_solver_baseline(rec.results())?;
    Ok(())
}
