//! Hill-climbing solver scaling — backs the paper's complexity claim
//! (§III-B): "the algorithm complexity has an upper boundary of
//! O(#Hosts · #VMs) · C since it iterates over the ⟨host,VM⟩ matrix C
//! times".
//!
//! Benchmarks the full scheduling round (matrix build + solve) over
//! increasing datacenter sizes, over the iteration cap, over the penalty
//! sets, on the paper's consolidated shape (most hosts off, a few queued
//! arrivals), and — the `cold_vs_incremental` group — the full-rescan
//! reference solver against the incremental hill-climb engine.
//!
//! Besides the per-benchmark stdout lines, the run writes every mean to
//! `BENCH_solver.json` at the workspace root: a machine-readable baseline
//! future PRs diff against for a perf trajectory.

use criterion::{BenchmarkId, Criterion};
use eards_bench::common::{merge_solver_baseline, paper_shape_case, solver_case};
use eards_core::{solve, solve_reference, Eval, ScoreConfig};
use eards_sim::SimTime;

fn bench_matrix_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/hosts_x_vms");
    for &(hosts, vms) in &[(25u32, 20u64), (50, 40), (100, 80), (200, 160), (400, 320)] {
        let (cluster, cols) = solver_case(hosts, vms / 2, vms / 2);
        let cfg = ScoreConfig::sb();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{hosts}h_{vms}v")),
            &(cluster, cols, cfg),
            |b, (cluster, cols, cfg)| {
                b.iter(|| {
                    let mut eval = Eval::new(cluster, cfg, SimTime::from_secs(100), cols.clone());
                    solve(&mut eval, cfg.max_moves)
                })
            },
        );
    }
    group.finish();
}

fn bench_iteration_cap(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/max_moves");
    // The sweep only orders by cap if every cap truncates the climb: with
    // 150 queued creations plus migration cleanup there are well over 256
    // beneficial moves, so 4 < 16 < 64 < 256 is monotone by construction.
    // (A smaller case converges before the larger caps, making those
    // points equal-work and their ordering pure measurement noise.)
    let (cluster, cols) = solver_case(150, 150, 150);
    for &cap in &[4usize, 16, 64, 256] {
        let cfg = ScoreConfig::sb();
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cap)
            })
        });
    }
    group.finish();
}

fn bench_penalty_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/penalty_sets");
    let (cluster, cols) = solver_case(100, 40, 40);
    for (name, cfg) in [
        ("sb0", ScoreConfig::sb0()),
        ("sb2", ScoreConfig::sb2()),
        ("full", ScoreConfig::full()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cfg.max_moves)
            })
        });
    }
    group.finish();
}

/// An arrival round at the paper's scale and shape: 100 hosts with three
/// quarters powered off by consolidation, 8 queued VMs. Most of the
/// matrix sits on rows whose host is not `On`.
fn bench_paper_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/paper_shape");
    let (cluster, cols) = paper_shape_case(100, 25, 8);
    let cfg = ScoreConfig::sb();
    group.bench_with_input(
        BenchmarkId::from_parameter("100h_75off_8q"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cfg.max_moves)
            })
        },
    );
    group.finish();
}

/// The acceptance case of the incremental engine: one 100-host / 200-VM
/// hill-climbing round, full-rescan reference vs the cached engine. `reference` and `incremental` must stay ≥ 3× apart (the
/// `run_all` solver-timing section shape-checks this; here the two means
/// land side by side in `BENCH_solver.json`).
fn bench_cold_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/cold_vs_incremental");
    let (cluster, cols) = solver_case(100, 100, 100);
    let cfg = ScoreConfig::sb();
    let cap = 256usize;

    group.bench_with_input(
        BenchmarkId::from_parameter("reference_100h_200v"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve_reference(&mut eval, cap)
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("incremental_100h_200v"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(100), cols.clone());
                solve(&mut eval, cap)
            })
        },
    );
    group.finish();
}

/// Merges all recorded means into `BENCH_solver.json` at the workspace
/// root (preserving the `solver_scale` bench's points, recomputing the
/// derived reference/incremental speedup).
fn write_baseline(c: &Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    match merge_solver_baseline(std::path::Path::new(path), c.results()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_matrix_scaling(&mut criterion);
    bench_iteration_cap(&mut criterion);
    bench_penalty_sets(&mut criterion);
    bench_paper_shape(&mut criterion);
    bench_cold_vs_incremental(&mut criterion);
    write_baseline(&criterion);
}
