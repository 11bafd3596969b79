//! Sharded hierarchical solver at datacenter scale.
//!
//! A whole-cluster matrix is `O(M·N)` per round — a non-starter at ten
//! thousand hosts (10⁹ cells). This bench times one full scheduling
//! round of `solve_sharded` on big direct-placement cases
//! ([`scale_case`]), headline point **10 000 hosts / 100 000 VMs**, and
//! merges the means into the workspace-root `BENCH_solver.json` next to
//! the `solver` bench's points (the acceptance bar is < 250 ms per round
//! on the headline point).
//!
//! `--smoke` runs in seconds for the CI test job: a shard-count grid on
//! a 400-host case plus the single-shard differential oracle (sharded
//! must be move-for-move identical to the full-rescan reference climb),
//! and does NOT touch `BENCH_solver.json`.

use std::time::Instant;

use eards_bench::common::{merge_solver_baseline, scale_case};
use eards_core::{solve_reference, solve_sharded, DegradeLevel, Eval, ScoreConfig};
use eards_model::ShardMap;
use eards_sim::SimTime;

const NOW_SECS: u64 = 100;

/// Rack granularity of every map in this bench (the default `RackPlan`
/// rack size).
const RACK_SIZE: u32 = 8;

fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        #[allow(clippy::disallowed_methods)] // benchmarking wall time is the point
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// One sharded scheduling round: fresh evaluator + hierarchical solve.
fn sharded_round(
    cluster: &eards_model::Cluster,
    cols: &[eards_model::VmId],
    cfg: &ScoreConfig,
    map: &ShardMap,
) -> eards_core::ShardedOutcome {
    let mut eval = Eval::new(cluster, cfg, SimTime::from_secs(NOW_SECS), cols.to_vec());
    solve_sharded(
        &mut eval,
        map,
        0,
        cfg.max_moves,
        u64::MAX,
        DegradeLevel::L0Full,
    )
}

fn report(label: &str, secs: f64, moves: usize, results: &mut Vec<(String, f64)>) {
    println!(
        "bench: {label:<48} {:>10.3} ms per round ({moves} moves)",
        secs * 1e3
    );
    results.push((label.to_string(), secs));
}

/// The single-shard differential oracle, cheap enough to run every CI
/// cycle: on a small instance the sharded solver over the trivial map
/// must reproduce the full-rescan reference climb move for move.
fn smoke_oracle() {
    let (cluster, cols) = scale_case(16, 2, 12);
    let cfg = ScoreConfig::sb();
    let expected = {
        let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(NOW_SECS), cols.clone());
        solve_reference(&mut eval, cfg.max_moves)
    };
    let map = ShardMap::single(16);
    let out = sharded_round(&cluster, &cols, &cfg, &map);
    assert_eq!(
        out.solution.moves, expected.moves,
        "single-shard oracle: sharded diverged from the reference climb"
    );
    println!(
        "oracle: single-shard == reference on 16h/44v ({} moves) — ok",
        expected.moves.len()
    );
}

/// Shard-count grid on a mid-size case: how the round time scales with
/// the partition, same workload throughout.
fn shard_grid(results: &mut Vec<(String, f64)>) {
    let hosts = 400u32;
    let (cluster, cols) = scale_case(hosts, 3, 1200);
    let cfg = ScoreConfig::sb();
    for shards in [1u32, 2, 4, 8, 16] {
        let map = ShardMap::build(hosts as usize, RACK_SIZE, shards);
        let (secs, out) = time_min(3, || sharded_round(&cluster, &cols, &cfg, &map));
        report(
            &format!("solver_scale/grid_400h_2400v/shards_{shards}"),
            secs,
            out.solution.moves.len(),
            results,
        );
    }
}

/// The headline points. A single shard is deliberately absent: at these
/// sizes its initial fill alone is two orders of magnitude past the
/// budget — that asymmetry is the point of sharding.
fn scale_points(results: &mut Vec<(String, f64)>) {
    for (hosts, per_host, queued, shards) in [
        (2_000u32, 3u32, 14_000u64, 250u32),
        (10_000, 3, 70_000, 1_250),
    ] {
        let (cluster, cols) = scale_case(hosts, per_host, queued);
        let vms = cols.len();
        let cfg = ScoreConfig::sb();
        let map = ShardMap::build(hosts as usize, RACK_SIZE, shards);
        let (secs, out) = time_min(3, || sharded_round(&cluster, &cols, &cfg, &map));
        report(
            &format!("solver_scale/sharded_{hosts}h_{vms}v"),
            secs,
            out.solution.moves.len(),
            results,
        );
        eprintln!(
            "  detail: work={} rows_rescored={} balanced={} sweeps={}",
            out.work_spent, out.rows_rescored, out.balanced, out.solution.sweeps
        );
        if hosts == 10_000 {
            let bar = 0.250;
            println!(
                "acceptance: 10_000h per-round solve {:.3} ms < {:.0} ms — {}",
                secs * 1e3,
                bar * 1e3,
                if secs < bar { "ok" } else { "MISSED" }
            );
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut results = Vec::new();
    smoke_oracle();
    shard_grid(&mut results);
    if smoke {
        println!("smoke mode: skipping the 10_000-host points and the baseline write");
        return;
    }
    scale_points(&mut results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    match merge_solver_baseline(std::path::Path::new(path), &results) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
