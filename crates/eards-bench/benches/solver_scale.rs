//! Sharded hierarchical solver at datacenter scale.
//!
//! A whole-cluster matrix is `O(M·N)` per round — a non-starter at ten
//! thousand hosts (10⁹ cells). This bench times one full scheduling
//! round of `solve_sharded` on big direct-placement cases
//! ([`scale_case`]), headline point **10 000 hosts / 100 000 VMs**, and
//! merges the results into the workspace-root `BENCH_solver.json` next to
//! the `solver` bench's points (the acceptance bar is < 250 ms per round
//! on the headline point).
//!
//! `--smoke` runs in seconds for the CI test job: a shard-count grid on
//! a 400-host case plus the single-shard differential oracle (sharded
//! must be move-for-move identical to the full-rescan reference climb),
//! and does NOT touch `BENCH_solver.json`.

use eards_bench::common::{merge_solver_baseline, recycled_round, scale_case};
use eards_bench::timing::Recorder;
use eards_core::{solve_reference, solve_sharded, DegradeLevel, EvalBuffers, ScoreConfig};
use eards_model::{Cluster, ShardMap, VmId};

/// Rack granularity of every map in this bench (the default `RackPlan`
/// rack size).
const RACK_SIZE: u32 = 8;

/// One sharded scheduling round: evaluator in the recycled `buf` +
/// hierarchical solve.
fn sharded_round(
    cluster: &Cluster,
    cols: &[VmId],
    cfg: &ScoreConfig,
    map: &ShardMap,
    buf: &mut EvalBuffers,
) -> eards_core::ShardedOutcome {
    recycled_round(cluster, cfg, cols, buf, |e| {
        solve_sharded(e, map, 0, cfg.max_moves, u64::MAX, DegradeLevel::L0Full)
    })
}

/// The single-shard differential oracle, cheap enough to run every CI
/// cycle: on a small instance the sharded solver over the trivial map
/// must reproduce the full-rescan reference climb move for move.
fn smoke_oracle() {
    let (cluster, cols) = scale_case(16, 2, 12);
    let cfg = ScoreConfig::sb();
    let mut buf = EvalBuffers::default();
    let expected = recycled_round(&cluster, &cfg, &cols, &mut buf, |e| {
        solve_reference(e, cfg.max_moves)
    });
    let map = ShardMap::single(16);
    let out = sharded_round(&cluster, &cols, &cfg, &map, &mut buf);
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
fn shard_grid(rec: &mut Recorder) {
    let hosts = 400u32;
    let (cluster, cols) = scale_case(hosts, 3, 1200);
    let cfg = ScoreConfig::sb();
    for shards in [1u32, 2, 4, 8, 16] {
        let map = ShardMap::build(hosts as usize, RACK_SIZE, shards);
        let mut buf = EvalBuffers::default();
        rec.bench(
            &format!("solver_scale/grid_400h_2400v/shards_{shards}"),
            || sharded_round(&cluster, &cols, &cfg, &map, &mut buf),
        );
    }
}

/// The headline points. A single shard is deliberately absent: at these
/// sizes its initial fill alone is two orders of magnitude past the
/// budget — that asymmetry is the point of sharding.
fn scale_points(rec: &mut Recorder) {
    for (hosts, per_host, queued, shards) in [
        (2_000u32, 3u32, 14_000u64, 250u32),
        (10_000, 3, 70_000, 1_250),
    ] {
        let (cluster, cols) = scale_case(hosts, per_host, queued);
        let vms = cols.len();
        let cfg = ScoreConfig::sb();
        let map = ShardMap::build(hosts as usize, RACK_SIZE, shards);
        let mut buf = EvalBuffers::default();
        let (secs, out) = rec.bench(&format!("solver_scale/sharded_{hosts}h_{vms}v"), || {
            sharded_round(&cluster, &cols, &cfg, &map, &mut buf)
        });
        eprintln!(
            "  detail: moves={} work={} rows_rescored={} balanced={} sweeps={}",
            out.solution.moves.len(),
            out.work_spent,
            out.rows_rescored,
            out.balanced,
            out.solution.sweeps
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

fn main() -> std::io::Result<()> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rec = Recorder::default();
    smoke_oracle();
    shard_grid(&mut rec);
    if smoke {
        println!("smoke mode: skipping the 10_000-host points and the baseline write");
        return Ok(());
    }
    scale_points(&mut rec);
    merge_solver_baseline(rec.results())?;
    Ok(())
}
