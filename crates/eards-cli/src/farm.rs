//! `eards sweep` and the `sweep-worker` subcommand.
//!
//! A sweep is a seed × policy × chaos × λ grid ([`SweepGrid`]) whose axes
//! default to the single-run flags. Without `--jobs` the shards run
//! in-process through `run_sweep`; with `--jobs N` each runs in a
//! supervised `eards sweep-worker` child (see `eards-sweep`) that is
//! handed the sweep's command line plus its shard's index, rebuilds the
//! grid to find its shard, heartbeats over stdout, checkpoints with
//! [`eards_sim::write_atomic`] (a SIGKILL mid-write leaves no torn file)
//! and is retried from its last checkpoint if it crashes or hangs. Every
//! mode configures a shard through `configure_shard` and renders it
//! with `eards_sweep::render`, so the merged `report.csv`/`report.jsonl`
//! are byte-identical across modes, injected SIGKILLs included.

use std::path::{Path, PathBuf};
use std::time::Duration;

use eards_datacenter::{lambda_pairs, run_sweep, RunConfig, SweepPoint};
use eards_metrics::{fnum, heatmap, Table};
use eards_model::FaultPlan;
use eards_obs::Obs;
use eards_sim::SimDuration;
use eards_sweep::{
    merge, protocol, render, run_farm, FarmConfig, MergeEntry, ShardSpec, ShardStatus, SweepGrid,
    WorkerPlan,
};

use crate::args::{ArgSpec, Args};
use crate::commands::reject_obs_flags;
use crate::setup::{
    build_hosts, build_run_config, build_trace, hours, intensity, lambda_flags, make_policy,
    percent, CliError, World, COMMON_SWITCHES, COMMON_VALUED, OBS_CAPACITY,
};

/// The sweep's own valued flags: the grid axes, the execution mode, and
/// the farm's supervision knobs and test hooks. A worker is handed the
/// whole sweep command line and ignores what it does not use.
const SWEEP_VALUED: &[&str] = &[
    "seeds",
    "chaos-grid",
    "lambda-min-grid",
    "lambda-max-grid",
    "jobs",
    "sweep-out",
    "shard-timeout-secs",
    "max-retries",
    "backoff-ms",
    "inject-kill",
    "kill-after-hours",
    "ckpt-every-hours",
    "inject-hang",
    "hang-after-hours",
    "dawdle-ms",
];

/// The sweep's own switches.
const SWEEP_SWITCHES: &[&str] = &["serial", "shard-metrics"];

/// What the supervisor appends to a worker's command line (see
/// `eards_sweep::supervisor::shard_args`).
const WORKER_VALUED: &[&str] = &["shard-index", "workdir", "resume-ckpt"];

/// The sweep's hour flags, each checked by [`hours`]: the worker's
/// checkpoint period, and the simulated instants at which the kill and
/// hang test hooks fire (default one hour).
struct HourFlags {
    ckpt_every: Option<SimDuration>,
    kill_after: SimDuration,
    hang_after: SimDuration,
}

fn hour_flags(args: &Args) -> Result<HourFlags, CliError> {
    let hook = |flag| {
        args.value(flag)
            .map_or(Ok(SimDuration::from_hours(1)), |raw| {
                hours(flag, raw, false)
            })
    };
    Ok(HourFlags {
        ckpt_every: (args.value("ckpt-every-hours"))
            .map(|raw| hours("ckpt-every-hours", raw, true))
            .transpose()?,
        kill_after: hook("kill-after-hours")?,
        hang_after: hook("hang-after-hours")?,
    })
}

/// Parses a sweep command line, accepting `extra` valued flags too.
fn parse_sweep(tokens: &[String], extra: &[&'static str]) -> Result<Args, CliError> {
    let valued: Vec<&str> = [COMMON_VALUED, SWEEP_VALUED, extra].concat();
    let switches: Vec<&str> = [COMMON_SWITCHES, SWEEP_SWITCHES].concat();
    Ok(ArgSpec::new(&valued, &switches).parse(tokens.to_vec())?)
}

/// The items of list flag `flag`, each parsed by `item`, or `[default]`
/// when the flag is absent.
fn axis<T>(
    args: &Args,
    flag: &str,
    default: T,
    item: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    let raw = args.list(flag);
    if raw.is_empty() {
        return Ok(vec![default]);
    }
    raw.iter().map(|s| item(s)).collect()
}

/// The λ_min and λ_max axes: `--lambda-min-grid`/`--lambda-max-grid`,
/// defaulting to `--lambda-min`/`--lambda-max`.
fn lambda_axes(args: &Args) -> Result<(Vec<u32>, Vec<u32>), CliError> {
    let (lo, hi) = lambda_flags(args)?;
    let min = axis(args, "lambda-min-grid", lo, |s| {
        percent("lambda-min-grid", s)
    })?;
    let max = axis(args, "lambda-max-grid", hi, |s| {
        percent("lambda-max-grid", s)
    })?;
    Ok((min, max))
}

/// Builds the sweep grid from `--seeds`, `--policies`, `--chaos-grid` and
/// the λ grids, defaulting each missing axis to its single-run flag. The
/// supervisor and every worker build it from the same flags.
fn build_grid(args: &Args) -> Result<SweepGrid, CliError> {
    let cfg = build_run_config(args)?;
    let seeds = axis(args, "seeds", cfg.seed, |s| {
        s.parse::<u64>()
            .map_err(|_| CliError::Usage(format!("--seeds: {s:?} is not a seed")))
    })?;
    let policy = args.value("policy").unwrap_or("sb").to_string();
    let policies = axis(args, "policies", policy, |s| Ok(s.to_string()))?;
    for name in &policies {
        let _ = make_policy(name, args, &cfg)?;
    }
    let chaos = args
        .value("chaos")
        .map_or(Ok(0.0), |s| intensity("chaos", s))?;
    let chaos = axis(args, "chaos-grid", chaos, |s| intensity("chaos-grid", s))?;
    let (min, max) = lambda_axes(args)?;
    let lambdas = lambda_pairs(&min, &max);
    if lambdas.is_empty() {
        return Err(CliError::Usage(
            "the λ grids produced no valid (min < max) pairs".into(),
        ));
    }
    Ok(SweepGrid {
        seeds,
        policies,
        chaos,
        lambdas,
    })
}

/// Turns a grid cell into its run configuration: `cfg` comes from the
/// common flags. The in-process run and the worker (fresh or resuming a
/// checkpoint) both configure their runs through this — one source of
/// truth for how a grid cell becomes a simulation, which is what the
/// byte-identity guarantee rests on.
///
/// A chaos intensity of 0 keeps the base fault configuration from the
/// common flags (`--failures`/`--chaos`); a positive intensity replaces
/// it with `FaultPlan::chaos(x)`.
fn configure_shard(cfg: &mut RunConfig, spec: &ShardSpec, obs: &Obs) {
    let (lo, hi) = spec.lambda;
    *cfg = std::mem::take(cfg).with_lambdas(lo, hi);
    cfg.seed = spec.seed;
    if spec.chaos > 0.0 {
        cfg.faults = FaultPlan::chaos(spec.chaos);
    }
    cfg.obs = obs.clone();
}

/// Builds one shard's world for the worker.
fn shard_world(args: &Args, spec: &ShardSpec, obs: &Obs) -> Result<World, CliError> {
    World::build(args, &spec.policy, |cfg| configure_shard(cfg, spec, obs))
}

fn shard_obs(args: &Args) -> Obs {
    if args.switch("shard-metrics") {
        Obs::enabled(OBS_CAPACITY)
    } else {
        Obs::disabled()
    }
}

fn write_shard_metrics(workdir: &Path, key: &str, obs: &Obs) -> Result<(), CliError> {
    if obs.is_enabled() {
        let dir = workdir.join(key);
        std::fs::create_dir_all(&dir)?;
        eards_sim::write_atomic(&dir.join("metrics.json"), obs.export_metrics().as_bytes())?;
    }
    Ok(())
}

/// Runs the whole grid in-process over one datacenter and trace, on at
/// most `cap` threads (`None`: one per core). Per-shard metrics, when
/// asked for, go under `workdir`.
fn run_in_process(
    args: &Args,
    shards: &[ShardSpec],
    workdir: Option<&Path>,
    cap: Option<usize>,
) -> Result<Vec<MergeEntry>, CliError> {
    let base = build_run_config(args)?;
    let mut obs = Vec::with_capacity(shards.len());
    let mut points = Vec::with_capacity(shards.len());
    for spec in shards {
        let mut config = base.clone();
        configure_shard(&mut config, spec, &shard_obs(args));
        obs.push(config.obs.clone());
        points.push(SweepPoint {
            label: spec.key(),
            policy: make_policy(&spec.policy, args, &config)?,
            config,
        });
    }
    let reports = run_sweep(&build_hosts(args)?, &build_trace(args)?, points, cap);
    let mut entries = Vec::with_capacity(shards.len());
    for ((spec, obs), report) in shards.iter().zip(&obs).zip(&reports) {
        if let Some(dir) = workdir {
            write_shard_metrics(dir, &spec.key(), obs)?;
        }
        entries.push(MergeEntry {
            spec: spec.clone(),
            status: ShardStatus::Ok,
            rendered: render(spec, report),
        });
    }
    Ok(entries)
}

/// Runs the grid on `jobs` supervised worker processes, each handed the
/// sweep's command line `tokens` and its shard index. Retries and
/// quarantines are noted in `summary`.
fn run_workers(
    args: &Args,
    tokens: &[String],
    shards: &[ShardSpec],
    workdir: &Path,
    jobs: usize,
    summary: &mut String,
) -> Result<Vec<MergeEntry>, CliError> {
    let mut cfg = FarmConfig::new(workdir.to_path_buf());
    cfg.jobs = jobs;
    cfg.shard_timeout = Duration::from_secs(args.get::<u64>("shard-timeout-secs", 300)?);
    cfg.max_attempts = args.get::<u32>("max-retries", 2)? + 1;
    cfg.backoff_base = Duration::from_millis(args.get::<u64>("backoff-ms", 100)?);
    cfg.inject_kill = args.list("inject-kill");
    cfg.inject_kill_after_ms = hour_flags(args)?.kill_after.as_millis();
    let plan = WorkerPlan {
        program: std::env::current_exe()?,
        base_args: std::iter::once("sweep-worker".to_string())
            .chain(tokens.iter().cloned())
            .collect(),
    };
    summary.push_str(&format!("mode: farm, jobs={}\n", cfg.jobs.max(1)));
    let outcomes = run_farm(shards.to_vec(), &plan, &cfg, &mut |msg| {
        eprintln!("sweep: {msg}");
    })
    .map_err(CliError::Usage)?;
    for o in &outcomes {
        let ok = o.entry.status == ShardStatus::Ok;
        if o.attempts > 1 || !ok {
            let (key, attempts) = (o.entry.spec.key(), o.attempts);
            let status = if ok { "ok" } else { "QUARANTINED" };
            let resumed = if o.resumed {
                ", resumed from checkpoint"
            } else {
                ""
            };
            let killed = if o.injected_kill {
                ", injected kill"
            } else {
                ""
            };
            summary.push_str(&format!(
                "  shard {key}: {status} after {attempts} attempt(s){resumed}{killed}\n"
            ));
        }
    }
    let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
    let resumed = outcomes.iter().filter(|o| o.resumed).count();
    summary.push_str(&format!(
        "retried: {retried} shard(s), resumed: {resumed} shard(s)\n"
    ));
    Ok(outcomes.into_iter().map(|o| o.entry).collect())
}

/// Merges the per-shard metrics snapshots (when `--shard-metrics` was
/// given) into `<out>/metrics.json`. Quarantined shards have no
/// snapshot and are skipped; the summary notes how many were missing.
fn rollup_metrics(
    workdir: &Path,
    out_dir: &Path,
    shards: &[ShardSpec],
) -> Result<String, CliError> {
    let mut inputs = Vec::new();
    let mut missing = 0usize;
    for spec in shards {
        let path = workdir.join(spec.key()).join("metrics.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => inputs.push((spec.key(), text)),
            Err(_) => missing += 1,
        }
    }
    let merged = eards_obs::rollup::merge_metrics(&inputs)
        .map_err(|e| CliError::Usage(format!("metrics rollup: {e}")))?;
    let path = out_dir.join("metrics.json");
    eards_sim::write_atomic(&path, merged.as_bytes())?;
    let mut note = format!(
        "metrics rollup ({} shards) written to {}\n",
        inputs.len(),
        path.display()
    );
    if missing > 0 {
        note.push_str(&format!("  ({missing} shard(s) had no metrics snapshot)\n"));
    }
    Ok(note)
}

/// Column `name` of every row of a merged CSV report, in grid order.
fn column<'a>(csv: &'a str, name: &str) -> Vec<&'a str> {
    let mut lines = csv.lines();
    let at = lines
        .next()
        .and_then(|h| h.split(',').position(|c| c == name));
    lines
        .map(|row| at.and_then(|i| row.split(',').nth(i)).unwrap_or(""))
        .collect()
}

/// The merged rows as the sweep's table: shard key, energy,
/// satisfaction, delay and migrations, read back from the merged CSV.
/// A quarantined shard's cells are empty.
fn rows_table(csv: &str) -> Table {
    let num = |name, prec| {
        let cell = move |v: &str| v.parse().map_or(String::new(), |x| fnum(x, prec));
        column(csv, name).into_iter().map(cell)
    };
    let rows = (column(csv, "shard").into_iter().zip(num("energy_kwh", 1)))
        .zip(num("satisfaction_pct", 2).zip(num("delay_pct", 2)))
        .zip(column(csv, "migrations"));
    let mut t = Table::new(["shard", "Pwr (kWh)", "S (%)", "delay (%)", "Mig"]);
    for (((shard, energy), (sat, delay)), mig) in rows {
        t.row([shard.to_string(), energy, sat, delay, mig.to_string()]);
    }
    t
}

/// The λ surface of a grid whose only multi-valued axes are λ_min and
/// λ_max, shaded by energy (darker = more), like Fig. 2.
fn energy_surface(grid: &SweepGrid, min: &[u32], max: &[u32], csv: &str) -> String {
    let energy = column(csv, "energy_kwh");
    let cells: Vec<Vec<Option<f64>>> = min
        .iter()
        .map(|&lo| {
            max.iter()
                .map(|&hi| {
                    let at = grid.lambdas.iter().position(|&l| l == (lo, hi))?;
                    energy.get(at)?.parse().ok()
                })
                .collect()
        })
        .collect();
    let row_labels: Vec<String> = min.iter().map(|v| format!("λmin {v}")).collect();
    let col_labels: Vec<String> = max.iter().map(|v| v.to_string()).collect();
    format!(
        "\nenergy surface (kWh):\n{}",
        heatmap(&row_labels, &col_labels, &cells)
    )
}

/// `eards sweep`: runs the grid in-process (no `--jobs`) or on the
/// process farm (`--jobs N`, which needs `--sweep-out`), then prints a
/// summary and the merged rows.
pub fn farm_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_sweep(tokens, &[])?;
    reject_obs_flags(&args, "sweep")?;
    // Checked here too, so a bad hour flag exits 2 before any worker spawns.
    hour_flags(&args)?;
    let grid = build_grid(&args)?;
    let shards = grid.shards();
    let out_dir = args.value("sweep-out").map(PathBuf::from);
    let jobs = args.get_opt::<usize>("jobs")?;
    if jobs.is_some() && args.switch("serial") {
        return Err(CliError::Usage(
            "--serial runs in-process; it cannot be combined with --jobs".into(),
        ));
    }
    if out_dir.is_none() && (jobs.is_some() || args.switch("shard-metrics")) {
        return Err(CliError::Usage(
            "--jobs and --shard-metrics need --sweep-out DIR".into(),
        ));
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let workdir = out_dir.as_ref().map(|dir| dir.join("work"));

    let mut summary = format!(
        "sweep grid: {} shard(s) ({} seed × {} policy × {} chaos × {} λ)\n",
        shards.len(),
        grid.seeds.len(),
        grid.policies.len(),
        grid.chaos.len(),
        grid.lambdas.len()
    );
    let entries = match (jobs, &workdir) {
        (Some(jobs), Some(workdir)) => {
            run_workers(&args, tokens, &shards, workdir, jobs, &mut summary)?
        }
        _ if args.switch("serial") => {
            summary.push_str("mode: serial (in-process reference)\n");
            run_in_process(&args, &shards, workdir.as_deref(), Some(1))?
        }
        _ => {
            summary.push_str("mode: in-process, one thread per core\n");
            run_in_process(&args, &shards, workdir.as_deref(), None)?
        }
    };

    let merged = merge(entries, shards.len()).map_err(CliError::Usage)?;
    let quarantined = merged.quarantined;
    let partial = if quarantined > 0 {
        " — report is PARTIAL"
    } else {
        ""
    };
    summary.push_str(&format!(
        "ok: {}, quarantined: {quarantined}{partial}\n",
        shards.len() - quarantined
    ));
    if let (Some(out_dir), Some(workdir)) = (&out_dir, &workdir) {
        let csv_path = out_dir.join("report.csv");
        let jsonl_path = out_dir.join("report.jsonl");
        eards_sim::write_atomic(&csv_path, merged.csv.as_bytes())?;
        eards_sim::write_atomic(&jsonl_path, merged.jsonl.as_bytes())?;
        summary.push_str(&format!(
            "merged report written to {} and {}\n",
            csv_path.display(),
            jsonl_path.display()
        ));
        if args.switch("shard-metrics") {
            summary.push_str(&rollup_metrics(workdir, out_dir, &shards)?);
        }
    }
    summary.push('\n');
    if args.switch("csv") {
        summary.push_str(&merged.csv);
        return Ok(summary);
    }
    summary.push_str(&rows_table(&merged.csv).to_markdown());
    let (min, max) = lambda_axes(&args)?;
    let single = grid.seeds.len() == 1 && grid.policies.len() == 1 && grid.chaos.len() == 1;
    if single && min.len() > 1 && max.len() > 1 {
        summary.push_str(&energy_surface(&grid, &min, &max, &merged.csv));
    }
    Ok(summary)
}

/// The `sweep-worker` subcommand: runs one shard, speaking the
/// `eards-sweep` protocol on stdout. Not meant to be invoked by hand —
/// the supervisor passes the sweep's command line plus `--shard-index`
/// and `--workdir`; the worker rebuilds the grid from that command line
/// and echoes its shard's key, which the supervisor checks.
pub fn worker_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_sweep(tokens, WORKER_VALUED)?;
    let HourFlags {
        ckpt_every,
        hang_after,
        ..
    } = hour_flags(&args)?;
    let (Some(index), Some(workdir)) =
        (args.get_opt::<usize>("shard-index")?, args.value("workdir"))
    else {
        return Err(CliError::Usage(
            "sweep-worker needs --shard-index and --workdir (it is spawned by `eards sweep`)"
                .into(),
        ));
    };
    let shards = build_grid(&args)?.shards();
    let Some(spec) = shards.get(index) else {
        return Err(CliError::Usage(format!(
            "--shard-index {index} is outside the {}-shard grid",
            shards.len()
        )));
    };
    let key = &spec.key();
    let workdir = PathBuf::from(workdir);
    let shard_dir = workdir.join(key);
    std::fs::create_dir_all(&shard_dir)?;

    let obs = shard_obs(&args);
    let say = |msg: &protocol::WorkerMsg| println!("{}", protocol::encode(msg));
    say(&protocol::WorkerMsg::Start { key: key.clone() });

    // Resume from the previous attempt's checkpoint when the supervisor
    // hands one over; a corrupt or mismatched checkpoint is a warning
    // (the shard restarts from scratch), never a worker death.
    let mut runner = None;
    if let Some(ckpt) = args.value("resume-ckpt") {
        let restored = std::fs::read(ckpt)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                let world = shard_world(&args, spec, &obs).map_err(|e| e.to_string())?;
                world.restore(&bytes).map_err(|e| e.to_string())
            });
        match restored {
            Ok(r) => runner = Some(r),
            Err(e) => say(&protocol::WorkerMsg::Warn {
                msg: format!("checkpoint {ckpt} unusable ({e}); starting fresh"),
            }),
        }
    }
    let mut runner = match runner {
        Some(r) => r,
        None => shard_world(&args, spec, &obs)?.runner(),
    };

    let ckpt_file = eards_sweep::ckpt_path(&workdir, spec);
    let mut next_ckpt = ckpt_every.map(|p| runner.now() + p);

    // Test hooks, used by the integration suite and CI smoke:
    // `--inject-hang` makes the matching shards stop heartbeating at a
    // given simulated hour; `--dawdle-ms` slows every batch so the
    // supervisor has a window to observe and kill the worker.
    let hang = args.list("inject-hang").iter().any(|k| k == key);
    let dawdle = Duration::from_millis(args.get::<u64>("dawdle-ms", 0)?);

    while runner.step_batch() {
        let now = runner.now();
        if let (Some(period), Some(next)) = (ckpt_every, next_ckpt) {
            if now >= next {
                let bytes = runner
                    .snapshot()
                    .map_err(|e| CliError::Snapshot(e.to_string()))?;
                eards_sim::write_atomic(&ckpt_file, &bytes)?;
                say(&protocol::WorkerMsg::Checkpoint {
                    path: ckpt_file.display().to_string(),
                });
                let mut next = next;
                while now >= next {
                    next += period;
                }
                next_ckpt = Some(next);
            }
        }
        say(&protocol::WorkerMsg::Progress {
            sim_ms: now.as_millis(),
        });
        if hang && now.as_millis() >= hang_after.as_millis() {
            loop {
                std::thread::sleep(Duration::from_secs(60));
            }
        }
        if !dawdle.is_zero() {
            std::thread::sleep(dawdle);
        }
    }
    let (report, _) = runner.finish();
    write_shard_metrics(&workdir, key, &obs)?;
    let rendered = render(spec, &report);
    let result_path = shard_dir.join("result.txt");
    eards_sim::write_atomic(
        &result_path,
        eards_sweep::result::to_result_file(&rendered).as_bytes(),
    )?;
    say(&protocol::WorkerMsg::Result {
        path: result_path.display().to_string(),
    });
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_core::{ScoreConfig, ScoreScheduler};
    use eards_datacenter::Runner;
    use eards_sweep::CSV_HEADER;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn grid(s: &str) -> Result<SweepGrid, CliError> {
        build_grid(&parse_sweep(&toks(s), &[])?)
    }

    #[test]
    fn grid_defaults_to_single_run_flags() {
        let grid =
            grid("--seed 5 --policy bf --chaos 1.5 --lambda-min 40 --lambda-max 95").unwrap();
        assert_eq!(grid.seeds, vec![5]);
        assert_eq!(grid.policies, vec!["bf".to_string()]);
        assert_eq!(grid.chaos, vec![1.5]);
        assert_eq!(grid.lambdas, vec![(40, 95)]);
    }

    #[test]
    fn grid_axes_parse_and_validate() {
        let g = grid(
            "--seeds 1,2 --policies bf,sb --chaos-grid 0,1 \
             --lambda-min-grid 30,50,90 --lambda-max-grid 50,90",
        )
        .unwrap();
        assert_eq!(g.lambdas, vec![(30, 50), (30, 90), (50, 90)]);
        assert_eq!(g.shards().len(), 24);
        for bad in [
            "--seeds x",
            "--policies warp9",
            "--chaos-grid -1",
            "--chaos-grid nan",
            "--chaos nan",
            "--chaos inf",
            "--lambda-min-grid 120 --lambda-max-grid 400",
            "--lambda-min-grid 90 --lambda-max-grid 50",
        ] {
            assert!(grid(bad).is_err(), "{bad}");
        }
    }

    /// The in-process sweep over a seed × λ grid writes one row per
    /// shard in grid order, each equal to a direct run at its seed and λ.
    #[test]
    fn serial_farm_writes_merged_reports() {
        let dir = std::env::temp_dir().join(format!("eards-farm-serial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let world = "--hosts 4 --hours 2";
        let out = farm_cmd(&toks(&format!(
            "{world} --seeds 3,4 --policies sb --lambda-min-grid 30,50 --serial --sweep-out {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("4 shard(s)"), "{out}");
        assert!(out.contains("| s4-sb-x0-l50-90"), "{out}");
        let csv = std::fs::read_to_string(dir.join("report.csv")).unwrap();
        assert_eq!(csv.lines().count(), 5, "{csv}");
        let args = parse_sweep(&toks(world), &[]).unwrap();
        let (hosts, trace) = (build_hosts(&args).unwrap(), build_trace(&args).unwrap());
        let cells = [(3, 30), (3, 50), (4, 30), (4, 50)];
        for (row, (seed, lo)) in csv.lines().skip(1).zip(cells) {
            let prefix = format!("s{seed}-sb-x0-l{lo}-90,{seed},sb,0,{lo},90,ok,");
            assert!(row.starts_with(&prefix), "{row}");
            let config = RunConfig {
                seed,
                ..RunConfig::default()
            }
            .with_lambdas(lo, 90);
            let policy = Box::new(ScoreScheduler::new(ScoreConfig::sb()));
            let direct = Runner::new(hosts.clone(), trace.clone(), policy, config).run();
            let field = |name: &str| -> f64 {
                let at = CSV_HEADER.split(',').position(|c| c == name).unwrap();
                row.split(',').nth(at).unwrap().parse().unwrap()
            };
            assert_eq!(field("energy_kwh").to_bits(), direct.energy_kwh.to_bits());
            assert_eq!(
                field("satisfaction_pct").to_bits(),
                direct.satisfaction_pct.to_bits()
            );
        }
        let jsonl = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
        assert!(jsonl.starts_with("{\"kind\":\"sweep_report\",\"shards\":4,\"ok\":4,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn farm_mode_rejects_missing_out_and_obs_flags() {
        assert!(farm_cmd(&toks("--hosts 4 --hours 2 --jobs 2")).is_err());
        assert!(farm_cmd(&toks("--hosts 4 --hours 2 --shard-metrics")).is_err());
        assert!(farm_cmd(&toks("--hosts 4 --serial --jobs 2 --sweep-out /tmp/x")).is_err());
        assert!(farm_cmd(&toks(
            "--hosts 4 --serial --sweep-out /tmp/x --trace-out /tmp/t.jsonl"
        ))
        .is_err());
        assert!(
            worker_cmd(&toks("--hosts 4")).is_err(),
            "worker needs identity"
        );
    }
}
