//! `eards sweep` farm mode and the `sweep-worker` subcommand.
//!
//! Farm mode turns a seed × policy × chaos grid into supervised worker
//! processes (see `eards-sweep`): each shard runs in its own `eards
//! sweep-worker` child, heartbeating over stdout, checkpointing
//! atomically, and being retried (resuming from its last checkpoint) if
//! it crashes, is killed, or hangs. `--serial` runs the same shards
//! in-process through the **same world-building and rendering code
//! path**, which is what makes the merged `report.csv`/`report.jsonl`
//! of a parallel run byte-identical to a serial run — the property the
//! integration suite locks in under injected SIGKILLs.
//!
//! Worker checkpoints and results are written with
//! [`eards_sim::write_atomic`], so a SIGKILL mid-write can never leave a
//! torn file for the retry to trip over.

use std::path::{Path, PathBuf};
use std::time::Duration;

use eards_datacenter::{run_sweep, RunConfig, SweepPoint};
use eards_model::FaultPlan;
use eards_obs::Obs;
use eards_sim::SimDuration;
use eards_sweep::{
    merge, protocol, render, run_farm, to_merge_entries, FarmConfig, MergeEntry, ShardSpec,
    ShardStatus, SweepGrid, WorkerPlan,
};

use crate::args::{ArgSpec, Args};
use crate::setup::{
    build_hosts, build_run_config, build_trace, make_policy, obs_requested, CliError, World,
    COMMON_SWITCHES, COMMON_VALUED, OBS_CAPACITY, OBS_FLAGS,
};

/// Farm-only valued flags. Flags in [`FORWARDED_VALUED`] are passed on
/// to workers; the rest configure the supervisor and are stripped from
/// worker command lines.
const FARM_VALUED: &[&str] = &[
    "seeds",
    "chaos-grid",
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

/// Farm-only boolean switches.
const FARM_SWITCHES: &[&str] = &["serial", "shard-metrics"];

/// Valued farm flags the workers also understand (test hooks and the
/// checkpoint cadence); everything else in [`FARM_VALUED`] is
/// supervisor-side and stripped by [`strip_farm_flags`].
const FORWARDED_VALUED: &[&str] = &[
    "ckpt-every-hours",
    "inject-hang",
    "hang-after-hours",
    "dawdle-ms",
];

/// Worker-only valued flags (the per-shard identity appended by the
/// supervisor, matching `eards_sweep::supervisor::shard_args`).
const WORKER_VALUED: &[&str] = &[
    "shard-key",
    "shard-seed",
    "shard-policy",
    "shard-chaos",
    "workdir",
    "resume-ckpt",
];

fn concat(parts: &[&[&'static str]]) -> Vec<&'static str> {
    parts.iter().flat_map(|p| p.iter().copied()).collect()
}

/// True if the token stream asks for farm mode rather than the legacy
/// in-process λ sweep.
pub fn farm_requested(tokens: &[String]) -> bool {
    const TRIGGERS: &[&str] = &["seeds", "chaos-grid", "jobs", "sweep-out", "serial"];
    tokens.iter().any(|t| {
        t.strip_prefix("--").is_some_and(|f| {
            let name = f.split_once('=').map_or(f, |(n, _)| n);
            TRIGGERS.contains(&name)
        })
    })
}

/// Drops supervisor-only flags (and their values) from a token stream,
/// leaving the world flags plus the forwarded worker flags.
pub fn strip_farm_flags(tokens: &[String]) -> Vec<String> {
    let stripped_valued: Vec<&str> = FARM_VALUED
        .iter()
        .copied()
        .filter(|f| !FORWARDED_VALUED.contains(f))
        .collect();
    let mut out = Vec::new();
    let mut iter = tokens.iter();
    while let Some(t) = iter.next() {
        if let Some(f) = t.strip_prefix("--") {
            if let Some((name, _)) = f.split_once('=') {
                if stripped_valued.contains(&name) || name == "serial" {
                    continue;
                }
            } else if stripped_valued.contains(&f) {
                iter.next();
                continue;
            } else if f == "serial" {
                continue;
            }
        }
        out.push(t.clone());
    }
    out
}

fn parse_farm(tokens: &[String]) -> Result<Args, CliError> {
    let valued = concat(&[COMMON_VALUED, FARM_VALUED]);
    let switches = concat(&[COMMON_SWITCHES, FARM_SWITCHES]);
    Ok(ArgSpec::new(&valued, &switches).parse(tokens.to_vec())?)
}

fn parse_worker(tokens: &[String]) -> Result<Args, CliError> {
    let valued = concat(&[COMMON_VALUED, FARM_VALUED, WORKER_VALUED]);
    let switches = concat(&[COMMON_SWITCHES, FARM_SWITCHES]);
    Ok(ArgSpec::new(&valued, &switches).parse(tokens.to_vec())?)
}

/// Builds the sweep grid from `--seeds`, `--policies` and `--chaos-grid`,
/// defaulting each missing axis to the corresponding single-run flag.
fn build_grid(args: &Args) -> Result<SweepGrid, CliError> {
    let seeds = {
        let raw = args.list("seeds");
        if raw.is_empty() {
            vec![build_run_config(args)?.seed]
        } else {
            raw.iter()
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| CliError::Usage(format!("--seeds: {s:?} is not a seed")))
                })
                .collect::<Result<_, _>>()?
        }
    };
    let policies = {
        let mut names = args.list("policies");
        if names.is_empty() {
            names = vec![args.value("policy").unwrap_or("sb").to_string()];
        }
        let cfg = build_run_config(args)?;
        for name in &names {
            let _ = make_policy(name, args, &cfg)?;
        }
        names
    };
    let chaos = {
        let raw = args.list("chaos-grid");
        if raw.is_empty() {
            vec![args.get_opt::<f64>("chaos")?.unwrap_or(0.0)]
        } else {
            raw.iter()
                .map(|s| match s.parse::<f64>() {
                    Ok(x) if x >= 0.0 => Ok(x),
                    _ => Err(CliError::Usage(format!(
                        "--chaos-grid: {s:?} is not a non-negative intensity"
                    ))),
                })
                .collect::<Result<_, _>>()?
        }
    };
    Ok(SweepGrid {
        seeds,
        policies,
        chaos,
    })
}

/// Turns a grid cell into its run configuration: `cfg` comes from the
/// common flags. The serial path and the worker (fresh or resuming a
/// checkpoint) both configure their runs through this — one source of
/// truth for how a grid cell becomes a simulation, which is what the
/// byte-identity guarantee rests on.
///
/// A chaos intensity of 0 keeps the base fault configuration from the
/// common flags (`--failures`/`--chaos`); a positive intensity replaces
/// it with `FaultPlan::chaos(x)`.
fn configure_shard(cfg: &mut RunConfig, spec: &ShardSpec, obs: &Obs) {
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

/// Runs the whole grid in-process, one shard after another, over one
/// datacenter and trace. The reference implementation the farm is
/// compared against.
fn run_serial(
    args: &Args,
    shards: &[ShardSpec],
    workdir: &Path,
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
    let reports = run_sweep(&build_hosts(args)?, &build_trace(args)?, points, Some(1));
    let mut entries = Vec::with_capacity(shards.len());
    for ((spec, obs), report) in shards.iter().zip(&obs).zip(&reports) {
        write_shard_metrics(workdir, &spec.key(), obs)?;
        entries.push(MergeEntry {
            spec: spec.clone(),
            status: ShardStatus::Ok,
            rendered: render(spec, report),
        });
    }
    Ok(entries)
}

/// Merges the per-shard metrics snapshots (when `--shard-metrics` was
/// given) into `<out>/metrics.json`. Quarantined shards have no
/// snapshot and are skipped; the summary notes how many were missing.
fn rollup_metrics(
    workdir: &Path,
    out_dir: &Path,
    entries: &[MergeEntry],
) -> Result<String, CliError> {
    let mut inputs = Vec::new();
    let mut missing = 0usize;
    for e in entries {
        let path = workdir.join(e.spec.key()).join("metrics.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => inputs.push((e.spec.key(), text)),
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

/// `eards sweep` in farm mode.
pub fn farm_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_farm(tokens)?;
    if obs_requested(&args) {
        return Err(CliError::Usage(format!(
            "--{} are only supported by `eards run` (use --shard-metrics for \
             a per-shard metrics rollup)",
            OBS_FLAGS.join("/--")
        )));
    }
    let grid = build_grid(&args)?;
    let shards = grid.shards();
    if shards.is_empty() {
        return Err(CliError::Usage(
            "the sweep grid is empty (check --seeds/--policies/--chaos-grid)".into(),
        ));
    }
    let Some(out_dir) = args.value("sweep-out") else {
        return Err(CliError::Usage(
            "farm mode needs --sweep-out DIR for the merged report".into(),
        ));
    };
    let out_dir = PathBuf::from(out_dir);
    std::fs::create_dir_all(&out_dir)?;
    let workdir = out_dir.join("work");

    let mut summary = format!(
        "sweep grid: {} shard(s) ({} seed × {} policy × {} chaos)\n",
        shards.len(),
        grid.seeds.len(),
        grid.policies.len(),
        grid.chaos.len()
    );

    let entries = if args.switch("serial") {
        summary.push_str("mode: serial (in-process reference)\n");
        run_serial(&args, &shards, &workdir)?
    } else {
        let jobs = args.get::<usize>("jobs", 1)?;
        let mut cfg = FarmConfig::new(workdir.clone());
        cfg.jobs = jobs;
        cfg.shard_timeout = Duration::from_secs(args.get::<u64>("shard-timeout-secs", 300)?);
        cfg.max_attempts = args.get::<u32>("max-retries", 2)? + 1;
        cfg.backoff_base = Duration::from_millis(args.get::<u64>("backoff-ms", 100)?);
        cfg.inject_kill = args.list("inject-kill");
        cfg.inject_kill_after_ms = (args.get::<f64>("kill-after-hours", 1.0)? * 3_600_000.0) as u64;
        let plan = WorkerPlan {
            program: std::env::current_exe()?,
            base_args: std::iter::once("sweep-worker".to_string())
                .chain(strip_farm_flags(tokens))
                .collect(),
        };
        summary.push_str(&format!("mode: farm, jobs={}\n", cfg.jobs.max(1)));
        let outcomes = run_farm(shards.clone(), &plan, &cfg, &mut |msg| {
            eprintln!("sweep: {msg}");
        })
        .map_err(CliError::Usage)?;
        for o in &outcomes {
            if o.attempts > 1 || o.status == ShardStatus::Quarantined {
                summary.push_str(&format!(
                    "  shard {}: {} after {} attempt(s){}{}\n",
                    o.spec.key(),
                    match o.status {
                        ShardStatus::Ok => "ok",
                        ShardStatus::Quarantined => "QUARANTINED",
                    },
                    o.attempts,
                    if o.resumed {
                        ", resumed from checkpoint"
                    } else {
                        ""
                    },
                    if o.injected_kill {
                        ", injected kill"
                    } else {
                        ""
                    },
                ));
            }
        }
        let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
        let resumed = outcomes.iter().filter(|o| o.resumed).count();
        summary.push_str(&format!(
            "retried: {retried} shard(s), resumed: {resumed} shard(s)\n"
        ));
        to_merge_entries(&outcomes)
    };

    let quarantined = entries
        .iter()
        .filter(|e| e.status == ShardStatus::Quarantined)
        .count();
    let merged = merge(entries.clone(), shards.len()).map_err(CliError::Usage)?;
    let csv_path = out_dir.join("report.csv");
    let jsonl_path = out_dir.join("report.jsonl");
    eards_sim::write_atomic(&csv_path, merged.csv.as_bytes())?;
    eards_sim::write_atomic(&jsonl_path, merged.jsonl.as_bytes())?;
    summary.push_str(&format!(
        "ok: {}, quarantined: {quarantined}{}\n",
        entries.len() - quarantined,
        if merged.partial {
            " — report is PARTIAL"
        } else {
            ""
        }
    ));
    summary.push_str(&format!(
        "merged report written to {} and {}\n",
        csv_path.display(),
        jsonl_path.display()
    ));
    if args.switch("shard-metrics") {
        summary.push_str(&rollup_metrics(&workdir, &out_dir, &entries)?);
    }
    Ok(summary)
}

/// The `sweep-worker` subcommand: runs one shard, speaking the
/// `eards-sweep` protocol on stdout. Not meant to be invoked by hand —
/// the supervisor appends the `--shard-*` identity flags itself.
pub fn worker_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_worker(tokens)?;
    let (Some(key), Some(workdir)) = (args.value("shard-key"), args.value("workdir")) else {
        return Err(CliError::Usage(
            "sweep-worker needs --shard-key and --workdir (it is spawned by `eards sweep`)".into(),
        ));
    };
    let spec = ShardSpec {
        index: 0, // the supervisor tracks the grid position; the worker only needs the identity
        seed: args.get::<u64>("shard-seed", 0)?,
        policy: args.value("shard-policy").unwrap_or("sb").to_string(),
        chaos: args.get::<f64>("shard-chaos", 0.0)?,
    };
    let workdir = PathBuf::from(workdir);
    let shard_dir = workdir.join(key);
    std::fs::create_dir_all(&shard_dir)?;

    let obs = shard_obs(&args);
    let say = |msg: &protocol::WorkerMsg| println!("{}", protocol::encode(msg));
    say(&protocol::WorkerMsg::Start {
        key: key.to_string(),
    });

    // Resume from the previous attempt's checkpoint when the supervisor
    // hands one over; a corrupt or mismatched checkpoint is a warning
    // (the shard restarts from scratch), never a worker death.
    let mut runner = None;
    if let Some(ckpt) = args.value("resume-ckpt") {
        let restored = std::fs::read(ckpt)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                let world = shard_world(&args, &spec, &obs).map_err(|e| e.to_string())?;
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
        None => shard_world(&args, &spec, &obs)?.runner(),
    };

    let ckpt_period = args
        .get_opt::<f64>("ckpt-every-hours")?
        .map(|h| SimDuration::from_secs((h * 3600.0) as u64));
    let ckpt_file = shard_dir.join("ckpt.bin");
    let mut next_ckpt = ckpt_period.map(|p| runner.now() + p);

    // Test hooks, used by the integration suite and CI smoke:
    // `--inject-hang` makes the matching shards stop heartbeating at a
    // given simulated hour; `--dawdle-ms` slows every batch so the
    // supervisor has a window to observe and kill the worker.
    let hang = args.list("inject-hang").iter().any(|k| k == key);
    let hang_after_ms = (args.get::<f64>("hang-after-hours", 1.0)? * 3_600_000.0) as u64;
    let dawdle = Duration::from_millis(args.get::<u64>("dawdle-ms", 0)?);

    while runner.step_batch() {
        let now = runner.now();
        if let (Some(period), Some(next)) = (ckpt_period, next_ckpt) {
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
        if hang && now.as_millis() >= hang_after_ms {
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
    let rendered = render(&spec, &report);
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

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn farm_detection() {
        assert!(farm_requested(&toks("--seeds 1,2 --hosts 4")));
        assert!(farm_requested(&toks("--jobs 4")));
        assert!(farm_requested(&toks("--sweep-out=/tmp/x")));
        assert!(farm_requested(&toks("--serial --hosts 4")));
        assert!(!farm_requested(&toks(
            "--hosts 4 --lambda-min-grid 10,20 --lambda-max-grid 90"
        )));
    }

    #[test]
    fn strip_keeps_world_and_forwarded_flags() {
        let out = strip_farm_flags(&toks(
            "--hosts 4 --seeds 1,2 --jobs 3 --sweep-out /tmp/x --serial \
             --ckpt-every-hours 1 --dawdle-ms 5 --seed 9 --max-retries=2",
        ));
        assert_eq!(
            out,
            toks("--hosts 4 --ckpt-every-hours 1 --dawdle-ms 5 --seed 9")
        );
    }

    #[test]
    fn grid_defaults_to_single_run_flags() {
        let args = parse_farm(&toks("--seed 5 --policy bf --chaos 1.5 --serial")).unwrap();
        let grid = build_grid(&args).unwrap();
        assert_eq!(grid.seeds, vec![5]);
        assert_eq!(grid.policies, vec!["bf".to_string()]);
        assert_eq!(grid.chaos, vec![1.5]);
    }

    #[test]
    fn grid_axes_parse_and_validate() {
        let args = parse_farm(&toks(
            "--seeds 1,2 --policies bf,sb --chaos-grid 0,1 --serial",
        ))
        .unwrap();
        let grid = build_grid(&args).unwrap();
        assert_eq!(grid.len(), 8);
        let bad = parse_farm(&toks("--seeds x --serial")).unwrap();
        assert!(build_grid(&bad).is_err());
        let bad = parse_farm(&toks("--policies warp9 --serial")).unwrap();
        assert!(build_grid(&bad).is_err());
        let bad = parse_farm(&toks("--chaos-grid -1 --serial")).unwrap();
        assert!(build_grid(&bad).is_err());
    }

    #[test]
    fn serial_farm_writes_merged_reports() {
        let dir = std::env::temp_dir().join(format!("eards-farm-serial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = farm_cmd(&toks(&format!(
            "--hosts 4 --hours 2 --seeds 3,4 --policies sb --serial --sweep-out {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("2 shard(s)"), "{out}");
        let csv = std::fs::read_to_string(dir.join("report.csv")).unwrap();
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("s3-sb-x0,3,sb,0,ok,"));
        let jsonl = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
        assert!(jsonl.starts_with("{\"kind\":\"sweep_report\",\"shards\":2,\"ok\":2,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn farm_mode_rejects_missing_out_and_obs_flags() {
        assert!(farm_cmd(&toks("--hosts 4 --hours 2 --serial")).is_err());
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
