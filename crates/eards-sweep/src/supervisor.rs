//! The supervisor: spawns worker processes over the shard grid and
//! keeps them honest.
//!
//! Each shard runs in a child process that speaks the [`crate::protocol`]
//! line protocol on stdout. A worker is told only its shard's index in
//! the grid; it rebuilds the grid from the same flags and echoes the
//! shard's key in its `start` line, and an attempt whose key differs from
//! the supervisor's fails. The supervisor tracks a last-seen wall clock
//! per worker (every stdout line is a heartbeat), SIGKILLs workers that
//! go quiet past the shard timeout, retries failed or killed shards with
//! exponential backoff, and passes `--resume-ckpt` when a checkpoint
//! from an earlier attempt survives. A shard that exhausts its retry
//! budget is **quarantined** — it still appears in the merged report,
//! marked as such, and marks the report partial. No shard is ever
//! silently dropped.
//!
//! Wall-clock use is deliberate and confined to this crate: timeouts and
//! backoff are supervision concerns, not simulation concerns, and the
//! merged report carries no timing (see `merge`) so determinism is
//! unaffected.

use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::grid::ShardSpec;
use crate::merge::{MergeEntry, ShardStatus};
use crate::protocol::{parse_line, WorkerMsg};
use crate::result::{from_result_file, render_quarantined};

// Supervision is the one place this workspace legitimately reads the
// wall clock; clippy.toml bans it everywhere by default.
#[allow(clippy::disallowed_methods)]
fn wall_now() -> Instant {
    Instant::now()
}

/// How to launch one worker. The supervisor appends the per-shard args
/// from [`shard_args`] after `base_args`.
#[derive(Debug, Clone)]
pub struct WorkerPlan {
    /// Executable to spawn (normally the `eards` binary itself).
    pub program: PathBuf,
    /// Leading arguments, e.g. `["sweep-worker", "--hosts", "20", …]`.
    pub base_args: Vec<String>,
}

/// Per-shard arguments appended to [`WorkerPlan::base_args`], in a fixed
/// order: `--shard-index I --workdir DIR [--resume-ckpt PATH]`.
pub fn shard_args(spec: &ShardSpec, workdir: &Path, resume_ckpt: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--shard-index".to_string(),
        spec.index.to_string(),
        "--workdir".to_string(),
        workdir.display().to_string(),
    ];
    if let Some(ckpt) = resume_ckpt {
        args.push("--resume-ckpt".to_string());
        args.push(ckpt.display().to_string());
    }
    args
}

/// Supervision policy for one farm run.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Maximum concurrently running workers (clamped to ≥ 1).
    pub jobs: usize,
    /// A worker printing nothing for this long is declared hung and
    /// SIGKILLed.
    pub shard_timeout: Duration,
    /// Attempts per shard before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base * 2^(n-1)`, capped.
    pub backoff_base: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
    /// Scratch directory; each shard gets `workdir/<key>/`.
    pub workdir: PathBuf,
    /// Fault-injection hook for tests/CI: shard keys whose **first**
    /// attempt is SIGKILLed by the supervisor itself…
    pub inject_kill: Vec<String>,
    /// …once the worker reports at least this much simulated progress
    /// (so a checkpoint exists to resume from).
    pub inject_kill_after_ms: u64,
}

impl FarmConfig {
    /// A config with everything but the workdir defaulted.
    pub fn new(workdir: PathBuf) -> Self {
        FarmConfig {
            jobs: 1,
            shard_timeout: Duration::from_secs(300),
            max_attempts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            workdir,
            inject_kill: Vec::new(),
            inject_kill_after_ms: 0,
        }
    }
}

/// Terminal record of one shard after supervision.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard's contribution to the merged report: its grid cell,
    /// status and rendered rows (worker output, or a quarantine marker).
    pub entry: MergeEntry,
    /// Attempts consumed (≥ 1).
    pub attempts: u32,
    /// True if any attempt resumed from a checkpoint.
    pub resumed: bool,
    /// True if the supervisor's fault-injection hook killed an attempt.
    pub injected_kill: bool,
    /// One entry per failed attempt, in order.
    pub errors: Vec<String>,
}

/// Live view of one worker, updated by its stdout-reader thread.
struct View {
    last_seen: Instant,
    /// The shard key of the worker's `start` line.
    start_key: Option<String>,
    progress_ms: u64,
    result_path: Option<String>,
    warns: Vec<String>,
}

struct Attempt {
    spec: ShardSpec,
    /// Attempts already failed (0 on the first try).
    failures: u32,
    not_before: Instant,
    errors: Vec<String>,
    resumed: bool,
    injected_kill: bool,
}

impl Attempt {
    /// This attempt, failed with `error`.
    fn failed(mut self, error: String) -> Self {
        self.errors.push(error);
        self.failures += 1;
        self
    }
}

struct Running {
    attempt: Attempt,
    child: Child,
    view: Arc<Mutex<View>>,
    reader: JoinHandle<()>,
    started: Instant,
}

/// Path of a shard's checkpoint: the worker writes it, the supervisor
/// only probes for it.
pub fn ckpt_path(workdir: &Path, spec: &ShardSpec) -> PathBuf {
    workdir.join(spec.key()).join("ckpt.bin")
}

fn spawn_worker(plan: &WorkerPlan, cfg: &FarmConfig, attempt: Attempt) -> Result<Running, Attempt> {
    let dir = cfg.workdir.join(attempt.spec.key());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Err(attempt.failed(format!("create {}: {e}", dir.display())));
    }
    let ckpt = ckpt_path(&cfg.workdir, &attempt.spec);
    let resume = ckpt.is_file().then_some(ckpt.as_path());
    let stderr_path = dir.join(format!("attempt_{}.stderr", attempt.failures + 1));
    let stderr = match std::fs::File::create(&stderr_path) {
        Ok(f) => f,
        Err(e) => return Err(attempt.failed(format!("create {}: {e}", stderr_path.display()))),
    };
    let mut cmd = Command::new(&plan.program);
    cmd.args(&plan.base_args)
        .args(shard_args(&attempt.spec, &cfg.workdir, resume))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr));
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return Err(attempt.failed(format!("spawn {}: {e}", plan.program.display()))),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let view = Arc::new(Mutex::new(View {
        last_seen: wall_now(),
        start_key: None,
        progress_ms: 0,
        result_path: None,
        warns: Vec::new(),
    }));
    let view_w = Arc::clone(&view);
    let reader = std::thread::spawn(move || {
        let buf = std::io::BufReader::new(stdout);
        for line in buf.lines() {
            let Ok(line) = line else { break };
            let mut v = view_w.lock().unwrap();
            v.last_seen = wall_now();
            match parse_line(&line) {
                Some(WorkerMsg::Progress { sim_ms }) => v.progress_ms = sim_ms,
                Some(WorkerMsg::Result { path }) => v.result_path = Some(path),
                Some(WorkerMsg::Warn { msg }) => v.warns.push(msg),
                Some(WorkerMsg::Start { key }) => v.start_key = Some(key),
                Some(WorkerMsg::Checkpoint { .. }) | None => {}
            }
        }
    });
    let resumed = attempt.resumed || resume.is_some();
    Ok(Running {
        attempt: Attempt { resumed, ..attempt },
        child,
        view,
        reader,
        started: wall_now(),
    })
}

/// Collects a finished child into either a success or a failed attempt.
fn reap(run: Running, exit: std::process::ExitStatus) -> Result<ShardOutcome, Attempt> {
    let _ = run.reader.join();
    let view = run.view.lock().unwrap();
    let warns: Vec<String> = view.warns.clone();
    let key = run.attempt.spec.key();
    let result = if exit.success() {
        match (&view.start_key, &view.result_path) {
            (Some(started), _) if *started != key => Err(format!(
                "worker ran shard {started} for index {}, expected {key}",
                run.attempt.spec.index
            )),
            (None, _) => Err("worker exited 0 without a start line".to_string()),
            (Some(_), Some(path)) => std::fs::read_to_string(path)
                .map_err(|e| format!("read result {path}: {e}"))
                .and_then(|text| from_result_file(&text)),
            (Some(_), None) => Err("worker exited 0 without a result line".to_string()),
        }
    } else {
        Err(format!("worker exited with {exit}"))
    };
    drop(view);
    match result {
        Ok(rendered) => Ok(ShardOutcome {
            entry: MergeEntry {
                spec: run.attempt.spec,
                status: ShardStatus::Ok,
                rendered,
            },
            attempts: run.attempt.failures + 1,
            resumed: run.attempt.resumed,
            injected_kill: run.attempt.injected_kill,
            errors: run.attempt.errors,
        }),
        Err(mut e) => {
            if !warns.is_empty() {
                e = format!("{e} (warns: {})", warns.join("; "));
            }
            Err(run.attempt.failed(e))
        }
    }
}

fn backoff(cfg: &FarmConfig, failures: u32) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    cfg.backoff_base
        .saturating_mul(1u32 << exp)
        .min(cfg.backoff_cap)
}

/// Runs the farm to completion. Returns one outcome per shard, in grid
/// order. `log` receives human-readable supervision events (retries,
/// kills, quarantines); pass a sink to silence them.
pub fn run_farm(
    shards: Vec<ShardSpec>,
    plan: &WorkerPlan,
    cfg: &FarmConfig,
    log: &mut dyn FnMut(&str),
) -> Result<Vec<ShardOutcome>, String> {
    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| format!("create {}: {e}", cfg.workdir.display()))?;
    let jobs = cfg.jobs.max(1);
    let max_attempts = cfg.max_attempts.max(1);
    let total = shards.len();
    let mut queue: VecDeque<Attempt> = shards
        .into_iter()
        .map(|spec| Attempt {
            spec,
            failures: 0,
            not_before: wall_now(),
            errors: Vec::new(),
            resumed: false,
            injected_kill: false,
        })
        .collect();
    let mut running: Vec<Running> = Vec::new();
    let mut done: Vec<ShardOutcome> = Vec::new();

    // One attempt failed (exit/kill/spawn error); retry or quarantine.
    let requeue = |mut attempt: Attempt,
                   queue: &mut VecDeque<Attempt>,
                   done: &mut Vec<ShardOutcome>,
                   log: &mut dyn FnMut(&str)| {
        let key = attempt.spec.key();
        let last = attempt.errors.last().cloned().unwrap_or_default();
        if attempt.failures >= max_attempts {
            log(&format!(
                "shard {key}: quarantined after {} attempts ({last})",
                attempt.failures
            ));
            done.push(ShardOutcome {
                entry: MergeEntry {
                    rendered: render_quarantined(&attempt.spec, attempt.failures, &last),
                    spec: attempt.spec,
                    status: ShardStatus::Quarantined,
                },
                attempts: attempt.failures,
                resumed: attempt.resumed,
                injected_kill: attempt.injected_kill,
                errors: attempt.errors,
            });
        } else {
            let delay = backoff(cfg, attempt.failures);
            log(&format!(
                "shard {key}: attempt {} failed ({last}); retrying in {delay:?}",
                attempt.failures
            ));
            attempt.not_before = wall_now() + delay;
            queue.push_back(attempt);
        }
    };

    while done.len() < total {
        // Fill free slots with runnable attempts (respecting backoff).
        while running.len() < jobs {
            let now = wall_now();
            let Some(pos) = queue.iter().position(|a| a.not_before <= now) else {
                break;
            };
            let attempt = queue.remove(pos).expect("position was valid");
            match spawn_worker(plan, cfg, attempt) {
                Ok(run) => running.push(run),
                Err(attempt) => requeue(attempt, &mut queue, &mut done, log),
            }
        }

        // Poll running workers.
        let mut idx = 0;
        while idx < running.len() {
            let run = &mut running[idx];
            let key = run.attempt.spec.key();

            // Fault-injection hook: SIGKILL the first attempt of the
            // targeted shards once they have made enough progress to
            // have checkpointed.
            if run.attempt.failures == 0
                && !run.attempt.injected_kill
                && cfg.inject_kill.contains(&key)
                && run.view.lock().unwrap().progress_ms >= cfg.inject_kill_after_ms
            {
                run.attempt.injected_kill = true;
                log(&format!("shard {key}: injecting SIGKILL (test hook)"));
                let _ = run.child.kill();
            }

            // Heartbeat: any stdout line refreshes last_seen; silence
            // past the timeout means the worker is hung.
            let quiet = {
                let v = run.view.lock().unwrap();
                v.last_seen.max(run.started).elapsed()
            };
            if quiet > cfg.shard_timeout {
                log(&format!(
                    "shard {key}: no heartbeat for {quiet:?} (timeout {:?}); killing",
                    cfg.shard_timeout
                ));
                let _ = run.child.kill();
                if let Err(e) = run.child.wait() {
                    return Err(format!("wait on hung worker {key}: {e}"));
                }
                let run = running.swap_remove(idx);
                let _ = run.reader.join();
                let attempt = run
                    .attempt
                    .failed(format!("heartbeat timeout after {quiet:?}"));
                requeue(attempt, &mut queue, &mut done, log);
                continue;
            }

            match run.child.try_wait() {
                Ok(Some(exit)) => {
                    let run = running.swap_remove(idx);
                    match reap(run, exit) {
                        Ok(outcome) => done.push(outcome),
                        Err(attempt) => requeue(attempt, &mut queue, &mut done, log),
                    }
                    continue;
                }
                Ok(None) => {}
                Err(e) => return Err(format!("wait on worker {key}: {e}")),
            }
            idx += 1;
        }

        if done.len() < total {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    done.sort_by_key(|o| o.entry.spec.index);
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use crate::merge::merge;

    /// Builds a plan that runs a shell script as the worker of `shards`.
    /// The script sees the shards' keys in grid order as `$0` and the
    /// per-shard args as `$1..`: `--shard-index I --workdir DIR
    /// [--resume-ckpt PATH]`. It starts with `DIR` and the shard's `KEY`
    /// set, as a real worker rebuilds the key from its index.
    fn sh_plan(script: &str, shards: &[ShardSpec]) -> WorkerPlan {
        let keys: Vec<String> = shards.iter().map(ShardSpec::key).collect();
        WorkerPlan {
            program: PathBuf::from("/bin/sh"),
            base_args: vec![
                "-c".into(),
                format!("DIR=$4; KEY=$(echo $0 | cut -d' ' -f$(($2 + 1)))\n{script}"),
                keys.join(" "),
            ],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eards-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn one_shard_grid() -> Vec<ShardSpec> {
        SweepGrid {
            seeds: vec![7],
            policies: vec!["sb".into()],
            chaos: vec![0.0],
            lambdas: vec![(30, 90)],
        }
        .shards()
    }

    const OK_BODY: &str = r#"
mkdir -p "$DIR/$KEY"
echo "SWEEP start $KEY"
printf '%s\n%s\n' "$KEY,7,sb,0,30,90,ok,1,2,3,4,5,6,7,8,9" "{\"shard\":\"$KEY\"}" > "$DIR/$KEY/result.txt"
echo "SWEEP result $DIR/$KEY/result.txt"
"#;

    fn quiet_cfg(workdir: PathBuf) -> FarmConfig {
        let mut cfg = FarmConfig::new(workdir);
        cfg.shard_timeout = Duration::from_secs(30);
        cfg.backoff_base = Duration::from_millis(5);
        cfg
    }

    #[test]
    fn healthy_workers_complete_in_grid_order() {
        let dir = tmpdir("ok");
        let shards = SweepGrid {
            seeds: vec![1, 2, 3],
            policies: vec!["sb".into()],
            chaos: vec![0.0],
            lambdas: vec![(30, 90)],
        }
        .shards();
        let mut cfg = quiet_cfg(dir);
        cfg.jobs = 3;
        let plan = sh_plan(OK_BODY, &shards);
        let outcomes = run_farm(shards, &plan, &cfg, &mut |_| {}).unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.entry.spec.index, i);
            assert_eq!(o.entry.status, ShardStatus::Ok);
            assert_eq!(o.attempts, 1);
            assert!(!o.resumed);
        }
        let merged = merge(
            outcomes.iter().map(|o| o.entry.clone()).collect(),
            outcomes.len(),
        )
        .unwrap();
        assert_eq!(merged.quarantined, 0);
    }

    #[test]
    fn crash_is_retried_with_resume_from_checkpoint() {
        let dir = tmpdir("crash");
        // First attempt writes a checkpoint and dies; the retry must be
        // handed --resume-ckpt (arg 5) and then succeeds.
        let body = r#"
RESUME=${5:-none}
mkdir -p "$DIR/$KEY"
echo "SWEEP start $KEY"
if [ ! -f "$DIR/$KEY/ckpt.bin" ]; then
  echo ckpt > "$DIR/$KEY/ckpt.bin"
  echo "SWEEP ckpt $DIR/$KEY/ckpt.bin"
  exit 3
fi
[ "$RESUME" = "--resume-ckpt" ] || { echo "no resume flag" >&2; exit 4; }
printf '%s\n%s\n' "$KEY,7,sb,0,30,90,ok,1,2,3,4,5,6,7,8,9" "{\"shard\":\"$KEY\"}" > "$DIR/$KEY/result.txt"
echo "SWEEP result $DIR/$KEY/result.txt"
"#;
        let mut events = Vec::new();
        let outcomes = run_farm(
            one_shard_grid(),
            &sh_plan(body, &one_shard_grid()),
            &quiet_cfg(dir),
            &mut |e| events.push(e.to_string()),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert_eq!(o.entry.status, ShardStatus::Ok);
        assert_eq!(o.attempts, 2);
        assert!(o.resumed, "retry should resume from the checkpoint");
        assert_eq!(o.errors.len(), 1);
        assert!(events.iter().any(|e| e.contains("retrying")), "{events:?}");
    }

    #[test]
    fn persistent_failure_is_quarantined_not_dropped() {
        let dir = tmpdir("quarantine");
        let mut cfg = quiet_cfg(dir);
        cfg.max_attempts = 2;
        let outcomes = run_farm(
            one_shard_grid(),
            &sh_plan("echo \"SWEEP start $KEY\"; exit 9", &one_shard_grid()),
            &cfg,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].entry.status, ShardStatus::Quarantined);
        assert_eq!(outcomes[0].attempts, 2);
        let merged = merge(
            outcomes.iter().map(|o| o.entry.clone()).collect(),
            outcomes.len(),
        )
        .unwrap();
        assert_eq!(merged.quarantined, 1);
        assert!(merged.csv.contains(",quarantined,"));
    }

    #[test]
    fn hung_worker_is_killed_on_heartbeat_timeout() {
        let dir = tmpdir("hang");
        let mut cfg = quiet_cfg(dir);
        cfg.shard_timeout = Duration::from_millis(300);
        cfg.max_attempts = 1;
        // `exec` replaces the shell so the SIGKILL lands on the sleeper.
        let outcomes = run_farm(
            one_shard_grid(),
            &sh_plan(
                "echo \"SWEEP start $KEY\"; exec sleep 60",
                &one_shard_grid(),
            ),
            &cfg,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(outcomes[0].entry.status, ShardStatus::Quarantined);
        assert!(outcomes[0].errors[0].contains("heartbeat timeout"));
    }

    #[test]
    fn injected_kill_forces_a_retry() {
        let dir = tmpdir("inject");
        let shards = one_shard_grid();
        let mut cfg = quiet_cfg(dir);
        cfg.inject_kill = vec![shards[0].key()];
        cfg.inject_kill_after_ms = 1000;
        // First attempt reports progress then lingers so the supervisor
        // can kill it; the retry (ckpt present) completes immediately.
        let body = r#"
mkdir -p "$DIR/$KEY"
echo "SWEEP start $KEY"
if [ ! -f "$DIR/$KEY/ckpt.bin" ]; then
  echo ckpt > "$DIR/$KEY/ckpt.bin"
  echo "SWEEP ckpt $DIR/$KEY/ckpt.bin"
  echo "SWEEP progress 3600000"
  exec sleep 60
fi
printf '%s\n%s\n' "$KEY,7,sb,0,30,90,ok,1,2,3,4,5,6,7,8,9" "{\"shard\":\"$KEY\"}" > "$DIR/$KEY/result.txt"
echo "SWEEP result $DIR/$KEY/result.txt"
"#;
        let plan = sh_plan(body, &shards);
        let outcomes = run_farm(shards, &plan, &cfg, &mut |_| {}).unwrap();
        let o = &outcomes[0];
        assert_eq!(o.entry.status, ShardStatus::Ok);
        assert!(o.injected_kill);
        assert_eq!(o.attempts, 2);
        assert!(o.resumed);
    }

    #[test]
    fn worker_that_rebuilds_another_shard_fails_the_attempt() {
        let dir = tmpdir("mismatch");
        let mut cfg = quiet_cfg(dir);
        cfg.max_attempts = 1;
        let body = format!("KEY=s9-sb-x0-l30-90\n{OK_BODY}");
        let outcomes = run_farm(
            one_shard_grid(),
            &sh_plan(&body, &one_shard_grid()),
            &cfg,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(outcomes[0].entry.status, ShardStatus::Quarantined);
        assert!(
            outcomes[0].errors[0]
                .contains("ran shard s9-sb-x0-l30-90 for index 0, expected s7-sb-x0-l30-90"),
            "{:?}",
            outcomes[0].errors
        );
    }

    #[test]
    fn unspawnable_program_quarantines_every_shard() {
        let dir = tmpdir("nospawn");
        let plan = WorkerPlan {
            program: PathBuf::from("/nonexistent/eards-worker"),
            base_args: vec![],
        };
        let mut cfg = quiet_cfg(dir);
        cfg.max_attempts = 2;
        let outcomes = run_farm(one_shard_grid(), &plan, &cfg, &mut |_| {}).unwrap();
        assert_eq!(outcomes[0].entry.status, ShardStatus::Quarantined);
        assert_eq!(outcomes[0].attempts, 2);
        assert!(outcomes[0].errors[0].contains("spawn"));
    }
}
