//! End-to-end sweep-farm tests against the real `eards` binary: the
//! supervised multi-process farm must survive an injected SIGKILL
//! mid-shard (retrying from the last checkpoint) and still produce a
//! merged report **byte-identical** to the in-process runs, serial and
//! parallel; hung workers must be quarantined, not dropped; a worker
//! told a shard index outside the grid must exit with a usage error; and
//! a corrupt checkpoint handed to `eards resume` must exit with the
//! dedicated code 3.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_eards");

fn eards(args: &str) -> Output {
    Command::new(BIN)
        .args(args.split_whitespace())
        .output()
        .expect("spawn eards")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eards-sweepfarm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The acceptance scenario: an 8-shard grid run with `--jobs 2` while
/// the supervisor SIGKILLs one shard's first attempt mid-run. The retry
/// resumes from the shard's last checkpoint, and the merged report is
/// byte-identical to the in-process runs of the same grid, serial and
/// one thread per core — completion order, the kill, and the resume
/// leave no trace in the output bytes.
#[test]
fn injected_sigkill_retries_from_checkpoint_and_merge_is_bit_identical() {
    let serial_dir = tmpdir("serial");
    let parallel_dir = tmpdir("parallel");
    let farm_dir = tmpdir("farm");
    let world = "--hosts 6 --hours 6 --trace-seed 3 --seeds 3,4 --policies sb --chaos-grid 0,1 \
                 --lambda-min-grid 30,50";

    for (mode, dir) in [("--serial", &serial_dir), ("", &parallel_dir)] {
        let run = eards(&format!(
            "sweep {world} {mode} --sweep-out {}",
            dir.display()
        ));
        assert!(
            run.status.success(),
            "in-process sweep {mode:?} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }

    let farm = eards(&format!(
        "sweep {world} --jobs 2 --sweep-out {} --ckpt-every-hours 1 \
         --inject-kill s3-sb-x1-l30-90 --kill-after-hours 2 --dawdle-ms 5 \
         --shard-timeout-secs 120 --max-retries 2",
        farm_dir.display()
    ));
    let stdout = String::from_utf8_lossy(&farm.stdout);
    let stderr = String::from_utf8_lossy(&farm.stderr);
    assert!(
        farm.status.success(),
        "farm sweep failed:\n{stdout}\n{stderr}"
    );

    // The kill actually happened and the shard came back.
    assert!(
        stderr.contains("injecting SIGKILL"),
        "expected the injected kill in supervision events:\n{stderr}"
    );
    assert!(
        stdout.contains("retried: 1 shard(s)"),
        "expected exactly one retried shard:\n{stdout}"
    );
    assert!(
        stdout.contains("resumed: 1 shard(s)"),
        "expected the retry to resume from a checkpoint:\n{stdout}"
    );
    assert!(stdout.contains("ok: 8, quarantined: 0"), "{stdout}");

    // The headline guarantee: merged bytes identical to the serial run.
    for name in ["report.csv", "report.jsonl"] {
        let serial = read(&serial_dir.join(name));
        assert_eq!(serial.lines().count(), 9, "{serial}");
        for dir in [&parallel_dir, &farm_dir] {
            assert_eq!(
                serial,
                read(&dir.join(name)),
                "{} diverged from serial",
                dir.join(name).display()
            );
        }
    }

    for dir in [&serial_dir, &parallel_dir, &farm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A worker that stops heartbeating is killed on the shard timeout and,
/// with the retry budget exhausted, quarantined: it still appears in the
/// merged report (status=quarantined) and flips the partial flag. The
/// healthy shard of the grid is unaffected.
#[test]
fn hung_worker_is_quarantined_and_report_is_partial() {
    let dir = tmpdir("hang");
    let out = eards(&format!(
        "sweep --hosts 4 --hours 3 --seeds 5,6 --policies sb --jobs 2 \
         --sweep-out {} --inject-hang s5-sb-x0-l30-90 --hang-after-hours 1 \
         --shard-timeout-secs 1 --max-retries 0",
        dir.display()
    ));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("QUARANTINED"), "{stdout}");
    assert!(stdout.contains("report is PARTIAL"), "{stdout}");
    assert!(stderr.contains("no heartbeat"), "{stderr}");

    let csv = read(&dir.join("report.csv"));
    assert_eq!(csv.lines().count(), 3, "both shards present:\n{csv}");
    assert!(
        csv.contains("s5-sb-x0-l30-90,5,sb,0,30,90,quarantined,"),
        "{csv}"
    );
    assert!(csv.contains("s6-sb-x0-l30-90,6,sb,0,30,90,ok,"), "{csv}");
    let jsonl = read(&dir.join("report.jsonl"));
    assert!(
        jsonl.starts_with(
            "{\"kind\":\"sweep_report\",\"shards\":2,\"ok\":1,\"quarantined\":1,\"partial\":true}"
        ),
        "{jsonl}"
    );
    assert!(jsonl.contains("\"status\":\"quarantined\""), "{jsonl}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint period must be above 0 hours and the kill and hang
/// hooks at 0 hours or later, all finite: a bad value is a usage error
/// (exit 2) before any worker spawns. A zero period once sent every
/// worker into an endless checkpoint loop that only the heartbeat
/// timeout ended.
#[test]
fn bad_hour_flags_exit_2_before_any_worker_spawns() {
    let dir = tmpdir("hours");
    let cases = [
        ("ckpt-every-hours", "0"),
        ("ckpt-every-hours", "-1"),
        ("ckpt-every-hours", "nan"),
        ("kill-after-hours", "-1"),
        ("kill-after-hours", "nan"),
        ("hang-after-hours", "-1"),
        ("hang-after-hours", "nan"),
    ];
    for (flag, value) in cases {
        let mut child = Command::new(BIN)
            .args(["sweep", "--hosts", "4", "--hours", "2", "--jobs", "1"])
            .args(["--sweep-out", &dir.display().to_string()])
            .args([format!("--{flag}"), value.to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn eards");
        // Poll for at most a minute (3 000 × 20 ms).
        let mut polls = 0;
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            polls += 1;
            if polls > 3_000 {
                let _ = child.kill();
                panic!("--{flag} {value} still running after a minute");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut err = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut err).unwrap();
        assert_eq!(status.code(), Some(2), "--{flag} {value}: {err}");
        assert!(err.contains(&format!("--{flag}")), "{err}");
        assert!(
            !dir.join("work").exists(),
            "--{flag} {value} spawned a worker"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker rebuilds the grid from the sweep's flags and is told only
/// its shard's index; an index outside that grid is an invocation error
/// (exit 2), not a shard of some other grid.
#[test]
fn out_of_range_shard_index_is_a_usage_error() {
    let dir = tmpdir("index");
    let out = eards(&format!(
        "sweep-worker --hosts 4 --hours 1 --seeds 1,2 --shard-index 2 --workdir {}",
        dir.display()
    ));
    assert_eq!(out.status.code(), Some(2), "index 2 of a 2-shard grid");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--shard-index 2 is outside the 2-shard grid"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--shard-metrics` produces a merged metrics.json that passes the
/// exporter's own schema check.
#[test]
fn shard_metrics_roll_up_across_the_farm() {
    let dir = tmpdir("metrics");
    let out = eards(&format!(
        "sweep --hosts 4 --hours 2 --seeds 7,8 --policies sb --jobs 2 \
         --shard-metrics --sweep-out {}",
        dir.display()
    ));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let merged = dir.join("metrics.json");
    assert!(merged.is_file(), "rollup written");
    let check = eards(&format!("trace check --metrics {}", merged.display()));
    assert!(
        check.status.success(),
        "merged metrics failed the schema check: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt checkpoint files get the dedicated exit code 3 (not the
/// generic invocation-error 2) and a one-line error, whether the file is
/// garbage from byte zero or a truncated real checkpoint.
#[test]
fn corrupt_checkpoint_resume_exits_3() {
    let dir = tmpdir("corrupt");

    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, b"EARDSNAP\x7fnot really").unwrap();
    let out = eards(&format!("resume {}", garbage.display()));
    assert_eq!(out.status.code(), Some(3), "garbage file");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line error, got:\n{err}");
    assert!(err.starts_with("error: "), "{err}");

    // A real checkpoint, truncated: same contract.
    let ckdir = dir.join("ckpts");
    let run = eards(&format!(
        "run --hosts 4 --hours 3 --checkpoint-every 1 --checkpoint-out {}",
        ckdir.display()
    ));
    assert!(run.status.success());
    let ckpt = std::fs::read_dir(&ckdir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let bytes = std::fs::read(&ckpt).unwrap();
    let truncated = dir.join("truncated.bin");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let out = eards(&format!("resume {}", truncated.display()));
    assert_eq!(out.status.code(), Some(3), "truncated checkpoint");

    // Invocation errors keep exit 2 — the codes stay distinguishable.
    let out = eards("resume");
    assert_eq!(out.status.code(), Some(2), "missing operand");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written under snapshot version 5 (finished VMs as full
/// records) is refused with the dedicated exit code 3 and a one-line
/// error naming the version, not misread.
#[test]
fn version_5_checkpoint_resume_exits_3() {
    let dir = tmpdir("v5");
    let ckdir = dir.join("ckpts");
    let run = eards(&format!(
        "run --hosts 4 --hours 3 --checkpoint-every 1 --checkpoint-out {}",
        ckdir.display()
    ));
    assert!(run.status.success());
    let ckpt = std::fs::read_dir(&ckdir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&ckpt).unwrap();
    // The file's own header and the runner snapshot's both carry the
    // version byte after the magic.
    let headers: Vec<usize> = bytes
        .windows(8)
        .enumerate()
        .filter(|(_, w)| w == b"EARDSNAP")
        .map(|(at, _)| at)
        .collect();
    assert_eq!(headers.len(), 2, "file header and snapshot header");
    for at in headers {
        assert_eq!(bytes[at + 8], 6, "written as version 6");
        bytes[at + 8] = 5;
    }
    let v5 = dir.join("v5.bin");
    std::fs::write(&v5, &bytes).unwrap();
    let out = eards(&format!("resume {}", v5.display()));
    assert_eq!(out.status.code(), Some(3), "version 5 checkpoint");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line error, got:\n{err}");
    assert!(err.contains("unsupported snapshot version 5"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
