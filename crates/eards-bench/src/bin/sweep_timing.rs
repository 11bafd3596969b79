//! Times the sweep farm against its own serial reference and writes
//! `BENCH_sweep.json` at the workspace root.
//!
//! The farm's whole value proposition is "same bytes, less wall clock":
//! a parallel `eards sweep --jobs 4` must produce a merged report
//! byte-identical to `--serial` (hard failure otherwise, budget or not)
//! and, on a machine with at least [`MIN_CORES`] cores, at least
//! [`SPEEDUP_FLOOR`]× faster over an 8-shard grid. On smaller machines
//! the identity check still runs but the speedup gate is reported
//! ungated — single-core CI containers can't demonstrate parallelism.
//!
//! Unlike the other bench bins this one drives the real `eards` binary
//! (the farm is a multi-process design; there is nothing meaningful to
//! time in-process). The binary is found via `$EARDS_BIN` or next to the
//! workspace's target directory — build it first with
//! `cargo build --release -p eards-cli`.

use std::path::{Path, PathBuf};
use std::process::Command;

use eards_bench::common::write_baseline;
use eards_bench::timing::best_of;

/// Grid: 8 seeds × 1 policy × 1 chaos = 8 shards.
const SEEDS: &str = "1,2,3,4,5,6,7,8";
const WORLD: &str = "--hosts 20 --hours 96 --seeds";

/// Required speedup of `--jobs 4` over `--serial`.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Cores needed before the speedup floor is enforced.
const MIN_CORES: usize = 4;

fn eards_bin() -> PathBuf {
    if let Ok(p) = std::env::var("EARDS_BIN") {
        return PathBuf::from(p);
    }
    // Sibling of this bench binary in the same target profile dir.
    let mut p = std::env::current_exe().expect("current_exe");
    p.set_file_name("eards");
    if p.is_file() {
        return p;
    }
    panic!(
        "eards binary not found at {} — build it first (cargo build -p eards-cli) \
         or point $EARDS_BIN at it",
        p.display()
    );
}

fn timed_sweep(bin: &Path, out_dir: &Path, mode: &[&str]) -> f64 {
    let (secs, status) = best_of(
        1,
        || (),
        |()| {
            Command::new(bin)
                .arg("sweep")
                .args(WORLD.split_whitespace())
                .arg(SEEDS)
                .args(["--sweep-out", &out_dir.display().to_string()])
                .args(mode)
                .status()
                .expect("spawn eards sweep")
        },
    );
    assert!(status.success(), "eards sweep {mode:?} failed");
    secs * 1e3
}

fn main() -> std::io::Result<()> {
    let bin = eards_bin();
    let root = std::env::temp_dir().join(format!("eards-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let serial_dir = root.join("serial");
    let farm_dir = root.join("farm");

    let serial_ms = timed_sweep(&bin, &serial_dir, &["--serial"]);
    let jobs4_ms = timed_sweep(&bin, &farm_dir, &["--jobs", "4"]);

    // Identity first: a fast farm that changes the bytes is worthless.
    for name in ["report.csv", "report.jsonl"] {
        let a = std::fs::read(serial_dir.join(name)).expect("serial report");
        let b = std::fs::read(farm_dir.join(name)).expect("farm report");
        assert_eq!(
            a, b,
            "{name}: --jobs 4 output differs from --serial — determinism broken"
        );
    }
    let _ = std::fs::remove_dir_all(&root);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = serial_ms / jobs4_ms;
    let gated = cores >= MIN_CORES;
    let within = !gated || speedup >= SPEEDUP_FLOOR;

    let shards = SEEDS.split(',').count();
    let json = format!(
        "{{\"shards\":{shards},\"serial_ms\":{serial_ms:.1},\"jobs4_ms\":{jobs4_ms:.1},\
         \"speedup\":{speedup:.2},\"cores\":{cores},\"floor\":{SPEEDUP_FLOOR},\
         \"gated\":{gated},\"within_budget\":{within}}}\n"
    );
    write_baseline("BENCH_sweep.json", &json)?;
    eprintln!(
        "{shards} shards: serial {serial_ms:.0} ms, --jobs 4 {jobs4_ms:.0} ms \
         ({speedup:.2}x, floor {SPEEDUP_FLOOR}x, {cores} cores, gate {})",
        if gated {
            "enforced"
        } else {
            "skipped: <4 cores"
        }
    );
    if !within {
        eprintln!("!! sweep farm speedup below floor");
        std::process::exit(1);
    }
    Ok(())
}
