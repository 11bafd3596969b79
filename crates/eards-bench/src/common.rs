//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has one experiment
//! function in this crate returning an [`ExperimentResult`]; the thin
//! binaries print it and `run_all` stitches all of them into
//! `EXPERIMENTS.md`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use eards_core::{Eval, EvalBuffers, ScoreConfig, ScoreScheduler};
use eards_datacenter::{RunConfig, SweepPoint};
use eards_metrics::Table;
use eards_model::{
    Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, Policy, PowerState, VmId,
};
use eards_policies::{BackfillingPolicy, DynamicBackfillingPolicy, RandomPolicy, RoundRobinPolicy};
use eards_sim::{SimDuration, SimRng, SimTime};
use eards_workload::{generate, SynthConfig, Trace};

/// Seed of the canonical week-long trace used by all table experiments
/// (fixed so every experiment sees the same workload, like the paper's
/// single Grid5000 week).
pub const TRACE_SEED: u64 = 7;

/// The canonical week-long Grid5000-like trace.
pub fn paper_trace() -> Trace {
    generate(&SynthConfig::grid5000_week(), TRACE_SEED)
}

/// Policy constructors by table row name.
pub fn make_policy(name: &str) -> Box<dyn Policy> {
    match name {
        "RD" => Box::new(RandomPolicy::new(1)),
        "RR" => Box::new(RoundRobinPolicy::new()),
        "BF" => Box::new(BackfillingPolicy::new()),
        "DBF" => Box::new(DynamicBackfillingPolicy::new()),
        "SB0" => Box::new(ScoreScheduler::new(ScoreConfig::sb0())),
        "SB1" => Box::new(ScoreScheduler::new(ScoreConfig::sb1())),
        "SB2" => Box::new(ScoreScheduler::new(ScoreConfig::sb2())),
        "SB" => Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        other => panic!("unknown policy name {other:?}"),
    }
}

/// A run of the default configuration at λ `lo`–`hi` under the table row
/// `name` (see [`make_policy`]), labelled `label`.
pub(crate) fn point(label: String, name: &'static str, lo: u32, hi: u32) -> SweepPoint {
    SweepPoint {
        label,
        config: RunConfig::default().with_lambdas(lo, hi),
        policy: Box::new(move || make_policy(name)),
    }
}

/// The verdict a shape check prints after its note.
pub(crate) fn verdict(holds: bool) -> &'static str {
    if holds {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}

/// The outcome of one experiment: captioned tables plus prose notes.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Identifier used for file names (e.g. `table2_static`).
    pub id: String,
    /// Human title (e.g. `Table II — static allocation`).
    pub title: String,
    /// What the paper reported, quoted for side-by-side comparison.
    pub paper_reference: String,
    /// Captioned result tables.
    pub tables: Vec<(String, Table)>,
    /// Observations, including the shape checks that hold/fail.
    pub notes: Vec<String>,
    /// Extra machine-readable artifacts `(file name, contents)` — CSV
    /// series for plotting, etc.
    pub artifacts: Vec<(String, String)>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &str, title: &str, paper_reference: &str) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            paper_reference: paper_reference.into(),
            tables: Vec::new(),
            notes: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Renders the result as a Markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {}\n\n*Paper:* {}\n\n", self.title, self.paper_reference);
        for (caption, table) in &self.tables {
            out.push_str(&format!("**{caption}**\n\n"));
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("Notes:\n\n");
            for n in &self.notes {
                out.push_str(&format!("* {n}\n"));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the section and its artifacts under `dir` (created if
    /// needed). Returns the list of files written.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let md = dir.join(format!("{}.md", self.id));
        fs::write(&md, self.to_markdown())?;
        written.push(md.display().to_string());
        for (name, contents) in &self.artifacts {
            let p = dir.join(name);
            fs::write(&p, contents)?;
            written.push(p.display().to_string());
        }
        Ok(written)
    }
}

/// A deterministic solver workload: `hosts` Medium nodes, `running`
/// placed VMs of mixed 100/200-point sizes and `queued` 100-point VMs.
/// Shared by the solver microbenches (`benches/solver.rs`) and the
/// solver-timing experiment so both measure the exact same matrix.
pub fn solver_case(hosts: u32, running: u64, queued: u64) -> (Cluster, Vec<VmId>) {
    let mut rng = SimRng::seed_from_u64(1);
    let specs = (0..hosts)
        .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    let mut cols = Vec::new();
    let t0 = SimTime::ZERO;
    let t1 = SimTime::from_secs(40);
    for j in 0..running {
        let cpu = Cpu(100 * (1 + rng.index(2) as u32));
        let vm = cluster.submit_job(Job::new(
            JobId(j),
            t0,
            cpu,
            Mem::gib(1),
            SimDuration::from_secs(7200),
            1.5,
        ));
        let mut placed = false;
        for k in 0..hosts {
            let h = HostId((j as u32 + k) % hosts);
            if cluster.can_place(h, vm) {
                cluster.start_creation(vm, h, t0, t1);
                cluster.finish_creation(vm, t1);
                placed = true;
                break;
            }
        }
        if placed {
            cols.push(vm);
        }
    }
    for j in 0..queued {
        let vm = cluster.submit_job(Job::new(
            JobId(running + j),
            t1,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(3600),
            1.5,
        ));
        cols.push(vm);
    }
    (cluster, cols)
}

/// One arrival round as the paper's consolidated datacenter sees it:
/// `hosts` Medium nodes of which only the first `on` are powered (two
/// running VMs of 100 or 200 points each), the rest off, and `queued`
/// 100-point VMs to place. The columns are the queue alone, as on a
/// round that fires on a VM arrival.
pub fn paper_shape_case(hosts: u32, on: u32, queued: u64) -> (Cluster, Vec<VmId>) {
    let mut rng = SimRng::seed_from_u64(1);
    let specs = (0..hosts)
        .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    let (t0, t1) = (SimTime::ZERO, SimTime::from_secs(40));
    for h in on..hosts {
        cluster.begin_power_off(HostId(h), t0);
        cluster.complete_power_off(HostId(h));
    }
    let mut id = 0u64;
    for h in 0..on {
        for _ in 0..2 {
            let cpu = Cpu(100 * (1 + rng.index(2) as u32));
            let vm = cluster.submit_job(Job::new(
                JobId(id),
                t0,
                cpu,
                Mem::gib(1),
                SimDuration::from_secs(7200),
                1.5,
            ));
            id += 1;
            cluster.start_creation(vm, HostId(h), t0, t1);
            cluster.finish_creation(vm, t1);
        }
    }
    let cols = (0..queued)
        .map(|j| {
            cluster.submit_job(Job::new(
                JobId(id + j),
                t1,
                Cpu(100),
                Mem::gib(1),
                SimDuration::from_secs(3600),
                1.5,
            ))
        })
        .collect();
    (cluster, cols)
}

/// A large-scale solver workload for the sharded engine: `hosts` Medium
/// nodes each directly loaded with `per_host` running 100-point VMs
/// (`per_host` ≤ 4; placements are feasible by construction, skipping
/// the `O(hosts)` feasibility probe per VM that makes [`solver_case`]
/// setup quadratic and unusable at 10k hosts), plus `queued` 100-point
/// VMs awaiting placement.
pub fn scale_case(hosts: u32, per_host: u32, queued: u64) -> (Cluster, Vec<VmId>) {
    assert!(
        per_host <= 4,
        "Medium hosts fit at most 4 hundred-point VMs"
    );
    let specs = (0..hosts)
        .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    let mut cols = Vec::new();
    let t0 = SimTime::ZERO;
    let t1 = SimTime::from_secs(40);
    let mut job_id = 0u64;
    for _ in 0..per_host {
        for h in 0..hosts {
            let vm = cluster.submit_job(Job::new(
                JobId(job_id),
                t0,
                Cpu(100),
                Mem::gib(1),
                SimDuration::from_secs(7200),
                1.5,
            ));
            job_id += 1;
            cluster.start_creation(vm, HostId(h), t0, t1);
            cluster.finish_creation(vm, t1);
            cols.push(vm);
        }
    }
    for _ in 0..queued {
        let vm = cluster.submit_job(Job::new(
            JobId(job_id),
            t1,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(3600),
            1.5,
        ));
        job_id += 1;
        cols.push(vm);
    }
    (cluster, cols)
}

/// One scheduling round as [`ScoreScheduler`] runs it: an evaluator
/// over `cols` built in the recycled `buf`, handed to `solve`, and its
/// allocations handed back. The solver benches and the solver-timing
/// experiment time rounds through this, so they pay what a simulated
/// round pays.
pub fn recycled_round<R>(
    cluster: &Cluster,
    cfg: &ScoreConfig,
    cols: &[VmId],
    buf: &mut EvalBuffers,
    solve: impl FnOnce(&mut Eval<'_>) -> R,
) -> R {
    let mut eval = Eval::new_in(cluster, cfg, SimTime::from_secs(100), cols.to_vec(), buf);
    let out = solve(&mut eval);
    eval.recycle(buf);
    out
}

/// The workspace root, where the committed `BENCH_*.json` baselines live.
pub const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Writes the baseline file `name` under [`WORKSPACE_ROOT`], whatever
/// the working directory, reports it on stderr and returns its path.
/// The error names the path, so a bin can return it from `main` and
/// exit non-zero.
pub fn write_baseline(name: &str, contents: &str) -> io::Result<PathBuf> {
    let path = Path::new(WORKSPACE_ROOT).join(name);
    fs::write(&path, contents)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    eprintln!("wrote {} ({} bytes)", path.display(), contents.len());
    Ok(path)
}

/// Merges `(label, seconds per iteration)` results into the
/// workspace-root `BENCH_solver.json` baseline: existing entries with
/// other labels are preserved, colliding labels are overwritten, and the
/// derived reference/incremental speedup is recomputed from the merged
/// set. Lets the `solver` and `solver_scale` benches extend one baseline
/// file without clobbering each other's points.
pub fn merge_solver_baseline(new: &[(String, f64)]) -> io::Result<PathBuf> {
    const NAME: &str = "BENCH_solver.json";
    let mut merged: Vec<(String, f64)> = Vec::new();
    if let Ok(text) = fs::read_to_string(Path::new(WORKSPACE_ROOT).join(NAME)) {
        for line in text.lines() {
            // Result entries look like `    "label": 1.234e-3,` — other
            // lines fail the prefix strip or the f64 parse and are
            // skipped (the speedup is derived, so it is skipped by name
            // and recomputed below).
            let Some(rest) = line.trim().strip_prefix('"') else {
                continue;
            };
            let Some((label, value)) = rest.split_once("\": ") else {
                continue;
            };
            if label.starts_with("speedup") {
                continue;
            }
            if let Ok(v) = value.trim_end_matches(',').parse::<f64>() {
                merged.push((label.to_string(), v));
            }
        }
    }
    for (label, secs) in new {
        if let Some(entry) = merged.iter_mut().find(|(l, _)| l == label) {
            entry.1 = *secs;
        } else {
            merged.push((label.clone(), *secs));
        }
    }
    let mut json = String::from(
        "{\n  \"bench\": \"solver\",\n  \"unit\": \"min_batch_seconds_per_iter\",\n  \"results\": {\n",
    );
    for (i, (label, secs)) in merged.iter().enumerate() {
        let comma = if i + 1 < merged.len() { "," } else { "" };
        json.push_str(&format!("    \"{label}\": {secs:e}{comma}\n"));
    }
    json.push_str("  }");
    let find = |suffix: &str| {
        merged
            .iter()
            .find(|(label, _)| label.ends_with(suffix))
            .map(|&(_, secs)| secs)
    };
    if let (Some(reference), Some(incremental)) =
        (find("/reference_100h_200v"), find("/incremental_100h_200v"))
    {
        json.push_str(&format!(
            ",\n  \"speedup_100h_200v\": {:.2}",
            reference / incremental
        ));
    }
    json.push_str("\n}\n");
    write_baseline(NAME, &json)
}

/// Prints a result to stdout and writes it (plus artifacts) to
/// `results/`; the standard tail of every experiment binary.
pub fn emit(result: &ExperimentResult) {
    print!("{}", result.to_markdown());
    match result.write_to(Path::new("results")) {
        Ok(files) => {
            for f in files {
                eprintln!("wrote {f}");
            }
        }
        Err(e) => eprintln!("warning: could not write results/: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_factory_covers_all_rows() {
        for name in ["RD", "RR", "BF", "DBF", "SB0", "SB1", "SB2", "SB"] {
            let p = make_policy(name);
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        make_policy("nope");
    }

    #[test]
    fn paper_trace_is_stable() {
        let a = paper_trace();
        let b = paper_trace();
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 1000);
    }

    #[test]
    fn baseline_write_under_a_missing_directory_fails() {
        let err = write_baseline("no-such-dir/BENCH_x.json", "{}").unwrap_err();
        assert!(err.to_string().contains("no-such-dir"), "{err}");
    }

    #[test]
    fn markdown_rendering() {
        let mut r = ExperimentResult::new("x", "X — test", "paper said 42");
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        r.tables.push(("numbers".into(), t));
        r.notes.push("shape holds".into());
        let md = r.to_markdown();
        assert!(md.contains("## X — test"));
        assert!(md.contains("*Paper:* paper said 42"));
        assert!(md.contains("**numbers**"));
        assert!(md.contains("* shape holds"));
    }
}
