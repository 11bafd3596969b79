//! Shared infrastructure for the experiments.
//!
//! Every table and figure of the paper's evaluation has one experiment
//! function in this crate returning an [`ExperimentResult`]; the driver
//! ([`crate::driver`]) prints, writes and gates them.

use std::fs;
use std::io;
use std::path::Path;

use eards_core::{Eval, EvalBuffers, ScoreConfig, ScoreScheduler};
use eards_datacenter::{RunConfig, SweepPoint};
use eards_metrics::Table;
use eards_model::{
    Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, Policy, PowerState, VmId,
};
use eards_obs::validate::{self, Json};
use eards_policies::{BackfillingPolicy, DynamicBackfillingPolicy, RandomPolicy, RoundRobinPolicy};
use eards_sim::{write_atomic, SimDuration, SimRng, SimTime};
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
    /// The committed baseline, e.g. `BENCH_chaos.json`, that the driver
    /// writes through [`write_baseline`], whether or not the checks hold.
    /// When it has wall-clock members the section is left out of
    /// `EXPERIMENTS.md`, which regenerates byte-identical.
    pub baseline: Option<Baseline>,
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
            baseline: None,
        }
    }

    /// How many notes read `VIOLATED`: the shape checks that fail.
    pub fn violations(&self) -> usize {
        self.notes.iter().filter(|n| n.contains("VIOLATED")).count()
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
    /// needed), naming each file on stderr.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let md = (format!("{}.md", self.id), self.to_markdown());
        for (name, contents) in std::iter::once(&md).chain(&self.artifacts) {
            fs::write(dir.join(name), contents)?;
            eprintln!("wrote {}", dir.join(name).display());
        }
        Ok(())
    }
}

/// A deterministic solver workload: `hosts` Medium nodes, `running`
/// placed VMs of mixed 100/200-point sizes and `queued` 100-point VMs.
/// Shared by the solver microbenches (`benches/solver.rs`) and the
/// degradation experiment's boundedness check.
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
/// allocations handed back. The solver benches time rounds through
/// this, so they pay what a simulated round pays.
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

/// The workspace root, where the committed `BENCH_*.json` baselines and
/// `EXPERIMENTS.md` live.
pub const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// A committed baseline, `BENCH_{bench}.json` at [`WORKSPACE_ROOT`], in
/// the one envelope every baseline shares:
/// `{"bench": …, "deterministic": {…}, "wall": {…}}`. `deterministic`
/// holds what the seeds and the source fix (counts, simulated kWh, byte
/// sizes, the checks' limits), unrounded; [`write_baseline`] reports a
/// change to it down to one bit. `wall` holds clock readings, which no
/// check compares: a shared machine drifts more than any useful band.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// The name between `BENCH_` and `.json`.
    pub bench: String,
    /// Members fixed by the seeds and the source, in order.
    pub deterministic: Vec<(String, Json)>,
    /// Wall-clock members, in order; `cores` first when there are any.
    pub wall: Vec<(String, Json)>,
}

impl Baseline {
    /// An empty baseline for `BENCH_{bench}.json`.
    pub fn new(bench: &str) -> Self {
        let bench = bench.into();
        Baseline {
            bench,
            ..Self::default()
        }
    }

    /// Adds a deterministic member.
    pub fn det(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.deterministic.push((key.into(), value.into()));
        self
    }

    /// Adds a wall-clock member; the first is preceded by `cores`, the
    /// parallelism the readings were taken with.
    pub fn wall(mut self, key: &str, value: impl Into<Json>) -> Self {
        if self.wall.is_empty() {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            self.wall.push(("cores".into(), cores.into()));
        }
        self.wall.push((key.into(), value.into()));
        self
    }

    /// The file the baseline is committed as.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench)
    }

    /// The envelope as one JSON object.
    pub fn to_json(&self) -> Json {
        obj([
            ("bench", Json::Str(self.bench.clone())),
            ("deterministic", Json::Obj(self.deterministic.clone())),
            ("wall", Json::Obj(self.wall.clone())),
        ])
    }

    /// Reads a baseline back from its file's text: exactly the members
    /// `bench` (a string), `deterministic` and `wall` (objects), in order.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let members = match validate::parse(text)? {
            Json::Obj(members) => <[(String, Json); 3]>::try_from(members).ok(),
            _ => None,
        };
        match members {
            Some([(b, Json::Str(bench)), (d, Json::Obj(deterministic)), (w, Json::Obj(wall))])
                if (b.as_str(), d.as_str(), w.as_str()) == ("bench", "deterministic", "wall") =>
            {
                Ok(Baseline {
                    bench,
                    deterministic,
                    wall,
                })
            }
            _ => Err("expected {\"bench\", \"deterministic\", \"wall\"}".into()),
        }
    }

    /// How `self.deterministic` first differs from the committed
    /// baseline text `committed`, as `key.path: old -> new`; `None` when
    /// the two are equal bit for bit. `wall` is not compared.
    pub fn drift(&self, committed: &str) -> Option<String> {
        match Baseline::parse(committed) {
            Ok(old) => first_difference(
                "",
                &Json::Obj(old.deterministic),
                &Json::Obj(self.deterministic.clone()),
            ),
            Err(e) => Some(format!("the committed file is not a baseline ({e})")),
        }
    }
}

/// A JSON object of `members`, in order.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The first difference between `old` and `new` under `path`: objects
/// compare by key, anything else by its rendered text, which for a
/// number is its shortest round-trip form and so its bits. A key is
/// quoted unless it is a plain identifier:
/// `quality."baseline (unarmed)".energy_kwh`.
fn first_difference(path: &str, old: &Json, new: &Json) -> Option<String> {
    let (Json::Obj(a), Json::Obj(b)) = (old, new) else {
        let (old, new) = (old.to_string(), new.to_string());
        return (old != new).then(|| format!("{path}: {old} -> {new}"));
    };
    let at = |key: &str| {
        let plain = !key.is_empty() && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
        let quoted = format!("{key:?}");
        let key = if plain { key } else { &quoted };
        format!("{path}{}{key}", if path.is_empty() { "" } else { "." })
    };
    b.iter()
        .find_map(|(key, value)| match old.get(key) {
            Some(was) => first_difference(&at(key), was, value),
            None => Some(format!("{}: added", at(key))),
        })
        .or_else(|| {
            let (key, _) = a.iter().find(|(key, _)| new.get(key).is_none())?;
            Some(format!("{}: removed", at(key)))
        })
}

/// Writes `baseline` to its file under [`WORKSPACE_ROOT`] through
/// [`write_atomic`], whatever the working directory. Returns the drift:
/// how the fresh `deterministic` part first differs from the file it
/// replaces (a missing file counts), which the caller turns into a
/// non-zero exit. The file is rewritten either way, so committing it is
/// how an intended change is accepted. The error names the path.
pub fn write_baseline(baseline: &Baseline) -> io::Result<Option<String>> {
    let path = Path::new(WORKSPACE_ROOT).join(baseline.file_name());
    let drift = baseline.drift(&fs::read_to_string(&path).unwrap_or_default());
    let text = format!("{}\n", baseline.to_json());
    write_atomic(&path, text.as_bytes())
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    eprintln!("wrote {} ({} bytes)", path.display(), text.len());
    if let Some(drift) = &drift {
        eprintln!("!! {} drifted: {drift}", path.display());
    }
    Ok(drift)
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
        let err = write_baseline(&Baseline::new("x/no-such-dir")).unwrap_err();
        assert!(err.to_string().contains("no-such-dir"), "{err}");
    }

    #[test]
    fn both_paths_agree_on_a_small_case() {
        let cfg = ScoreConfig::sb();
        let (cluster, cols) = solver_case(10, 10, 10);
        let mut buf = EvalBuffers::default();
        let a = recycled_round(&cluster, &cfg, &cols, &mut buf, |e| {
            eards_core::solve_reference(e, 256)
        });
        let b = recycled_round(&cluster, &cfg, &cols, &mut buf, |e| {
            eards_core::solve(e, 256)
        });
        assert_eq!(a, b);
        assert!(!a.moves.is_empty(), "queued VMs must be placed");
    }

    /// An envelope with every shape the baselines use, and the floats
    /// whose shortest form is easy to get wrong.
    fn sample() -> Baseline {
        Baseline::new("sample")
            .det(
                "quality",
                obj([
                    (
                        "baseline (unarmed)",
                        obj([
                            ("energy_kwh", 131.392_123_456_789.into()),
                            ("parked", 0u64.into()),
                        ]),
                    ),
                    (
                        "L0 \u{221e} \"budget\"",
                        obj([("rounds_at", Json::Arr(vec![1u32.into(), 2u32.into()]))]),
                    ),
                ]),
            )
            .det("neg_zero", -0.0)
            .det("small", 1e-5)
            .det("two_53", 9_007_199_254_740_992.0)
            .det("holds", Json::Bool(true))
            .wall("secs", 0.1 + 0.2)
    }

    #[test]
    fn envelope_round_trips_key_order_and_f64_bits() {
        let b = sample();
        let text = format!("{:#}\n", b.to_json());
        let back = Baseline::parse(&text).unwrap();
        assert_eq!(back, b);
        let keys = |m: &[(String, Json)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&back.deterministic), keys(&b.deterministic));
        assert_eq!(keys(&back.wall), ["cores", "secs"]);
        for (key, want) in [
            ("neg_zero", -0.0f64),
            ("small", 1e-5),
            ("two_53", 2f64.powi(53)),
        ] {
            let got = back
                .deterministic
                .iter()
                .find(|(k, _)| k == key)
                .unwrap()
                .1
                .as_f64();
            assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{key}");
        }
        assert!(text.contains("\"neg_zero\": -0,"), "{text}");
        assert!(text.contains("\"two_53\": 9007199254740992,"), "{text}");
        assert!(Baseline::parse("{\"bench\": \"x\", \"deterministic\": {}}").is_err());
    }

    #[test]
    fn drift_names_the_first_moved_deterministic_key_and_ignores_wall() {
        let committed = format!("{:#}", sample().to_json());
        assert_eq!(sample().drift(&committed), None);

        let mut wall_only = sample();
        wall_only.wall[1].1 = Json::Num(99.0);
        assert_eq!(wall_only.drift(&committed), None);

        let mut ulp = sample();
        let Json::Obj(quality) = &mut ulp.deterministic[0].1 else {
            unreachable!()
        };
        let Json::Obj(run) = &mut quality[0].1 else {
            unreachable!()
        };
        let kwh = run[0].1.as_f64().unwrap();
        run[0].1 = Json::Num(f64::from_bits(kwh.to_bits() + 1));
        let drift = ulp.drift(&committed).expect("a one-ULP change drifts");
        assert!(
            drift.starts_with("quality.\"baseline (unarmed)\".energy_kwh: "),
            "{drift}"
        );

        let missing = Baseline::new("sample").det("holds", Json::Bool(true));
        assert!(missing.drift(&committed).unwrap().ends_with(": removed"));
        assert!(sample().drift("").is_some(), "no committed file is drift");
    }

    #[test]
    fn every_committed_baseline_is_an_envelope_named_after_its_file() {
        let mut seen = 0;
        for entry in fs::read_dir(WORKSPACE_ROOT).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let Some(bench) = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            let text = fs::read_to_string(Path::new(WORKSPACE_ROOT).join(&name)).unwrap();
            let b = Baseline::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(b.bench, bench, "{name}");
            assert_eq!(b.file_name(), name);
            seen += 1;
        }
        assert!(seen >= 7, "only {seen} baselines found");
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
