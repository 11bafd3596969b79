//! The CLI commands: `run`, `resume`, `compare`, `sweep`, `trace`.

use eards_datacenter::{run_sweep, SweepPoint};
use eards_metrics::{fnum, sparkline_fit, PricingModel, RunReport, Table};
use eards_obs::{validate, Obs};
use eards_sim::{SimDuration, SimTime};
use eards_workload::{analyze, parse_swf, write_swf, SwfOptions};

use crate::args::{ArgSpec, Args};
use crate::setup::{
    build_hosts, build_run_config, build_trace, make_policy, obs_requested, synth_trace, CliError,
    World, COMMON_SWITCHES, COMMON_VALUED, OBS_FLAGS,
};

/// Usage text.
pub const USAGE: &str = "\
eards — energy-aware virtualized-datacenter simulator (Goiri et al., CLUSTER 2010)

USAGE:
  eards run      [--policy sb] [common flags]      simulate one policy
  eards resume   <FILE>                            resume a checkpointed run to the end
  eards compare  [--policies bf,dbf,sb] [...]      simulate several policies
  eards sweep    [--seeds 1,2] [--policies bf,sb] [--chaos-grid 0,1]
                 [--lambda-min-grid 10,30] [--lambda-max-grid 70,90]
                 [--serial | --jobs N] [--sweep-out DIR] [common flags]
                 one run per seed × policy × chaos × λ shard; each axis
                 defaults to its single-run flag. In-process on every core
                 (--serial: one at a time), or on N supervised worker
                 processes (--jobs N, needs --sweep-out) with heartbeat
                 timeouts (--shard-timeout-secs S), retries with backoff
                 (--max-retries R, --backoff-ms B) and checkpoint/resume
                 (--ckpt-every-hours H). Prints the merged rows (--csv: the
                 merged CSV) and, when only λ varies, the energy surface.
                 DIR gets report.csv + report.jsonl, byte-identical in
                 every mode; --shard-metrics adds DIR/metrics.json.
                 Quarantined shards stay in the report and mark it partial.
  eards trace generate [--days D] [--trace-seed S] [--load-factor F] [--out FILE.swf]
  eards trace info <FILE.swf>                      summarize an SWF trace
  eards trace check [--jsonl F] [--chrome F] [--metrics F]
                                                   validate exported observability files
  eards lint     [--format text|json]              determinism/safety lints over the sources
  eards help                                       this text

COMMON FLAGS:
  --hosts N | --paper-dc      datacenter size (default 20 medium nodes; paper = 100)
  --days D | --hours H        synthetic workload span (default 1 day)
  --trace FILE.swf            use a real SWF trace instead of the generator
  --trace-seed S              workload seed (default 7)
  --load-factor F             scale the offered load (default 1.0)
  --lambda-min P              node turn-off threshold, percent (default 30)
  --lambda-max P              node turn-on threshold, percent (default 90)
  --adaptive TARGET           adaptive λ_min controller holding TARGET % satisfaction
  --failures                  inject host failures from reliability factors
  --chaos X                   full fault plan at intensity X (crashes, boot/creation/
                              migration failures, slowdowns, rack outages; 1.0 = nominal)
  --checkpoint-mins M         checkpoint running VMs every M minutes
  --checkpoint-every H        snapshot the whole run every H simulated hours
                              (eards run only; needs --checkpoint-out)
  --checkpoint-out DIR        directory receiving ckpt_t<ms>.bin snapshot files
                              (<ms> zero-padded to 20 digits, so names sort in
                              time order), resumable with `eards resume`
  --solver-budget W           per-round solver work budget (deterministic work units:
                              cell rescores + argmin scans). Arms the anytime solver
                              and the L0–L3 degradation ladder on score policies;
                              absent = unlimited, bit-identical to before
  --degrade                   runner backpressure under overload: cap retry backoff
                              growth and park flapping VMs until blacklists clear
  --shards N                  partition the cluster into N rack-aligned shards and
                              run the hierarchical solver (local hill climbs + a
                              cross-shard balancer) on score policies; absent or 1 =
                              one shard over the whole cluster, bit-identical to before
  --seed S                    simulation seed (operation jitter, failures)
  --economics                 additionally print revenue/energy-cost/profit
  --power-series FILE.csv     write the datacenter power trace
  --csv                       print tables as CSV instead of Markdown
  --out FILE                  write output to FILE (trace generate)

OBSERVABILITY (eards run only; tracing is off — and the run bit-identical —
unless one of these is given):
  --trace-out FILE.jsonl      write the typed event log (one JSON object/line)
  --chrome-out FILE.json      write a Chrome trace_event file
                              (load in chrome://tracing or ui.perfetto.dev)
  --metrics-out FILE.json     write the counters/histograms snapshot

POLICIES: rd, rr, bf, dbf, sb0, sb1, sb2, sb (paper default), sb-ext
";

/// Dispatches a command line (without the program name). Returns the text
/// to print.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(USAGE.to_string());
    };
    match cmd.as_str() {
        "run" => run_cmd(rest),
        "resume" => resume_cmd(rest),
        "compare" => compare_cmd(rest),
        "sweep" => crate::farm::farm_cmd(rest),
        "sweep-worker" => crate::farm::worker_cmd(rest),
        "trace" => trace_cmd(rest),
        "lint" => crate::lint::lint_cmd(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; try `eards help`"
        ))),
    }
}

fn parse_common(tokens: &[String]) -> Result<Args, CliError> {
    Ok(ArgSpec::new(COMMON_VALUED, COMMON_SWITCHES).parse(tokens.to_vec())?)
}

fn render(table: &Table, csv: bool) -> String {
    if csv {
        table.to_csv()
    } else {
        table.to_markdown()
    }
}

fn report_output(args: &Args, reports: &[RunReport]) -> Result<String, CliError> {
    let mut out = render(&RunReport::table(reports), args.switch("csv"));
    if args.switch("economics") {
        let pricing = PricingModel::default();
        out.push('\n');
        out.push_str(&render(&pricing.table(reports), args.switch("csv")));
    }
    if let Some(path) = args.value("power-series") {
        // One file per report: a comparison writes `<stem>.<label>.csv`
        // rather than silently keeping only the last policy's trace.
        for r in reports {
            let target = if reports.len() == 1 {
                path.to_string()
            } else {
                let label = r.label.to_ascii_lowercase().replace([' ', '/'], "_");
                match path.rsplit_once('.') {
                    Some((stem, ext)) => format!("{stem}.{label}.{ext}"),
                    None => format!("{path}.{label}"),
                }
            };
            let mut csv = String::from("t_secs,watts\n");
            let end = r
                .power_watts
                .points()
                .last()
                .map(|p| p.at)
                .unwrap_or(SimTime::ZERO);
            let samples: Vec<(SimTime, f64)> =
                r.power_watts
                    .resample(SimTime::ZERO, end, SimDuration::from_secs(60));
            for (t, w) in &samples {
                csv.push_str(&format!("{},{w:.1}\n", t.as_millis() / 1000));
            }
            std::fs::write(&target, csv)?;
            let watts: Vec<f64> = samples.iter().map(|&(_, w)| w).collect();
            out.push_str(&format!(
                "\n{} power over time: {}\npower series written to {target}\n",
                r.label,
                sparkline_fit(&watts, 72)
            ));
        }
    }
    Ok(out)
}

/// Writes the requested observability exports and returns summary lines.
fn export_obs(args: &Args, obs: &Obs) -> Result<String, CliError> {
    let mut out = String::new();
    if let Some(path) = args.value("trace-out") {
        std::fs::write(path, obs.export_jsonl())?;
        let (len, _, dropped) = obs.ring_stats().unwrap_or((0, 0, 0));
        out.push_str(&format!(
            "event trace written to {path} ({len} events, {dropped} dropped)\n"
        ));
    }
    if let Some(path) = args.value("chrome-out") {
        std::fs::write(path, obs.export_chrome())?;
        out.push_str(&format!(
            "chrome trace written to {path} ({} spans; open in chrome://tracing)\n",
            obs.spans_recorded()
        ));
    }
    if let Some(path) = args.value("metrics-out") {
        std::fs::write(path, obs.export_metrics())?;
        out.push_str(&format!("metrics written to {path}\n"));
    }
    Ok(out)
}

/// Rejects observability flags on commands that run several simulations:
/// the exports would silently hold only interleaved or last-run data.
pub(crate) fn reject_obs_flags(args: &Args, cmd: &str) -> Result<(), CliError> {
    if obs_requested(args) {
        return Err(CliError::Usage(format!(
            "--{} are only supported by `eards run` (a {cmd} would mix \
             several runs in one trace)",
            OBS_FLAGS.join("/--")
        )));
    }
    Ok(())
}

fn run_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_common(tokens)?;
    let world = World::build(&args, args.value("policy").unwrap_or("sb"), |_| {})?;
    let obs = world.obs().clone();
    let runner = world.runner();
    let mut ckpt_note = String::new();
    let report = match args.get_opt::<u64>("checkpoint-every")? {
        None => {
            if args.value("checkpoint-out").is_some() {
                return Err(CliError::Usage(
                    "--checkpoint-out needs --checkpoint-every H".into(),
                ));
            }
            runner.run()
        }
        Some(0) => {
            return Err(CliError::Usage(
                "--checkpoint-every must be a positive hour count".into(),
            ))
        }
        Some(hours) => {
            let dir = args.value("checkpoint-out").ok_or_else(|| {
                CliError::Usage("--checkpoint-every needs --checkpoint-out DIR".into())
            })?;
            std::fs::create_dir_all(dir)?;
            // The provenance a resume replays, minus the checkpoint flags.
            let provenance = crate::checkpoint::strip_checkpoint_flags(tokens);
            let period = SimDuration::from_hours(hours);
            let mut next = SimDuration::ZERO + period;
            let mut written = 0u32;
            let mut runner = runner;
            while runner.step_batch() {
                if runner.now().as_millis() >= next.as_millis() {
                    // Padded to the width of `u64::MAX`: name order is time order.
                    let path = format!("{dir}/ckpt_t{:020}.bin", runner.now().as_millis());
                    let bytes = crate::checkpoint::encode_checkpoint(&provenance, &runner)
                        .map_err(|e| CliError::Snapshot(e.to_string()))?;
                    eards_sim::write_atomic(std::path::Path::new(&path), &bytes)?;
                    written += 1;
                    while runner.now().as_millis() >= next.as_millis() {
                        next += period;
                    }
                }
            }
            ckpt_note = format!("\n{written} checkpoint(s) written to {dir}\n");
            runner.finish().0
        }
    };
    let mut out = report_output(&args, std::slice::from_ref(&report))?;
    out.push_str(&ckpt_note);
    if obs.is_enabled() {
        out.push('\n');
        out.push_str(&export_obs(&args, &obs)?);
    }
    Ok(out)
}

/// Resumes a checkpoint file written by `eards run --checkpoint-every`:
/// rebuilds the world from the file's recorded arguments, restores the
/// snapshot into it, and drives the run to completion.
fn resume_cmd(tokens: &[String]) -> Result<String, CliError> {
    let Some(path) = tokens.first() else {
        return Err(CliError::Usage(
            "usage: eards resume <checkpoint file>".into(),
        ));
    };
    let data = std::fs::read(path)?;
    let (argv, snap) = crate::checkpoint::decode_checkpoint(&data)
        .map_err(|e| CliError::Snapshot(format!("{path}: {e}")))?;
    let args = parse_common(&argv)?;
    let world = World::build(&args, args.value("policy").unwrap_or("sb"), |_| {})?;
    let obs = world.obs().clone();
    let mut runner = world
        .restore(snap)
        .map_err(|e| CliError::Snapshot(format!("{path}: {e}")))?;
    while runner.step_batch() {}
    let (report, _) = runner.finish();
    let mut out = report_output(&args, std::slice::from_ref(&report))?;
    if obs.is_enabled() {
        out.push('\n');
        out.push_str(&export_obs(&args, &obs)?);
    }
    Ok(out)
}

fn compare_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = parse_common(tokens)?;
    reject_obs_flags(&args, "compare")?;
    let mut names = args.list("policies");
    if names.is_empty() {
        names = vec!["bf".into(), "dbf".into(), "sb".into()];
    }
    let hosts = build_hosts(&args)?;
    let trace = build_trace(&args)?;
    let cfg = build_run_config(&args)?;
    let points = names
        .iter()
        .map(|name| {
            let policy = make_policy(name, &args, &cfg)?;
            Ok(SweepPoint {
                label: policy().name(),
                config: cfg.clone(),
                policy,
            })
        })
        .collect::<Result<_, CliError>>()?;
    report_output(&args, &run_sweep(&hosts, &trace, points, None))
}

/// Validates exported observability files against the schemas the exporters
/// promise (`eards trace check --jsonl F --chrome F --metrics F`). Each
/// given file is parsed and schema-checked; the first problem is an error.
fn trace_check_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = ArgSpec::new(&["jsonl", "chrome", "metrics"], &[]).parse(tokens.to_vec())?;
    let mut out = String::new();
    if let Some(path) = args.value("jsonl") {
        let text = std::fs::read_to_string(path)?;
        let events =
            validate::validate_jsonl(&text).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
        out.push_str(&format!("{path}: ok ({events} events)\n"));
    }
    if let Some(path) = args.value("chrome") {
        let text = std::fs::read_to_string(path)?;
        let entries = validate::validate_chrome(&text)
            .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
        out.push_str(&format!("{path}: ok ({entries} trace events)\n"));
    }
    if let Some(path) = args.value("metrics") {
        let text = std::fs::read_to_string(path)?;
        validate::validate_metrics(&text).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
        out.push_str(&format!("{path}: ok\n"));
    }
    if out.is_empty() {
        return Err(CliError::Usage(
            "usage: eards trace check [--jsonl FILE] [--chrome FILE] [--metrics FILE] \
             (at least one)"
                .into(),
        ));
    }
    Ok(out)
}

fn trace_cmd(tokens: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = tokens.split_first() else {
        return Err(CliError::Usage(
            "usage: eards trace <generate|info|check> ...".into(),
        ));
    };
    if sub == "check" {
        // `check` has its own flag set (validated file paths, no workload
        // flags), so it parses before the common spec gets a chance to
        // reject them.
        return trace_check_cmd(rest);
    }
    let args = parse_common(rest)?;
    match sub.as_str() {
        "generate" => {
            let trace = synth_trace(&args, 7)?;
            let text = write_swf(&trace);
            match args.value("out") {
                Some(path) => {
                    std::fs::write(path, &text)?;
                    Ok(format!(
                        "wrote {} jobs ({:.0} CPU·h) to {path}\n",
                        trace.len(),
                        trace.stats().total_cpu_hours
                    ))
                }
                None => Ok(text),
            }
        }
        "info" => {
            let Some(path) = args.positionals().first() else {
                return Err(CliError::Usage("usage: eards trace info <FILE.swf>".into()));
            };
            let text = std::fs::read_to_string(path)?;
            let trace = parse_swf(&text, &SwfOptions::default())
                .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
            let s = trace.stats();
            let mut t = Table::new(["metric", "value"]);
            t.row(["jobs".to_string(), s.jobs.to_string()]);
            t.row(["span".to_string(), format!("{}", s.span)]);
            t.row(["total CPU·hours".to_string(), fnum(s.total_cpu_hours, 1)]);
            t.row([
                "avg offered cores".to_string(),
                fnum(s.avg_offered_cores, 2),
            ]);
            t.row(["mean runtime (s)".to_string(), fnum(s.mean_runtime_secs, 0)]);
            t.row([
                "max CPU demand (%)".to_string(),
                s.max_cpu_demand.to_string(),
            ]);
            let mut out = String::new();
            if let Some(a) = analyze(&trace) {
                t.row(["interarrival CV".to_string(), fnum(a.interarrival_cv, 2)]);
                t.row(["largest batch".to_string(), a.max_batch.to_string()]);
                t.row([
                    "mass in busiest 10% hours".to_string(),
                    format!("{:.0}%", 100.0 * a.peak_hour_mass),
                ]);
                t.row([
                    "work in largest 10% jobs".to_string(),
                    format!("{:.0}%", 100.0 * a.top_decile_work_share),
                ]);
                if !args.switch("csv") {
                    let hourly: Vec<f64> = a.hourly_arrivals.iter().map(|&n| n as f64).collect();
                    out = format!(
                        "
arrivals per hour: {}
",
                        sparkline_fit(&hourly, 72)
                    );
                }
            }
            Ok(format!("{}{}", render(&t, args.switch("csv")), out))
        }
        other => Err(CliError::Usage(format!(
            "unknown trace subcommand {other:?} (generate, info, check)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
        assert!(dispatch(&toks("help")).unwrap().contains("POLICIES"));
        assert!(dispatch(&toks("frobnicate")).is_err());
    }

    #[test]
    fn run_produces_a_table() {
        let out = dispatch(&toks("run --hosts 4 --hours 2 --policy bf")).unwrap();
        assert!(out.contains("| BF"), "{out}");
        assert!(out.contains("Pwr (kWh)"));
    }

    #[test]
    fn run_with_economics_and_csv() {
        let out = dispatch(&toks(
            "run --hosts 4 --hours 2 --policy sb --economics --csv",
        ))
        .unwrap();
        assert!(out.contains("Profit"), "{out}");
        assert!(out.contains("SB,"), "csv format: {out}");
    }

    #[test]
    fn compare_defaults_to_three_policies() {
        let out = dispatch(&toks("compare --hosts 4 --hours 2")).unwrap();
        for p in ["BF", "DBF", "SB"] {
            assert!(out.contains(&format!("| {p}")), "{out}");
        }
    }

    #[test]
    fn sweep_reports_each_grid_point() {
        let out = dispatch(&toks(
            "sweep --hosts 4 --hours 2 --lambda-min-grid 20,40 --lambda-max-grid 80",
        ))
        .unwrap();
        assert!(
            out.contains("-l20-80 ") && out.contains("-l40-80 "),
            "{out}"
        );
        // The λ grids belong to `sweep`: the single-run commands reject them.
        assert!(dispatch(&toks("run --hours 1 --lambda-min-grid 10")).is_err());
        assert!(dispatch(&toks("compare --hours 1 --lambda-max-grid 90")).is_err());
    }

    #[test]
    fn trace_generate_and_info_round_trip() {
        let dir = std::env::temp_dir().join("eards_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.swf");
        let path_s = path.to_str().unwrap();
        let out = dispatch(&toks(&format!(
            "trace generate --hours 3 --trace-seed 5 --out {path_s}"
        )))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let info = dispatch(&toks(&format!("trace info {path_s}"))).unwrap();
        assert!(info.contains("total CPU·hours"), "{info}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(dispatch(&toks("run --lambda-min 95 --lambda-max 90")).is_err());
        assert!(dispatch(&toks("run --policy warp9")).is_err());
        assert!(dispatch(&toks("trace generate --hours 1 --load-factor -1")).is_err());
        assert!(dispatch(&toks("trace info /nonexistent/x.swf")).is_err());
    }

    #[test]
    fn run_exports_traces_that_pass_the_checker() {
        let dir = std::env::temp_dir().join("eards_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("events.jsonl");
        let chrome = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        let (j, c, m) = (
            jsonl.to_str().unwrap(),
            chrome.to_str().unwrap(),
            metrics.to_str().unwrap(),
        );
        let out = dispatch(&toks(&format!(
            "run --hosts 4 --hours 2 --policy sb \
             --trace-out {j} --chrome-out {c} --metrics-out {m}"
        )))
        .unwrap();
        assert!(out.contains("event trace written"), "{out}");
        assert!(out.contains("chrome trace written"), "{out}");
        assert!(out.contains("metrics written"), "{out}");
        let check = dispatch(&toks(&format!(
            "trace check --jsonl {j} --chrome {c} --metrics {m}"
        )))
        .unwrap();
        assert_eq!(check.matches(": ok").count(), 3, "{check}");
        // The run actually produced events (scheduling rounds at minimum).
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(
            text.lines().any(|l| l.contains("\"schedule_round\"")),
            "expected schedule_round events in the trace"
        );
        assert!(
            text.lines().any(|l| l.contains("\"score_attribution\"")),
            "expected per-placement score attributions in the trace"
        );
        for p in [&jsonl, &chrome, &metrics] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn trace_check_rejects_garbage_and_empty_invocations() {
        let dir = std::env::temp_dir().join("eards_cli_obs_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"kind\":\"x\"}\n").unwrap(); // missing t_ms
        let bad_s = bad.to_str().unwrap();
        assert!(dispatch(&toks(&format!("trace check --jsonl {bad_s}"))).is_err());
        assert!(dispatch(&toks("trace check")).is_err(), "no files given");
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn checkpoint_resume_round_trip_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("eards_cli_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap();
        let common = "run --hosts 4 --hours 3 --policy sb --seed 11 --csv";
        let baseline = dispatch(&toks(common)).unwrap();
        let out = dispatch(&toks(&format!(
            "{common} --checkpoint-every 1 --checkpoint-out {dir_s}"
        )))
        .unwrap();
        assert!(out.contains("checkpoint(s) written"), "{out}");
        // Checkpointing (snapshot takes &self) must not perturb the run.
        assert!(
            out.starts_with(baseline.trim_end()),
            "{out}\nvs\n{baseline}"
        );
        let mut ckpts: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        ckpts.sort();
        assert!(!ckpts.is_empty(), "at least one checkpoint file");
        // Name order is time order, across a change in the digit count.
        let times: Vec<u64> = ckpts
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_str().unwrap();
                let ms = name.strip_prefix("ckpt_t").unwrap().strip_suffix(".bin");
                ms.unwrap().parse().unwrap()
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{ckpts:?}");
        assert!(
            times[0] < 10_000_000 && *times.last().unwrap() >= 10_000_000,
            "{times:?}"
        );
        // Resuming any checkpoint reproduces the uninterrupted report.
        for ckpt in [&ckpts[0], ckpts.last().unwrap()] {
            let resumed = dispatch(&toks(&format!("resume {}", ckpt.display()))).unwrap();
            assert_eq!(resumed, baseline, "resume from {}", ckpt.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_flag_validation() {
        assert!(dispatch(&toks("run --hosts 4 --hours 1 --checkpoint-out /tmp/x")).is_err());
        assert!(dispatch(&toks("run --hosts 4 --hours 1 --checkpoint-every 1")).is_err());
        assert!(dispatch(&toks(
            "run --hosts 4 --hours 1 --checkpoint-every 0 --checkpoint-out /tmp/x"
        ))
        .is_err());
        assert!(dispatch(&toks("resume")).is_err());
        assert!(dispatch(&toks("resume /nonexistent/ckpt.bin")).is_err());
    }

    #[test]
    fn obs_flags_rejected_outside_run() {
        assert!(dispatch(&toks(
            "compare --hosts 4 --hours 2 --trace-out /tmp/t.jsonl"
        ))
        .is_err());
        assert!(dispatch(&toks("sweep --hosts 4 --hours 2 --metrics-out /tmp/m.json")).is_err());
    }
}
