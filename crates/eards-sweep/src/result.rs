//! Deterministic per-shard result rendering.
//!
//! A shard result is rendered **once**, by the process that ran the
//! simulation (worker or serial in-process run), into two strings: a CSV
//! row and a JSON object line. The merge step concatenates these strings
//! verbatim — it never re-parses or re-formats a number — so a parallel
//! sweep's merged report is byte-identical to a serial run's by
//! construction, regardless of completion order, retries or resumes.
//!
//! Floats use Rust's shortest-round-trip `Display`, which is
//! deterministic across runs and platforms for identical bit patterns
//! (and identical bit patterns are exactly what the determinism suite
//! pins).

use eards_metrics::RunReport;

use crate::grid::ShardSpec;

/// Header of the merged CSV report. The leading columns identify the
/// shard; `status` is `ok` or `quarantined`; quarantined rows leave the
/// metric columns empty rather than inventing numbers.
pub const CSV_HEADER: &str = "shard,seed,policy,chaos,lambda_min,lambda_max,status,energy_kwh,\
satisfaction_pct,delay_pct,migrations,creations,host_failures,vms_displaced,jobs_total,\
jobs_completed";

/// The two rendered lines of one shard result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRendered {
    /// One row under [`CSV_HEADER`] (no trailing newline).
    pub csv_row: String,
    /// One JSON object (no trailing newline).
    pub json_line: String,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The identity columns every row starts with: shard key, seed, policy,
/// chaos and the λ pair, as CSV cells and as JSON members.
fn identity(spec: &ShardSpec) -> (String, String) {
    let (key, seed, policy, chaos) = (spec.key(), spec.seed, &spec.policy, spec.chaos);
    let (lo, hi) = spec.lambda;
    let csv = format!("{key},{seed},{policy},{chaos},{lo},{hi}");
    let json = format!(
        "\"shard\":\"{}\",\"seed\":{seed},\"policy\":\"{}\",\"chaos\":{chaos},\
         \"lambda_min\":{lo},\"lambda_max\":{hi}",
        json_escape(&key),
        json_escape(policy),
    );
    (csv, json)
}

/// The metric columns of a completed shard, named as in [`CSV_HEADER`].
fn metric_cells(r: &RunReport) -> [(&'static str, String); 9] {
    [
        ("energy_kwh", r.energy_kwh.to_string()),
        ("satisfaction_pct", r.satisfaction_pct.to_string()),
        ("delay_pct", r.delay_pct.to_string()),
        ("migrations", r.migrations.to_string()),
        ("creations", r.creations.to_string()),
        ("host_failures", r.host_failures.to_string()),
        ("vms_displaced", r.vms_displaced.to_string()),
        ("jobs_total", r.jobs_total.to_string()),
        ("jobs_completed", r.jobs_completed.to_string()),
    ]
}

/// Renders a completed shard's report.
pub fn render(spec: &ShardSpec, report: &RunReport) -> ShardRendered {
    let (id_csv, id_json) = identity(spec);
    let cells = metric_cells(report);
    let values: Vec<&str> = cells.iter().map(|(_, v)| v.as_str()).collect();
    let members: Vec<String> = cells.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    ShardRendered {
        csv_row: format!("{id_csv},ok,{}", values.join(",")),
        json_line: format!("{{{id_json},\"status\":\"ok\",{}}}", members.join(",")),
    }
}

/// Renders a quarantined shard: identity columns filled, metrics empty,
/// the failure reason carried in the JSON line.
pub fn render_quarantined(spec: &ShardSpec, attempts: u32, error: &str) -> ShardRendered {
    let (id_csv, id_json) = identity(spec);
    let csv_row = format!("{id_csv},quarantined,,,,,,,,,");
    let json_line = format!(
        "{{{id_json},\"status\":\"quarantined\",\"attempts\":{attempts},\"error\":\"{}\"}}",
        json_escape(error),
    );
    ShardRendered { csv_row, json_line }
}

/// Serializes a rendered result to the worker's result-file contents.
pub fn to_result_file(r: &ShardRendered) -> String {
    format!("{}\n{}\n", r.csv_row, r.json_line)
}

/// Parses a worker result file written by [`to_result_file`]. The file
/// must hold exactly two non-empty lines (CSV row, JSON line); anything
/// else — truncation, an empty file from a dying worker — is an error
/// that fails the attempt.
pub fn from_result_file(text: &str) -> Result<ShardRendered, String> {
    let mut lines = text.lines();
    let csv_row = lines.next().unwrap_or("").to_string();
    let json_line = lines.next().unwrap_or("").to_string();
    if csv_row.is_empty() || json_line.is_empty() || lines.next().is_some() {
        return Err(format!(
            "malformed result file: expected 2 lines, got {}",
            text.lines().count()
        ));
    }
    if !json_line.starts_with('{') || !json_line.ends_with('}') {
        return Err("malformed result file: second line is not a JSON object".into());
    }
    Ok(ShardRendered { csv_row, json_line })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShardSpec {
        ShardSpec {
            index: 0,
            seed: 7,
            policy: "sb".into(),
            chaos: 1.5,
            lambda: (30, 90),
        }
    }

    fn report() -> RunReport {
        let mut r = RunReport::empty("SB".to_string());
        r.energy_kwh = 12.345678;
        r.satisfaction_pct = 99.5;
        r.migrations = 3;
        r.jobs_total = 10;
        r.jobs_completed = 10;
        r
    }

    #[test]
    fn render_is_deterministic_and_round_trips_the_file() {
        let a = render(&spec(), &report());
        let b = render(&spec(), &report());
        assert_eq!(a, b);
        assert!(a
            .csv_row
            .starts_with("s7-sb-x1.5-l30-90,7,sb,1.5,30,90,ok,12.345678,99.5,"));
        assert!(a.json_line.starts_with(
            "{\"shard\":\"s7-sb-x1.5-l30-90\",\"seed\":7,\"policy\":\"sb\",\"chaos\":1.5,\
             \"lambda_min\":30,\"lambda_max\":90,\"status\":\"ok\",\"energy_kwh\":12.345678,"
        ));
        let parsed = from_result_file(&to_result_file(&a)).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = render(&spec(), &report());
        assert_eq!(
            r.csv_row.split(',').count(),
            CSV_HEADER.split(',').count(),
            "{}",
            r.csv_row
        );
        let q = render_quarantined(&spec(), 3, "timeout");
        assert_eq!(q.csv_row.split(',').count(), CSV_HEADER.split(',').count());
        assert!(q.json_line.contains("\"attempts\":3"));
    }

    #[test]
    fn truncated_result_files_are_rejected() {
        assert!(from_result_file("").is_err());
        assert!(from_result_file("only one line\n").is_err());
        assert!(from_result_file("a\nnot-json\n").is_err());
        assert!(from_result_file("a\n{\"x\":1}\nextra\n").is_err());
    }

    #[test]
    fn json_escaping_is_applied() {
        let mut s = spec();
        s.policy = "s\"b\\".into();
        let q = render_quarantined(&s, 1, "exit\ncode");
        assert!(q.json_line.contains("s\\\"b\\\\"));
        assert!(q.json_line.contains("exit\\u000acode"));
    }
}
