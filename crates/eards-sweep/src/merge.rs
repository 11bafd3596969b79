//! Deterministic merge of shard results into the sweep report.
//!
//! Input is one [`ShardRendered`] per grid cell, keyed by shard index;
//! output is the merged CSV and JSONL report texts. Assembly is pure
//! string concatenation **in grid enumeration order** — completion
//! order, retry counts and resume history leave no trace in the merged
//! bytes, which is what makes `--jobs N` byte-identical to `--serial`.
//!
//! The JSONL report opens with a meta line so a truncated or partial
//! report is self-describing:
//!
//! ```text
//! {"kind":"sweep_report","shards":8,"ok":7,"quarantined":1,"partial":true}
//! ```

use crate::grid::ShardSpec;
use crate::result::{ShardRendered, CSV_HEADER};

/// Terminal state of one shard after the farm is done with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Result file collected.
    Ok,
    /// Gave up after the retry budget; result is a quarantine marker.
    Quarantined,
}

/// One shard's contribution to the merged report.
#[derive(Debug, Clone)]
pub struct MergeEntry {
    /// The grid cell this entry belongs to.
    pub spec: ShardSpec,
    /// Terminal status.
    pub status: ShardStatus,
    /// Rendered rows (from the worker, or a quarantine marker).
    pub rendered: ShardRendered,
}

/// The merged sweep report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedReport {
    /// CSV text: header + one row per shard, trailing newline.
    pub csv: String,
    /// JSONL text: meta line + one object per shard, trailing newline.
    pub jsonl: String,
    /// Quarantined shards; the report is partial when this is not 0.
    pub quarantined: usize,
}

/// Merges shard entries into the report. Entries may arrive in any
/// order; they are sorted by grid index before assembly. Every one of
/// the `expected` grid cells must be present exactly once — a missing
/// or duplicated shard is a supervisor bug and is reported as an error
/// rather than silently dropped.
pub fn merge(mut entries: Vec<MergeEntry>, expected: usize) -> Result<MergedReport, String> {
    if entries.len() != expected {
        return Err(format!(
            "merge: expected {expected} shards, got {}; a shard was dropped or duplicated",
            entries.len()
        ));
    }
    entries.sort_by_key(|e| e.spec.index);
    for (i, e) in entries.iter().enumerate() {
        if e.spec.index != i {
            return Err(format!(
                "merge: expected shard index {i}, got {} ({}); a shard was dropped or duplicated",
                e.spec.index,
                e.spec.key()
            ));
        }
    }
    let quarantined = entries
        .iter()
        .filter(|e| e.status == ShardStatus::Quarantined)
        .count();
    let ok = entries.len() - quarantined;
    let partial = quarantined > 0;

    let mut csv = String::with_capacity(entries.len() * 96 + CSV_HEADER.len() + 1);
    csv.push_str(CSV_HEADER);
    csv.push('\n');
    let mut jsonl = String::with_capacity(entries.len() * 192);
    jsonl.push_str(&format!(
        "{{\"kind\":\"sweep_report\",\"shards\":{},\"ok\":{ok},\"quarantined\":{quarantined},\
         \"partial\":{partial}}}\n",
        entries.len()
    ));
    for e in &entries {
        csv.push_str(&e.rendered.csv_row);
        csv.push('\n');
        jsonl.push_str(&e.rendered.json_line);
        jsonl.push('\n');
    }
    Ok(MergedReport {
        csv,
        jsonl,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use crate::result::render_quarantined;

    fn entries() -> Vec<MergeEntry> {
        let grid = SweepGrid {
            seeds: vec![1, 2],
            policies: vec!["sb".into()],
            chaos: vec![0.0],
            lambdas: vec![(30, 90)],
        };
        grid.shards()
            .into_iter()
            .map(|spec| MergeEntry {
                rendered: ShardRendered {
                    csv_row: format!(
                        "{},{},sb,0,30,90,ok,1,2,3,4,5,6,7,8,9",
                        spec.key(),
                        spec.seed
                    ),
                    json_line: format!("{{\"shard\":\"{}\"}}", spec.key()),
                },
                status: ShardStatus::Ok,
                spec,
            })
            .collect()
    }

    #[test]
    fn merge_order_is_grid_order_regardless_of_arrival() {
        let forward = merge(entries(), 2).unwrap();
        let mut shuffled = entries();
        shuffled.reverse();
        let reversed = merge(shuffled, 2).unwrap();
        assert_eq!(forward, reversed);
        assert_eq!(forward.quarantined, 0);
        let lines: Vec<&str> = forward.csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert!(lines[1].starts_with("s1-sb-x0-l30-90,"));
        assert!(lines[2].starts_with("s2-sb-x0-l30-90,"));
        assert!(forward.jsonl.starts_with(
            "{\"kind\":\"sweep_report\",\"shards\":2,\"ok\":2,\"quarantined\":0,\"partial\":false}\n"
        ));
    }

    #[test]
    fn quarantine_marks_the_report_partial() {
        let mut es = entries();
        es[1].status = ShardStatus::Quarantined;
        es[1].rendered = render_quarantined(&es[1].spec, 3, "timeout");
        let merged = merge(es, 2).unwrap();
        assert_eq!(merged.quarantined, 1);
        assert!(merged.jsonl.contains("\"quarantined\":1,\"partial\":true"));
        assert!(merged.csv.contains(",quarantined,"));
    }

    #[test]
    fn dropped_or_duplicated_shards_are_an_error() {
        let mut es = entries();
        es.pop();
        assert!(merge(es, 2).is_err());
        let mut es = entries();
        es[1].spec.index = 0;
        assert!(merge(es, 2).is_err());
    }
}
