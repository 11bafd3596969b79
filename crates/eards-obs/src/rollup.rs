//! Cross-run metrics rollup.
//!
//! A sweep farm produces one metrics snapshot per shard (the
//! `export_metrics` schema: counters + histograms). This module merges
//! them into a single fleet-wide snapshot: counters are summed,
//! histograms are merged bucket-wise (their bounds must agree — they
//! come from the same binary, so a mismatch means the inputs belong to
//! different builds and the merge refuses rather than fabricating a
//! distribution). Output keys are sorted, so the merged snapshot is
//! deterministic regardless of input order, and the result round-trips
//! [`crate::validate::validate_metrics`].

use std::collections::BTreeMap;

use crate::export::render_metrics;
use crate::registry::Histogram;
use crate::validate::{parse, Json};

/// A count as a snapshot holds it: a whole number from 0 to 2^53, the
/// range in which a JSON number reads back exactly. Anything else is
/// `None`, never a truncated count.
fn get_u64(v: &Json) -> Option<u64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    v.as_f64()
        .filter(|n| n.fract() == 0.0 && (0.0..=EXACT).contains(n))
        .map(|n| n as u64)
}

fn parse_hist(name: &str, v: &Json) -> Result<Histogram, String> {
    let bounds = v
        .get("bounds")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("histogram {name:?}: missing bounds"))?
        .iter()
        .map(|b| {
            b.as_f64()
                .ok_or_else(|| format!("histogram {name:?}: non-numeric bound"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let counts = v
        .get("counts")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("histogram {name:?}: missing counts"))?
        .iter()
        .map(|c| get_u64(c).ok_or_else(|| format!("histogram {name:?}: a bucket is not a count")))
        .collect::<Result<Vec<u64>, String>>()?;
    let count = v
        .get("count")
        .and_then(get_u64)
        .ok_or_else(|| format!("histogram {name:?}: missing or invalid count"))?;
    let sum = v
        .get("sum")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("histogram {name:?}: missing sum"))?;
    Ok(Histogram {
        name: name.to_string(),
        bounds,
        counts,
        count,
        sum,
    })
}

/// Merges per-shard metrics snapshots (as produced by
/// `Obs::export_metrics`) into one. `inputs` pairs a label for error
/// messages (e.g. the shard key) with the snapshot text.
pub fn merge_metrics(inputs: &[(String, String)]) -> Result<String, String> {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
    for (label, text) in inputs {
        let root = parse(text).map_err(|e| format!("{label}: {e}"))?;
        let cs = root
            .get("counters")
            .ok_or_else(|| format!("{label}: missing counters object"))?;
        if let Json::Obj(members) = cs {
            for (name, v) in members {
                let v = get_u64(v).ok_or_else(|| {
                    format!("{label}: counter {name:?} is not a count (a whole number 0..=2^53)")
                })?;
                *counters.entry(name.clone()).or_insert(0) += v;
            }
        } else {
            return Err(format!("{label}: counters is not an object"));
        }
        let hs = root
            .get("histograms")
            .ok_or_else(|| format!("{label}: missing histograms object"))?;
        if let Json::Obj(members) = hs {
            for (name, v) in members {
                let h = parse_hist(name, v).map_err(|e| format!("{label}: {e}"))?;
                match hists.get_mut(name) {
                    None => {
                        hists.insert(name.clone(), h);
                    }
                    Some(acc) => {
                        if acc.bounds != h.bounds || acc.counts.len() != h.counts.len() {
                            return Err(format!(
                                "{label}: histogram {name:?} bounds differ from an earlier \
                                 shard's; refusing to merge snapshots from different builds"
                            ));
                        }
                        for (a, c) in acc.counts.iter_mut().zip(&h.counts) {
                            *a += c;
                        }
                        acc.count += h.count;
                        acc.sum += h.sum;
                    }
                }
            }
        } else {
            return Err(format!("{label}: histograms is not an object"));
        }
    }

    Ok(render_metrics(
        counters.iter().map(|(name, &v)| (name.as_str(), v)),
        hists.values(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_metrics;

    const A: &str = "{\"counters\":{\"vm_created\":3,\"migrations\":1},\"histograms\":{\
        \"solve_us\":{\"bounds\":[10,100],\"counts\":[2,1,0],\"count\":3,\"sum\":55.5}}}\n";
    const B: &str = "{\"counters\":{\"vm_created\":4},\"histograms\":{\
        \"solve_us\":{\"bounds\":[10,100],\"counts\":[0,2,1],\"count\":3,\"sum\":301.5}}}\n";

    #[test]
    fn counters_sum_and_histograms_merge_bucketwise() {
        let merged = merge_metrics(&[
            ("a".to_string(), A.to_string()),
            ("b".to_string(), B.to_string()),
        ])
        .unwrap();
        assert!(merged.contains("\"vm_created\":7"), "{merged}");
        assert!(merged.contains("\"migrations\":1"));
        assert!(merged.contains("\"counts\":[2,3,1]"));
        assert!(merged.contains("\"count\":6,\"sum\":357"));
        validate_metrics(&merged).expect("merged snapshot passes the schema check");
    }

    #[test]
    fn merge_is_order_independent() {
        let ab = merge_metrics(&[
            ("a".to_string(), A.to_string()),
            ("b".to_string(), B.to_string()),
        ])
        .unwrap();
        let ba = merge_metrics(&[
            ("b".to_string(), B.to_string()),
            ("a".to_string(), A.to_string()),
        ])
        .unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn mismatched_bounds_are_refused() {
        let c = "{\"counters\":{},\"histograms\":{\
            \"solve_us\":{\"bounds\":[1],\"counts\":[0,0],\"count\":0,\"sum\":0}}}\n";
        let err = merge_metrics(&[
            ("a".to_string(), A.to_string()),
            ("c".to_string(), c.to_string()),
        ])
        .unwrap_err();
        assert!(err.contains("bounds differ"), "{err}");
    }

    #[test]
    fn counts_that_are_not_whole_exact_numbers_are_refused() {
        for bad in ["-1", "2.5", "1e300", "18014398509481984"] {
            let counter = format!("{{\"counters\":{{\"c\":{bad}}},\"histograms\":{{}}}}\n");
            let err = merge_metrics(&[("s1".to_string(), counter)]).unwrap_err();
            assert!(err.contains("counter \"c\" is not a count"), "{bad}: {err}");
            let bucket = format!(
                "{{\"counters\":{{}},\"histograms\":{{\"h\":{{\"bounds\":[1],\
                 \"counts\":[{bad},0],\"count\":1,\"sum\":1}}}}}}\n"
            );
            let err = merge_metrics(&[("s1".to_string(), bucket)]).unwrap_err();
            assert!(err.contains("is not a count"), "{bad}: {err}");
        }
        let max = "{\"counters\":{\"c\":9007199254740992},\"histograms\":{}}\n";
        let merged = merge_metrics(&[("s1".to_string(), max.to_string())]).unwrap();
        assert!(merged.contains("\"c\":9007199254740992"), "{merged}");
    }

    #[test]
    fn garbage_input_is_an_error_with_the_shard_label() {
        let err = merge_metrics(&[("s7-sb-x0".to_string(), "not json".to_string())]).unwrap_err();
        assert!(err.contains("s7-sb-x0"), "{err}");
    }
}
