//! Fixture self-tests: one positive and one negative file per rule,
//! asserting *exact* rule IDs, paths, and line numbers.
//!
//! The fixtures live under `fixtures/` (which the workspace walker skips
//! — they are supposed to contain findings) and are linted here under
//! *virtual* workspace paths, so crate-scoped rules (sim-affecting,
//! clock-allowlisted) see the crate they are meant to test.

use eards_lint::{lint_source, Finding, RuleId};

/// Lints fixture `text` as if it lived at `path`, returning `(rule, line)`
/// pairs (already sorted by line, then rule).
fn run(path: &str, text: &str) -> Vec<(RuleId, u32)> {
    let findings = lint_source(path, text);
    for f in &findings {
        assert_eq!(f.path, path, "finding carries the linted path: {f:?}");
        assert!(!f.message.is_empty(), "finding has a message: {f:?}");
    }
    findings
        .iter()
        .map(|f: &Finding| (f.rule, f.line))
        .collect()
}

/// Asserts the fixture yields exactly `expected` `(rule, line)` pairs.
fn expect(path: &str, text: &str, expected: &[(RuleId, u32)]) {
    assert_eq!(run(path, text), expected, "fixture {path}");
}

const SIM: &str = "crates/eards-sim/src/fixture.rs";

#[test]
fn d001_positive() {
    expect(
        SIM,
        include_str!("../fixtures/d001_pos.rs"),
        &[
            (RuleId::D001, 5),
            (RuleId::D001, 6),
            (RuleId::D001, 11),
            (RuleId::D001, 14),
        ],
    );
}

#[test]
fn d001_negative() {
    expect(SIM, include_str!("../fixtures/d001_neg.rs"), &[]);
}

#[test]
fn d001_is_scoped_to_sim_affecting_crates() {
    // The same offending source in a non-sim crate is clean.
    expect(
        "crates/eards-metrics/src/fixture.rs",
        include_str!("../fixtures/d001_pos.rs"),
        &[],
    );
}

#[test]
fn d002_positive() {
    expect(
        SIM,
        include_str!("../fixtures/d002_pos.rs"),
        &[(RuleId::D002, 3), (RuleId::D002, 4)],
    );
}

#[test]
fn d002_negative_allowlisted_crate() {
    expect(
        "crates/eards-obs/src/fixture.rs",
        include_str!("../fixtures/d002_neg.rs"),
        &[],
    );
}

#[test]
fn d004_positive() {
    // The same chains are also panic hazards (P001) in a sim crate — the
    // rules overlap deliberately: fixing with total_cmp clears both.
    expect(
        SIM,
        include_str!("../fixtures/d004_pos.rs"),
        &[
            (RuleId::D004, 3),
            (RuleId::P001, 3),
            (RuleId::D004, 7),
            (RuleId::P001, 7),
        ],
    );
}

#[test]
fn d004_negative() {
    expect(SIM, include_str!("../fixtures/d004_neg.rs"), &[]);
}

#[test]
fn d005_positive_even_in_clock_allowed_crates() {
    // eards-obs is on D002's allowlist, so these wall-clock reads would
    // otherwise pass; inside `impl Persist` they are still findings.
    expect(
        "crates/eards-obs/src/fixture.rs",
        include_str!("../fixtures/d005_pos.rs"),
        &[
            (RuleId::D005, 7),
            (RuleId::D005, 8),
            (RuleId::D005, 9),
            (RuleId::D005, 18),
        ],
    );
}

#[test]
fn d005_overlaps_d002_in_sim_crates() {
    // In a sim crate the same source draws D002 too — fixing the impl
    // clears both, exactly like the D004/P001 overlap.
    let got = run(SIM, include_str!("../fixtures/d005_pos.rs"));
    assert!(got.contains(&(RuleId::D005, 7)));
    assert!(got.contains(&(RuleId::D002, 7)));
}

#[test]
fn d005_negative() {
    expect(
        "crates/eards-obs/src/fixture.rs",
        include_str!("../fixtures/d005_neg.rs"),
        &[],
    );
}

#[test]
fn p001_positive() {
    expect(
        "crates/eards-datacenter/src/fixture.rs",
        include_str!("../fixtures/p001_pos.rs"),
        &[
            (RuleId::P001, 3),
            (RuleId::P001, 4),
            (RuleId::P001, 6),
            (RuleId::P001, 8),
        ],
    );
}

#[test]
fn p001_negative() {
    expect(
        "crates/eards-datacenter/src/fixture.rs",
        include_str!("../fixtures/p001_neg.rs"),
        &[],
    );
}

#[test]
fn p001_skips_integration_test_paths() {
    // tests/ directories are all-test: unwraps there are fine.
    expect(
        "crates/eards-datacenter/tests/fixture.rs",
        include_str!("../fixtures/p001_pos.rs"),
        &[],
    );
}

#[test]
fn p001_persist_bodies_fire_outside_sim_crates() {
    // eards-metrics is not sim-affecting, so whole-file P001 is off —
    // but the `impl Persist` body is still held to the codec standard.
    expect(
        "crates/eards-metrics/src/fixture.rs",
        include_str!("../fixtures/p001_persist_pos.rs"),
        &[
            (RuleId::P001, 9),
            (RuleId::P001, 11),
            (RuleId::P001, 16),
            (RuleId::P001, 18),
        ],
    );
}

#[test]
fn p001_persist_positive_draws_more_in_sim_crates() {
    // The same source in a sim crate is whole-file scope: every hazard
    // fires, codec or not (superset of the non-sim findings).
    let got = run(SIM, include_str!("../fixtures/p001_persist_pos.rs"));
    assert_eq!(
        got,
        &[
            (RuleId::P001, 9),
            (RuleId::P001, 11),
            (RuleId::P001, 16),
            (RuleId::P001, 18),
        ]
    );
}

#[test]
fn p001_persist_negative() {
    // Clean codec + panicking non-codec code in a non-sim crate: no
    // findings (the unwrap outside the impl is out of scope there).
    expect(
        "crates/eards-metrics/src/fixture.rs",
        include_str!("../fixtures/p001_persist_neg.rs"),
        &[],
    );
}

#[test]
fn c001_positive() {
    expect(
        SIM,
        include_str!("../fixtures/c001_pos.rs"),
        &[(RuleId::C001, 3), (RuleId::C001, 3)],
    );
}

#[test]
fn c001_negative() {
    expect(SIM, include_str!("../fixtures/c001_neg.rs"), &[]);
}

#[test]
fn s001_positive() {
    // Malformed markers are findings AND suppress nothing: the field the
    // reasonless marker sat on still gets its D001.
    expect(
        SIM,
        include_str!("../fixtures/s001_pos.rs"),
        &[(RuleId::S001, 6), (RuleId::D001, 7), (RuleId::S001, 10)],
    );
}

#[test]
fn s001_negative() {
    expect(SIM, include_str!("../fixtures/s001_neg.rs"), &[]);
}

#[test]
fn snap001_positive() {
    // `skew` write-only (line 7), `drift` read-only (line 8), `label`
    // in neither direction (line 9); `ticks` is covered and silent.
    expect(
        SIM,
        include_str!("../fixtures/snap001_pos.rs"),
        &[
            (RuleId::SNAP001, 7),
            (RuleId::SNAP001, 8),
            (RuleId::SNAP001, 9),
        ],
    );
}

#[test]
fn snap001_fires_in_every_crate() {
    // Unlike P001, the Persist coverage rules have no crate scoping: a
    // codec that drops fields is wrong wherever it lives.
    let got = run(
        "crates/eards-metrics/src/fixture.rs",
        include_str!("../fixtures/snap001_pos.rs"),
    );
    assert_eq!(
        got,
        &[
            (RuleId::SNAP001, 7),
            (RuleId::SNAP001, 8),
            (RuleId::SNAP001, 9),
        ]
    );
}

#[test]
fn snap001_negative() {
    expect(SIM, include_str!("../fixtures/snap001_neg.rs"), &[]);
}

#[test]
fn snap002_positive() {
    // `Draining` has a write arm but no read arm (line 8); `Halted` has
    // neither (line 9).
    expect(
        SIM,
        include_str!("../fixtures/snap002_pos.rs"),
        &[(RuleId::SNAP002, 8), (RuleId::SNAP002, 9)],
    );
}

#[test]
fn snap002_negative() {
    expect(SIM, include_str!("../fixtures/snap002_neg.rs"), &[]);
}

#[test]
fn snap003_positive() {
    // `Plain` lacks the attribute on both methods (lines 10, 13), `Pinned`
    // opts out with `inline(never)` (line 24), `Pair` carries only an
    // unrelated attribute (line 31).
    expect(
        SIM,
        include_str!("../fixtures/snap003_pos.rs"),
        &[
            (RuleId::SNAP003, 10),
            (RuleId::SNAP003, 13),
            (RuleId::SNAP003, 24),
            (RuleId::SNAP003, 31),
        ],
    );
}

#[test]
fn snap003_fires_in_every_crate() {
    // A codec anywhere can be called from another crate.
    let got = run(
        "crates/eards-metrics/src/fixture.rs",
        include_str!("../fixtures/snap003_pos.rs"),
    );
    assert_eq!(
        got,
        &[
            (RuleId::SNAP003, 10),
            (RuleId::SNAP003, 13),
            (RuleId::SNAP003, 24),
            (RuleId::SNAP003, 31),
        ]
    );
}

#[test]
fn snap003_negative() {
    expect(SIM, include_str!("../fixtures/snap003_neg.rs"), &[]);
}

#[test]
fn s002_positive() {
    expect(
        SIM,
        include_str!("../fixtures/s002_pos.rs"),
        &[(RuleId::S002, 3), (RuleId::S002, 9)],
    );
}

#[test]
fn s002_negative() {
    expect(SIM, include_str!("../fixtures/s002_neg.rs"), &[]);
}

#[test]
fn s002_flags_live_allows_whose_rule_is_out_of_scope_here() {
    // The d001_neg fixture's allows cover real D001 findings in a
    // sim-affecting crate — but lint the same file under a non-sim path
    // and D001 never fires, so the same markers are now dead weight.
    let got = run(
        "crates/eards-metrics/src/fixture.rs",
        include_str!("../fixtures/s002_neg.rs"),
    );
    assert_eq!(got, &[(RuleId::S002, 7)]);
}
