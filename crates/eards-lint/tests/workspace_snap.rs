//! SNAP001 against a *real* workspace struct, not a fixture: lint the
//! actual `eards-model/src/host.rs` source, then lint a copy with one
//! field's codec write deleted and assert the rule names exactly that
//! field at its declaration line. This is the acceptance check that the
//! semantic pass protects the code it was built for, byte for byte.

use eards_lint::{lint_source, RuleId};

const HOST_RS: &str = include_str!("../../eards-model/src/host.rs");
const HOST_PATH: &str = "crates/eards-model/src/host.rs";

/// The line the `reliability` field is declared on, located dynamically
/// so the test survives unrelated edits to the file.
fn reliability_decl_line() -> u32 {
    HOST_RS
        .lines()
        .position(|l| l.trim_start().starts_with("pub reliability:"))
        .map(|i| i as u32 + 1)
        .expect("HostSpec::reliability is declared in host.rs")
}

#[test]
fn real_host_codecs_are_clean() {
    let findings = lint_source(HOST_PATH, HOST_RS);
    let snap: Vec<_> = findings
        .iter()
        .filter(|f| matches!(f.rule, RuleId::SNAP001 | RuleId::SNAP002))
        .collect();
    assert!(
        snap.is_empty(),
        "every Persist impl in host.rs covers its fields/variants: {snap:?}"
    );
}

#[test]
fn dropping_a_real_field_write_is_caught_at_the_field_line() {
    let write = "w.put_f64(self.reliability);";
    assert!(HOST_RS.contains(write), "the codec write under test exists");
    // Blank the write out in place (line numbers stay stable).
    let broken = HOST_RS.replace(write, "");
    let findings = lint_source(HOST_PATH, &broken);
    let snap: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == RuleId::SNAP001)
        .collect();
    assert_eq!(snap.len(), 1, "exactly the dropped field: {snap:?}");
    assert!(
        snap[0].message.contains("`reliability`"),
        "names the field: {}",
        snap[0].message
    );
    assert!(
        snap[0].message.contains("restored but never persisted"),
        "names the missing direction: {}",
        snap[0].message
    );
    assert_eq!(
        snap[0].line,
        reliability_decl_line(),
        "anchored on the declaration"
    );
}

#[test]
fn dropping_a_real_restore_read_is_caught_too() {
    let read = "reliability: r.get_f64()?,";
    assert!(HOST_RS.contains(read), "the codec read under test exists");
    let broken = HOST_RS.replace(read, "");
    let findings = lint_source(HOST_PATH, &broken);
    let snap: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == RuleId::SNAP001)
        .collect();
    assert_eq!(snap.len(), 1, "exactly the dropped field: {snap:?}");
    assert!(
        snap[0].message.contains("persisted but never restored"),
        "names the missing direction: {}",
        snap[0].message
    );
}

#[test]
fn real_host_codecs_are_inline() {
    let findings = lint_source(HOST_PATH, HOST_RS);
    assert!(
        findings.iter().all(|f| f.rule != RuleId::SNAP003),
        "every Persist method in host.rs carries #[inline]: {findings:?}"
    );
}

#[test]
fn dropping_a_real_inline_is_caught_at_the_method_line() {
    let header = "impl Persist for HostSpec {\n    #[inline]\n    fn persist(";
    assert!(HOST_RS.contains(header), "the attribute under test exists");
    // Blank the attribute out in place (line numbers stay stable).
    let broken = HOST_RS.replace(header, "impl Persist for HostSpec {\n\n    fn persist(");
    let fn_line = HOST_RS
        .find(header)
        .map(|at| HOST_RS[..at].lines().count() as u32 + 3)
        .expect("located above");
    let snap: Vec<_> = lint_source(HOST_PATH, &broken)
        .into_iter()
        .filter(|f| f.rule == RuleId::SNAP003)
        .collect();
    assert_eq!(snap.len(), 1, "exactly the stripped method: {snap:?}");
    assert_eq!(snap[0].line, fn_line, "anchored on the `fn` line");
    assert!(
        snap[0]
            .message
            .contains("`persist` of `impl Persist for HostSpec`"),
        "names the method and impl: {}",
        snap[0].message
    );
}
