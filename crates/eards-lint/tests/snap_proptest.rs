//! Property test for SNAP001: generate a random struct definition plus a
//! Persist impl that omits one randomly chosen field from one or both
//! codec directions, and assert the rule flags exactly the omitted field
//! (and nothing at all when the impl is complete).

use eards_lint::{lint_source, RuleId};
use proptest::prelude::*;

/// Which codec direction(s) the generated impl drops the field from.
#[derive(Debug, Clone, Copy)]
enum Omit {
    Persist,
    Restore,
    Both,
}

/// Builds a lintable source file: `struct Snapshot { … }` plus an
/// `impl Persist for Snapshot` writing/reading every field except the
/// omitted one. Returns `(source, decl line of each field)`.
fn render(fields: &[String], omitted: Option<(usize, Omit)>) -> (String, Vec<u32>) {
    let mut src = String::from("pub struct Snapshot {\n");
    let mut decl_lines = Vec::with_capacity(fields.len());
    let mut line = 1u32;
    for name in fields {
        line += 1;
        decl_lines.push(line);
        src.push_str(&format!("    pub {name}: u64,\n"));
    }
    src.push_str("}\n\nimpl Persist for Snapshot {\n");
    src.push_str("    #[inline]\n    fn persist(&self, w: &mut Writer) {\n");
    for (i, name) in fields.iter().enumerate() {
        let drop_write = matches!(
            omitted,
            Some((j, Omit::Persist | Omit::Both)) if j == i
        );
        if !drop_write {
            src.push_str(&format!("        w.put_u64(self.{name});\n"));
        }
    }
    src.push_str("    }\n\n");
    src.push_str(
        "    #[inline]\n    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {\n",
    );
    src.push_str("        Ok(Snapshot {\n");
    for (i, name) in fields.iter().enumerate() {
        let drop_read = matches!(
            omitted,
            Some((j, Omit::Restore | Omit::Both)) if j == i
        );
        if !drop_read {
            src.push_str(&format!("            {name}: r.get_u64()?,\n"));
        }
    }
    src.push_str("        })\n    }\n}\n");
    (src, decl_lines)
}

/// 2–7 distinct field names. The `fld_` prefix keeps generated names
/// clear of `persist`/`restore`/`w`/`r`/`Snapshot`; the index suffix
/// guarantees distinctness whatever letters the generator draws.
fn field_names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(0usize..26, 2..8).prop_map(|codes| {
        codes
            .iter()
            .enumerate()
            .map(|(i, c)| format!("fld_{}{}", (b'a' + *c as u8) as char, i))
            .collect()
    })
}

fn omit_kind() -> impl Strategy<Value = Omit> {
    prop_oneof![Just(Omit::Persist), Just(Omit::Restore), Just(Omit::Both),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complete_impls_are_silent(fields in field_names()) {
        let (src, _) = render(&fields, None);
        let findings = lint_source("crates/eards-sim/src/gen.rs", &src);
        prop_assert!(
            findings.is_empty(),
            "complete codec must be clean: {findings:?}\n{src}"
        );
    }

    #[test]
    fn the_omitted_field_is_flagged_exactly(
        fields in field_names(),
        pick in 0usize..9973,
        kind in omit_kind(),
    ) {
        let idx = pick % fields.len();
        let (src, decl_lines) = render(&fields, Some((idx, kind)));
        let findings = lint_source("crates/eards-sim/src/gen.rs", &src);
        let snap: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::SNAP001)
            .collect();
        prop_assert_eq!(snap.len(), 1, "one finding: {:?}\n{}", findings, src);
        prop_assert!(
            snap[0].message.contains(&format!("`{}`", fields[idx])),
            "names the omitted field: {}",
            snap[0].message
        );
        prop_assert_eq!(snap[0].line, decl_lines[idx], "anchored on its declaration");
        let expect_dir = match kind {
            Omit::Persist => "restored but never persisted",
            Omit::Restore => "persisted but never restored",
            Omit::Both => "appears in neither",
        };
        prop_assert!(
            snap[0].message.contains(expect_dir),
            "direction {:?} in message: {}",
            kind,
            snap[0].message
        );
    }
}
