//! # eards-lint — determinism & simulation-safety static analysis
//!
//! The repo's promise is a *bit-identical* reproduction of Goiri et al.'s
//! CLUSTER 2010 tables; until now that was enforced only dynamically, by
//! fingerprint proptests and regenerated-table diffs. This crate closes
//! the gap at the tooling layer: a hand-rolled Rust lexer (no `syn` — the
//! workspace vendors every dependency) plus a rule engine that walks each
//! `.rs` file and reports the domain-specific hazards clippy cannot see:
//!
//! | rule | hazard |
//! |------|--------|
//! | `D001` | `HashMap`/`HashSet` iteration (or map-typed fields) in sim-affecting crates |
//! | `D002` | wall-clock reads (`Instant::now`, `SystemTime`) outside `eards-obs`/`eards-bench` |
//! | `D003` | ambient randomness (`thread_rng`, `rand::random`, `from_entropy`) anywhere |
//! | `D004` | `partial_cmp(..).unwrap()/expect(..)` on floats — use `total_cmp` |
//! | `D005` | wall-clock / ambient-randomness APIs inside an `impl Persist` block |
//! | `P001` | `unwrap`/`expect`/`panic!`/literal indexing in sim library code |
//! | `C001` | raw float↔int `as` casts in `SimTime` arithmetic |
//! | `S001` | `lint:allow` marker missing its mandatory reason |
//!
//! Suppression is inline and *reasoned*:
//! `// lint:allow(D001): key-lookup only, never iterated` — covering the
//! comment's line and the line below it. There is no baseline: any
//! unsuppressed finding fails the gate.
//!
//! Surfaces: `eards lint [--format text|json]`, a blocking CI step, and
//! the fixture self-tests under `tests/`.

#![warn(missing_docs)]

pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

pub use items::{ItemIndex, Items, TypeShape};
pub use rules::{Finding, RuleId};
pub use source::SourceFile;

/// Lints one file given its workspace-relative `path` (which drives crate
/// attribution — see [`source::crate_of`]) and contents. The semantic
/// rules resolve `impl Persist` targets against this file only; use
/// [`lint_workspace`] for cross-file resolution.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let f = SourceFile::parse(path, text);
    let index = ItemIndex::build(std::iter::once(&f));
    rules::check_file(&f, &index)
}

/// The result of linting a file tree.
#[derive(Debug, Default)]
pub struct LintRun {
    /// How many `.rs` files were scanned.
    pub files: usize,
    /// Every finding, sorted by path, line, rule.
    pub findings: Vec<Finding>,
}

/// Directory names never descended into: build output, vendored deps,
/// VCS metadata, and the lint fixtures themselves (which are *meant* to
/// contain findings).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Collects every lintable `.rs` file under `root`, workspace-relative,
/// sorted for deterministic report order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file in the workspace rooted at `root`.
///
/// Two passes: every file is parsed first so the [`ItemIndex`] spans the
/// whole workspace, then the rules run per file — which is what lets
/// `SNAP001`/`SNAP002` check an `impl Persist for T` against a `struct T`
/// declared in a different file.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintRun> {
    let mut parsed = Vec::new();
    for path in workspace_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        parsed.push(SourceFile::parse(&rel, &text));
    }
    let index = ItemIndex::build(parsed.iter());
    let mut run = LintRun {
        files: parsed.len(),
        findings: Vec::new(),
    };
    for f in &parsed {
        run.findings.extend(rules::check_file(f, &index));
    }
    report::sort_findings(&mut run.findings);
    Ok(run)
}

/// Ascends from `start` to the workspace root: the first directory whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end() {
        let src = "\
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
fn f(s: &S) -> u32 {
    let x: Vec<f64> = vec![1.0];
    x.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s.m.len() as u32
}
";
        let fs = lint_source("crates/eards-model/src/x.rs", src);
        assert!(fs.iter().any(|f| f.rule == RuleId::D001 && f.line == 2));
        assert!(fs.iter().any(|f| f.rule == RuleId::D004 && f.line == 5));
        // `as u32` is not SimTime arithmetic here — no C001.
        assert!(!fs.iter().any(|f| f.rule == RuleId::C001));
    }

    #[test]
    fn non_sim_crates_skip_scoped_rules() {
        let src = "struct S { m: HashMap<u32, u32> }\nfn f() { x.unwrap(); }\n";
        let fs = lint_source("crates/eards-metrics/src/x.rs", src);
        assert!(fs.iter().all(|f| f.rule != RuleId::D001));
        assert!(fs.iter().all(|f| f.rule != RuleId::P001));
    }

    #[test]
    fn workspace_index_resolves_cross_file_persist_targets() {
        // Scratch workspace: the struct and its codec live in different
        // files, so only the two-pass ItemIndex can see the field list.
        let root = std::env::temp_dir().join(format!("eards-lint-xfile-{}", std::process::id()));
        let src_dir = root.join("crates/eards-model/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("def.rs"),
            "pub struct Remote {\n    pub alpha: u64,\n    pub beta: u64,\n}\n",
        )
        .unwrap();
        std::fs::write(
            src_dir.join("codec.rs"),
            "impl Persist for Remote {\n\
             \x20   fn persist(&self, w: &mut Writer) {\n\
             \x20       w.put_u64(self.alpha);\n\
             \x20   }\n\
             \x20   fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {\n\
             \x20       Ok(Remote { alpha: r.get_u64()?, beta: 0 })\n\
             \x20   }\n\
             }\n",
        )
        .unwrap();
        // A name defined in two files is Ambiguous: its incomplete codec
        // must draw nothing rather than guess a field list.
        std::fs::write(src_dir.join("dup_a.rs"), "pub struct Dup { pub x: u64 }\n").unwrap();
        std::fs::write(src_dir.join("dup_b.rs"), "pub struct Dup { pub y: u64 }\n").unwrap();
        std::fs::write(
            src_dir.join("dup_codec.rs"),
            "impl Persist for Dup {\n\
             \x20   fn persist(&self, _w: &mut Writer) {}\n\
             \x20   fn restore(_r: &mut Reader<'_>) -> Result<Self, PersistError> { todo!() }\n\
             }\n",
        )
        .unwrap();

        let run = lint_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).ok();

        let snap: Vec<_> = run
            .findings
            .iter()
            .filter(|f| f.rule == RuleId::SNAP001)
            .collect();
        assert_eq!(snap.len(), 1, "only Remote::beta is uncovered: {snap:?}");
        assert_eq!(snap[0].path, "crates/eards-model/src/codec.rs");
        // Cross-file targets anchor on the impl header, not the distant field.
        assert_eq!(snap[0].line, 1);
        assert!(snap[0].message.contains("`beta`"), "{}", snap[0].message);
        assert!(
            snap[0].message.contains("restored but never persisted"),
            "{}",
            snap[0].message
        );
        // The filter above also proves no SNAP001 was invented for the
        // ambiguous Dup despite its plainly incomplete codec.
    }

    #[test]
    fn workspace_root_discovery() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("runs inside the workspace");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").exists());
    }
}
