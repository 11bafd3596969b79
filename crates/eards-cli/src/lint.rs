//! `eards lint` — the determinism/simulation-safety gate over the
//! workspace sources (see the `eards-lint` crate for the rules).

use std::path::PathBuf;

use eards_lint::{find_workspace_root, lint_workspace, report};

use crate::args::ArgSpec;
use crate::setup::CliError;

/// Runs the lint gate.
///
/// `eards lint [--format text|json] [--root DIR]`
///
/// Exit behavior: clean runs return the report as normal output; any
/// finding returns [`CliError::Lint`] so the binary exits 1 with the
/// report on stdout.
pub fn lint_cmd(tokens: &[String]) -> Result<String, CliError> {
    let args = ArgSpec::new(&["format", "root"], &[]).parse(tokens.to_vec())?;
    let format = args.value("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(CliError::Usage(format!(
            "--format must be text or json, not {format:?}"
        )));
    }
    let root = match args.value("root") {
        Some(dir) => PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()?;
            find_workspace_root(&cwd).ok_or_else(|| {
                CliError::Usage(
                    "not inside a cargo workspace (no Cargo.toml with [workspace] above \
                     the current directory); pass --root DIR"
                        .into(),
                )
            })?
        }
    };
    let run = lint_workspace(&root)?;
    let rendered = match format {
        "json" => report::render_json(run.files, &run.findings),
        _ => report::render_text(run.files, &run.findings),
    };
    if run.findings.is_empty() {
        Ok(rendered)
    } else {
        Err(CliError::Lint(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Builds a scratch "workspace" with one offending file and lints it.
    fn scratch(name: &str, file_rel: &str, src: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("eards_lint_cli_{name}"));
        let file = root.join(file_rel);
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(&file, src).unwrap();
        root
    }

    #[test]
    fn clean_tree_passes_and_json_is_shaped() {
        let root = scratch(
            "clean",
            "crates/eards-model/src/ok.rs",
            "pub fn f(x: f64, y: f64) -> std::cmp::Ordering { x.total_cmp(&y) }\n",
        );
        let out = lint_cmd(&toks(&format!("--root {}", root.display()))).unwrap();
        assert!(out.contains("0 finding(s)"), "{out}");
        let json = lint_cmd(&toks(&format!("--root {} --format json", root.display()))).unwrap();
        assert!(json.contains("\"new\":[]"), "{json}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn any_finding_fails() {
        let root = scratch(
            "dirty",
            "crates/eards-model/src/bad.rs",
            "pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        );
        // A stray baseline file from an older checkout changes nothing.
        std::fs::write(
            root.join("lint-baseline.toml"),
            "[[allow]]\nrule = \"D004\"\npath = \"crates/eards-model/src/bad.rs\"\ncount = 1\n",
        )
        .unwrap();
        for format in ["text", "json"] {
            let args = format!("--root {} --format {format}", root.display());
            match lint_cmd(&toks(&args)).unwrap_err() {
                CliError::Lint(report) => assert!(report.contains("D004"), "{report}"),
                other => panic!("expected lint failure, got {other:?}"),
            }
        }
        // The retired baseline flags are unknown now.
        for flag in ["--write-baseline", "--baseline lint-baseline.toml"] {
            let args = format!("--root {} {flag}", root.display());
            assert!(
                matches!(lint_cmd(&toks(&args)), Err(CliError::Args(_))),
                "{flag}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bad_format_is_a_usage_error() {
        assert!(matches!(
            lint_cmd(&toks("--format yaml")),
            Err(CliError::Usage(_))
        ));
    }
}
