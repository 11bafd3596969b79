//! Rendering: human text and machine JSON.

use crate::rules::Finding;

/// Renders the findings as human-oriented text. `files` is how many
/// files were scanned.
pub fn render_text(files: usize, findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: {} {}\n",
            f.path,
            f.line,
            f.rule.name(),
            f.message
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "lint: {} files scanned, {} finding(s)\n",
        files,
        findings.len()
    ));
    out
}

/// Renders the findings as a single JSON object (stable keys; findings
/// sorted by path/line/rule upstream).
pub fn render_json(files: usize, findings: &[Finding]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"files\":{},", files));
    out.push_str("\"new\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule.name(),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out.push('\n');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Re-exported for tests and the CLI: sorts findings into report order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn json_is_escaped_and_shaped() {
        let findings = [Finding {
            rule: RuleId::D004,
            path: "a \"b\".rs".into(),
            line: 7,
            message: "line1\nline2".into(),
        }];
        let j = render_json(10, &findings);
        assert!(
            j.starts_with("{\"files\":10,\"new\":[{\"rule\":\"D004\","),
            "{j}"
        );
        assert!(j.ends_with("}]}\n"), "{j}");
        assert!(j.contains("\\\"b\\\""));
        assert!(j.contains("line1\\nline2"));
        assert_eq!(render_json(3, &[]), "{\"files\":3,\"new\":[]}\n");
    }

    #[test]
    fn text_summarizes() {
        let t = render_text(12, &[]);
        assert_eq!(t, "lint: 12 files scanned, 0 finding(s)\n");
    }
}
