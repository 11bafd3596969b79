//! Per-file analysis context shared by every rule.
//!
//! One [`SourceFile`] is built per `.rs` file: the token stream, which
//! crate the file belongs to, which line ranges are test code, which
//! identifiers are bound to `HashMap`/`HashSet` values, and the
//! `lint:allow` suppressions in force.
//!
//! ## The suppression contract
//!
//! ```text
//! // lint:allow(D001): key-lookup only, never iterated
//! completion: HashMap<VmId, EventHandle>,
//! ```
//!
//! A suppression comment names exactly one rule and **must** carry a
//! non-empty reason after the colon; a reasonless `lint:allow` is itself
//! reported (rule `S001`) and suppresses nothing. The suppression covers
//! findings on the comment's own line (trailing form) and on the line
//! directly below it (line-above form).

use crate::items::{parse_items, Items};
use crate::lexer::{lex, Token, TokenKind};
use crate::rules::RuleId;

/// Crates whose code feeds the simulation state and therefore must be
/// deterministic and panic-free (rules D001, P001, C001 scope to these).
pub const SIM_AFFECTING: &[&str] = &[
    "eards-sim",
    "eards-model",
    "eards-core",
    "eards-policies",
    "eards-datacenter",
    "eards-workload",
];

/// Crates allowed to read wall clocks (rule D002's allowlist): the
/// observability layer timestamps real spans, the bench harness measures
/// real wall time, and the sweep supervisor uses wall time for worker
/// heartbeat timeouts and retry backoff. None feed results back into
/// simulation state.
pub const CLOCK_ALLOWED: &[&str] = &["eards-obs", "eards-bench", "eards-sweep"];

/// One `lint:allow` marker, parsed from a comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: RuleId,
    /// Line of the comment.
    pub line: u32,
    /// True if a non-empty reason followed the rule id.
    pub has_reason: bool,
}

/// A lexed file plus everything the rules need to know about it.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (e.g.
    /// `crates/eards-sim/src/rng.rs`).
    pub path: String,
    /// Crate name derived from the path (`eards-sim`, …; the workspace
    /// root package is `eards`).
    pub crate_name: String,
    /// Token stream including comments.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order. Rules
    /// walk this so comments never break a pattern.
    pub code: Vec<usize>,
    /// Inclusive line ranges that are test code (`#[cfg(test)] mod` bodies;
    /// whole file when under `tests/`).
    pub test_ranges: Vec<(u32, u32)>,
    /// Identifiers bound to `HashMap`/`HashSet` values in this file
    /// (struct fields and `let` bindings).
    pub map_bindings: Vec<String>,
    /// Lines of struct-field declarations of `HashMap`/`HashSet` type.
    pub map_field_decls: Vec<(String, u32)>,
    /// Parsed `lint:allow` markers.
    pub suppressions: Vec<Suppression>,
    /// Lines holding a malformed (reasonless) `lint:allow`.
    pub malformed_suppressions: Vec<u32>,
    /// Item skeletons (structs, enums, impls) — see [`crate::items`].
    pub items: Items,
}

impl SourceFile {
    /// Lexes and analyzes one file. `path` is the workspace-relative path;
    /// it determines crate attribution and test-file detection.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let crate_name = crate_of(path);
        let mut f = SourceFile {
            path: path.to_string(),
            crate_name,
            tokens,
            code,
            test_ranges: Vec::new(),
            map_bindings: Vec::new(),
            map_field_decls: Vec::new(),
            suppressions: Vec::new(),
            malformed_suppressions: Vec::new(),
            items: Items::default(),
        };
        if is_test_path(path) {
            f.test_ranges.push((0, u32::MAX));
        } else {
            f.find_cfg_test_modules();
        }
        f.find_map_bindings();
        f.find_suppressions();
        let items = parse_items(&f);
        f.items = items;
        f
    }

    /// The file's crate is one of the sim-affecting six.
    pub fn is_sim_affecting(&self) -> bool {
        SIM_AFFECTING.contains(&self.crate_name.as_str())
    }

    /// The file's crate may read wall clocks.
    pub fn is_clock_allowed(&self) -> bool {
        CLOCK_ALLOWED.contains(&self.crate_name.as_str())
    }

    /// True if `line` falls inside test code.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// True if a (well-formed) suppression for `rule` covers `line`:
    /// trailing on the same line, or on the line directly above.
    pub fn suppressed(&self, rule: RuleId, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && s.has_reason && (s.line == line || s.line + 1 == line))
    }

    /// The non-comment token at code-index `ci` (None past the end).
    pub fn ct(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    /// True if the code token at `ci` is an ident with text `s`.
    pub fn ct_is(&self, ci: usize, s: &str) -> bool {
        self.ct(ci).is_some_and(|t| t.is_ident(s))
    }

    /// True if the code token at `ci` is punctuation `c`.
    pub fn ct_punct(&self, ci: usize, c: char) -> bool {
        self.ct(ci).is_some_and(|t| t.is_punct(c))
    }

    /// Marks `#[cfg(test)] mod … { … }` bodies (attribute line through the
    /// matching closing brace) as test code. Other attributes between the
    /// `cfg(test)` and the `mod` keyword are tolerated.
    fn find_cfg_test_modules(&mut self) {
        let n = self.code.len();
        let mut i = 0;
        while i < n {
            // #[cfg(test)]
            let is_cfg_test = self.ct_punct(i, '#')
                && self.ct_punct(i + 1, '[')
                && self.ct_is(i + 2, "cfg")
                && self.ct_punct(i + 3, '(')
                && self.ct_is(i + 4, "test")
                && self.ct_punct(i + 5, ')')
                && self.ct_punct(i + 6, ']');
            if !is_cfg_test {
                i += 1;
                continue;
            }
            let start_line = self.ct(i).map(|t| t.line).unwrap_or(0);
            // Scan forward over any further attributes to the item keyword.
            let mut j = i + 7;
            while self.ct_punct(j, '#') && self.ct_punct(j + 1, '[') {
                // Skip the balanced [...] of the attribute.
                let mut depth = 0usize;
                let mut k = j + 1;
                while k < n {
                    if self.ct_punct(k, '[') {
                        depth += 1;
                    } else if self.ct_punct(k, ']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                j = k + 1;
            }
            if self.ct_is(j, "mod") {
                // Find the opening brace, then its match.
                let mut k = j;
                while k < n && !self.ct_punct(k, '{') {
                    k += 1;
                }
                let mut depth = 0usize;
                let mut end = k;
                while end < n {
                    if self.ct_punct(end, '{') {
                        depth += 1;
                    } else if self.ct_punct(end, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    end += 1;
                }
                let end_line = self.ct(end.min(n - 1)).map(|t| t.line).unwrap_or(u32::MAX);
                self.test_ranges.push((start_line, end_line));
                i = end + 1;
            } else {
                // `#[cfg(test)]` on a non-mod item (a lone fn or use):
                // treat just that line as test code.
                self.test_ranges.push((start_line, start_line + 1));
                i = j + 1;
            }
        }
    }

    /// Collects identifiers bound to `HashMap`/`HashSet` values: type
    /// ascriptions (`name: HashMap<…>` — struct fields and let bindings)
    /// and constructor assignments (`name = HashMap::new()` /
    /// `with_capacity` / `from`). Struct-field declarations additionally
    /// record their line (D001 flags those outright in sim crates).
    fn find_map_bindings(&mut self) {
        let n = self.code.len();
        // Track whether we're lexically inside a `struct … { … }` body so
        // `name: HashMap<…>` can be classified as a field (brace-depth
        // bookkeeping; close enough for declaration-site detection).
        let mut struct_depth: Vec<usize> = Vec::new(); // depths at which a struct body opened
        let mut depth = 0usize;
        let mut pending_struct = false;
        for i in 0..n {
            let Some(t) = self.ct(i) else { break };
            match t.kind {
                TokenKind::Ident if t.text == "struct" => pending_struct = true,
                TokenKind::Punct => match t.text.as_bytes().first() {
                    Some(b'{') => {
                        depth += 1;
                        if pending_struct {
                            struct_depth.push(depth);
                            pending_struct = false;
                        }
                    }
                    Some(b'}') => {
                        if struct_depth.last() == Some(&depth) {
                            struct_depth.pop();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    Some(b';') => pending_struct = false, // unit/tuple struct
                    _ => {}
                },
                _ => {}
            }
            // name : HashMap <   |   name : HashSet <
            let is_map_ty =
                (self.ct_is(i, "HashMap") || self.ct_is(i, "HashSet")) && self.ct_punct(i + 1, '<');
            if is_map_ty && i >= 2 && self.ct_punct(i - 1, ':') {
                if let Some(name_tok) = self.ct(i - 2) {
                    if name_tok.kind == TokenKind::Ident {
                        let name = name_tok.text.clone();
                        let in_struct = struct_depth.last() == Some(&depth);
                        if in_struct {
                            self.map_field_decls.push((name.clone(), name_tok.line));
                        }
                        if !self.map_bindings.contains(&name) {
                            self.map_bindings.push(name);
                        }
                    }
                }
            }
            // name = HashMap :: new ( … )  (also with_capacity / from)
            let is_ctor = (self.ct_is(i, "HashMap") || self.ct_is(i, "HashSet"))
                && self.ct_punct(i + 1, ':')
                && self.ct_punct(i + 2, ':')
                && (self.ct_is(i + 3, "new")
                    || self.ct_is(i + 3, "with_capacity")
                    || self.ct_is(i + 3, "from"));
            if is_ctor && i >= 2 && self.ct_punct(i - 1, '=') {
                if let Some(name_tok) = self.ct(i - 2) {
                    if name_tok.kind == TokenKind::Ident
                        && !self.map_bindings.contains(&name_tok.text)
                    {
                        self.map_bindings.push(name_tok.text.clone());
                    }
                }
            }
        }
    }

    /// Parses `lint:allow(RULE): reason` markers out of comment tokens.
    ///
    /// Only *plain* comments (`//`, `/*`) carry suppressions — doc
    /// comments (`///`, `//!`, `/**`) are prose, so documentation that
    /// merely *describes* the marker syntax never suppresses (or
    /// malforms) anything.
    fn find_suppressions(&mut self) {
        for t in &self.tokens {
            if !t.is_comment() || is_doc_comment(&t.text) {
                continue;
            }
            let mut rest = t.text.as_str();
            while let Some(pos) = rest.find("lint:allow(") {
                rest = &rest[pos + "lint:allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                let rule_name = rest[..close].trim().to_string();
                rest = &rest[close + 1..];
                // Mandatory `: reason` — anything non-empty after a colon.
                let has_reason = rest
                    .strip_prefix(':')
                    .map(|r| {
                        let r = r.trim();
                        let end = r.find("lint:allow(").unwrap_or(r.len());
                        !r[..end].trim().is_empty()
                    })
                    .unwrap_or(false);
                match RuleId::from_name(&rule_name) {
                    Some(rule) if has_reason => self.suppressions.push(Suppression {
                        rule,
                        line: t.line,
                        has_reason,
                    }),
                    // Unknown rule or missing reason: the marker itself is
                    // a finding and suppresses nothing.
                    _ => self.malformed_suppressions.push(t.line),
                }
            }
        }
    }
}

/// True for doc comments: `///`, `//!`, `/**`, `/*!` (but not the bare
/// `/**/` or a plain `//`-comment whose body merely starts with `/`).
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && text != "/**/" && !text.starts_with("/***"))
        || text.starts_with("/*!")
}

/// Derives the owning crate from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    let path = path.replace('\\', "/");
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    // Workspace-root package (src/, tests/, examples/).
    "eards".to_string()
}

/// True for files that are test-only by location: integration `tests/`
/// directories (workspace root or per-crate) and `benches/`.
pub fn is_test_path(path: &str) -> bool {
    let path = path.replace('\\', "/");
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/eards-sim/src/rng.rs"), "eards-sim");
        assert_eq!(crate_of("src/lib.rs"), "eards");
        assert_eq!(crate_of("tests/chaos.rs"), "eards");
    }

    #[test]
    fn test_paths() {
        assert!(is_test_path("tests/chaos.rs"));
        assert!(is_test_path("crates/eards-core/tests/shard_oracle.rs"));
        assert!(!is_test_path("crates/eards-core/src/solver.rs"));
    }

    #[test]
    fn cfg_test_module_ranges() {
        let src = "\
fn live() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() { assert!(true); }
}

fn also_live() {}
";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert!(!f.in_test_code(1), "live fn");
        assert!(f.in_test_code(3), "attribute line");
        assert!(f.in_test_code(7), "test body");
        assert!(f.in_test_code(8), "closing brace");
        assert!(!f.in_test_code(10), "after the module");
    }

    #[test]
    fn cfg_test_with_extra_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n fn f() {}\n}\nfn live() {}\n";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn tests_dir_is_all_test_code() {
        let f = SourceFile::parse("tests/chaos.rs", "fn f() { x.unwrap(); }");
        assert!(f.in_test_code(1));
    }

    #[test]
    fn map_bindings_fields_and_lets() {
        let src = "\
struct S {
    completion: HashMap<VmId, Handle>,
    names: HashSet<String>,
    plain: Vec<u32>,
}
fn f() {
    let local: HashMap<u32, u32> = HashMap::new();
    let inferred = HashSet::new();
    let not_a_map = Vec::new();
}
";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert!(f.map_bindings.iter().any(|n| n == "completion"));
        assert!(f.map_bindings.iter().any(|n| n == "names"));
        assert!(f.map_bindings.iter().any(|n| n == "local"));
        assert!(f.map_bindings.iter().any(|n| n == "inferred"));
        assert!(!f.map_bindings.iter().any(|n| n == "plain"));
        assert!(!f.map_bindings.iter().any(|n| n == "not_a_map"));
        let fields: Vec<&str> = f.map_field_decls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(fields, ["completion", "names"], "locals are not fields");
    }

    #[test]
    fn suppressions_parse_and_cover_next_line() {
        let src = "\
// lint:allow(D001): key-lookup only
x: HashMap<u32, u32>,
y: HashMap<u32, u32>, // lint:allow(D001): trailing form
";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        assert!(f.suppressed(RuleId::D001, 2), "line-above form");
        assert!(f.suppressed(RuleId::D001, 3), "trailing form");
        assert!(!f.suppressed(RuleId::P001, 2), "other rules unaffected");
    }

    #[test]
    fn reasonless_suppressions_are_malformed() {
        for bad in [
            "// lint:allow(D001)",
            "// lint:allow(D001):",
            "// lint:allow(D001):   ",
            "// lint:allow(NOPE): not a rule",
        ] {
            let f = SourceFile::parse("crates/eards-sim/src/x.rs", bad);
            assert_eq!(
                f.malformed_suppressions,
                vec![1],
                "{bad:?} must be rejected"
            );
            assert!(f.suppressions.is_empty(), "{bad:?} must not suppress");
        }
    }

    #[test]
    fn suppressions_in_string_literals_are_inert() {
        // A raw string *describing* the marker syntax (e.g. in generated
        // docs or fixture text) must neither suppress nor malform.
        let src = "let s = r#\"use // lint:allow(D001): reason to suppress\"#;\n\
                   let t = \"lint:allow(P001)\";\n";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert!(f.suppressions.is_empty());
        assert!(f.malformed_suppressions.is_empty());
    }

    #[test]
    fn one_comment_can_carry_markers_for_several_rules() {
        // Both markers cover the comment's line and the line below — the
        // one-line form is how a field under two rules stays covered.
        let src = "// lint:allow(D001): lookups only. lint:allow(SNAP001): rebuilt on restore\n\
                   m: HashMap<u32, u32>,\n";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        assert!(f.suppressed(RuleId::D001, 2));
        assert!(f.suppressed(RuleId::SNAP001, 2));
        assert!(f.malformed_suppressions.is_empty());
    }

    #[test]
    fn doc_comments_never_carry_suppressions() {
        let src = "\
/// Write `// lint:allow(D001): reason` to suppress.
//! Or the malformed `lint:allow(RULE)` form.
/** Same for `lint:allow(NOPE)` in block docs. */
fn f() {}
";
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        assert!(f.suppressions.is_empty(), "docs must not suppress");
        assert!(
            f.malformed_suppressions.is_empty(),
            "docs must not be malformed markers either"
        );
    }
}
