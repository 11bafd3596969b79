//! The rule registry and the token-pattern matchers.
//!
//! Every rule has a stable ID (used in `lint:allow(...)` markers) and
//! reports [`Finding`]s with exact line numbers. The rules encode
//! *domain* knowledge clippy cannot express: which crates
//! feed simulation state, which are allowed to read wall clocks, and why
//! `HashMap` iteration order or a NaN-panicking float sort would silently
//! break the bit-identical reproduction of the paper's tables.

use crate::items::{ItemIndex, TypeShape};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `HashMap`/`HashSet` iteration (or a map-typed struct field) in a
    /// sim-affecting crate: iteration order leaks into event order.
    D001,
    /// Wall-clock APIs (`Instant::now`, `SystemTime`) outside the
    /// allowlisted observability/bench crates.
    D002,
    /// Ambient randomness (`thread_rng`, `rand::random`, `from_entropy`):
    /// all RNG must flow from the seeded per-host streams.
    D003,
    /// `partial_cmp(..).unwrap()/expect(..)` on floats: NaN panics at a
    /// distance; use `f64::total_cmp`.
    D004,
    /// Wall-clock or ambient-randomness APIs (`Instant`, `SystemTime`,
    /// `thread_rng`) inside an `impl Persist` block: snapshot state must
    /// restore bit-identically on any machine at any time, so nothing
    /// host- or wall-clock-derived may be serialized. Applies everywhere,
    /// even in the crates D002 allowlists.
    D005,
    /// `unwrap`/`expect`/`panic!`/indexing-by-literal in non-test library
    /// code of the sim-affecting crates, and inside `impl Persist` bodies
    /// in every crate (a panicking codec loses the run it checkpoints).
    P001,
    /// `as` casts between float and integer in `SimTime`/`SimDuration`
    /// arithmetic: go through the rounding/clamping conversion helpers.
    C001,
    /// Persist field-coverage: a named field of `T` missing from the
    /// `persist` or `restore` body of `impl Persist for T` (or present in
    /// only one direction — write/read asymmetry). A forgotten field
    /// silently breaks the snapshot-identity guarantee every replay test
    /// stands on. Transient rebuilt-on-restore state carries a reasoned
    /// `lint:allow(SNAP001)` on its field declaration.
    SNAP001,
    /// Codec enum-tag exhaustiveness: a variant of `E` missing from the
    /// `persist` or `restore` body of `impl Persist for E` — a new
    /// variant without a tag arm in both directions corrupts snapshots.
    SNAP002,
    /// Codec inlining: a method of an `impl Persist` without `#[inline]`.
    /// The release profile has no LTO, so a codec method without the
    /// attribute cannot inline into a caller in another crate and every
    /// field read or write becomes an out-of-line call.
    SNAP003,
    /// Malformed suppression: `lint:allow` without a mandatory reason, or
    /// naming an unknown rule. Never suppressible.
    S001,
    /// Stale suppression: a well-formed `lint:allow` whose rule fires no
    /// finding on the lines it covers. Dead allows rot into false
    /// documentation; delete them. Never suppressible.
    S002,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: &'static [RuleId] = &[
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::P001,
        RuleId::C001,
        RuleId::SNAP001,
        RuleId::SNAP002,
        RuleId::SNAP003,
        RuleId::S001,
        RuleId::S002,
    ];

    /// The stable name (`D001`, …).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::P001 => "P001",
            RuleId::C001 => "C001",
            RuleId::SNAP001 => "SNAP001",
            RuleId::SNAP002 => "SNAP002",
            RuleId::SNAP003 => "SNAP003",
            RuleId::S001 => "S001",
            RuleId::S002 => "S002",
        }
    }

    /// Parses a rule name (as written in `lint:allow(...)`).
    pub fn from_name(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// One-line description, shown by `eards lint` output.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::D001 => "HashMap/HashSet iteration order leaks into simulation state",
            RuleId::D002 => "wall-clock read outside the observability/bench allowlist",
            RuleId::D003 => "ambient randomness instead of a seeded SimRng stream",
            RuleId::D004 => "partial_cmp().unwrap()/expect() on floats; use total_cmp",
            RuleId::D005 => "wall-clock/ambient-randomness API inside an impl Persist block",
            RuleId::P001 => {
                "panic hazard (unwrap/expect/panic!/literal index) in sim library \
                 code or an impl Persist body"
            }
            RuleId::C001 => "raw float<->int `as` cast in SimTime arithmetic",
            RuleId::SNAP001 => {
                "struct field missing from a persist/restore body of its \
                 impl Persist (snapshot drops or asymmetric codec)"
            }
            RuleId::SNAP002 => {
                "enum variant missing a tag arm in a persist/restore body \
                 of its impl Persist"
            }
            RuleId::SNAP003 => {
                "impl Persist method without #[inline] (codec cannot inline across crates)"
            }
            RuleId::S001 => "lint:allow marker without the mandatory reason",
            RuleId::S002 => "stale lint:allow: its rule fires nothing on the covered lines",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-oriented detail.
    pub message: String,
}

/// Runs every rule over one analyzed file.
///
/// Two stages: the rules first record *raw* findings (ignoring
/// suppressions), then suppression filtering happens here — which is what
/// lets `S002` see the difference between an allow that covers a real
/// finding and one that covers nothing. `index` is the workspace type
/// index the semantic rules resolve cross-file `impl Persist` targets
/// against; for single-file linting, build it over just that file.
pub fn check_file(f: &SourceFile, index: &ItemIndex) -> Vec<Finding> {
    let mut raw = Vec::new();
    d001_map_iteration(f, &mut raw);
    d002_wall_clock(f, &mut raw);
    d003_ambient_randomness(f, &mut raw);
    d004_partial_cmp_unwrap(f, &mut raw);
    d005_wall_state_in_persist(f, &mut raw);
    p001_panic_hazards(f, &mut raw);
    c001_simtime_casts(f, &mut raw);
    snap001_field_coverage(f, index, &mut raw);
    snap002_tag_exhaustiveness(f, index, &mut raw);
    snap003_codec_inline(f, &mut raw);
    let mut out: Vec<Finding> = raw
        .iter()
        .filter(|fd| !f.suppressed(fd.rule, fd.line))
        .cloned()
        .collect();
    // Malformed suppressions: not suppressible by construction.
    for &line in &f.malformed_suppressions {
        out.push(Finding {
            rule: RuleId::S001,
            path: f.path.clone(),
            line,
            message: "suppression needs a reason: `// lint:allow(RULE): <why>`".into(),
        });
    }
    // S002 — stale suppressions: a well-formed allow must cover at least
    // one raw finding of its rule on its own line or the line below.
    // (An allow for S001/S002 themselves can never match a raw finding,
    // so those markers are self-reportingly stale — by design.) Test code
    // is exempt: rules skip test lines, so allows there are documentation.
    for s in &f.suppressions {
        if !s.has_reason || f.in_test_code(s.line) {
            continue;
        }
        let used = raw
            .iter()
            .any(|fd| fd.rule == s.rule && (fd.line == s.line || fd.line == s.line + 1));
        if !used {
            out.push(Finding {
                rule: RuleId::S002,
                path: f.path.clone(),
                line: s.line,
                message: format!(
                    "stale suppression: no {} finding on this line or the next — \
                     delete the lint:allow",
                    s.rule.name()
                ),
            });
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Records a raw finding. Suppression filtering happens in [`check_file`]
/// after every rule has run, so `S002` can tell used allows from stale.
fn emit(f: &SourceFile, out: &mut Vec<Finding>, rule: RuleId, line: u32, message: String) {
    out.push(Finding {
        rule,
        path: f.path.clone(),
        line,
        message,
    });
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// D001 — map iteration in sim-affecting crates. Fires on (a) struct
/// fields of `HashMap`/`HashSet` type (any later iteration — even from
/// another file — would be order-dependent, so the *declaration* must
/// either become a `BTreeMap` or carry a reasoned `lint:allow`), and
/// (b) iteration-shaped calls / `for`-loops over map-typed bindings.
fn d001_map_iteration(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.is_sim_affecting() {
        return;
    }
    for (name, line) in &f.map_field_decls {
        if f.in_test_code(*line) {
            continue;
        }
        emit(
            f,
            out,
            RuleId::D001,
            *line,
            format!(
                "field `{name}` is a HashMap/HashSet in a sim-affecting crate; \
                 use BTreeMap/sorted snapshots if it is ever iterated, or \
                 suppress with the reason it is lookup-only"
            ),
        );
    }
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if f.in_test_code(t.line) {
            continue;
        }
        // name.iter() / self.name.keys() / name.drain() …
        if t.kind == TokenKind::Ident
            && f.map_bindings.contains(&t.text)
            && f.ct_punct(i + 1, '.')
            && f.ct_punct(i + 3, '(')
        {
            if let Some(m) = f.ct(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str()) {
                    emit(
                        f,
                        out,
                        RuleId::D001,
                        t.line,
                        format!(
                            "iterating `{}.{}()`: HashMap/HashSet order is \
                             nondeterministic",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // for pat in [&][mut] [self.] name { …
        if t.is_ident("in") {
            let mut j = i + 1;
            if f.ct_punct(j, '&') {
                j += 1;
            }
            if f.ct_is(j, "mut") {
                j += 1;
            }
            if f.ct_is(j, "self") && f.ct_punct(j + 1, '.') {
                j += 2;
            }
            if let Some(name) = f.ct(j) {
                if name.kind == TokenKind::Ident
                    && f.map_bindings.contains(&name.text)
                    && f.ct_punct(j + 1, '{')
                {
                    emit(
                        f,
                        out,
                        RuleId::D001,
                        t.line,
                        format!(
                            "`for … in {}`: HashMap/HashSet order is nondeterministic",
                            name.text
                        ),
                    );
                }
            }
        }
    }
}

/// D002 — wall-clock reads outside `eards-obs`/`eards-bench`. Simulated
/// time must come from the DES clock; a real-clock read anywhere else is
/// either a bug or belongs in the observability layer.
fn d002_wall_clock(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.is_clock_allowed() {
        return;
    }
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if t.is_ident("Instant")
            && f.ct_punct(i + 1, ':')
            && f.ct_punct(i + 2, ':')
            && f.ct_is(i + 3, "now")
        {
            emit(
                f,
                out,
                RuleId::D002,
                t.line,
                "`Instant::now()` outside eards-obs/eards-bench: sim code must use \
                 the simulation clock"
                    .into(),
            );
        }
        if t.is_ident("SystemTime") {
            emit(
                f,
                out,
                RuleId::D002,
                t.line,
                "`SystemTime` outside eards-obs/eards-bench: sim code must use the \
                 simulation clock"
                    .into(),
            );
        }
    }
}

/// D003 — ambient randomness, anywhere in the workspace. Every random
/// draw must flow from a seeded `SimRng` (or a fork of one); `thread_rng`
/// / `rand::random` / `from_entropy` would make runs irreproducible.
fn d003_ambient_randomness(f: &SourceFile, out: &mut Vec<Finding>) {
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        let hit = if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            Some(t.text.clone())
        } else if t.is_ident("rand")
            && f.ct_punct(i + 1, ':')
            && f.ct_punct(i + 2, ':')
            && f.ct_is(i + 3, "random")
        {
            Some("rand::random".to_string())
        } else {
            None
        };
        if let Some(api) = hit {
            emit(
                f,
                out,
                RuleId::D003,
                t.line,
                format!("`{api}`: all randomness must come from seeded SimRng streams"),
            );
        }
    }
}

/// D004 — `partial_cmp(..)` chained into `unwrap()`/`expect(..)`. On
/// floats this panics the moment a NaN reaches the comparison; for a
/// total order over floats `f64::total_cmp` is both panic-free and
/// deterministic. Applies everywhere, tests included — a NaN-panicking
/// sort in a test is still a flake waiting to happen.
fn d004_partial_cmp_unwrap(f: &SourceFile, out: &mut Vec<Finding>) {
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if !t.is_ident("partial_cmp") {
            continue;
        }
        // A call site: `x.partial_cmp(..)` or `T::partial_cmp(..)`; a
        // declaration (`fn partial_cmp`) is preceded by `fn`.
        let is_call = i > 0 && (f.ct_punct(i - 1, '.') || f.ct_punct(i - 1, ':'));
        if !is_call || !f.ct_punct(i + 1, '(') {
            continue;
        }
        // Skip the balanced argument list.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < n {
            if f.ct_punct(j, '(') {
                depth += 1;
            } else if f.ct_punct(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if f.ct_punct(j + 1, '.') && (f.ct_is(j + 2, "unwrap") || f.ct_is(j + 2, "expect")) {
            emit(
                f,
                out,
                RuleId::D004,
                t.line,
                "`partial_cmp(..).unwrap()/expect(..)` panics on NaN; use \
                 `f64::total_cmp`"
                    .into(),
            );
        }
    }
}

/// APIs that have no business near serialized state: wall clocks drift
/// between machines, ambient RNGs reseed per process.
const D005_FORBIDDEN: &[&str] = &["Instant", "SystemTime", "thread_rng"];

/// Token-index ranges (inclusive, body brace to body brace) of every
/// `impl … Persist for …` block in the file, read off the item parser
/// (`impl<T: Persist> Persist for Vec<T>` still qualifies — generic
/// parameter lists are skipped before the trait path is read). Shared by
/// D005 (wall state in codecs) and P001 (panic hazards in codecs outside
/// the sim-affecting crates). Note macro template bodies are opaque to
/// the item parser, so `impl Persist for $t` inside `macro_rules!` is
/// (correctly) not a range.
fn persist_impl_ranges(f: &SourceFile) -> Vec<(usize, usize)> {
    f.items
        .impls
        .iter()
        .filter(|i| i.trait_name.as_deref() == Some("Persist"))
        .map(|i| i.body)
        .collect()
}

/// D005 — wall-clock or ambient-randomness APIs inside an `impl Persist`
/// block. A snapshot must restore bit-identically on a different machine
/// at a different time, so nothing derived from `Instant`, `SystemTime`
/// or `thread_rng` may flow through `persist`/`restore`. Unlike D002 this
/// applies in *every* crate: even the clock-allowlisted observability
/// layer must keep wall time out of its persisted form.
fn d005_wall_state_in_persist(f: &SourceFile, out: &mut Vec<Finding>) {
    for (lo, hi) in persist_impl_ranges(f) {
        for j in lo..=hi {
            let Some(t) = f.ct(j) else { break };
            if t.kind == TokenKind::Ident
                && D005_FORBIDDEN.contains(&t.text.as_str())
                && !f.in_test_code(t.line)
            {
                emit(
                    f,
                    out,
                    RuleId::D005,
                    t.line,
                    format!(
                        "`{}` inside an `impl Persist` block: snapshots must \
                         restore bit-identically, so persisted state cannot \
                         come from wall clocks or ambient RNGs",
                        t.text
                    ),
                );
            }
        }
    }
}

/// P001 — panic hazards in non-test library code: `.unwrap()`,
/// `.expect(..)`, `panic!(..)`, and indexing with an integer literal
/// (`xs[0]`). A panic mid-simulation corrupts nothing *because* it
/// aborts — but a production-scale run losing hours to a recoverable edge
/// is exactly what ROADMAP's north star forbids.
///
/// Scope: the whole file in sim-affecting crates; elsewhere only the
/// bodies of `impl Persist` blocks. A panicking codec turns a routine
/// snapshot write into a lost run no matter which crate hosts it (the
/// `put_len` overflow panic lived exactly there), so codec bodies are
/// held to the sim-crate standard everywhere.
fn p001_panic_hazards(f: &SourceFile, out: &mut Vec<Finding>) {
    let sim = f.is_sim_affecting();
    let persist_ranges = if sim {
        Vec::new()
    } else {
        persist_impl_ranges(f)
    };
    if !sim && persist_ranges.is_empty() {
        return;
    }
    let in_scope = |i: usize| sim || persist_ranges.iter().any(|&(lo, hi)| lo <= i && i <= hi);
    let context = if sim {
        "sim library code"
    } else {
        "an impl Persist body"
    };
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if f.in_test_code(t.line) || !in_scope(i) {
            continue;
        }
        // .unwrap() / .expect(
        if i > 0
            && f.ct_punct(i - 1, '.')
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && f.ct_punct(i + 1, '(')
        {
            emit(
                f,
                out,
                RuleId::P001,
                t.line,
                format!(
                    "`.{}(..)` in {context}: return or propagate instead",
                    t.text
                ),
            );
        }
        // panic!(
        if t.is_ident("panic") && f.ct_punct(i + 1, '!') {
            emit(
                f,
                out,
                RuleId::P001,
                t.line,
                format!("`panic!` in {context}: return an error instead"),
            );
        }
        // xs[0] — literal index on an expression (ident or closing
        // bracket), which panics when the container is shorter.
        if t.is_punct('[')
            && i > 0
            && f.ct(i - 1)
                .is_some_and(|p| p.kind == TokenKind::Ident || p.is_punct(')') || p.is_punct(']'))
            && f.ct(i + 1).is_some_and(|x| x.kind == TokenKind::Int)
            && f.ct_punct(i + 2, ']')
        {
            emit(
                f,
                out,
                RuleId::P001,
                t.line,
                "indexing by integer literal panics when the container is shorter; \
                 use .get(..) or .first()"
                    .into(),
            );
        }
    }
}

/// Primitive numeric types a C001-relevant `as` cast can target.
const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// C001 — raw `as` casts in `SimTime`/`SimDuration` arithmetic (any
/// statement mentioning those types, plus the whole fixed-point
/// implementation in `eards-sim/src/time.rs`). Float→int truncates and
/// int→float loses precision past 2^53; both must flow through the
/// rounding/clamping helpers (`from_secs_f64`, `as_secs_f64`, …) so every
/// conversion decision is made exactly once.
fn c001_simtime_casts(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.is_sim_affecting() {
        return;
    }
    let whole_file = f.path.ends_with("eards-sim/src/time.rs");
    let n = f.code.len();
    let mut stmt_start = 0usize;
    let mut i = 0;
    while i < n {
        let is_boundary = f.ct_punct(i, ';') || f.ct_punct(i, '{') || f.ct_punct(i, '}');
        if is_boundary || i + 1 == n {
            let end = if is_boundary { i } else { n };
            let mentions_time = whole_file
                || (stmt_start..end).any(|k| f.ct_is(k, "SimTime") || f.ct_is(k, "SimDuration"));
            if mentions_time {
                for k in stmt_start..end {
                    let Some(t) = f.ct(k) else { break };
                    if f.in_test_code(t.line) {
                        continue;
                    }
                    if t.is_ident("as")
                        && f.ct(k + 1)
                            .is_some_and(|ty| NUMERIC_TYPES.contains(&ty.text.as_str()))
                    {
                        emit(
                            f,
                            out,
                            RuleId::C001,
                            t.line,
                            format!(
                                "`as {}` in SimTime arithmetic: use the \
                                 SimTime/SimDuration conversion helpers",
                                f.ct(k + 1).map(|t| t.text.as_str()).unwrap_or("?")
                            ),
                        );
                    }
                }
            }
            stmt_start = i + 1;
        }
        i += 1;
    }
}

/// True if any code token in `body` (inclusive brace-to-brace range) is
/// an identifier spelled `name`. This is deliberately name-level, not
/// flow-level: `self.load.persist(w)`, a restore struct-literal key
/// `load:`, or a local `let load = …` all count as coverage. The rules
/// trade a few theoretical false negatives (a shadowing local) for zero
/// false positives on every codec style in this workspace.
fn body_mentions(f: &SourceFile, body: (usize, usize), name: &str) -> bool {
    (body.0..=body.1).any(|ci| f.ct_is(ci, name))
}

/// The `persist`/`restore` method bodies of an `impl Persist`, if both
/// are present (an impl missing either is not a codec — e.g. a fixture
/// exercising an unrelated trait of the same name — and is skipped).
fn codec_bodies(imp: &crate::items::ImplDef) -> Option<((usize, usize), (usize, usize))> {
    Some((imp.method("persist")?.body, imp.method("restore")?.body))
}

/// Resolves the target type of `impl Persist for T`: the same file first
/// (every real codec in this workspace sits beside its type), then the
/// workspace index; ambiguous or unknown names resolve to `None` and the
/// semantic rules stay silent (scalar impls like `Persist for u64`,
/// std containers, macro expansions).
enum ResolvedTarget<'a> {
    /// Struct defined in this file — findings anchor on field lines.
    LocalStruct(&'a crate::items::StructDef),
    /// Enum defined in this file — findings anchor on variant lines.
    LocalEnum(&'a crate::items::EnumDef),
    /// Shape known only via the index — findings anchor on the impl line.
    Indexed(&'a TypeShape),
}

fn resolve_target<'a>(
    f: &'a SourceFile,
    index: &'a ItemIndex,
    name: &str,
) -> Option<ResolvedTarget<'a>> {
    if let Some(sd) = f.items.struct_def(name) {
        return Some(ResolvedTarget::LocalStruct(sd));
    }
    if let Some(ed) = f.items.enum_def(name) {
        return Some(ResolvedTarget::LocalEnum(ed));
    }
    match index.shape(name)? {
        TypeShape::Ambiguous => None,
        shape => Some(ResolvedTarget::Indexed(shape)),
    }
}

/// Formats the shared "which direction is missing" tail of a SNAP
/// diagnostic. `in_w`/`in_r` cannot both be true when this is called.
fn snap_direction(in_w: bool, in_r: bool) -> &'static str {
    match (in_w, in_r) {
        (false, false) => "appears in neither `persist` nor `restore`",
        (true, false) => "is persisted but never restored (write/read asymmetry)",
        (false, true) => "is restored but never persisted (write/read asymmetry)",
        (true, true) => unreachable!("caller emits only on missing coverage"),
    }
}

/// SNAP001 — Persist field-coverage. For every `impl Persist for T` where
/// `T` is a braced struct the analyzer can resolve, every named field
/// must be mentioned in *both* the `persist` and the `restore` body.
/// A field missing from both silently vanishes from snapshots; a field
/// in only one direction is a codec asymmetry that corrupts the read
/// framing. Transient rebuilt-on-restore state carries a reasoned
/// `lint:allow(SNAP001)` on its field declaration (local types) or on
/// the impl header (cross-file types).
fn snap001_field_coverage(f: &SourceFile, index: &ItemIndex, out: &mut Vec<Finding>) {
    for imp in &f.items.impls {
        if imp.trait_name.as_deref() != Some("Persist") || f.in_test_code(imp.line) {
            continue;
        }
        let Some(ty) = imp.type_name.as_deref() else {
            continue;
        };
        let Some((w_body, r_body)) = codec_bodies(imp) else {
            continue;
        };
        // (field name, anchor line) pairs for the resolved struct shape.
        let fields: Vec<(String, u32)> = match resolve_target(f, index, ty) {
            Some(ResolvedTarget::LocalStruct(sd)) if sd.named => sd
                .fields
                .iter()
                .map(|fd| (fd.name.clone(), fd.line))
                .collect(),
            Some(ResolvedTarget::Indexed(TypeShape::Struct {
                fields,
                named: true,
            })) => fields.iter().map(|n| (n.clone(), imp.line)).collect(),
            _ => continue, // enum (SNAP002's job), tuple/unit, unresolved
        };
        for (name, line) in fields {
            let in_w = body_mentions(f, w_body, &name);
            let in_r = body_mentions(f, r_body, &name);
            if in_w && in_r {
                continue;
            }
            emit(
                f,
                out,
                RuleId::SNAP001,
                line,
                format!(
                    "field `{name}` of `{ty}` {} in its impl Persist; persist+restore \
                     it, or mark it transient with a reasoned lint:allow(SNAP001)",
                    snap_direction(in_w, in_r)
                ),
            );
        }
    }
}

/// SNAP002 — codec enum-tag exhaustiveness. For every `impl Persist for
/// E` where `E` is an enum the analyzer can resolve, every variant name
/// must be mentioned in both the `persist` (tag write) and `restore`
/// (tag match) bodies — the exact hole a newly added variant opens when
/// only one direction grows an arm.
fn snap002_tag_exhaustiveness(f: &SourceFile, index: &ItemIndex, out: &mut Vec<Finding>) {
    for imp in &f.items.impls {
        if imp.trait_name.as_deref() != Some("Persist") || f.in_test_code(imp.line) {
            continue;
        }
        let Some(ty) = imp.type_name.as_deref() else {
            continue;
        };
        let Some((w_body, r_body)) = codec_bodies(imp) else {
            continue;
        };
        let variants: Vec<(String, u32)> = match resolve_target(f, index, ty) {
            Some(ResolvedTarget::LocalEnum(ed)) => ed
                .variants
                .iter()
                .map(|v| (v.name.clone(), v.line))
                .collect(),
            Some(ResolvedTarget::Indexed(TypeShape::Enum { variants })) => {
                variants.iter().map(|n| (n.clone(), imp.line)).collect()
            }
            _ => continue,
        };
        for (name, line) in variants {
            let in_w = body_mentions(f, w_body, &name);
            let in_r = body_mentions(f, r_body, &name);
            if in_w && in_r {
                continue;
            }
            emit(
                f,
                out,
                RuleId::SNAP002,
                line,
                format!(
                    "variant `{name}` of `{ty}` {} in its impl Persist: add the tag \
                     arm to both directions",
                    snap_direction(in_w, in_r)
                ),
            );
        }
    }
}

/// SNAP003 — codec inlining. Every method of an `impl Persist` must carry
/// `#[inline]` (or `#[inline(always)]`). Without LTO, a non-generic
/// method that calls anything is not inlined into other crates, so a
/// codec missing the attribute turns each nested field write and read of
/// a snapshot into an out-of-line call that returns its `Result` through
/// memory. Generic
/// impls and impls in any crate are held to the same rule: one shape for
/// every codec, no judgement calls. Test code is exempt.
fn snap003_codec_inline(f: &SourceFile, out: &mut Vec<Finding>) {
    for imp in &f.items.impls {
        if imp.trait_name.as_deref() != Some("Persist") || f.in_test_code(imp.line) {
            continue;
        }
        let ty = imp.type_name.as_deref().unwrap_or("_");
        for m in imp.methods.iter().filter(|m| !m.is_inline()) {
            emit(
                f,
                out,
                RuleId::SNAP003,
                m.line,
                format!(
                    "`{}` of `impl Persist for {ty}` lacks #[inline]: without it the \
                     codec call cannot inline into callers in other crates",
                    m.name
                ),
            );
        }
    }
}
