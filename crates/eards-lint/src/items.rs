//! Item-level parsing: the semantic layer between the lexer and the rules.
//!
//! [`parse_items`] walks a file's comment-free token view with a small
//! recursive-descent parser and extracts *item skeletons* — no expression
//! grammar, just balanced-delimiter structure:
//!
//! * `struct` definitions with their named-field lists (tuple and unit
//!   structs are recorded without fields),
//! * `enum` definitions with their variant names,
//! * `impl` blocks (inherent and trait) with the trait name, the target
//!   type's head identifier, and every method's name + body token range.
//!
//! This is exactly the shape the semantic Persist rules need: `SNAP001`
//! checks that every field of a struct appears in both codec directions of
//! its `impl Persist`, and `SNAP002` does the same for enum variants. The
//! parser is *total* — malformed input degrades to fewer recognized items,
//! never a panic — because the linter must survive any code it audits.
//!
//! ## What the parser understands (and what it skips)
//!
//! Generic parameter lists are skipped with angle-depth tracking that
//! knows `->` (an arrow inside `Fn(..) -> T` sugar) is not a closing
//! angle, and that a `{ … }` group inside a generic position (const
//! generic expressions) suspends angle counting entirely. Function bodies,
//! trait bodies, and `macro_rules!` bodies are skipped wholesale: items
//! declared inside them are invisible, which keeps macro templates like
//! `impl Persist for $t` from polluting the item list. `mod` bodies are
//! descended into, so `#[cfg(test)] mod tests { … }` items are still
//! parsed (rules decide test-scope via [`SourceFile::in_test_code`]).

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// A named field of a braced struct.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based line of the field's name token.
    pub line: u32,
}

/// One enum variant.
#[derive(Debug, Clone)]
pub struct VariantDef {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant's name token.
    pub line: u32,
}

/// A `struct` definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name (without generics).
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in declaration order. Empty for tuple/unit structs.
    pub fields: Vec<FieldDef>,
    /// True for a braced struct (named fields), false for tuple/unit.
    pub named: bool,
}

/// An `enum` definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name (without generics).
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variants in declaration order.
    pub variants: Vec<VariantDef>,
}

/// A method (`fn`) inside an impl body.
#[derive(Debug, Clone)]
pub struct MethodDef {
    /// Method name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token index range of the body, **inclusive** of both braces.
    pub body: (usize, usize),
    /// The outer attributes on the method, each as its tokens between
    /// `#[` and `]` joined without spaces (`inline`, `inline(always)`,
    /// `allow(dead_code)`), in source order.
    pub attrs: Vec<String>,
}

impl MethodDef {
    /// True if the method carries `#[inline]` or `#[inline(always)]`.
    pub fn is_inline(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a == "inline" || a == "inline(always)")
    }
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Trait being implemented (`Persist` in `impl Persist for T`), the
    /// last path segment; `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Head identifier of the target type (`Vec` in `Vec<T>`, `ShardMap`
    /// in `crate::shard::ShardMap`); `None` for non-path targets like
    /// slices, tuples, or references to them.
    pub type_name: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Code-token index range of the body, **inclusive** of both braces.
    pub body: (usize, usize),
    /// Methods declared directly in the body.
    pub methods: Vec<MethodDef>,
}

impl ImplDef {
    /// The method named `name`, if declared in this impl.
    pub fn method(&self, name: &str) -> Option<&MethodDef> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Every item skeleton parsed out of one file.
#[derive(Debug, Clone, Default)]
pub struct Items {
    /// Struct definitions, in source order.
    pub structs: Vec<StructDef>,
    /// Enum definitions, in source order.
    pub enums: Vec<EnumDef>,
    /// Impl blocks, in source order.
    pub impls: Vec<ImplDef>,
}

impl Items {
    /// The struct named `name`, if defined in this file.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// The enum named `name`, if defined in this file.
    pub fn enum_def(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name)
    }
}

/// The shape of a type as the workspace index knows it.
#[derive(Debug, Clone)]
pub enum TypeShape {
    /// A struct: its named fields (empty + `named: false` for tuple/unit).
    Struct {
        /// Field names in declaration order.
        fields: Vec<String>,
        /// True for braced structs.
        named: bool,
    },
    /// An enum and its variant names.
    Enum {
        /// Variant names in declaration order.
        variants: Vec<String>,
    },
    /// More than one non-test definition shares this name — cross-file
    /// resolution would be a guess, so the semantic rules skip it.
    Ambiguous,
}

/// Workspace-wide map from type name to shape, built in a first pass over
/// every parsed file so `impl Persist for T` in one file can be checked
/// against `struct T` declared in another.
///
/// Definitions inside test code never enter the index (a test-local
/// `struct Host` must not shadow — or ambiguate — the real one). Name
/// collisions between files degrade to [`TypeShape::Ambiguous`]; the
/// rules then fall back to same-file resolution only, which is how every
/// real `impl Persist` in this workspace is laid out anyway.
#[derive(Debug, Default)]
pub struct ItemIndex {
    types: BTreeMap<String, TypeShape>,
}

impl ItemIndex {
    /// Builds the index over already-parsed files.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a SourceFile>) -> ItemIndex {
        let mut types: BTreeMap<String, TypeShape> = BTreeMap::new();
        let mut insert = |name: &str, shape: TypeShape| {
            types
                .entry(name.to_string())
                .and_modify(|e| *e = TypeShape::Ambiguous)
                .or_insert(shape);
        };
        for f in files {
            for s in &f.items.structs {
                if f.in_test_code(s.line) {
                    continue;
                }
                insert(
                    &s.name,
                    TypeShape::Struct {
                        fields: s.fields.iter().map(|fd| fd.name.clone()).collect(),
                        named: s.named,
                    },
                );
            }
            for e in &f.items.enums {
                if f.in_test_code(e.line) {
                    continue;
                }
                insert(
                    &e.name,
                    TypeShape::Enum {
                        variants: e.variants.iter().map(|v| v.name.clone()).collect(),
                    },
                );
            }
        }
        ItemIndex { types }
    }

    /// The shape registered under `name`, if any.
    pub fn shape(&self, name: &str) -> Option<&TypeShape> {
        self.types.get(name)
    }
}

/// Parses the item skeletons of `f`. Total: any input yields some
/// (possibly empty) item list.
pub fn parse_items(f: &SourceFile) -> Items {
    let mut p = Parser {
        f,
        out: Items::default(),
    };
    let n = f.code.len();
    p.scan_items(0, n);
    p.out
}

struct Parser<'a> {
    f: &'a SourceFile,
    out: Items,
}

impl<'a> Parser<'a> {
    fn is(&self, i: usize, s: &str) -> bool {
        self.f.ct_is(i, s)
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.f.ct_punct(i, c)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.f.ct(i).and_then(|t| {
            if t.kind == TokenKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    fn line(&self, i: usize) -> u32 {
        self.f.ct(i).map(|t| t.line).unwrap_or(0)
    }

    /// Index just past the group opened by the delimiter at `open`
    /// (`(`/`[`/`{`), or `end` if unbalanced.
    fn skip_group(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.f.ct(open).map(|t| t.text.as_bytes()[0]) {
            Some(b'(') => ('(', ')'),
            Some(b'[') => ('[', ']'),
            Some(b'{') => ('{', '}'),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.punct(i, o) {
                depth += 1;
            } else if self.punct(i, c) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Index of the `}` matching the `{` at `open` (or `end - 1`).
    fn match_brace(&self, open: usize, end: usize) -> usize {
        let after = self.skip_group(open, end);
        after.saturating_sub(1)
    }

    /// At a `<`: index just past the matching `>`. Arrow-aware (`->` and
    /// `=>` never close a generic) and brace-suspending (a `{ … }` const
    /// generic expression is skipped without angle counting, so shifts
    /// inside it cannot derail the depth).
    fn skip_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if (self.punct(i, '-') || self.punct(i, '=')) && self.punct(i + 1, '>') {
                i += 2;
                continue;
            }
            if self.punct(i, '{') {
                i = self.skip_group(i, end);
                continue;
            }
            if self.punct(i, '<') {
                depth += 1;
            } else if self.punct(i, '>') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Index just past an attribute at `i` (`#[…]` or `#![…]`).
    fn skip_attr(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.punct(j, '!') {
            j += 1;
        }
        if self.punct(j, '[') {
            self.skip_group(j, end)
        } else {
            i + 1
        }
    }

    /// Index just past a visibility marker (`pub`, `pub(crate)`, …).
    fn skip_vis(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.punct(j, '(') {
            j = self.skip_group(j, end);
        }
        j
    }

    /// Scans `lo..end` at item position, collecting items.
    fn scan_items(&mut self, lo: usize, end: usize) {
        let mut i = lo;
        while i < end {
            if self.punct(i, '#') {
                i = self.skip_attr(i, end);
                continue;
            }
            let Some(word) = self.ident(i) else {
                // Stray delimiter groups (extern blocks, leftover braces):
                // skip balanced so their contents stay invisible.
                if self.punct(i, '{') || self.punct(i, '(') || self.punct(i, '[') {
                    i = self.skip_group(i, end);
                } else {
                    i += 1;
                }
                continue;
            };
            match word {
                "pub" => i = self.skip_vis(i, end),
                "unsafe" | "default" | "async" => i += 1,
                "const" | "static" if self.ident(i + 1) == Some("fn") => i += 1,
                "extern" if self.ident(i + 2) != Some("crate") && !self.punct(i + 1, '{') => {
                    // `extern "C" fn` modifier; `extern crate x;` and
                    // `extern { … }` fall through to the semi/group skips.
                    i += 1;
                    if self.f.ct(i).is_some_and(|t| t.kind == TokenKind::Literal) {
                        i += 1;
                    }
                }
                "use" | "const" | "static" | "type" | "extern" => {
                    i = self.skip_to_semi(i + 1, end);
                }
                "fn" => i = self.skip_fn(i, end),
                "trait" => i = self.skip_braced_item(i, end),
                "macro_rules" => {
                    // macro_rules! name { … } — the template body is opaque.
                    let mut j = i + 1;
                    if self.punct(j, '!') {
                        j += 1;
                    }
                    j += 1; // macro name
                    i = self.skip_group(j, end);
                }
                "mod" => {
                    // mod name { items } | mod name;
                    let mut j = i + 2;
                    while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
                        j += 1;
                    }
                    if self.punct(j, '{') {
                        let close = self.match_brace(j, end);
                        self.scan_items(j + 1, close);
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "struct" => i = self.parse_struct(i, end),
                "enum" => i = self.parse_enum(i, end),
                "union" => i = self.skip_braced_item(i, end),
                "impl" => i = self.parse_impl(i, end),
                _ => i += 1,
            }
        }
    }

    /// Skips to just past the next `;` at brace depth 0 (initializer
    /// expressions may contain braced blocks).
    fn skip_to_semi(&self, lo: usize, end: usize) -> usize {
        let mut i = lo;
        while i < end {
            if self.punct(i, '{') {
                i = self.skip_group(i, end);
                continue;
            }
            if self.punct(i, ';') {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Skips a `fn`: signature to the body `{` (or a `;` for bodyless
    /// declarations), then the balanced body.
    fn skip_fn(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
            if self.punct(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            if self.punct(j, '(') {
                j = self.skip_group(j, end);
                continue;
            }
            j += 1;
        }
        if self.punct(j, '{') {
            self.skip_group(j, end)
        } else {
            j + 1
        }
    }

    /// Skips an item of the shape `keyword … { … }` (traits, unions).
    fn skip_braced_item(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
            if self.punct(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            j += 1;
        }
        if self.punct(j, '{') {
            self.skip_group(j, end)
        } else {
            j + 1
        }
    }

    /// Parses `struct Name …`, returning the index just past the item.
    fn parse_struct(&mut self, i: usize, end: usize) -> usize {
        let line = self.line(i);
        let Some(name) = self.ident(i + 1) else {
            return i + 1;
        };
        let name = name.to_string();
        let mut j = i + 2;
        if self.punct(j, '<') {
            j = self.skip_angles(j, end);
        }
        // Unit: `struct S;`
        if self.punct(j, ';') {
            self.out.structs.push(StructDef {
                name,
                line,
                fields: Vec::new(),
                named: false,
            });
            return j + 1;
        }
        // Tuple: `struct S(…);` (possibly with a where clause after).
        if self.punct(j, '(') {
            let after = self.skip_group(j, end);
            self.out.structs.push(StructDef {
                name,
                line,
                fields: Vec::new(),
                named: false,
            });
            return self.skip_to_semi(after, end);
        }
        // Braced, possibly after a where clause.
        while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
            if self.punct(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            j += 1;
        }
        if !self.punct(j, '{') {
            return j + 1;
        }
        let close = self.match_brace(j, end);
        let fields = self.parse_fields(j + 1, close);
        self.out.structs.push(StructDef {
            name,
            line,
            fields,
            named: true,
        });
        close + 1
    }

    /// Named fields between a struct body's braces.
    fn parse_fields(&self, lo: usize, close: usize) -> Vec<FieldDef> {
        let mut fields = Vec::new();
        let mut k = lo;
        while k < close {
            // Attributes and visibility before the name.
            if self.punct(k, '#') {
                k = self.skip_attr(k, close);
                continue;
            }
            if self.is(k, "pub") {
                k = self.skip_vis(k, close);
                continue;
            }
            if let Some(name) = self.ident(k) {
                // `name :` introduces a field; `name ::` is a path (not a
                // declaration — malformed body, just resync).
                if self.punct(k + 1, ':') && !self.punct(k + 2, ':') {
                    fields.push(FieldDef {
                        name: name.to_string(),
                        line: self.line(k),
                    });
                    k = self.skip_to_comma(k + 2, close);
                    continue;
                }
            }
            k = self.skip_to_comma(k, close);
        }
        fields
    }

    /// Skips a field's type (or a variant's tail) to just past the next
    /// `,` at depth 0. Angle depth is tracked arrow-aware so the commas
    /// inside `HashMap<K, V>` or `fn(A, B) -> C` never split a field.
    fn skip_to_comma(&self, lo: usize, close: usize) -> usize {
        let mut angle = 0usize;
        let mut k = lo;
        while k < close {
            if (self.punct(k, '-') || self.punct(k, '=')) && self.punct(k + 1, '>') {
                k += 2;
                continue;
            }
            if self.punct(k, '(') || self.punct(k, '[') || self.punct(k, '{') {
                k = self.skip_group(k, close);
                continue;
            }
            if self.punct(k, '<') {
                angle += 1;
            } else if self.punct(k, '>') {
                angle = angle.saturating_sub(1);
            } else if self.punct(k, ',') && angle == 0 {
                return k + 1;
            }
            k += 1;
        }
        close
    }

    /// Parses `enum Name { … }`, returning the index just past the item.
    fn parse_enum(&mut self, i: usize, end: usize) -> usize {
        let line = self.line(i);
        let Some(name) = self.ident(i + 1) else {
            return i + 1;
        };
        let name = name.to_string();
        let mut j = i + 2;
        while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
            if self.punct(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            j += 1;
        }
        if !self.punct(j, '{') {
            return j + 1;
        }
        let close = self.match_brace(j, end);
        let mut variants = Vec::new();
        let mut k = j + 1;
        while k < close {
            if self.punct(k, '#') {
                k = self.skip_attr(k, close);
                continue;
            }
            if let Some(v) = self.ident(k) {
                variants.push(VariantDef {
                    name: v.to_string(),
                    line: self.line(k),
                });
                k += 1;
                // Payload (tuple or struct variant), then discriminant /
                // separator.
                if self.punct(k, '(') || self.punct(k, '{') {
                    k = self.skip_group(k, close);
                }
                k = self.skip_to_comma(k, close);
                continue;
            }
            k = self.skip_to_comma(k, close);
        }
        self.out.enums.push(EnumDef {
            name,
            line,
            variants,
        });
        close + 1
    }

    /// Collects a type/trait path starting at `j`: skips leading `&`,
    /// `mut`, `dyn`, lifetimes and `!` (negative impls), then walks
    /// `seg::seg::…` remembering the last segment and skipping generic
    /// argument lists. Returns `(head identifier, index just past)`.
    fn collect_path(&self, j: usize, end: usize) -> (Option<String>, usize) {
        let mut k = j;
        loop {
            if self.punct(k, '&') || self.punct(k, '!') {
                k += 1;
                continue;
            }
            if self.f.ct(k).is_some_and(|t| t.kind == TokenKind::Lifetime) {
                k += 1;
                continue;
            }
            if self.is(k, "mut") || self.is(k, "dyn") {
                k += 1;
                continue;
            }
            break;
        }
        let mut last: Option<String> = None;
        loop {
            match self.ident(k) {
                Some(seg) if seg != "for" && seg != "where" => {
                    last = Some(seg.to_string());
                    k += 1;
                }
                _ => break,
            }
            if self.punct(k, '<') {
                k = self.skip_angles(k, end);
            }
            if self.punct(k, ':') && self.punct(k + 1, ':') {
                k += 2;
            } else {
                break;
            }
        }
        (last, k)
    }

    /// Parses an `impl` block, returning the index just past it.
    fn parse_impl(&mut self, i: usize, end: usize) -> usize {
        let line = self.line(i);
        let mut j = i + 1;
        if self.punct(j, '<') {
            j = self.skip_angles(j, end);
        }
        let (first_path, after_first) = self.collect_path(j, end);
        j = after_first;
        let (trait_name, type_name) = if self.is(j, "for") {
            let (ty, after_ty) = self.collect_path(j + 1, end);
            j = after_ty;
            (first_path, ty)
        } else {
            (None, first_path)
        };
        // Skip any where clause to the body brace.
        while j < end && !self.punct(j, '{') && !self.punct(j, ';') {
            if self.punct(j, '<') {
                j = self.skip_angles(j, end);
                continue;
            }
            if self.punct(j, '(') {
                j = self.skip_group(j, end);
                continue;
            }
            j += 1;
        }
        if !self.punct(j, '{') {
            return j + 1;
        }
        let close = self.match_brace(j, end);
        let methods = self.parse_methods(j + 1, close);
        self.out.impls.push(ImplDef {
            trait_name,
            type_name,
            line,
            body: (j, close),
            methods,
        });
        close + 1
    }

    /// The text of the outer attribute at `i` (`#[…]`): its tokens
    /// between the brackets joined without spaces. `None` for an inner
    /// attribute (`#![…]`) or a stray `#`.
    fn attr_text(&self, i: usize, end: usize) -> Option<String> {
        if !self.punct(i + 1, '[') {
            return None;
        }
        let close = self.match_brace(i + 1, end);
        Some(
            (i + 2..close)
                .filter_map(|k| self.f.ct(k).map(|t| t.text.as_str()))
                .collect(),
        )
    }

    /// Methods declared directly inside an impl body.
    fn parse_methods(&self, lo: usize, close: usize) -> Vec<MethodDef> {
        let mut methods = Vec::new();
        // Outer attributes seen since the last item boundary; they belong
        // to the next `fn` (visibility and qualifiers may sit between).
        let mut attrs = Vec::new();
        let mut k = lo;
        while k < close {
            if self.punct(k, '#') {
                attrs.extend(self.attr_text(k, close));
                k = self.skip_attr(k, close);
                continue;
            }
            if self.punct(k, ';') {
                // End of an associated const/type: its attributes are spent.
                attrs.clear();
                k += 1;
                continue;
            }
            if self.is(k, "fn") {
                // Only `fn name` declares a method; `fn(...)` is a type.
                let Some(name) = self.ident(k + 1) else {
                    k += 1;
                    continue;
                };
                let fn_line = self.line(k);
                let mut b = k + 2;
                while b < close && !self.punct(b, '{') && !self.punct(b, ';') {
                    if self.punct(b, '<') {
                        b = self.skip_angles(b, close);
                        continue;
                    }
                    if self.punct(b, '(') {
                        b = self.skip_group(b, close);
                        continue;
                    }
                    b += 1;
                }
                if self.punct(b, '{') {
                    let body_close = self.match_brace(b, close);
                    methods.push(MethodDef {
                        name: name.to_string(),
                        line: fn_line,
                        body: (b, body_close),
                        attrs: std::mem::take(&mut attrs),
                    });
                    k = body_close + 1;
                } else {
                    attrs.clear();
                    k = b + 1;
                }
                continue;
            }
            if self.punct(k, '{') {
                attrs.clear();
                k = self.skip_group(k, close);
                continue;
            }
            k += 1;
        }
        methods
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Items {
        let f = SourceFile::parse("crates/eards-sim/src/x.rs", src);
        parse_items(&f)
    }

    #[test]
    fn struct_fields_with_nested_generics() {
        let it = items(
            "pub struct S {\n\
             \x20   pub a: HashMap<u32, Vec<(u8, u8)>>,\n\
             \x20   b: fn(u32, u64) -> BTreeMap<u32, u32>,\n\
             \x20   #[serde(skip)]\n\
             \x20   pub(crate) c: [u8; 4],\n\
             }\n",
        );
        let s = it.struct_def("S").expect("parsed");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"], "generic commas never split fields");
        assert_eq!(s.fields[0].line, 2);
        assert_eq!(s.fields[2].line, 5);
        assert!(s.named);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_named_fields() {
        let it = items("pub struct Id(pub u64);\nstruct Marker;\n");
        assert!(!it.struct_def("Id").unwrap().named);
        assert!(!it.struct_def("Marker").unwrap().named);
        assert!(it.struct_def("Id").unwrap().fields.is_empty());
    }

    #[test]
    fn enum_variants_with_payloads() {
        let it = items(
            "enum PowerState {\n\
             \x20   Off,\n\
             \x20   Booting { ready_at: SimTime },\n\
             \x20   On,\n\
             \x20   Pair(u32, u32),\n\
             }\n",
        );
        let e = it.enum_def("PowerState").unwrap();
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            ["Off", "Booting", "On", "Pair"],
            "payload fields are not variants"
        );
        assert_eq!(e.variants[1].line, 3);
    }

    #[test]
    fn impls_capture_trait_type_and_methods() {
        let it = items(
            "impl Persist for HostSpec {\n\
             \x20   fn persist(&self, w: &mut Writer) { self.id.persist(w); }\n\
             \x20   fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {\n\
             \x20       Ok(HostSpec { id: HostId::restore(r)? })\n\
             \x20   }\n\
             }\n\
             impl HostSpec {\n\
             \x20   pub fn new() -> Self { todo!() }\n\
             }\n",
        );
        assert_eq!(it.impls.len(), 2);
        let p = &it.impls[0];
        assert_eq!(p.trait_name.as_deref(), Some("Persist"));
        assert_eq!(p.type_name.as_deref(), Some("HostSpec"));
        assert_eq!(p.methods.len(), 2);
        assert_eq!(p.method("persist").unwrap().line, 2);
        assert!(p.method("restore").is_some());
        let inh = &it.impls[1];
        assert_eq!(inh.trait_name, None);
        assert_eq!(inh.type_name.as_deref(), Some("HostSpec"));
    }

    #[test]
    fn method_attributes_are_recorded_per_method() {
        let it = items(
            "impl Persist for S {\n\
             \x20   #![allow(unused)]\n\
             \x20   #[inline]\n\
             \x20   fn persist(&self, w: &mut Writer) {}\n\
             \x20   #[must_use]\n\
             \x20   #[inline(always)]\n\
             \x20   pub(crate) fn restore(r: &mut Reader<'_>) -> Result<Self, E> { todo!() }\n\
             \x20   #[inline]\n\
             \x20   const TAG: u8 = 1;\n\
             \x20   fn tag() -> u8 { 1 }\n\
             \x20   #[inline(never)]\n\
             \x20   fn cold() {}\n\
             }\n",
        );
        let imp = &it.impls[0];
        let attrs = |name: &str| imp.method(name).unwrap().attrs.clone();
        assert_eq!(
            attrs("persist"),
            ["inline"],
            "inner attributes are not the method's"
        );
        assert_eq!(attrs("restore"), ["must_use", "inline(always)"]);
        assert!(
            attrs("tag").is_empty(),
            "an associated const's attribute does not leak"
        );
        assert!(imp.method("persist").unwrap().is_inline());
        assert!(imp.method("restore").unwrap().is_inline());
        assert!(!imp.method("tag").unwrap().is_inline());
        assert!(
            !imp.method("cold").unwrap().is_inline(),
            "inline(never) is not inline"
        );
    }

    #[test]
    fn generic_impls_resolve_head_identifiers() {
        let it = items(
            "impl<T: Persist, const N: usize> Persist for Wrapper<T, N> {\n\
             \x20   fn persist(&self, w: &mut Writer) {}\n\
             }\n\
             impl<F: Fn(u32) -> u64> Runner<F> {\n\
             \x20   fn go(&self) {}\n\
             }\n\
             impl Persist for crate::shard::ShardMap {\n\
             \x20   fn persist(&self, w: &mut Writer) {}\n\
             }\n",
        );
        assert_eq!(it.impls[0].trait_name.as_deref(), Some("Persist"));
        assert_eq!(it.impls[0].type_name.as_deref(), Some("Wrapper"));
        assert_eq!(
            it.impls[1].type_name.as_deref(),
            Some("Runner"),
            "Fn(..) -> arrow inside generics must not derail the parse"
        );
        assert_eq!(
            it.impls[2].type_name.as_deref(),
            Some("ShardMap"),
            "paths resolve to their last segment"
        );
    }

    #[test]
    fn impl_trait_in_fn_signatures_is_not_an_impl_block() {
        let it = items(
            "fn make() -> impl Iterator<Item = u32> {\n\
             \x20   (0..3).map(|x| x + 1)\n\
             }\n\
             struct After { x: u32 }\n",
        );
        assert!(it.impls.is_empty(), "return-position impl Trait skipped");
        assert!(it.struct_def("After").is_some(), "parser resyncs after fn");
    }

    #[test]
    fn macro_bodies_are_opaque() {
        let it = items(
            "macro_rules! scalar {\n\
             \x20   ($t:ty) => {\n\
             \x20       impl Persist for $t { fn persist(&self, w: &mut Writer) {} }\n\
             \x20   };\n\
             }\n\
             struct Real { x: u32 }\n",
        );
        assert!(it.impls.is_empty(), "macro template impls are invisible");
        assert!(it.struct_def("Real").is_some());
    }

    #[test]
    fn mod_bodies_are_descended_into() {
        let it = items(
            "mod inner {\n\
             \x20   pub struct Nested { pub a: u32 }\n\
             \x20   impl Persist for Nested { fn persist(&self) {} }\n\
             }\n",
        );
        assert!(it.struct_def("Nested").is_some());
        assert_eq!(it.impls.len(), 1);
    }

    #[test]
    fn fn_local_items_are_invisible() {
        let it = items(
            "fn f() {\n\
             \x20   struct Local { a: u32 }\n\
             \x20   let x = Local { a: 1 };\n\
             }\n\
             struct Global { b: u32 }\n",
        );
        assert!(it.struct_def("Local").is_none());
        assert!(it.struct_def("Global").is_some());
    }

    #[test]
    fn raw_strings_inside_bodies_do_not_confuse_structure() {
        let it = items(
            "impl Persist for S {\n\
             \x20   fn persist(&self, w: &mut Writer) {\n\
             \x20       let s = r#\"struct Fake { nope: u32 } \" quote\"#;\n\
             \x20       w.put_str(s);\n\
             \x20   }\n\
             }\n\
             struct S { real: u32 }\n",
        );
        assert!(it.struct_def("Fake").is_none(), "string content is inert");
        assert!(it.struct_def("S").is_some());
        assert_eq!(it.impls.len(), 1);
    }

    #[test]
    fn where_clauses_and_unbalanced_input_are_tolerated() {
        let it = items(
            "struct W<T> where T: Into<u64> { t: T }\n\
             impl<T> Persist for W<T> where T: Persist { fn persist(&self) {} }\n",
        );
        let s = it.struct_def("W").unwrap();
        assert_eq!(s.fields.len(), 1);
        assert_eq!(it.impls[0].type_name.as_deref(), Some("W"));
        // Totality: truncated junk parses to something, never panics.
        items("struct Broken { a: Vec<");
        items("impl Persist for");
        items("enum E { A(");
    }

    #[test]
    fn discriminants_do_not_hide_following_variants() {
        let it = items("enum E { A = 1, B = 2, C }\n");
        let names: Vec<&str> = it
            .enum_def("E")
            .unwrap()
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(names, ["A", "B", "C"]);
    }
}
