//! Span-carrying diagnostics shared across the SIA toolchain.
//!
//! One diagnostic currency for the whole stack: the lexer, parser, semantic
//! analyzer, lowering, the bytecode verifier, and the runtime all report
//! problems as a [`Diagnostic`] carrying the file, a byte range, a resolved
//! `line:col`, a severity, and a stable machine-readable code. The `sial`
//! CLI renders them clang-style (`file:line:col: error[code]: message`), the
//! LSP server converts them to `publishDiagnostics`, and `sial check --json`
//! serializes them under the stable `sia.diag.v1` schema
//! (`sia_runtime::diagnostics_to_json`).
//!
//! This module lives in `sia-bytecode` because it is the lowest layer both
//! the front-end and the runtime depend on.

use std::fmt;

/// A half-open byte range `[start, end)` into a source file.
///
/// `Debug` deliberately elides the offsets: the incremental front-end
/// fingerprints AST content through `Debug` formatting, and positions must
/// not perturb content hashes (a whitespace-only edit that shifts every
/// span downstream must still fingerprint as "unchanged"). Use [`fmt::Display`]
/// or the public fields when the offsets matter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// First byte of the range.
    pub start: u32,
    /// One past the last byte of the range.
    pub end: u32,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `offset`.
    pub fn point(offset: u32) -> Self {
        Span {
            start: offset,
            end: offset,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Whether `offset` falls inside the range (zero-width spans contain
    /// their own offset).
    pub fn contains(self, offset: u32) -> bool {
        offset >= self.start && (offset < self.end || self.start == self.end && offset == self.end)
    }

    /// Byte length of the range.
    pub fn len(self) -> u32 {
        self.end.saturating_sub(self.start)
    }

    /// True when the range is zero-width.
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Positions are invisible to content fingerprints; see the type docs.
        write!(f, "Span")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational note attached to another finding.
    Note,
    /// Suspicious but not necessarily wrong (e.g. a *possible* race).
    Warning,
    /// The program is rejected.
    Error,
}

impl Severity {
    /// Lower-case name used in rendered output and the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, anchored to a byte range of a source file.
///
/// `line`/`col` are 1-based and derived from `span` via a [`LineMap`]
/// (0 means "unknown" — e.g. a verifier finding on bytecode loaded without
/// a line table).
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Source file the finding refers to (may be a pseudo-name like
    /// `<memory>` for in-process compiles).
    pub file: String,
    /// Byte range in that file.
    pub span: Span,
    /// 1-based line of `span.start`; 0 when unknown.
    pub line: u32,
    /// 1-based column (byte offset within the line) of `span.start`; 0 when
    /// unknown.
    pub col: u32,
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code, `stage/kebab-name`
    /// (e.g. `parse/expected-token`, `sema/unknown-array`,
    /// `verify/write-write-race`).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// A new diagnostic with no location resolved yet.
    pub fn new(severity: Severity, code: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            file: String::new(),
            span,
            line: 0,
            col: 0,
            severity,
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// Shorthand for an error diagnostic.
    pub fn error(code: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, span, message)
    }

    /// Shorthand for a warning diagnostic.
    pub fn warning(code: &str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, span, message)
    }

    /// Fills `file` and resolves `line:col` from the span against `map`.
    pub fn locate(mut self, file: &str, map: &LineMap) -> Self {
        self.file = file.to_string();
        let (line, col) = map.line_col(self.span.start);
        self.line = line;
        self.col = col;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let file = if self.file.is_empty() {
            "<unknown>"
        } else {
            &self.file
        };
        if self.line > 0 {
            write!(
                f,
                "{file}:{}:{}: {}[{}]: {}",
                self.line, self.col, self.severity, self.code, self.message
            )
        } else {
            write!(
                f,
                "{file}: {}[{}]: {}",
                self.severity, self.code, self.message
            )
        }
    }
}

/// Byte-offset → `line:col` resolver for one source text.
///
/// Built once per revision of a file; O(log n) lookups. Lines and columns
/// are 1-based; columns count bytes (SIAL source is ASCII).
#[derive(Clone, Debug)]
pub struct LineMap {
    /// Byte offset of the start of each line (always starts with 0).
    line_starts: Vec<u32>,
    /// Total length of the text in bytes.
    len: u32,
}

impl LineMap {
    /// Indexes `text`.
    pub fn new(text: &str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        LineMap {
            line_starts,
            len: text.len() as u32,
        }
    }

    /// Number of lines (a trailing newline does not start a counted line
    /// unless text follows it; an empty text has one line).
    pub fn line_count(&self) -> u32 {
        self.line_starts.len() as u32
    }

    /// 1-based `(line, col)` of a byte offset. Offsets past the end clamp
    /// to the last position.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let offset = offset.min(self.len);
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = offset - self.line_starts[line];
        (line as u32 + 1, col + 1)
    }

    /// Byte offset of the start of a 1-based line (clamped).
    pub fn line_start(&self, line: u32) -> u32 {
        let idx = (line.max(1) as usize - 1).min(self.line_starts.len() - 1);
        self.line_starts[idx]
    }

    /// Byte offset of a 1-based `line:col` position (clamped to the text).
    pub fn offset(&self, line: u32, col: u32) -> u32 {
        (self.line_start(line) + col.saturating_sub(1)).min(self.len)
    }

    /// The byte span of a whole 1-based line, excluding its newline.
    pub fn line_span(&self, line: u32) -> Span {
        let start = self.line_start(line);
        let end = if (line as usize) < self.line_starts.len() {
            self.line_starts[line as usize].saturating_sub(1)
        } else {
            self.len
        };
        Span::new(start, end.max(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_map_resolves_positions() {
        let map = LineMap::new("ab\ncd\n\nxyz");
        assert_eq!(map.line_col(0), (1, 1));
        assert_eq!(map.line_col(1), (1, 2));
        assert_eq!(map.line_col(3), (2, 1));
        assert_eq!(map.line_col(6), (3, 1));
        assert_eq!(map.line_col(7), (4, 1));
        assert_eq!(map.line_col(9), (4, 3));
        // Past-the-end clamps.
        assert_eq!(map.line_col(999), (4, 4));
        assert_eq!(map.line_count(), 4);
    }

    #[test]
    fn line_map_roundtrips_offsets() {
        let text = "sial t\nindex i = 1, 4\nendsial\n";
        let map = LineMap::new(text);
        for off in 0..text.len() as u32 {
            let (l, c) = map.line_col(off);
            assert_eq!(map.offset(l, c), off, "offset {off}");
        }
    }

    #[test]
    fn line_span_excludes_newline() {
        let map = LineMap::new("ab\ncd\n");
        assert_eq!(map.line_span(1), Span::new(0, 2));
        assert_eq!(map.line_span(2), Span::new(3, 5));
    }

    #[test]
    fn empty_text() {
        let map = LineMap::new("");
        assert_eq!(map.line_col(0), (1, 1));
        assert_eq!(map.line_count(), 1);
    }

    #[test]
    fn diagnostic_renders_clang_style() {
        let map = LineMap::new("sial t\nbad line here\n");
        let d = Diagnostic::error("parse/expected-token", Span::new(7, 10), "expected `index`")
            .locate("prog.sial", &map);
        assert_eq!(
            d.to_string(),
            "prog.sial:2:1: error[parse/expected-token]: expected `index`"
        );
    }

    #[test]
    fn diagnostic_without_location() {
        let d = Diagnostic::error("verify/bad-id", Span::point(0), "dangling array id");
        assert_eq!(
            d.to_string(),
            "<unknown>: error[verify/bad-id]: dangling array id"
        );
    }

    #[test]
    fn span_debug_elides_offsets() {
        // Content fingerprints rely on this; see the type docs.
        assert_eq!(format!("{:?}", Span::new(3, 9)), "Span");
        assert_eq!(format!("{}", Span::new(3, 9)), "3..9");
    }

    #[test]
    fn span_cover_and_contains() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert!(a.contains(2));
        assert!(a.contains(4));
        assert!(!a.contains(5));
        assert!(Span::point(3).contains(3));
    }
}
