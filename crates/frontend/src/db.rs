//! `CompilerDb` — the incremental, query-based compilation database.
//!
//! Compilation is cut into memoized queries:
//!
//! ```text
//! source ──tokens──▶ ast ──resolve──▶ typecheck(unit) ──▶ lower
//! ```
//!
//! The engine is a small hand-rolled red/green scheme. Each query memoizes
//! its output together with a *content fingerprint* of its inputs; a query
//! re-runs only when that fingerprint changed. Fingerprints hash `Debug`
//! renderings, and the `Debug` impl of [`sia_bytecode::diag::Span`]
//! deliberately elides offsets, so fingerprints are
//! **position-independent**:
//!
//! * `tokens` and `ast` re-run on every source revision (they are O(file)
//!   and keep spans fresh for the LSP);
//! * a whitespace-only or comment-only edit leaves the AST fingerprint
//!   unchanged, so `resolve`, every `typecheck` unit, and `lower` all stay
//!   green — zero downstream queries re-run;
//! * `typecheck` is keyed per *unit* ("main" or `proc:<name>`): editing one
//!   procedure body re-checks only that procedure.
//!
//! [`QueryStats`] exposes per-query hit/miss counters so tests (and
//! `sial check --watch --stats`) can pin these properties.

use crate::ast::AstProgram;
use crate::parser;
use crate::sema::{self, SemaInfo, SemaUnit};
use crate::{compile, lexer};
use sia_bytecode::diag::{Diagnostic, LineMap};
use sia_bytecode::Program;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::token::Spanned;

/// Per-query memo hit/miss counters.
///
/// Keys are query names: `tokens`, `ast`, `resolve`, `typecheck:main`,
/// `typecheck:proc:<name>`, `lower`.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    counts: BTreeMap<String, (u64, u64)>,
}

impl QueryStats {
    fn record(&mut self, query: &str, hit: bool) {
        let e = self.counts.entry(query.to_string()).or_insert((0, 0));
        if hit {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    /// Times `query` was answered from cache.
    pub fn hits(&self, query: &str) -> u64 {
        self.counts.get(query).map_or(0, |e| e.0)
    }

    /// Times `query` had to recompute.
    pub fn misses(&self, query: &str) -> u64 {
        self.counts.get(query).map_or(0, |e| e.1)
    }

    /// All `(query, hits, misses)` rows, sorted by query name.
    pub fn rows(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.counts.iter().map(|(k, (h, m))| (k.as_str(), *h, *m))
    }

    /// One-line summary like `ast 3/1 lower 2/2 …` (hits/misses).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (q, h, m) in self.rows() {
            if !s.is_empty() {
                s.push(' ');
            }
            let _ = write!(s, "{q} {h}/{m}");
        }
        s
    }
}

fn fingerprint(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Fingerprint of the declaration section (plus proc names): the inputs of
/// `resolve`. `Span`'s elided `Debug` keeps this position-independent.
fn decl_fingerprint(ast: &AstProgram) -> u64 {
    let mut s = format!("{:?}|{:?}|", ast.name, ast.decls);
    for p in &ast.procs {
        let _ = write!(s, "{};", p.name);
    }
    fingerprint(&s)
}

fn unit_fingerprint(ast: &AstProgram, unit: &str) -> u64 {
    if unit == "main" {
        fingerprint(&format!("{:?}", ast.body))
    } else {
        let name = unit.strip_prefix("proc:").unwrap_or(unit);
        match ast.procs.iter().find(|p| p.name == name) {
            Some(p) => fingerprint(&format!("{:?}|{:?}", p.name, p.body)),
            None => 0,
        }
    }
}

/// Whole-program content fingerprint (everything lowering reads).
fn ast_fingerprint(ast: &AstProgram) -> u64 {
    fingerprint(&format!("{ast:?}"))
}

struct TokensMemo {
    revision: u64,
    tokens: Arc<Vec<Spanned>>,
    diags: Arc<Vec<Diagnostic>>,
}

struct AstMemo {
    revision: u64,
    ast: Arc<AstProgram>,
    diags: Arc<Vec<Diagnostic>>,
    fp: u64,
    /// [`decl_fingerprint`] of `ast`, taken when `resolve` first needs it.
    decl_fp: Option<u64>,
}

struct ResolveMemo {
    decl_fp: u64,
    info: Arc<SemaInfo>,
    diags: Arc<Vec<Diagnostic>>,
}

struct UnitMemo {
    unit_fp: u64,
    decl_fp: u64,
    diags: Arc<Vec<Diagnostic>>,
}

struct LowerMemo {
    ast_fp: u64,
    program: Option<Arc<Program>>,
    diags: Arc<Vec<Diagnostic>>,
}

/// One file's incremental compilation state.
pub struct CompilerDb {
    file: String,
    source: String,
    revision: u64,
    stats: QueryStats,
    tokens_memo: Option<TokensMemo>,
    ast_memo: Option<AstMemo>,
    resolve_memo: Option<ResolveMemo>,
    unit_memos: BTreeMap<String, UnitMemo>,
    lower_memo: Option<LowerMemo>,
}

impl CompilerDb {
    /// Creates a database for one file at revision 1.
    pub fn new(file: impl Into<String>, source: impl Into<String>) -> Self {
        CompilerDb {
            file: file.into(),
            source: source.into(),
            revision: 1,
            stats: QueryStats::default(),
            tokens_memo: None,
            ast_memo: None,
            resolve_memo: None,
            unit_memos: BTreeMap::new(),
            lower_memo: None,
        }
    }

    /// Replaces the source text, bumping the revision. Memoized outputs are
    /// invalidated lazily through fingerprint comparison on the next query.
    pub fn set_source(&mut self, source: impl Into<String>) {
        self.source = source.into();
        self.revision += 1;
    }

    /// The file name diagnostics are attributed to.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The current source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Monotonic input revision (bumped by [`Self::set_source`]).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Memo hit/miss counters accumulated so far.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// A fresh [`LineMap`] for the current source.
    pub fn line_map(&self) -> LineMap {
        LineMap::new(&self.source)
    }

    // ---- queries -----------------------------------------------------------

    /// `tokens(file)`: the token stream plus lexical diagnostics.
    pub fn tokens(&mut self) -> (Arc<Vec<Spanned>>, Arc<Vec<Diagnostic>>) {
        if let Some(m) = &self.tokens_memo {
            if m.revision == self.revision {
                self.stats.record("tokens", true);
                return (m.tokens.clone(), m.diags.clone());
            }
        }
        self.stats.record("tokens", false);
        let (tokens, diags) = lexer::lex_partial(&self.source);
        let m = TokensMemo {
            revision: self.revision,
            tokens: Arc::new(tokens),
            diags: Arc::new(diags),
        };
        let out = (m.tokens.clone(), m.diags.clone());
        self.tokens_memo = Some(m);
        out
    }

    /// `ast(file)`: the (possibly partial) syntax tree plus parse
    /// diagnostics. Re-parses on every revision — parsing is O(file) and
    /// keeps spans fresh — but its *output fingerprint* is
    /// position-independent, so unchanged content keeps downstream queries
    /// green.
    pub fn ast(&mut self) -> (Arc<AstProgram>, Arc<Vec<Diagnostic>>) {
        if let Some(m) = &self.ast_memo {
            if m.revision == self.revision {
                self.stats.record("ast", true);
                return (m.ast.clone(), m.diags.clone());
            }
        }
        let (tokens, _) = self.tokens();
        self.stats.record("ast", false);
        let (ast, diags) = parser::parse_tokens((*tokens).clone());
        let m = AstMemo {
            revision: self.revision,
            fp: ast_fingerprint(&ast),
            decl_fp: None,
            ast: Arc::new(ast),
            diags: Arc::new(diags),
        };
        let out = (m.ast.clone(), m.diags.clone());
        self.ast_memo = Some(m);
        out
    }

    /// `resolve(file)`: declaration tables. Keyed on the declaration
    /// section's content fingerprint — body edits keep it green.
    pub fn resolve(&mut self) -> (Arc<SemaInfo>, Arc<Vec<Diagnostic>>) {
        let (ast, _) = self.ast();
        let decl_fp = self.decl_fp();
        if let Some(m) = &self.resolve_memo {
            if m.decl_fp == decl_fp {
                self.stats.record("resolve", true);
                return (m.info.clone(), m.diags.clone());
            }
        }
        self.stats.record("resolve", false);
        let (info, diags) = sema::resolve_decls(&ast);
        let m = ResolveMemo {
            decl_fp,
            info: Arc::new(info),
            diags: Arc::new(diags),
        };
        let out = (m.info.clone(), m.diags.clone());
        self.resolve_memo = Some(m);
        out
    }

    /// The current AST's declaration fingerprint, computed once per
    /// revision (`resolve` and every `typecheck` unit compare against it).
    fn decl_fp(&mut self) -> u64 {
        let m = self.ast_memo.as_mut().expect("the ast query ran first");
        *m.decl_fp.get_or_insert_with(|| decl_fingerprint(&m.ast))
    }

    /// Unit names for the current AST: `main` plus `proc:<name>` per proc.
    pub fn units(&mut self) -> Vec<String> {
        let (ast, _) = self.ast();
        let mut out = vec!["main".to_string()];
        out.extend(ast.procs.iter().map(|p| format!("proc:{}", p.name)));
        out
    }

    /// `typecheck(file, unit)`: semantic diagnostics for one unit. Keyed on
    /// the unit's own content fingerprint plus the declaration fingerprint,
    /// so editing one proc re-checks only that proc.
    pub fn typecheck(&mut self, unit: &str) -> Arc<Vec<Diagnostic>> {
        let (ast, _) = self.ast();
        let (info, _) = self.resolve();
        let decl_fp = self.decl_fp();
        let unit_fp = unit_fingerprint(&ast, unit);
        let qname = format!("typecheck:{unit}");
        if let Some(m) = self.unit_memos.get(unit) {
            if m.unit_fp == unit_fp && m.decl_fp == decl_fp {
                self.stats.record(&qname, true);
                return m.diags.clone();
            }
        }
        self.stats.record(&qname, false);
        let diags = match unit {
            "main" => sema::check_unit(&info, SemaUnit::Main(&ast.body)),
            _ => {
                let name = unit.strip_prefix("proc:").unwrap_or(unit);
                match ast.procs.iter().find(|p| p.name == name) {
                    Some(p) => sema::check_unit(&info, SemaUnit::Proc(p)),
                    None => Vec::new(),
                }
            }
        };
        let diags = Arc::new(diags);
        self.unit_memos.insert(
            unit.to_string(),
            UnitMemo {
                unit_fp,
                decl_fp,
                diags: diags.clone(),
            },
        );
        diags
    }

    /// `lower(file)`: the bytecode program (with line-table sidecar), or
    /// `None` while earlier stages report errors. Keyed on the whole-AST
    /// content fingerprint.
    pub fn lower(&mut self) -> (Option<Arc<Program>>, Arc<Vec<Diagnostic>>) {
        let (ast, parse_diags) = self.ast();
        let ast_fp = self.ast_memo.as_ref().map(|m| m.fp).unwrap_or(0);
        if let Some(m) = &self.lower_memo {
            if m.ast_fp == ast_fp {
                self.stats.record("lower", true);
                return (m.program.clone(), m.diags.clone());
            }
        }
        let (tokens_diags, resolve_diags) = {
            let (_, td) = self.tokens();
            let (_, rd) = self.resolve();
            (td, rd)
        };
        let mut sema_clean =
            tokens_diags.is_empty() && parse_diags.is_empty() && resolve_diags.is_empty();
        for unit in self.units() {
            if !self.typecheck(&unit).is_empty() {
                sema_clean = false;
            }
        }
        self.stats.record("lower", false);
        let (program, diags) = if !sema_clean {
            // Earlier stages failed; lowering has nothing sound to do.
            (None, Vec::new())
        } else {
            let (info, _) = self.resolve();
            let map = self.line_map();
            match compile::compile_ast(&ast, &info, &self.file, &map) {
                Ok(p) => (Some(Arc::new(p)), Vec::new()),
                Err(ds) => (None, ds),
            }
        };
        let m = LowerMemo {
            ast_fp,
            program,
            diags: Arc::new(diags),
        };
        let out = (m.program.clone(), m.diags.clone());
        self.lower_memo = Some(m);
        out
    }

    // ---- derived views -------------------------------------------------------

    /// Every front-end diagnostic (lex, parse, resolve, typecheck, lower),
    /// located with the current file name and line map.
    pub fn diagnostics(&mut self) -> Vec<Diagnostic> {
        let (_, lex) = self.tokens();
        let (_, parse) = self.ast();
        let (_, resolve) = self.resolve();
        let mut all: Vec<Diagnostic> = Vec::new();
        all.extend(lex.iter().cloned());
        all.extend(parse.iter().cloned());
        all.extend(resolve.iter().cloned());
        for unit in self.units() {
            all.extend(self.typecheck(&unit).iter().cloned());
        }
        let (_, lower) = self.lower();
        all.extend(lower.iter().cloned());
        let map = self.line_map();
        let file = self.file.clone();
        all.sort_by_key(|d| (d.span.start, d.span.end));
        all.into_iter().map(|d| d.locate(&file, &map)).collect()
    }

    /// The compiled program, if the file currently compiles cleanly.
    pub fn program(&mut self) -> Option<Arc<Program>> {
        self.lower().0
    }

    /// The compiled program, or the located diagnostics that stop it: the
    /// lexical and parse diagnostics alone when there are any, else those
    /// of `resolve`, each `typecheck` unit and `lower`, in that order.
    pub fn compile(&mut self) -> Result<Arc<Program>, Vec<Diagnostic>> {
        let (_, lex) = self.tokens();
        let (_, parse) = self.ast();
        let mut diags: Vec<Diagnostic> = lex.iter().chain(parse.iter()).cloned().collect();
        if diags.is_empty() {
            let (program, lower) = self.lower();
            if let Some(p) = program {
                return Ok(p);
            }
            diags.extend(self.resolve().1.iter().cloned());
            for unit in self.units() {
                diags.extend(self.typecheck(&unit).iter().cloned());
            }
            diags.extend(lower.iter().cloned());
        }
        let map = self.line_map();
        Err(diags
            .into_iter()
            .map(|d| d.locate(&self.file, &map))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "sial t\naoindex M = 1, 4\naoindex N = 1, 4\ntemp x(M,N)\nscalar s\nproc a\ns = 1.0\nendproc\nproc b\ns = 2.0\nendproc\npardo M, N\nx(M,N) = 0.0\nendpardo\ncall a\ncall b\nendsial\n";

    #[test]
    fn clean_program_compiles_and_memoizes() {
        let mut db = CompilerDb::new("t.sial", SRC);
        assert!(db.diagnostics().is_empty());
        let p1 = db.program().expect("compiles");
        let p2 = db.program().expect("compiles");
        assert!(Arc::ptr_eq(&p1, &p2), "second call is a cache hit");
        assert_eq!(db.stats().misses("lower"), 1);
        assert!(db.stats().hits("lower") >= 1);
    }

    #[test]
    fn whitespace_edit_keeps_all_downstream_queries_green() {
        let mut db = CompilerDb::new("t.sial", SRC);
        let _ = db.program();
        let m_resolve = db.stats().misses("resolve");
        let m_main = db.stats().misses("typecheck:main");
        let m_a = db.stats().misses("typecheck:proc:a");
        let m_b = db.stats().misses("typecheck:proc:b");
        let m_lower = db.stats().misses("lower");

        // Indent a line, add a blank line and a comment: content unchanged.
        let ws = SRC.replace("x(M,N) = 0.0\n", "   x(M,N) = 0.0\n\n# comment\n");
        assert_ne!(ws, SRC);
        db.set_source(ws);
        let _ = db.program();

        // tokens and ast re-ran (they track raw text)…
        assert_eq!(db.stats().misses("tokens"), 2);
        assert_eq!(db.stats().misses("ast"), 2);
        // …but zero downstream queries re-ran.
        assert_eq!(db.stats().misses("resolve"), m_resolve);
        assert_eq!(db.stats().misses("typecheck:main"), m_main);
        assert_eq!(db.stats().misses("typecheck:proc:a"), m_a);
        assert_eq!(db.stats().misses("typecheck:proc:b"), m_b);
        assert_eq!(db.stats().misses("lower"), m_lower);
    }

    #[test]
    fn proc_edit_rechecks_only_that_proc() {
        let mut db = CompilerDb::new("t.sial", SRC);
        let _ = db.program();
        let m_resolve = db.stats().misses("resolve");
        let m_main = db.stats().misses("typecheck:main");
        let m_a = db.stats().misses("typecheck:proc:a");
        let m_b = db.stats().misses("typecheck:proc:b");

        // Edit the body of proc b only.
        db.set_source(SRC.replace("s = 2.0", "s = 3.0"));
        let _ = db.program();

        assert_eq!(db.stats().misses("resolve"), m_resolve, "decls unchanged");
        assert_eq!(db.stats().misses("typecheck:main"), m_main);
        assert_eq!(db.stats().misses("typecheck:proc:a"), m_a);
        assert_eq!(
            db.stats().misses("typecheck:proc:b"),
            m_b + 1,
            "only the edited proc re-checks: {}",
            db.stats().summary()
        );
        // Lowering re-runs (pc layout is a whole-program property).
        assert_eq!(db.stats().misses("lower"), 2);
    }

    #[test]
    fn decl_edit_invalidates_resolve_and_units() {
        let mut db = CompilerDb::new("t.sial", SRC);
        let _ = db.program();
        db.set_source(SRC.replace("scalar s\n", "scalar s\nscalar q\n"));
        let _ = db.program();
        assert_eq!(db.stats().misses("resolve"), 2);
        assert_eq!(db.stats().misses("typecheck:main"), 2);
    }

    #[test]
    fn broken_source_reports_located_diagnostics_and_no_program() {
        let mut db = CompilerDb::new("t.sial", "sial t\nscalar s\ns = \nnope()\nendsial\n");
        assert!(db.program().is_none());
        let diags = db.diagnostics();
        assert!(!diags.is_empty());
        for d in &diags {
            assert_eq!(d.file, "t.sial");
            assert!(d.line > 0, "{d}");
        }
        // Fixing the file recovers.
        db.set_source("sial t\nscalar s\ns = 1.0\nendsial\n");
        assert!(db.diagnostics().is_empty());
        assert!(db.program().is_some());
    }

    #[test]
    fn diagnostics_sorted_by_position() {
        let mut db = CompilerDb::new("t.sial", "sial t\nscalar s\ns = \ns = 1.0\nput\nendsial\n");
        let diags = db.diagnostics();
        assert!(diags.len() >= 2);
        for w in diags.windows(2) {
            assert!(w[0].span.start <= w[1].span.start);
        }
    }
}
