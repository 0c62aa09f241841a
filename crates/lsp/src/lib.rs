//! # sial-lsp — a language server over the incremental compiler database
//!
//! Speaks JSON-RPC 2.0 with `Content-Length` framing over stdio (the LSP
//! base protocol). One [`CompilerDb`] per open document gives the server
//! its incrementality: a keystroke re-runs only the queries the edit
//! invalidated, so diagnostics for a proc-local change re-typecheck only
//! that proc.
//!
//! Protocol surface (see `DESIGN.md` §19):
//!
//! * `initialize` / `shutdown` / `exit` — lifecycle; full-document sync.
//! * `textDocument/didOpen` / `didChange` / `didClose` — document state;
//!   every change pushes `textDocument/publishDiagnostics` combining the
//!   front-end stages (lex/parse/resolve/typecheck/lower) with the
//!   bytecode verifier's structural and pardo-race findings.
//! * `textDocument/definition` — indices, arrays, scalars, and procs
//!   resolve to the span of their declared name.
//! * `textDocument/hover` — declared segment ranges for indices, kind and
//!   dry-run block size for arrays, statement counts for procs.
//!
//! The server is a plain library ([`Server::handle`] maps one incoming
//! message to its outgoing messages) so tests can drive it without a
//! process boundary; `main.rs` adds the stdio framing.

use sia_bytecode::diag::{LineMap, Severity, Span};
use sia_runtime::json::{parse_json, Json};
use sia_runtime::SegmentConfig;
use sial_frontend::ast::{AstArrayKind, AstIndexKind, Bound, Decl};
use sial_frontend::token::Token;
use sial_frontend::CompilerDb;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};

// ---- framing ---------------------------------------------------------------

/// Largest message body [`read_message`] accepts: the length comes from the
/// peer, and is allocated before a byte of the body arrives.
const MAX_BODY_BYTES: usize = 64 << 20;

/// Longest header line [`read_message`] reads, its line break included.
const MAX_HEADER_LINE: usize = 8 << 10;

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Reads one `Content-Length`-framed message; `None` at clean EOF. A
/// header line over 8 KiB, or a length that is missing, not a number or
/// over 64 MiB, is `InvalidData`.
pub fn read_message(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        let n = r
            .by_ref()
            .take(MAX_HEADER_LINE as u64 + 1)
            .read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if n > MAX_HEADER_LINE {
            return Err(invalid(format!(
                "header line longer than {MAX_HEADER_LINE} bytes"
            )));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .strip_prefix("Content-Length:")
            .or_else(|| line.strip_prefix("content-length:"))
        {
            let v = v.trim();
            let len = v
                .parse()
                .map_err(|_| invalid(format!("bad Content-Length {v:?}")))?;
            content_length = Some(len);
        }
        // Content-Type headers are tolerated and ignored.
    }
    let len = content_length.ok_or_else(|| invalid("missing Content-Length".into()))?;
    if len > MAX_BODY_BYTES {
        return Err(invalid(format!(
            "Content-Length {len} over the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| invalid("message is not UTF-8".into()))
}

/// Writes one `Content-Length`-framed message.
pub fn write_message(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write!(w, "Content-Length: {}\r\n\r\n{}", payload.len(), payload)?;
    w.flush()
}

// ---- messages ----------------------------------------------------------------

/// A JSON-RPC 2.0 message with these members.
fn rpc<const N: usize>(members: [(&'static str, Json); N]) -> Json {
    Json::obj([("jsonrpc", Json::from("2.0"))].into_iter().chain(members))
}

/// A reply to request `id`, echoed as it came (`null` when absent).
fn response(id: Option<&Json>, result: Json) -> Json {
    rpc([("id", id.cloned().into()), ("result", result)])
}

fn error(id: Option<&Json>, code: i32, message: String) -> Json {
    let error = Json::obj([("code", code.into()), ("message", message.into())]);
    rpc([("id", id.cloned().into()), ("error", error)])
}

fn publish_diagnostics(uri: &str, diagnostics: Vec<Json>) -> Json {
    let params = Json::obj([("uri", uri.into()), ("diagnostics", Json::Arr(diagnostics))]);
    rpc([
        ("method", "textDocument/publishDiagnostics".into()),
        ("params", params),
    ])
}

/// An LSP range; LSP positions are 0-based.
fn range(map: &LineMap, span: Span) -> Json {
    let position = |offset| {
        let (line, col) = map.line_col(offset);
        Json::obj([("line", (line - 1).into()), ("character", (col - 1).into())])
    };
    Json::obj([("start", position(span.start)), ("end", position(span.end))])
}

// ---- the server ------------------------------------------------------------

/// One language-server session: per-document compiler databases plus the
/// lifecycle flags.
#[derive(Default)]
pub struct Server {
    docs: BTreeMap<String, CompilerDb>,
    /// Set by `exit`; the stdio loop terminates on it.
    pub exited: bool,
}

impl Server {
    /// A fresh server with no open documents.
    pub fn new() -> Self {
        Server::default()
    }

    /// Handles one incoming JSON-RPC message, returning every outgoing
    /// message (the response, if the input was a request, plus any
    /// notifications it triggered).
    pub fn handle(&mut self, text: &str) -> Vec<Json> {
        let Ok(msg) = parse_json(text) else {
            return vec![error(None, -32700, "parse error".into())];
        };
        let method = msg.get("method").and_then(Json::as_str).unwrap_or("");
        let id = msg.get("id");
        let params = msg.get("params");
        match method {
            "initialize" => {
                let capabilities = Json::obj([
                    ("textDocumentSync", 1.into()),
                    ("hoverProvider", true.into()),
                    ("definitionProvider", true.into()),
                ]);
                let server = Json::obj([("name", "sial-lsp".into()), ("version", "0.1.0".into())]);
                let result = Json::obj([("capabilities", capabilities), ("serverInfo", server)]);
                vec![response(id, result)]
            }
            "initialized" | "$/cancelRequest" => Vec::new(),
            "shutdown" => vec![response(id, Json::Null)],
            "exit" => {
                self.exited = true;
                Vec::new()
            }
            "textDocument/didOpen" => self.did_open(params),
            "textDocument/didChange" => self.did_change(params),
            "textDocument/didClose" => self.did_close(params),
            "textDocument/definition" => vec![self.definition(id, params)],
            "textDocument/hover" => vec![self.hover(id, params)],
            _ if id.is_some() => {
                vec![error(id, -32601, format!("method not found: {method}"))]
            }
            _ => Vec::new(),
        }
    }

    // ---- document sync ------------------------------------------------------

    fn did_open(&mut self, params: Option<&Json>) -> Vec<Json> {
        let Some(p) = params else { return Vec::new() };
        let doc = p.get("textDocument");
        let (Some(uri), Some(text)) = (
            doc.and_then(|d| d.get("uri")).and_then(Json::as_str),
            doc.and_then(|d| d.get("text")).and_then(Json::as_str),
        ) else {
            return Vec::new();
        };
        self.docs
            .insert(uri.to_string(), CompilerDb::new(uri, text));
        vec![self.publish(uri)]
    }

    fn did_change(&mut self, params: Option<&Json>) -> Vec<Json> {
        let Some(p) = params else { return Vec::new() };
        let Some(uri) = p
            .get("textDocument")
            .and_then(|d| d.get("uri"))
            .and_then(Json::as_str)
            .map(str::to_string)
        else {
            return Vec::new();
        };
        // Full sync: the last change carries the whole new text.
        let Some(text) = p
            .get("contentChanges")
            .and_then(Json::as_array)
            .and_then(|a| a.last())
            .and_then(|c| c.get("text"))
            .and_then(Json::as_str)
        else {
            return Vec::new();
        };
        match self.docs.get_mut(&uri) {
            Some(db) => db.set_source(text),
            None => {
                self.docs.insert(uri.clone(), CompilerDb::new(&uri, text));
            }
        }
        vec![self.publish(&uri)]
    }

    fn did_close(&mut self, params: Option<&Json>) -> Vec<Json> {
        let Some(uri) = params
            .and_then(|p| p.get("textDocument"))
            .and_then(|d| d.get("uri"))
            .and_then(Json::as_str)
        else {
            return Vec::new();
        };
        self.docs.remove(uri);
        vec![publish_diagnostics(uri, Vec::new())]
    }

    // ---- diagnostics --------------------------------------------------------

    /// The full diagnostic set for a document: every front-end stage via
    /// the database, plus the bytecode verifier (structure and pardo
    /// races) when the program lowers cleanly.
    fn publish(&mut self, uri: &str) -> Json {
        let db = self.docs.get_mut(uri).expect("document is open");
        let map = db.line_map();
        let mut items: Vec<Json> = db
            .diagnostics()
            .iter()
            .map(|d| lsp_diag(&map, d.span, d.severity, &d.code, &d.message))
            .collect();
        if let Some(program) = db.program() {
            for v in sia_runtime::verify::check_program(&program) {
                // Bytecode findings are line-granular: highlight the whole
                // source line the instruction was lowered from.
                let span = v
                    .source
                    .as_ref()
                    .map(|&(_, line)| map.line_span(line))
                    .unwrap_or_else(|| Span::new(0, 0));
                items.push(lsp_diag(
                    &map,
                    span,
                    Severity::Error,
                    &format!("verify/{}", v.rule.name()),
                    &v.message,
                ));
            }
        }
        publish_diagnostics(uri, items)
    }

    // ---- navigation ---------------------------------------------------------

    /// The identifier under the cursor, from the token query.
    fn ident_at(&mut self, uri: &str, offset: u32) -> Option<(String, Span)> {
        let db = self.docs.get_mut(uri)?;
        let (tokens, _) = db.tokens();
        tokens.iter().find_map(|t| match &t.token {
            Token::Ident(name) if t.span.start <= offset && offset <= t.span.end => {
                Some((name.clone(), t.span))
            }
            _ => None,
        })
    }

    /// The declaration site of `name`: a top-level decl or a proc.
    fn decl_of(&mut self, uri: &str, name: &str) -> Option<Span> {
        let db = self.docs.get_mut(uri)?;
        let (ast, _) = db.ast();
        ast.decls
            .iter()
            .find(|d| d.name() == name)
            .map(Decl::span)
            .or_else(|| ast.procs.iter().find(|p| p.name == name).map(|p| p.span))
    }

    fn definition(&mut self, id: Option<&Json>, params: Option<&Json>) -> Json {
        let Some((uri, offset)) = self.uri_offset(params) else {
            return response(id, Json::Null);
        };
        let target = self
            .ident_at(&uri, offset)
            .and_then(|(name, _)| self.decl_of(&uri, &name));
        match target {
            Some(span) => {
                let map = self
                    .docs
                    .get_mut(&uri)
                    .expect("document is open")
                    .line_map();
                let location = Json::obj([("uri", uri.into()), ("range", range(&map, span))]);
                response(id, location)
            }
            None => response(id, Json::Null),
        }
    }

    fn hover(&mut self, id: Option<&Json>, params: Option<&Json>) -> Json {
        let Some((uri, offset)) = self.uri_offset(params) else {
            return response(id, Json::Null);
        };
        let Some((name, span)) = self.ident_at(&uri, offset) else {
            return response(id, Json::Null);
        };
        let Some(text) = self.hover_text(&uri, &name) else {
            return response(id, Json::Null);
        };
        let map = self
            .docs
            .get_mut(&uri)
            .expect("document is open")
            .line_map();
        let contents = Json::obj([("kind", "markdown".into()), ("value", text.into())]);
        response(
            id,
            Json::obj([("contents", contents), ("range", range(&map, span))]),
        )
    }

    /// Hover content: declared segment ranges for indices, kind plus the
    /// dry-run block size for arrays (default segment configuration, f64
    /// elements), statement counts for procs.
    fn hover_text(&mut self, uri: &str, name: &str) -> Option<String> {
        let db = self.docs.get_mut(uri)?;
        let (ast, _) = db.ast();
        let segs = SegmentConfig::default();
        if let Some(d) = ast.decls.iter().find(|d| d.name() == name) {
            return Some(match d {
                Decl::Index {
                    name,
                    kind,
                    low,
                    high,
                    ..
                } => {
                    let seg = segs.default;
                    format!(
                        "**{name}** — `{}`, declared range {}..{}\n\ndry-run segments of {seg} \
                         elements per block dimension",
                        index_kind_name(*kind),
                        bound_str(low),
                        bound_str(high),
                    )
                }
                Decl::Subindex { name, parent, .. } => format!(
                    "**{name}** — `subindex` of `{parent}`\n\naddresses {} subsegments of each \
                     `{parent}` segment",
                    segs.nsub
                ),
                Decl::Array {
                    name,
                    kind,
                    dims,
                    sparse,
                    ..
                } => {
                    let seg = segs.default;
                    let block_bytes = (seg as u64).pow(dims.len() as u32) * 8;
                    format!(
                        "**{name}** — {}`{}` array, rank {} ({})\n\ndry-run block size: {} doubles \
                         = {}",
                        if *sparse { "`sparse` " } else { "" },
                        array_kind_name(*kind),
                        dims.len(),
                        dims.join(","),
                        (seg as u64).pow(dims.len() as u32),
                        human_bytes(block_bytes),
                    )
                }
                Decl::Scalar { name, init, .. } => {
                    format!("**{name}** — `scalar`, initial value {init}")
                }
            });
        }
        if let Some(p) = ast.procs.iter().find(|p| p.name == name) {
            return Some(format!(
                "**{}** — procedure, {} statement(s)",
                p.name,
                p.body.len()
            ));
        }
        None
    }

    /// Extracts `(uri, byte offset)` from positional request params.
    fn uri_offset(&mut self, params: Option<&Json>) -> Option<(String, u32)> {
        let p = params?;
        let uri = p.get("textDocument")?.get("uri")?.as_str()?.to_string();
        let pos = p.get("position")?;
        let line = u32::try_from(pos.get("line")?.as_u64()?).ok()?;
        let character = u32::try_from(pos.get("character")?.as_u64()?).ok()?;
        let map = self.docs.get_mut(&uri)?.line_map();
        Some((uri, map.offset(line + 1, character + 1)))
    }

    /// Memo-table hit/miss counters for a document (observability; used by
    /// the incrementality tests).
    pub fn stats_summary(&self, uri: &str) -> Option<String> {
        self.docs.get(uri).map(|db| db.stats().summary())
    }
}

fn lsp_diag(map: &LineMap, span: Span, severity: Severity, code: &str, message: &str) -> Json {
    let sev = match severity {
        Severity::Error => 1,
        Severity::Warning => 2,
        Severity::Note => 3,
    };
    Json::obj([
        ("range", range(map, span)),
        ("severity", sev.into()),
        ("code", code.into()),
        ("source", "sial".into()),
        ("message", message.into()),
    ])
}

fn index_kind_name(k: AstIndexKind) -> &'static str {
    match k {
        AstIndexKind::Ao => "aoindex",
        AstIndexKind::Mo => "moindex",
        AstIndexKind::MoA => "moaindex",
        AstIndexKind::MoB => "mobindex",
        AstIndexKind::La => "laindex",
        AstIndexKind::Simple => "index",
    }
}

fn array_kind_name(k: AstArrayKind) -> &'static str {
    match k {
        AstArrayKind::Static => "static",
        AstArrayKind::Temp => "temp",
        AstArrayKind::Local => "local",
        AstArrayKind::Distributed => "distributed",
        AstArrayKind::Served => "served",
    }
}

fn bound_str(b: &Bound) -> String {
    match b {
        Bound::Lit(v) => v.to_string(),
        Bound::Sym(s) => s.clone(),
    }
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, method: &str, params: &str) -> String {
        format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}")
    }

    fn notif(method: &str, params: &str) -> String {
        format!("{{\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{params}}}")
    }

    /// The server's replies to `msg`, as text.
    fn handle(server: &mut Server, msg: &str) -> Vec<String> {
        server.handle(msg).iter().map(Json::to_string).collect()
    }

    fn open(server: &mut Server, uri: &str, text: &str) -> String {
        let out = handle(
            server,
            &notif(
                "textDocument/didOpen",
                &format!(
                    "{{\"textDocument\":{{\"uri\":\"{uri}\",\"languageId\":\"sial\",\
                 \"version\":1,\"text\":{}}}}}",
                    Json::from(text)
                ),
            ),
        );
        assert_eq!(out.len(), 1, "didOpen publishes once");
        out.into_iter().next().unwrap()
    }

    fn mp2_screened() -> String {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../programs/mp2_screened.sial"
        );
        std::fs::read_to_string(path).expect("programs/mp2_screened.sial exists")
    }

    /// Byte offset → LSP position params for a (line, character) pair
    /// derived from the first occurrence of `needle` in `text`.
    fn position_of(text: &str, needle: &str) -> (u32, u32) {
        let off = text.find(needle).expect("needle present") as u32;
        let map = LineMap::new(text);
        let (l, c) = map.line_col(off);
        (l - 1, c - 1)
    }

    #[test]
    fn initialize_advertises_capabilities() {
        let mut s = Server::new();
        let out = handle(&mut s, &req(1, "initialize", "{}"));
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"id\":1"), "{}", out[0]);
        assert!(out[0].contains("\"hoverProvider\":true"), "{}", out[0]);
        assert!(out[0].contains("\"definitionProvider\":true"), "{}", out[0]);
    }

    #[test]
    fn clean_program_publishes_empty_diagnostics() {
        let mut s = Server::new();
        let out = open(&mut s, "file:///mp2.sial", &mp2_screened());
        assert!(out.contains("publishDiagnostics"), "{out}");
        assert!(out.contains("\"diagnostics\":[]"), "{out}");
    }

    #[test]
    fn broken_program_publishes_located_diagnostics() {
        let mut s = Server::new();
        let out = open(
            &mut s,
            "file:///bad.sial",
            "sial bad\naoindex i = 1, n\npardo i\n  get X(i)\nendpardo i\nendsial\n",
        );
        assert!(out.contains("sema/unknown-name"), "{out}");
        assert!(out.contains("\"severity\":1"), "{out}");
        // `get X(i)` sits on 0-based line 3.
        assert!(out.contains("\"line\":3"), "{out}");
    }

    #[test]
    fn race_findings_reach_the_client() {
        let mut s = Server::new();
        let out = open(
            &mut s,
            "file:///race.sial",
            "sial ww\naoindex i = 1, n\naoindex j = 1, n\ndistributed X(j)\ntemp t(j)\n\
             pardo i, j\n  t(j) = 1.0\n  put X(j) = t(j)\nendpardo i, j\nendsial\n",
        );
        assert!(out.contains("verify/write-write-race"), "{out}");
        // The put statement is 0-based line 7; the finding highlights it.
        assert!(out.contains("{\"line\":7,\"character\":0}"), "{out}");
    }

    #[test]
    fn did_change_clears_fixed_diagnostics() {
        let mut s = Server::new();
        let uri = "file:///fix.sial";
        let broken = "sial f\naoindex i = 1, n\npardo i\n  get X(i)\nendpardo i\nendsial\n";
        let fixed = "sial f\naoindex i = 1, n\ndistributed X(i)\npardo i\n  get X(i)\n\
                     endpardo i\nendsial\n";
        let out = open(&mut s, uri, broken);
        assert!(out.contains("sema/unknown-name"), "{out}");
        let out = handle(
            &mut s,
            &notif(
                "textDocument/didChange",
                &format!(
                    "{{\"textDocument\":{{\"uri\":\"{uri}\",\"version\":2}},\
                 \"contentChanges\":[{{\"text\":{}}}]}}",
                    Json::from(fixed)
                ),
            ),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"diagnostics\":[]"), "{}", out[0]);
    }

    #[test]
    fn goto_definition_on_mp2_screened() {
        let src = mp2_screened();
        let mut s = Server::new();
        let uri = "file:///mp2_screened.sial";
        open(&mut s, uri, &src);
        // A use of `Vd` inside the second pardo body resolves to its
        // declaration line.
        let use_off = src.rfind("Vd(i,a,j,b)").expect("array used") as u32;
        let map = LineMap::new(&src);
        let (ul, uc) = map.line_col(use_off);
        let out = handle(
            &mut s,
            &req(
                7,
                "textDocument/definition",
                &format!(
                    "{{\"textDocument\":{{\"uri\":\"{uri}\"}},\
                 \"position\":{{\"line\":{},\"character\":{}}}}}",
                    ul - 1,
                    uc - 1
                ),
            ),
        );
        assert_eq!(out.len(), 1);
        let decl_off = src.find("Vd(i,a,j,b)").unwrap() as u32;
        let (dl, dc) = map.line_col(decl_off);
        assert!(
            out[0].contains(&format!(
                "\"start\":{{\"line\":{},\"character\":{}}}",
                dl - 1,
                dc - 1
            )),
            "definition should land on the declaration: {}",
            out[0]
        );
        assert!(out[0].contains(uri), "{}", out[0]);
    }

    #[test]
    fn hover_shows_ranges_and_block_sizes_on_mp2_screened() {
        let src = mp2_screened();
        let mut s = Server::new();
        let uri = "file:///mp2_screened.sial";
        open(&mut s, uri, &src);
        // Hover an index declaration: segment range.
        let (l, c) = position_of(&src, "i = 1, nocc");
        let out = handle(
            &mut s,
            &req(
                8,
                "textDocument/hover",
                &format!(
                    "{{\"textDocument\":{{\"uri\":\"{uri}\"}},\
                 \"position\":{{\"line\":{l},\"character\":{c}}}}}"
                ),
            ),
        );
        assert!(out[0].contains("declared range"), "{}", out[0]);
        // Hover an array: dry-run block size.
        let (l, c) = position_of(&src, "Vd(i,a,j,b)");
        let out = handle(
            &mut s,
            &req(
                9,
                "textDocument/hover",
                &format!(
                    "{{\"textDocument\":{{\"uri\":\"{uri}\"}},\
                 \"position\":{{\"line\":{l},\"character\":{c}}}}}"
                ),
            ),
        );
        assert!(out[0].contains("dry-run block size"), "{}", out[0]);
        assert!(out[0].contains("rank 4"), "{}", out[0]);
    }

    #[test]
    fn unknown_method_with_id_errors_politely() {
        let mut s = Server::new();
        let out = handle(&mut s, &req(3, "textDocument/rename", "{}"));
        assert!(out[0].contains("-32601"), "{}", out[0]);
    }

    #[test]
    fn shutdown_then_exit_terminates() {
        let mut s = Server::new();
        let out = handle(&mut s, &req(2, "shutdown", "null"));
        assert!(out[0].contains("\"result\":null"), "{}", out[0]);
        assert!(!s.exited);
        s.handle("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
        assert!(s.exited);
    }

    #[test]
    fn framing_roundtrips() {
        let mut buf = Vec::new();
        write_message(&mut buf, "{\"x\":1}").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(read_message(&mut r).unwrap().as_deref(), Some("{\"x\":1}"));
        assert_eq!(read_message(&mut r).unwrap(), None, "EOF after one message");
    }

    /// The peer sets the lengths: none of them may allocate or read without
    /// bound, and each bad one is a typed error, not an abort.
    #[test]
    fn framing_rejects_hostile_headers() {
        let long_line = format!("Content-Length: 5\r\n{}", "x".repeat(1 << 20));
        let cases = [
            "Content-Length: 18446744073709551615\r\n\r\n".to_string(),
            format!("Content-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1),
            "Content-Type: x\r\n\r\n{}".to_string(),
            "Content-Length: twelve\r\n\r\n".to_string(),
            long_line,
        ];
        for input in cases {
            let err = read_message(&mut io::BufReader::new(input.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // A body exactly at the limit reads, streamed rather than held twice.
        let header = format!("Content-Length: {MAX_BODY_BYTES}\r\n\r\n");
        let body = io::repeat(b' ').take(MAX_BODY_BYTES as u64);
        let mut r = io::BufReader::new(header.as_bytes().chain(body));
        let msg = read_message(&mut r).unwrap().expect("a message");
        assert_eq!(msg.len(), MAX_BODY_BYTES);
    }
}
