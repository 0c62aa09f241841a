//! End-to-end LSP session over a real pipe: spawn the `sial-lsp` binary,
//! speak framed JSON-RPC on its stdin/stdout, and assert the full
//! initialize → didOpen → didChange → publishDiagnostics flow, plus
//! go-to-definition and hover against `programs/mp2_screened.sial`.

use sia_runtime::json::{parse_json, Json};
use sial_lsp::{read_message, write_message};
use std::io::BufReader;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Lsp {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Lsp {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sial-lsp"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("sial-lsp spawns");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Lsp {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, payload: &str) {
        write_message(&mut self.stdin, payload).expect("write to server");
    }

    fn recv(&mut self) -> Json {
        let msg = read_message(&mut self.stdout)
            .expect("read from server")
            .expect("server still up");
        parse_json(&msg).expect("server speaks JSON")
    }

    /// Reads messages until one has this `id` (responses) — notifications
    /// arriving in between are discarded.
    fn recv_response(&mut self, id: u64) -> Json {
        loop {
            let m = self.recv();
            if m.get("id").and_then(Json::as_f64) == Some(id as f64) {
                return m;
            }
        }
    }

    /// Reads messages until a `textDocument/publishDiagnostics`
    /// notification arrives; returns its diagnostic array length and the
    /// raw params.
    fn recv_diagnostics(&mut self) -> Json {
        loop {
            let m = self.recv();
            if m.get("method").and_then(Json::as_str) == Some("textDocument/publishDiagnostics") {
                return m;
            }
        }
    }
}

fn diag_count(publish: &Json) -> usize {
    publish
        .get("params")
        .and_then(|p| p.get("diagnostics"))
        .and_then(Json::as_array)
        .map(<[Json]>::len)
        .expect("diagnostics array")
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[test]
fn full_session_over_a_pipe() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../programs/mp2_screened.sial"
    ))
    .expect("example program exists");
    let uri = "file:///mp2_screened.sial";
    let mut lsp = Lsp::spawn();

    // initialize → capabilities.
    lsp.send(r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"capabilities":{}}}"#);
    let init = lsp.recv_response(1);
    let caps = init
        .get("result")
        .and_then(|r| r.get("capabilities"))
        .expect("capabilities");
    assert!(caps.get("definitionProvider").is_some());
    lsp.send(r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#);

    // didOpen a clean program → empty diagnostics.
    lsp.send(&format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"{uri}","languageId":"sial","version":1,"text":"{}"}}}}}}"#,
        esc(&src)
    ));
    assert_eq!(diag_count(&lsp.recv_diagnostics()), 0, "program is clean");

    // didChange introducing an undeclared array → one located finding.
    let broken = src.replace("get Vd(i,a,j,b)", "get Vq(i,a,j,b)");
    lsp.send(&format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":"{uri}","version":2}},"contentChanges":[{{"text":"{}"}}]}}}}"#,
        esc(&broken)
    ));
    let publish = lsp.recv_diagnostics();
    assert!(diag_count(&publish) >= 1, "edit introduced a finding");
    let first = publish
        .get("params")
        .and_then(|p| p.get("diagnostics"))
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .unwrap();
    assert_eq!(
        first.get("code").and_then(Json::as_str),
        Some("sema/unknown-name")
    );
    // The finding lands on the line of the edited statement.
    let line = first
        .get("range")
        .and_then(|r| r.get("start"))
        .and_then(|s| s.get("line"))
        .and_then(Json::as_f64)
        .expect("range.start.line") as usize;
    let expected = broken
        .lines()
        .position(|l| l.contains("Vq"))
        .expect("broken line present");
    assert_eq!(line, expected, "diagnostic is on the edited line");

    // didChange back → diagnostics clear.
    lsp.send(&format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":"{uri}","version":3}},"contentChanges":[{{"text":"{}"}}]}}}}"#,
        esc(&src)
    ));
    assert_eq!(
        diag_count(&lsp.recv_diagnostics()),
        0,
        "fix clears findings"
    );

    // definition on a use of `Vd` lands on its declaration.
    let to_pos = |off: usize| {
        let before = &src[..off];
        let line = before.matches('\n').count();
        let col = off - before.rfind('\n').map_or(0, |i| i + 1);
        (line, col)
    };
    let (ul, uc) = to_pos(src.rfind("Vd(i,a,j,b)").unwrap());
    lsp.send(&format!(
        r#"{{"jsonrpc":"2.0","id":4,"method":"textDocument/definition","params":{{"textDocument":{{"uri":"{uri}"}},"position":{{"line":{ul},"character":{uc}}}}}}}"#
    ));
    let def = lsp.recv_response(4);
    let (dl, dc) = to_pos(src.find("Vd(i,a,j,b)").unwrap());
    let start = def
        .get("result")
        .and_then(|r| r.get("range"))
        .and_then(|r| r.get("start"))
        .expect("definition range");
    assert_eq!(
        start.get("line").and_then(Json::as_f64),
        Some(dl as f64),
        "definition line"
    );
    assert_eq!(
        start.get("character").and_then(Json::as_f64),
        Some(dc as f64),
        "definition column"
    );

    // hover on the same array reports the dry-run block size.
    lsp.send(&format!(
        r#"{{"jsonrpc":"2.0","id":5,"method":"textDocument/hover","params":{{"textDocument":{{"uri":"{uri}"}},"position":{{"line":{ul},"character":{uc}}}}}}}"#
    ));
    let hover = lsp.recv_response(5);
    let text = hover
        .get("result")
        .and_then(|r| r.get("contents"))
        .and_then(|c| c.get("value"))
        .and_then(Json::as_str)
        .expect("hover markdown");
    assert!(text.contains("dry-run block size"), "{text}");

    // shutdown → exit → process terminates cleanly.
    lsp.send(r#"{"jsonrpc":"2.0","id":6,"method":"shutdown"}"#);
    lsp.recv_response(6);
    lsp.send(r#"{"jsonrpc":"2.0","method":"exit"}"#);
    let status = lsp.child.wait().expect("server exits");
    assert!(status.success(), "clean exit, got {status:?}");
}
