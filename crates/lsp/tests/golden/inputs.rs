// The requests behind `replies.json` next to this one: each entry names a
// group of replies and the messages whose replies it holds. The file was
// written once by the server of the commit before its replies were built
// as values, from exactly these requests, sent in this order to one server.

const BROKEN: &str = "sial g\\naoindex i = 1, n\\npardo i\\n  get X(i)\\nendpardo i\\nendsial\\n";
const CLEAN: &str =
    "sial c\\naoindex i = 1, n\\ndistributed X(i)\\npardo i\\n  get X(i)\\nendpardo i\\nendsial\\n";

pub fn requests() -> Vec<(&'static str, Vec<String>)> {
    let open = |uri: &str, text: &str| {
        format!(
            r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"{uri}","languageId":"sial","version":1,"text":"{text}"}}}}}}"#
        )
    };
    // `X` of `get X(i)` on 0-based line 4 of CLEAN.
    let at = |id: &str, method: &str| {
        format!(
            r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{{"textDocument":{{"uri":"file:///clean.sial"}},"position":{{"line":4,"character":6}}}}}}"#
        )
    };
    vec![
        (
            "initialize",
            vec![
                r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"capabilities":{}}}"#
                    .into(),
            ],
        ),
        (
            "publishDiagnostics",
            vec![
                open(r#"file:///g\"x\\y.sial"#, BROKEN),
                open("file:///clean.sial", CLEAN),
            ],
        ),
        ("definition", vec![at("2", "textDocument/definition")]),
        ("hover", vec![at(r#""h-3""#, "textDocument/hover")]),
        (
            "methodNotFound",
            vec![r#"{"jsonrpc":"2.0","id":-4,"method":"x/\"odd\"","params":{}}"#.into()],
        ),
    ]
}
