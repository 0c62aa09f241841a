//! The server's replies keep the shapes they had before they were built as
//! `Json` values: `golden/replies.json` was written by the old server from
//! the requests in `golden/inputs.rs`.

#[path = "golden/inputs.rs"]
mod inputs;
#[path = "../../runtime/tests/golden/same_tree.rs"]
mod same_tree;

use sia_runtime::json::{parse_json, Json};
use sial_lsp::Server;

#[test]
fn replies_keep_their_shape() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/replies.json");
    let golden = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut server = Server::new();
    let replies = inputs::requests().into_iter().map(|(group, requests)| {
        let out = requests.iter().flat_map(|r| server.handle(r)).collect();
        (group, out)
    });
    let new = parse_json(&Json::obj(replies.collect::<Vec<_>>()).to_string()).unwrap();
    same_tree::assert_same(&golden, &new);
}
