//! The documents the runtime writes keep the shapes their writers had
//! before every writer built one `Json` value: the golden files under
//! `golden/` were written by the old writers from the inputs in
//! `golden/inputs.rs`.

#[path = "golden/inputs.rs"]
mod inputs;
#[path = "golden/same_tree.rs"]
mod same_tree;

use sia_runtime::json::{parse_json, Json};

fn golden(name: &str) -> Json {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    parse_json(&std::fs::read_to_string(path).expect("golden file")).expect("golden JSON")
}

#[test]
fn profile_keeps_its_shape() {
    let new = parse_json(&inputs::profile().to_json()).unwrap();
    same_tree::assert_same(&golden("profile.json"), &new);
    sia_runtime::lint_profile_json(&new).expect("lints clean");
}

#[test]
fn chrome_trace_keeps_its_shape() {
    let mut new = parse_json(&inputs::timeline().to_chrome_json()).unwrap();
    sia_runtime::lint_chrome_trace(&new).expect("lints clean");
    // The one member the old writer lacked: each rank's ring drops, in its
    // `process_name` metadata.
    let Json::Obj(top) = &mut new else {
        panic!("an object")
    };
    let Json::Arr(events) = &mut top[1].1 else {
        panic!("traceEvents")
    };
    for e in events.iter_mut() {
        if e.get("name").and_then(Json::as_str) == Some("process_name") {
            let Json::Obj(members) = e else {
                unreachable!()
            };
            let Json::Obj(args) = &mut members[4].1 else {
                panic!("args")
            };
            assert_eq!(args.pop(), Some(("dropped".into(), Json::Int(0))));
        }
    }
    same_tree::assert_same(&golden("trace.json"), &new);
}

#[test]
fn diag_keeps_its_shape() {
    let doc = sia_runtime::diagnostics_to_json(inputs::DIAG_FILE, &inputs::diagnostics());
    let new = parse_json(&doc.to_string()).unwrap();
    assert_eq!(new, doc, "the printed report reads back as itself");
    same_tree::assert_same(&golden("diag.json"), &new);
    assert_eq!(sia_runtime::lint_diag_json(&new), Ok(3));
}
