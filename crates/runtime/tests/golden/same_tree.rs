// The comparison behind the golden-shape tests: a document keeps its shape
// when it has the same keys in the same order, equal integers, strings and
// flags, and numbers equal at the six decimals the old writers printed.

use sia_runtime::json::Json;

/// Panics, naming the first place they differ, unless `new` has `old`'s
/// shape.
pub fn assert_same(old: &Json, new: &Json) {
    check(old, new, "$");
}

fn check(old: &Json, new: &Json, at: &str) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            let keys = |m: &[(_, Json)]| m.iter().map(|(k, _)| k).cloned().collect::<Vec<_>>();
            assert_eq!(keys(a), keys(b), "keys at {at}");
            for ((k, x), (_, y)) in a.iter().zip(b) {
                check(x, y, &format!("{at}.{k}"));
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            assert_eq!(a.len(), b.len(), "length at {at}");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                check(x, y, &format!("{at}[{i}]"));
            }
        }
        (Json::Num(x), y) => {
            let y = y
                .as_f64()
                .unwrap_or_else(|| panic!("{y} is no number at {at}"));
            assert_eq!(format!("{x:.6}"), format!("{y:.6}"), "number at {at}");
        }
        (x, y) => assert_eq!(x, y, "value at {at}"),
    }
}
