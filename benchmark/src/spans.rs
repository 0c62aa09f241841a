//! Harness-side spans around the calls into each layer.
//!
//! Spans are recorded only in a traced invocation (end-to-end metrics come
//! from invocations where the recorder is off), kept in memory, and written
//! out once at exit. Spans inside the program are a later change.

use crate::json::Json;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span; `None` when the recorder is off.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// The recorder. Shared by reference between the client threads of
/// `serve_mix`.
pub struct Spans {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` as the span `name` under `parent`, handing `f` the new
    /// span's id so it can parent its own children. Returns `f`'s result
    /// and how long it took (measured whether or not the recorder is on).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let id = self.spans.as_ref().map(|s| {
            let mut s = s.lock().expect("span recorder poisoned");
            s.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            s.len() - 1
        });
        let out = f(id);
        let took = start.elapsed();
        if let (Some(s), Some(id)) = (&self.spans, id) {
            s.lock().expect("span recorder poisoned")[id].end_ns =
                (start + took - self.epoch).as_nanos() as u64;
        }
        (out, took)
    }

    /// The recorded spans as `[{name, start_ns, end_ns, parent, workload}]`.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .as_ref()
            .map(|s| s.lock().expect("span recorder poisoned"));
        Json::Arr(
            spans
                .iter()
                .flat_map(|s| s.iter())
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::str(workload)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_order() {
        let spans = Spans::new(true);
        let ((), outer) = spans.time("repeat", None, |rep| {
            spans.time("run", rep, |_| std::thread::sleep(Duration::from_millis(2)));
            spans.time("check", rep, |_| ());
        });
        assert!(outer >= Duration::from_millis(2));
        let doc = spans.to_json("w");
        let all = doc.as_array().unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].get("name").and_then(Json::as_str), Some("run"));
        assert_eq!(all[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(all[0].get("parent"), Some(&Json::Null));
        let ns = |i: usize, k: &str| all[i].get(k).and_then(Json::as_f64).unwrap();
        assert!(ns(0, "start_ns") <= ns(1, "start_ns") && ns(1, "end_ns") <= ns(0, "end_ns"));
        assert!(ns(1, "end_ns") - ns(1, "start_ns") >= 2e6);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let spans = Spans::new(false);
        let (v, took) = spans.time("run", None, |id| {
            assert!(id.is_none());
            std::thread::sleep(Duration::from_millis(1));
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(took >= Duration::from_millis(1));
        assert_eq!(spans.to_json("w"), Json::Arr(vec![]));
    }
}
