//! The `sia.diag.v1` document: what `sial check --json` prints, and its lint.

use crate::json::{Document, Json};
use sia_bytecode::diag::Diagnostic;

/// Serializes diagnostics under the stable `sia.diag.v1` schema:
///
/// ```json
/// {
///   "schema": "sia.diag.v1",
///   "file": "programs/mp2.sial",
///   "count": 1,
///   "diagnostics": [
///     {"file": "...", "start": 10, "end": 14, "line": 2, "col": 3,
///      "severity": "error", "code": "sema/unknown-array", "message": "..."}
///   ]
/// }
/// ```
///
/// Field meanings are frozen: `start`/`end` are byte offsets, `line`/`col`
/// are 1-based (0 = unknown), `severity` is one of `error|warning|note`.
/// Additive evolution only; breaking changes bump to `sia.diag.v2`.
pub fn diagnostics_to_json(file: &str, diags: &[Diagnostic]) -> Json {
    let entry = |d: &Diagnostic| {
        Json::obj([
            ("file", d.file.as_str().into()),
            ("start", d.span.start.into()),
            ("end", d.span.end.into()),
            ("line", d.line.into()),
            ("col", d.col.into()),
            ("severity", d.severity.as_str().into()),
            ("code", d.code.as_str().into()),
            ("message", d.message.as_str().into()),
        ])
    };
    Json::obj([
        ("schema", "sia.diag.v1".into()),
        ("file", file.into()),
        ("count", diags.len().into()),
        ("diagnostics", diags.iter().map(entry).collect()),
    ])
}

/// Validates a `sial check --json` export: the `sia.diag.v1` schema
/// marker, a matching `count`, and the required members on every
/// diagnostic entry. Returns the number of diagnostics.
pub fn lint_diag_json(doc: &(impl Document + ?Sized)) -> Result<usize, String> {
    let doc = doc.tree()?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sia.diag.v1") => {}
        other => return Err(format!("bad schema marker {other:?}")),
    }
    doc.get("file")
        .and_then(Json::as_str)
        .ok_or("missing file")?;
    let count = doc
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("missing integer count")?;
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_array)
        .ok_or("missing diagnostics array")?;
    if diags.len() as u64 != count {
        return Err(format!(
            "count {count} does not match diagnostics length {}",
            diags.len()
        ));
    }
    for (i, d) in diags.iter().enumerate() {
        for key in ["file", "severity", "code", "message"] {
            d.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("diagnostic {i}: missing string {key}"))?;
        }
        for key in ["start", "end", "line", "col"] {
            d.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("diagnostic {i}: missing integer {key}"))?;
        }
        match d.get("severity").and_then(Json::as_str) {
            Some("note" | "warning" | "error") => {}
            other => return Err(format!("diagnostic {i}: bad severity {other:?}")),
        }
    }
    Ok(diags.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_bytecode::diag::{LineMap, Span};

    #[test]
    fn json_schema_shape() {
        let map = LineMap::new("x\ny \"quoted\"\n");
        let d = Diagnostic::error("sema/unknown-array", Span::new(2, 3), "no array `y\"`")
            .locate("a.sial", &map);
        let s = diagnostics_to_json("a.sial", &[d]).to_string();
        assert!(s.starts_with("{\"schema\":\"sia.diag.v1\""), "{s}");
        assert!(s.contains("\"count\":1"));
        assert!(s.contains("\"severity\":\"error\""));
        assert!(s.contains("\\\""), "escaping: {s}");
        assert_eq!(lint_diag_json(&s), Ok(1));
    }

    #[test]
    fn json_empty_is_valid() {
        let doc = diagnostics_to_json("a.sial", &[]);
        assert_eq!(
            doc.to_string(),
            "{\"schema\":\"sia.diag.v1\",\"file\":\"a.sial\",\"count\":0,\"diagnostics\":[]}"
        );
        assert_eq!(lint_diag_json(&doc), Ok(0));
    }
}
