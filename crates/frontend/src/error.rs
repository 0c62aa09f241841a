//! Compiler error aggregation.
//!
//! The front end is multi-error: every stage reports all the
//! [`Diagnostic`]s it can find in one pass. `CompileErrors` bundles them
//! into a single `std::error::Error` value for callers that want a plain
//! `Result` (the `compile()` facade, the CLI, the chem workloads).

use sia_bytecode::diag::Diagnostic;
use std::fmt;

/// Every diagnostic from a failed compilation, in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileErrors {
    /// The individual findings (never empty for a returned error).
    pub diagnostics: Vec<Diagnostic>,
}

impl CompileErrors {
    /// Wraps a list of diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        CompileErrors { diagnostics }
    }

    /// The first (usually most relevant) diagnostic.
    pub fn primary(&self) -> Option<&Diagnostic> {
        self.diagnostics.first()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when there are no diagnostics.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl From<Vec<Diagnostic>> for CompileErrors {
    fn from(diagnostics: Vec<Diagnostic>) -> Self {
        CompileErrors { diagnostics }
    }
}

impl From<Diagnostic> for CompileErrors {
    fn from(d: Diagnostic) -> Self {
        CompileErrors {
            diagnostics: vec![d],
        }
    }
}

impl fmt::Display for CompileErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CompileErrors {}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_bytecode::diag::Span;

    #[test]
    fn display_joins_diagnostics() {
        let e = CompileErrors::new(vec![
            Diagnostic::error("parse/syntax", Span::new(0, 1), "first"),
            Diagnostic::error("sema/invalid", Span::new(2, 3), "second"),
        ]);
        let s = e.to_string();
        assert!(s.contains("error[parse/syntax]: first"), "{s}");
        assert!(s.contains("error[sema/invalid]: second"), "{s}");
        assert_eq!(s.lines().count(), 2);
        assert_eq!(e.len(), 2);
        assert_eq!(e.primary().unwrap().message, "first");
    }
}
