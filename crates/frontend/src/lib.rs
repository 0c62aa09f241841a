//! # sial-frontend — the SIAL compiler
//!
//! SIAL ("sail") is the Super Instruction Assembly Language: a simple,
//! line-oriented parallel language in which computational chemists write
//! algorithms in terms of *blocks* of multidimensional arrays. This crate
//! turns SIAL source into the SIA bytecode of [`sia_bytecode`]:
//!
//! ```text
//! source --tokens--> --ast--> --resolve--> --typecheck--> --lower--> Program
//! ```
//!
//! The stages are exposed two ways:
//!
//! * [`compile()`] / [`compile_file`] — one-shot batch compilation. Multi-
//!   error: failure returns [`CompileErrors`] carrying every located
//!   [`Diagnostic`] found in one pass.
//! * [`CompilerDb`] — an incremental, memoized query database (used by
//!   `sial-lsp` and `sial check --watch`) that re-runs only the queries
//!   whose inputs actually changed.
//!
//! The paper's running example compiles as-is:
//!
//! ```
//! let src = r#"
//! sial ccsd_term
//! aoindex M = 1, norb
//! aoindex N = 1, norb
//! aoindex L = 1, norb
//! aoindex S = 1, norb
//! moindex I = 1, nocc
//! moindex J = 1, nocc
//! distributed T(L,S,I,J)
//! distributed R(M,N,I,J)
//! temp V(M,N,L,S)
//! temp tmp(M,N,I,J)
//! temp tmpsum(M,N,I,J)
//!
//! pardo M, N, I, J
//!   tmpsum(M,N,I,J) = 0.0
//!   do L
//!     do S
//!       get T(L,S,I,J)
//!       execute compute_integrals V(M,N,L,S)
//!       tmp(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J)
//!       tmpsum(M,N,I,J) += tmp(M,N,I,J)
//!     enddo S
//!   enddo L
//!   put R(M,N,I,J) = tmpsum(M,N,I,J)
//! endpardo M, N, I, J
//! endsial
//! "#;
//! let program = sial_frontend::compile(src).expect("compiles");
//! assert_eq!(program.name, "ccsd_term");
//! ```

pub mod ast;
pub mod compile;
pub mod db;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod token;

pub use compile::compile_ast;
pub use db::{CompilerDb, QueryStats};
pub use error::CompileErrors;
pub use parser::{parse, parse_partial};
pub use sia_bytecode::diag::{Diagnostic, LineMap, Severity, Span};

/// Compiles SIAL source text to SIA bytecode, attributing diagnostics to
/// the pseudo-file `<input>`.
pub fn compile(source: &str) -> Result<sia_bytecode::Program, CompileErrors> {
    compile_file("<input>", source)
}

/// Compiles SIAL source text to SIA bytecode
/// (tokens → ast → resolve → typecheck → lower), attributing diagnostics —
/// and the emitted line-table sidecar — to `file`. Runs the queries of a
/// one-off [`CompilerDb`] ([`CompilerDb::compile`]).
pub fn compile_file(file: &str, source: &str) -> Result<sia_bytecode::Program, CompileErrors> {
    // The database drops with this statement, so the program it shared is
    // unwrapped below, not cloned.
    let program = CompilerDb::new(file, source).compile();
    program
        .map(std::sync::Arc::unwrap_or_clone)
        .map_err(CompileErrors::new)
}
