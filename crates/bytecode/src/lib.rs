//! # sia-bytecode — the compiled form of SIAL programs
//!
//! "SIAL programs are compiled into SIA bytecode, which is interpreted by the
//! SIP." This crate defines that bytecode: a table of [`Instruction`]s plus
//! descriptor tables for index variables, arrays, scalars, symbolic
//! constants, procedures, and strings. Operands are table ids, exactly like
//! the original's "operand addresses given as entries in data descriptor
//! tables".
//!
//! Symbolic constants (e.g. `norb`) are placeholders "replaced with a
//! concrete value during initialization" — see [`Program::resolve_consts`].
//!
//! The crate also provides the on-disk wire format ([`wire`]) and a
//! disassembler ([`disasm`]) whose output the SIP profiler references, since
//! "the relationship between the source code and the profile data is
//! transparent".

pub mod diag;
pub mod disasm;
pub mod ops;
pub mod program;
pub mod wire;

pub use diag::{Diagnostic, LineMap, Severity, Span};
pub use disasm::disassemble;
pub use ops::{
    Arg, BinOp, BlockRef, BoolExpr, CmpOp, Instruction, InstructionClass, PutMode, ScalarExpr,
};
pub use program::{
    ArrayDecl, ArrayId, ArrayKind, ConstBindings, ConstId, IndexDecl, IndexId, IndexKind,
    LineTable, ProcDecl, ProcId, Program, ResolveError, ScalarDecl, ScalarId, StringId, Value,
};
pub use wire::{decode_program, encode_program, WireError};
