//! Static verification of SIA bytecode: the `sial check` pass.
//!
//! The paper leaves pardo correctness to programmer discipline — SIAL
//! "requires the programmer to ensure" that concurrent iterations do not
//! conflict and that barriers separate writes from subsequent reads
//! (§IV-C). The frontend's sema enforces part of that discipline at compile
//! time, but bytecode reaching the SIP from other sources (tests, traces,
//! optimizers, hand assembly) bypasses it entirely. This module re-checks a
//! compiled [`Program`] without running it, in two layers:
//!
//! 1. A **structural verifier**: every table id in bounds, block-ref arity
//!    and index-kind agreement with the array declaration, balanced
//!    do/pardo loop pairing, no jumps into loop bodies, where clauses
//!    referencing only indices their pardo binds, barriers outside pardo
//!    bodies, and array-kind discipline on every data instruction
//!    (`get`↔distributed, `request`↔served, …).
//!
//! 2. A **pardo race detector**: a data-free walk in the style of
//!    [`crate::trace`] that tracks which distributed/served arrays are
//!    dirty (written since the last matching barrier) and flags
//!    - replace-mode `put`/`prepare` in a pardo whose destination does not
//!      name every pardo index (two iterations overwrite the same block;
//!      `+=` accumulation is exempt — accumulates are atomic and "do not
//!      require synchronization", §IV-C),
//!    - `get` after `put` on one array without an intervening
//!      `sip_barrier`, and
//!    - `request` after `prepare` without a `server_barrier`.
//!
//! Diagnostics carry the pc and the disassembled instruction so they read
//! like the profiler's listing. The race pass only runs when the structural
//! pass is clean — its walk trusts loop pairing.

use crate::scheduler::bool_expr_indices;
use sia_bytecode::disasm::disassemble_instruction;
use sia_bytecode::ops::PrintItem;
use sia_bytecode::{
    Arg, ArrayId, ArrayKind, BlockRef, BoolExpr, IndexId, IndexKind, Instruction as I, ProcId,
    Program, PutMode, ScalarExpr,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Which verification rule a diagnostic comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A table id (index/array/scalar/const/string/proc) out of bounds.
    BadId,
    /// Block reference arity differs from the array's declared rank.
    Arity,
    /// Block reference index kind differs from the declared dimension kind.
    KindMismatch,
    /// Unbalanced or mismatched do/pardo loop pairing (including nested
    /// pardo, which the SIP does not support).
    Nesting,
    /// A branch target lands inside a loop body the branch is not in.
    JumpIntoLoop,
    /// A where clause references an index its pardo does not bind.
    WhereClause,
    /// A barrier inside a pardo body (workers parked mid-chunk deadlock).
    BarrierInPardo,
    /// An instruction applied to the wrong array kind (`get` on a served
    /// array, direct block write to a distributed array, …).
    KindUsage,
    /// Recursive procedure calls (the SIP has no call-depth bound).
    Recursion,
    /// Replace-mode `put`/`prepare` in a pardo not covering every pardo
    /// index: concurrent iterations overwrite the same block.
    WriteWriteRace,
    /// `get` of an array written by `put` with no `sip_barrier` between.
    GetAfterPut,
    /// `request` of an array written by `prepare` with no `server_barrier`
    /// between.
    RequestAfterPrepare,
    /// The `sparse` modifier on an array kind that has no home to keep a
    /// norm table (only distributed and served arrays can be sparse).
    SparseKind,
}

impl Rule {
    /// Stable kebab-case rule name (used in CLI output and tests).
    pub fn name(self) -> &'static str {
        match self {
            Rule::BadId => "bad-id",
            Rule::Arity => "arity",
            Rule::KindMismatch => "kind-mismatch",
            Rule::Nesting => "nesting",
            Rule::JumpIntoLoop => "jump-into-loop",
            Rule::WhereClause => "where-clause",
            Rule::BarrierInPardo => "barrier-in-pardo",
            Rule::KindUsage => "kind-usage",
            Rule::Recursion => "recursion",
            Rule::WriteWriteRace => "write-write-race",
            Rule::GetAfterPut => "get-after-put",
            Rule::RequestAfterPrepare => "request-after-prepare",
            Rule::SparseKind => "sparse-kind",
        }
    }

    /// True for the race-detector rules (layer 2).
    pub fn is_race(self) -> bool {
        matches!(
            self,
            Rule::WriteWriteRace | Rule::GetAfterPut | Rule::RequestAfterPrepare
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One verifier finding: where, which rule, why, and the offending
/// instruction disassembled.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Program counter of the offending instruction.
    pub pc: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// The instruction, disassembled.
    pub listing: String,
    /// Source `(file, line)` the instruction was lowered from, when the
    /// program carries a line table (wire v3).
    pub source: Option<(String, u32)>,
}

impl Diagnostic {
    /// Converts a verifier finding into the shared span-carrying
    /// [`sia_bytecode::diag::Diagnostic`] used by the CLI and `sial-lsp`.
    /// The code is `verify/<rule-name>`; the location is line-granular
    /// (column 1, empty byte span) because bytecode only records lines.
    pub fn to_diagnostic(&self) -> sia_bytecode::diag::Diagnostic {
        let mut d = sia_bytecode::diag::Diagnostic::error(
            &format!("verify/{}", self.rule.name()),
            sia_bytecode::diag::Span::new(0, 0),
            format!("{} ({})", self.message, self.listing.trim()),
        );
        if let Some((file, line)) = &self.source {
            d.file = file.clone();
            d.line = *line;
            d.col = 1;
        }
        d
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some((file, line)) => write!(
                f,
                "{file}:{line}: pc {:>4}  [{}] {}\n          {}",
                self.pc, self.rule, self.message, self.listing
            ),
            None => write!(
                f,
                "pc {:>4}  [{}] {}\n          {}",
                self.pc, self.rule, self.message, self.listing
            ),
        }
    }
}

/// Statically verifies a compiled program. Returns every finding, sorted by
/// pc; an empty vector means the program passed. The race pass only runs
/// when the structural pass found nothing (it trusts loop pairing).
pub fn check_program(p: &Program) -> Vec<Diagnostic> {
    let mut v = Verifier::new(p);
    v.structural();
    if v.diags.is_empty() {
        RaceWalk::new(&mut v).run();
    }
    v.diags.sort_by_key(|d| (d.pc, d.rule.name()));
    v.diags
}

// ---- shared verifier state -------------------------------------------------

struct Verifier<'a> {
    p: &'a Program,
    diags: Vec<Diagnostic>,
    /// Matched loop intervals `(start_pc, end_pc)` from the pairing scan.
    intervals: Vec<(u32, u32)>,
}

/// What a stack entry was opened by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    Pardo,
    Do,
    DoIn,
}

impl<'a> Verifier<'a> {
    fn new(p: &'a Program) -> Self {
        Verifier {
            p,
            diags: Vec::new(),
            intervals: Vec::new(),
        }
    }

    fn emit(&mut self, pc: u32, rule: Rule, message: String) {
        let listing = self
            .p
            .code
            .get(pc as usize)
            .map(|ins| disassemble_instruction(self.p, ins))
            .unwrap_or_else(|| "<pc out of range>".into());
        let source = self
            .p
            .source_of(pc)
            .map(|(file, line)| (file.to_string(), line));
        self.diags.push(Diagnostic {
            pc,
            rule,
            message,
            listing,
            source,
        });
    }

    fn index_name(&self, id: IndexId) -> String {
        self.p
            .indices
            .get(id.index())
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("#{}", id.0))
    }

    fn array_name(&self, id: ArrayId) -> String {
        self.p
            .arrays
            .get(id.index())
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("#{}", id.0))
    }

    /// The segment kind an index addresses arrays with, looking through one
    /// level of subindexing (sema's rule: a subindex addresses its parent's
    /// segments; a subindex of a subindex is malformed).
    fn effective_kind(&self, id: IndexId) -> Result<IndexKind, String> {
        let decl = self
            .p
            .indices
            .get(id.index())
            .ok_or_else(|| format!("index #{} out of bounds", id.0))?;
        match decl.kind {
            IndexKind::Subindex { parent } => {
                let pd = self
                    .p
                    .indices
                    .get(parent.index())
                    .ok_or_else(|| format!("parent index #{} out of bounds", parent.0))?;
                match pd.kind {
                    IndexKind::Subindex { .. } => Err(format!(
                        "`{}` is a subindex of subindex `{}`",
                        decl.name, pd.name
                    )),
                    k => Ok(k),
                }
            }
            k => Ok(k),
        }
    }

    /// The parent of a subindex, if `id` is one.
    fn parent_of(&self, id: IndexId) -> Option<IndexId> {
        match self.p.indices.get(id.index())?.kind {
            IndexKind::Subindex { parent } => Some(parent),
            _ => None,
        }
    }

    // ---- layer 1: structural ------------------------------------------------

    fn structural(&mut self) {
        self.scan_array_decls();
        for pc in 0..self.p.code.len() as u32 {
            let ins = self.p.code[pc as usize].clone();
            self.check_instruction_ids(pc, &ins);
        }
        self.scan_loops();
        self.scan_jumps();
        self.scan_procs();
    }

    /// Declaration-table discipline: the `sparse` modifier only makes sense
    /// on remote arrays — a home (worker or I/O server) is what holds the
    /// norm table that typed absence replaces the payload with.
    fn scan_array_decls(&mut self) {
        for decl in self.p.arrays.iter() {
            if decl.sparse && !decl.kind.is_remote() {
                self.diags.push(Diagnostic {
                    pc: 0,
                    rule: Rule::SparseKind,
                    message: format!(
                        "`{}` is declared sparse but is {:?}; only distributed and \
                         served arrays can be sparse",
                        decl.name, decl.kind
                    ),
                    listing: format!("<declaration of `{}`>", decl.name),
                    source: None,
                });
            }
        }
    }

    fn check_index_id(&mut self, pc: u32, id: IndexId) -> bool {
        if id.index() >= self.p.indices.len() {
            self.emit(
                pc,
                Rule::BadId,
                format!(
                    "index id #{} out of bounds (table has {})",
                    id.0,
                    self.p.indices.len()
                ),
            );
            return false;
        }
        true
    }

    fn check_scalar_expr(&mut self, pc: u32, e: &ScalarExpr) {
        match e {
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Scalar(id) => {
                if id.index() >= self.p.scalars.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!(
                            "scalar id #{} out of bounds (table has {})",
                            id.0,
                            self.p.scalars.len()
                        ),
                    );
                }
            }
            ScalarExpr::IndexVal(id) => {
                self.check_index_id(pc, *id);
            }
            ScalarExpr::Const(id) => {
                if id.index() >= self.p.consts.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!(
                            "const id #{} out of bounds (table has {})",
                            id.0,
                            self.p.consts.len()
                        ),
                    );
                }
            }
            ScalarExpr::Bin(_, l, r) => {
                self.check_scalar_expr(pc, l);
                self.check_scalar_expr(pc, r);
            }
            ScalarExpr::Neg(x) => self.check_scalar_expr(pc, x),
        }
    }

    fn check_bool_expr(&mut self, pc: u32, e: &BoolExpr) {
        match e {
            BoolExpr::Cmp(l, _, r) => {
                self.check_scalar_expr(pc, l);
                self.check_scalar_expr(pc, r);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                self.check_bool_expr(pc, a);
                self.check_bool_expr(pc, b);
            }
            BoolExpr::Not(x) => self.check_bool_expr(pc, x),
        }
    }

    fn check_string_id(&mut self, pc: u32, id: sia_bytecode::StringId) {
        if id.index() >= self.p.strings.len() {
            self.emit(
                pc,
                Rule::BadId,
                format!(
                    "string id #{} out of bounds (table has {})",
                    id.0,
                    self.p.strings.len()
                ),
            );
        }
    }

    /// Bounds, arity, and kind agreement for one block reference.
    fn check_block_ref(&mut self, pc: u32, r: &BlockRef) {
        let Some(decl) = self.p.arrays.get(r.array.index()) else {
            self.emit(
                pc,
                Rule::BadId,
                format!(
                    "array id #{} out of bounds (table has {})",
                    r.array.0,
                    self.p.arrays.len()
                ),
            );
            return;
        };
        let decl = decl.clone();
        let mut ids_ok = true;
        for &id in &r.indices {
            ids_ok &= self.check_index_id(pc, id);
        }
        if !ids_ok {
            return;
        }
        if r.indices.len() != decl.dims.len() {
            self.emit(
                pc,
                Rule::Arity,
                format!(
                    "`{}` is rank {} but the reference has {} indices",
                    decl.name,
                    decl.dims.len(),
                    r.indices.len()
                ),
            );
            return;
        }
        for (d, (&ri, &di)) in r.indices.iter().zip(&decl.dims).enumerate() {
            let rk = match self.effective_kind(ri) {
                Ok(k) => k,
                Err(m) => {
                    self.emit(pc, Rule::KindMismatch, m);
                    continue;
                }
            };
            if rk == IndexKind::Simple {
                self.emit(
                    pc,
                    Rule::KindMismatch,
                    format!(
                        "simple index `{}` cannot address a segment of `{}`",
                        self.index_name(ri),
                        decl.name
                    ),
                );
                continue;
            }
            let dk = match self.effective_kind(di) {
                Ok(k) => k,
                Err(m) => {
                    self.emit(pc, Rule::KindMismatch, m);
                    continue;
                }
            };
            if rk != dk {
                self.emit(
                    pc,
                    Rule::KindMismatch,
                    format!(
                        "dimension {} of `{}` is declared {:?} but `{}` is {:?}",
                        d,
                        decl.name,
                        dk,
                        self.index_name(ri),
                        rk
                    ),
                );
            }
        }
    }

    /// Array-kind discipline: the instruction must address the kind of
    /// array its semantics require.
    fn check_array_kind(
        &mut self,
        pc: u32,
        array: ArrayId,
        ok: impl Fn(ArrayKind) -> bool,
        what: &str,
    ) {
        let Some(decl) = self.p.arrays.get(array.index()) else {
            return; // bad id diagnosed by the ref/id check
        };
        if !ok(decl.kind) {
            let (name, kind) = (decl.name.clone(), decl.kind);
            self.emit(pc, Rule::KindUsage, format!("{what}; `{name}` is {kind:?}"));
        }
    }

    #[allow(clippy::too_many_lines)]
    fn check_instruction_ids(&mut self, pc: u32, ins: &I) {
        match ins {
            I::PardoStart {
                indices,
                where_clauses,
                ..
            } => {
                for &id in indices {
                    self.check_index_id(pc, id);
                }
                let mut mentioned = Vec::new();
                for w in where_clauses {
                    self.check_bool_expr(pc, w);
                    bool_expr_indices(w, &mut mentioned);
                }
                for id in mentioned {
                    if !indices.contains(&id) {
                        self.emit(
                            pc,
                            Rule::WhereClause,
                            format!(
                                "where clause references `{}` which this pardo does not bind",
                                self.index_name(id)
                            ),
                        );
                    }
                }
            }
            I::DoStart { index, .. } => {
                self.check_index_id(pc, *index);
            }
            I::DoInStart { sub, parent, .. } => {
                if self.check_index_id(pc, *sub) && self.check_index_id(pc, *parent) {
                    match self.p.indices[sub.index()].kind {
                        IndexKind::Subindex { parent: declared } if declared == *parent => {}
                        IndexKind::Subindex { parent: declared } => self.emit(
                            pc,
                            Rule::KindMismatch,
                            format!(
                                "`{}` is a subindex of `{}`, not of `{}`",
                                self.index_name(*sub),
                                self.index_name(declared),
                                self.index_name(*parent)
                            ),
                        ),
                        _ => self.emit(
                            pc,
                            Rule::KindMismatch,
                            format!("`{}` is not a subindex", self.index_name(*sub)),
                        ),
                    }
                }
            }
            I::Call { proc } => {
                if proc.index() >= self.p.procs.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!(
                            "proc id #{} out of bounds (table has {})",
                            proc.0,
                            self.p.procs.len()
                        ),
                    );
                }
            }
            I::Create { array } | I::Delete { array } => {
                if array.index() >= self.p.arrays.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!("array id #{} out of bounds", array.0),
                    );
                } else {
                    self.check_array_kind(
                        pc,
                        *array,
                        |k| k.is_remote() || k == ArrayKind::Local,
                        "`create`/`delete` applies to distributed, served, or local arrays",
                    );
                }
            }
            I::Get { block } => {
                self.check_block_ref(pc, block);
                self.check_array_kind(
                    pc,
                    block.array,
                    |k| k == ArrayKind::Distributed,
                    "`get` requires a distributed array",
                );
            }
            I::Put { dest, src, .. } => {
                self.check_block_ref(pc, dest);
                self.check_block_ref(pc, src);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| k == ArrayKind::Distributed,
                    "`put` requires a distributed array",
                );
                self.check_array_kind(
                    pc,
                    src.array,
                    |k| !k.is_remote(),
                    "`put` source must be worker-local",
                );
            }
            I::Request { block } => {
                self.check_block_ref(pc, block);
                self.check_array_kind(
                    pc,
                    block.array,
                    |k| k == ArrayKind::Served,
                    "`request` requires a served array",
                );
            }
            I::Prepare { dest, src, .. } => {
                self.check_block_ref(pc, dest);
                self.check_block_ref(pc, src);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| k == ArrayKind::Served,
                    "`prepare` requires a served array",
                );
                self.check_array_kind(
                    pc,
                    src.array,
                    |k| !k.is_remote(),
                    "`prepare` source must be worker-local",
                );
            }
            I::BlocksToList { array, label } | I::ListToBlocks { array, label } => {
                self.check_string_id(pc, *label);
                if array.index() >= self.p.arrays.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!("array id #{} out of bounds", array.0),
                    );
                } else {
                    self.check_array_kind(
                        pc,
                        *array,
                        |k| k.is_remote(),
                        "checkpointing applies to distributed or served arrays",
                    );
                }
            }
            I::BlockFill { dest, value } => {
                self.check_block_ref(pc, dest);
                self.check_scalar_expr(pc, value);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| !k.is_remote(),
                    "direct block write requires a local array (use put/prepare)",
                );
            }
            I::BlockCopy { dest, src } => {
                self.check_block_ref(pc, dest);
                self.check_block_ref(pc, src);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| !k.is_remote(),
                    "direct block write requires a local array (use put/prepare)",
                );
            }
            I::BlockAccumulate { dest, src, .. } => {
                self.check_block_ref(pc, dest);
                self.check_block_ref(pc, src);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| !k.is_remote(),
                    "direct block write requires a local array (use put/prepare)",
                );
            }
            I::BlockScale { dest, factor } => {
                self.check_block_ref(pc, dest);
                self.check_scalar_expr(pc, factor);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| !k.is_remote(),
                    "direct block write requires a local array (use put/prepare)",
                );
            }
            I::BlockContract { dest, a, b, .. } => {
                self.check_block_ref(pc, dest);
                self.check_block_ref(pc, a);
                self.check_block_ref(pc, b);
                self.check_array_kind(
                    pc,
                    dest.array,
                    |k| !k.is_remote(),
                    "direct block write requires a local array (use put/prepare)",
                );
            }
            I::ScalarAssign { dest, expr } => {
                if dest.index() >= self.p.scalars.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!("scalar id #{} out of bounds", dest.0),
                    );
                }
                self.check_scalar_expr(pc, expr);
            }
            I::ScalarFromBlock { dest, src, .. } => {
                if dest.index() >= self.p.scalars.len() {
                    self.emit(
                        pc,
                        Rule::BadId,
                        format!("scalar id #{} out of bounds", dest.0),
                    );
                }
                self.check_block_ref(pc, src);
            }
            I::ExecuteSuper { name, args } => {
                self.check_string_id(pc, *name);
                for a in args {
                    match a {
                        Arg::Block(b) => self.check_block_ref(pc, b),
                        Arg::Scalar(id) => {
                            if id.index() >= self.p.scalars.len() {
                                self.emit(
                                    pc,
                                    Rule::BadId,
                                    format!("scalar id #{} out of bounds", id.0),
                                );
                            }
                        }
                        Arg::Index(id) => {
                            self.check_index_id(pc, *id);
                        }
                    }
                }
            }
            I::Print { items } => {
                for item in items {
                    match item {
                        PrintItem::Str(id) => self.check_string_id(pc, *id),
                        PrintItem::Expr(e) => self.check_scalar_expr(pc, e),
                    }
                }
            }
            I::PardoEnd { .. }
            | I::DoEnd { .. }
            | I::DoInEnd { .. }
            | I::ExitLoop { .. }
            | I::JumpIfFalse { .. }
            | I::Jump { .. }
            | I::Return
            | I::Halt
            | I::SipBarrier
            | I::ServerBarrier => {}
        }
        if let I::JumpIfFalse { cond, .. } = ins {
            self.check_bool_expr(pc, cond);
        }
    }

    /// Loop pairing: every start's `end_pc` must hold the matching end
    /// whose `start_pc` points back; loops close in LIFO order; pardo does
    /// not nest; the stack is empty at `Return`/`Halt`; barriers do not
    /// appear inside pardo bodies. Also records matched loop intervals for
    /// the jump scan.
    fn scan_loops(&mut self) {
        let len = self.p.code.len() as u32;
        let mut stack: Vec<(u32, u32, LoopKind)> = Vec::new();
        for pc in 0..len {
            match &self.p.code[pc as usize] {
                I::PardoStart { end_pc, .. } => {
                    if stack.iter().any(|&(_, _, k)| k == LoopKind::Pardo) {
                        self.emit(
                            pc,
                            Rule::Nesting,
                            "nested pardo: the SIP schedules one pardo at a time".into(),
                        );
                    }
                    self.open_loop(pc, *end_pc, LoopKind::Pardo, &mut stack);
                }
                I::DoStart { end_pc, .. } => {
                    self.open_loop(pc, *end_pc, LoopKind::Do, &mut stack);
                }
                I::DoInStart { end_pc, .. } => {
                    self.open_loop(pc, *end_pc, LoopKind::DoIn, &mut stack);
                }
                I::PardoEnd { start_pc } => {
                    self.close_loop(pc, *start_pc, LoopKind::Pardo, &mut stack);
                }
                I::DoEnd { start_pc } => {
                    self.close_loop(pc, *start_pc, LoopKind::Do, &mut stack);
                }
                I::DoInEnd { start_pc } => {
                    self.close_loop(pc, *start_pc, LoopKind::DoIn, &mut stack);
                }
                I::ExitLoop { loop_start_pc, .. } => {
                    let enclosing = stack
                        .iter()
                        .rev()
                        .find(|&&(s, _, k)| s == *loop_start_pc && k != LoopKind::Pardo);
                    if enclosing.is_none() {
                        self.emit(
                            pc,
                            Rule::Nesting,
                            format!(
                                "exit references pc {loop_start_pc} which is not an \
                                 enclosing sequential loop"
                            ),
                        );
                    }
                }
                I::SipBarrier | I::ServerBarrier
                    if stack.iter().any(|&(_, _, k)| k == LoopKind::Pardo) =>
                {
                    self.emit(
                        pc,
                        Rule::BarrierInPardo,
                        "barrier inside a pardo body: workers parked mid-chunk \
                         never all arrive"
                            .into(),
                    );
                }
                I::Return | I::Halt => {
                    for &(s, _, _) in &stack {
                        self.emit(
                            pc,
                            Rule::Nesting,
                            format!("loop opened at pc {s} is still open here"),
                        );
                    }
                    stack.clear();
                }
                _ => {}
            }
        }
        for (s, _, _) in stack {
            self.emit(
                s,
                Rule::Nesting,
                "loop never closed before end of code".into(),
            );
        }
    }

    fn open_loop(
        &mut self,
        pc: u32,
        end_pc: u32,
        kind: LoopKind,
        stack: &mut Vec<(u32, u32, LoopKind)>,
    ) {
        let len = self.p.code.len() as u32;
        let end_ok = end_pc > pc
            && end_pc < len
            && match (&self.p.code[end_pc as usize], kind) {
                (I::PardoEnd { start_pc }, LoopKind::Pardo)
                | (I::DoEnd { start_pc }, LoopKind::Do)
                | (I::DoInEnd { start_pc }, LoopKind::DoIn) => *start_pc == pc,
                _ => false,
            };
        if !end_ok {
            self.emit(
                pc,
                Rule::Nesting,
                format!("end_pc {end_pc} does not hold the matching loop end"),
            );
        } else {
            self.intervals.push((pc, end_pc));
        }
        stack.push((pc, end_pc, kind));
    }

    fn close_loop(
        &mut self,
        pc: u32,
        start_pc: u32,
        kind: LoopKind,
        stack: &mut Vec<(u32, u32, LoopKind)>,
    ) {
        match stack.last() {
            Some(&(s, _, k)) if s == start_pc && k == kind => {
                stack.pop();
            }
            _ => self.emit(
                pc,
                Rule::Nesting,
                format!("loop end for start pc {start_pc} does not match the innermost open loop"),
            ),
        }
    }

    /// Every branch target in bounds and never into a loop body the branch
    /// is outside of (a jump past a `DoStart` enters a body whose loop
    /// frame was never pushed).
    fn scan_jumps(&mut self) {
        let len = self.p.code.len() as u32;
        let intervals = self.intervals.clone();
        for pc in 0..len {
            let target = match &self.p.code[pc as usize] {
                I::Jump { target } | I::JumpIfFalse { target, .. } | I::ExitLoop { target, .. } => {
                    *target
                }
                _ => continue,
            };
            if target >= len {
                self.emit(
                    pc,
                    Rule::JumpIntoLoop,
                    format!("branch target {target} out of bounds (code has {len})"),
                );
                continue;
            }
            for &(s, e) in &intervals {
                let enters_body = s < target && target <= e;
                let from_inside = s <= pc && pc <= e;
                if enters_body && !from_inside {
                    self.emit(
                        pc,
                        Rule::JumpIntoLoop,
                        format!("branch into the body of the loop at pcs {s}..{e}"),
                    );
                }
            }
        }
    }

    /// Procedure sanity: entry pcs in bounds, each body reaches a `Return`,
    /// and the call graph is acyclic (the SIP has no call-depth bound, so
    /// recursion never terminates).
    fn scan_procs(&mut self) {
        let len = self.p.code.len() as u32;
        let mut calls: Vec<Vec<ProcId>> = vec![Vec::new(); self.p.procs.len()];
        for (i, proc) in self.p.procs.iter().enumerate() {
            if proc.entry_pc >= len {
                self.emit(
                    proc.entry_pc.min(len.saturating_sub(1)),
                    Rule::BadId,
                    format!(
                        "proc `{}` entry pc {} out of bounds",
                        proc.name, proc.entry_pc
                    ),
                );
                continue;
            }
            match proc_body_end(self.p, proc.entry_pc) {
                Some(end) => {
                    for pc in proc.entry_pc..end {
                        if let I::Call { proc: callee } = &self.p.code[pc as usize] {
                            if callee.index() < self.p.procs.len() {
                                calls[i].push(*callee);
                            }
                        }
                    }
                }
                None => self.emit(
                    proc.entry_pc,
                    Rule::Nesting,
                    format!("proc `{}` has no return", proc.name),
                ),
            }
        }
        // Cycle detection over the proc call graph.
        let n = self.p.procs.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state[start] = 1;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                if *edge < calls[node].len() {
                    let next = calls[node][*edge].index();
                    *edge += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            let entry = self.p.procs[next].entry_pc;
                            let name = self.p.procs[next].name.clone();
                            self.emit(
                                entry,
                                Rule::Recursion,
                                format!("proc `{name}` is called recursively"),
                            );
                            state[next] = 2; // report each cycle head once
                        }
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    stack.pop();
                }
            }
        }
    }
}

/// The pc one past a proc body: scans from `entry` to the first `Return`.
fn proc_body_end(p: &Program, entry: u32) -> Option<u32> {
    (entry..p.code.len() as u32).find(|&pc| matches!(p.code[pc as usize], I::Return))
}

// ---- layer 2: race detection -----------------------------------------------

/// What we remember about the most recent unbarriered write to an array.
#[derive(Debug, Clone)]
struct DirtyWrite {
    /// Pc of the write.
    pc: u32,
    /// Pardo instance the write happened in (`None` for serial bulk
    /// restores like `list_to_blocks`).
    instance: Option<u64>,
    /// The write's destination index ids (`None` for whole-array writes).
    indices: Option<Vec<IndexId>>,
    /// True when the destination names every pardo index (each iteration
    /// writes its own block).
    covers: bool,
}

/// A data-free walk over the program (in the style of [`crate::trace`]):
/// loop bodies are visited rather than iterated — sequential loop bodies
/// twice, to catch loop-carried hazards — and calls are inlined.
struct RaceWalk<'a, 'b> {
    v: &'b mut Verifier<'a>,
    dirty_dist: HashMap<ArrayId, DirtyWrite>,
    dirty_served: HashMap<ArrayId, DirtyWrite>,
    /// Current pardo: (instance number, bound indices).
    pardo: Option<(u64, Vec<IndexId>)>,
    instances: u64,
    call_stack: Vec<ProcId>,
    reported: HashSet<(u32, Rule)>,
}

impl<'a, 'b> RaceWalk<'a, 'b> {
    fn new(v: &'b mut Verifier<'a>) -> Self {
        RaceWalk {
            v,
            dirty_dist: HashMap::new(),
            dirty_served: HashMap::new(),
            pardo: None,
            instances: 0,
            call_stack: Vec::new(),
            reported: HashSet::new(),
        }
    }

    fn run(&mut self) {
        self.walk(0, self.v.p.code.len() as u32);
    }

    fn report(&mut self, pc: u32, rule: Rule, message: String) {
        if self.reported.insert((pc, rule)) {
            self.v.emit(pc, rule, message);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn walk(&mut self, lo: u32, hi: u32) {
        let mut pc = lo;
        while pc < hi {
            match &self.v.p.code[pc as usize].clone() {
                I::PardoStart {
                    indices, end_pc, ..
                } => {
                    if self.pardo.is_some() {
                        // Reached through a call from inside another pardo —
                        // invisible to the linear structural scan.
                        self.report(
                            pc,
                            Rule::Nesting,
                            "nested pardo: the SIP schedules one pardo at a time".into(),
                        );
                    }
                    self.instances += 1;
                    let saved = self.pardo.replace((self.instances, indices.clone()));
                    self.walk(pc + 1, *end_pc);
                    self.pardo = saved;
                    pc = *end_pc + 1;
                }
                I::DoStart { end_pc, .. } | I::DoInStart { end_pc, .. } => {
                    // Twice: the second pass sees state the first left
                    // behind, catching hazards carried around the loop.
                    self.walk(pc + 1, *end_pc);
                    self.walk(pc + 1, *end_pc);
                    pc = *end_pc + 1;
                }
                I::Call { proc } => {
                    if !self.call_stack.contains(proc) {
                        let entry = self.v.p.procs[proc.index()].entry_pc;
                        if let Some(end) = proc_body_end(self.v.p, entry) {
                            self.call_stack.push(*proc);
                            self.walk(entry, end);
                            self.call_stack.pop();
                        }
                    }
                    pc += 1;
                }
                I::Halt | I::Return => return,
                I::SipBarrier => {
                    self.dirty_dist.clear();
                    pc += 1;
                }
                I::ServerBarrier => {
                    self.dirty_served.clear();
                    pc += 1;
                }
                I::Put { dest, mode, .. } => {
                    self.handle_write(pc, dest, *mode, true);
                    pc += 1;
                }
                I::Prepare { dest, mode, .. } => {
                    self.handle_write(pc, dest, *mode, false);
                    pc += 1;
                }
                I::Get { block } => {
                    self.handle_read(pc, block, true);
                    pc += 1;
                }
                I::Request { block } => {
                    self.handle_read(pc, block, false);
                    pc += 1;
                }
                I::BlocksToList { array, .. } => {
                    if let Some(w) = self.dirty_dist.get(array) {
                        let (wpc, name) = (w.pc, self.v.array_name(*array));
                        self.report(
                            pc,
                            Rule::GetAfterPut,
                            format!(
                                "`{name}` is serialized while dirty from the put at pc {wpc} \
                                 with no sip_barrier between"
                            ),
                        );
                    }
                    pc += 1;
                }
                I::ListToBlocks { array, .. } => {
                    self.dirty_dist.insert(
                        *array,
                        DirtyWrite {
                            pc,
                            instance: None,
                            indices: None,
                            covers: false,
                        },
                    );
                    pc += 1;
                }
                I::Create { array } | I::Delete { array } => {
                    self.dirty_dist.remove(array);
                    self.dirty_served.remove(array);
                    pc += 1;
                }
                _ => pc += 1,
            }
        }
    }

    /// A `put`/`prepare`. In a pardo, a replace-mode write whose
    /// destination does not name every pardo index is a write-write race:
    /// two iterations differing only in an unnamed index address the same
    /// block. Accumulate-mode writes are exempt — the paper makes `+=`
    /// atomic precisely so concurrent iterations may combine into one
    /// block without synchronization (§IV-C).
    fn handle_write(&mut self, pc: u32, dest: &BlockRef, mode: PutMode, dist: bool) {
        let covers = match &self.pardo {
            Some((_, pindices)) => {
                let uncovered: Vec<IndexId> = pindices
                    .iter()
                    .copied()
                    .filter(|&p| {
                        !dest.indices.contains(&p)
                            && !dest
                                .indices
                                .iter()
                                .any(|&ri| self.v.parent_of(ri) == Some(p))
                    })
                    .collect();
                if !uncovered.is_empty() && mode == PutMode::Replace {
                    let names: Vec<String> =
                        uncovered.iter().map(|&i| self.v.index_name(i)).collect();
                    let array = self.v.array_name(dest.array);
                    let verb = if dist { "put" } else { "prepare" };
                    self.report(
                        pc,
                        Rule::WriteWriteRace,
                        format!(
                            "replace-mode {verb} to `{array}` does not name pardo \
                             index{} {}; concurrent iterations overwrite the same \
                             block (accumulate with += or add the index)",
                            if names.len() == 1 { "" } else { "es" },
                            names.join(", ")
                        ),
                    );
                }
                uncovered.is_empty()
            }
            None => false,
        };
        let entry = DirtyWrite {
            pc,
            instance: self.pardo.as_ref().map(|(i, _)| *i),
            indices: Some(dest.indices.clone()),
            covers,
        };
        // Serial puts are redundant deterministic writes (every worker
        // executes the same serial code); only pardo writes and bulk
        // restores participate in the read-after-write rules.
        if entry.instance.is_some() {
            if dist {
                self.dirty_dist.insert(dest.array, entry);
            } else {
                self.dirty_served.insert(dest.array, entry);
            }
        }
    }

    /// A `get`/`request`. Reading an array dirty from an unbarriered write
    /// is a race — except the self-read pattern `put X(M..) … get X(M..)`
    /// inside one pardo iteration whose destination covers the pardo
    /// indices: there each iteration reads back the very block only it
    /// writes, and fabric FIFO per peer pair orders the two.
    fn handle_read(&mut self, pc: u32, block: &BlockRef, dist: bool) {
        let map = if dist {
            &self.dirty_dist
        } else {
            &self.dirty_served
        };
        let Some(w) = map.get(&block.array) else {
            return;
        };
        let same_instance = match (&self.pardo, w.instance) {
            (Some((cur, _)), Some(wi)) => *cur == wi,
            _ => false,
        };
        let same_ref = w.indices.as_deref() == Some(&block.indices[..]);
        if same_instance && same_ref && w.covers {
            return;
        }
        let (wpc, name) = (w.pc, self.v.array_name(block.array));
        if dist {
            self.report(
                pc,
                Rule::GetAfterPut,
                format!(
                    "get of `{name}` races the put at pc {wpc}: no sip_barrier \
                     separates the write from this read"
                ),
            );
        } else {
            self.report(
                pc,
                Rule::RequestAfterPrepare,
                format!(
                    "request of `{name}` races the prepare at pc {wpc}: no \
                     server_barrier separates the write from this read"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests;
