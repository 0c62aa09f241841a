//! The on-disk wire format for SIA bytecode.
//!
//! A compact little-endian binary encoding with a magic/version header, so
//! compiled SIAL programs can be shipped to the SIP master exactly as the
//! original system shipped `.sio` files. The format is hand-rolled (no
//! external codec) and round-trip tested, including a property test in
//! `tests/`.

use crate::ops::{
    Arg, BinOp, BlockRef, BoolExpr, CmpOp, Instruction, PrintItem, PutMode, ScalarExpr,
};
use crate::program::{
    ArrayDecl, ArrayId, ArrayKind, ConstId, IndexDecl, IndexId, IndexKind, LineTable, ProcDecl,
    ProcId, Program, ScalarDecl, ScalarId, StringId, Value,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic bytes of a serialized program.
pub const MAGIC: &[u8; 4] = b"SIAB";
/// The format version this crate writes and the only one it reads: nothing
/// outside this repository produces bytecode, so a stream of another
/// version is stale and must be recompiled ([`WireError::BadVersion`]).
pub const VERSION: u32 = 3;

/// Errors decoding a serialized program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended prematurely.
    Truncated,
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// An enum tag byte was out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated bytecode stream"),
            WireError::BadMagic => write!(f, "not a SIA bytecode file (bad magic)"),
            WireError::BadVersion(v) => write!(f, "unsupported bytecode version {v}"),
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag} decoding {what}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string table"),
        }
    }
}

impl std::error::Error for WireError {}

type R<T> = Result<T, WireError>;

// ---- primitive helpers -----------------------------------------------------

fn need(buf: &Bytes, n: usize) -> R<()> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut Bytes) -> R<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> R<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_i64(buf: &mut Bytes) -> R<i64> {
    need(buf, 8)?;
    Ok(buf.get_i64_le())
}

fn get_f64(buf: &mut Bytes) -> R<f64> {
    need(buf, 8)?;
    Ok(buf.get_f64_le())
}

fn put_str(out: &mut BytesMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> R<String> {
    let n = get_u32(buf)? as usize;
    need(buf, n)?;
    let raw = buf.copy_to_bytes(n);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
}

fn put_vec<T>(out: &mut BytesMut, items: &[T], mut f: impl FnMut(&mut BytesMut, &T)) {
    out.put_u32_le(items.len() as u32);
    for item in items {
        f(out, item);
    }
}

fn get_vec<T>(buf: &mut Bytes, mut f: impl FnMut(&mut Bytes) -> R<T>) -> R<Vec<T>> {
    let n = get_u32(buf)? as usize;
    // Guard against absurd lengths from corrupt streams.
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push(f(buf)?);
    }
    Ok(v)
}

// ---- component codecs -------------------------------------------------------

fn put_value(out: &mut BytesMut, v: &Value) {
    match v {
        Value::Lit(x) => {
            out.put_u8(0);
            out.put_i64_le(*x);
        }
        Value::Sym(id) => {
            out.put_u8(1);
            out.put_u32_le(id.0);
        }
    }
}

fn get_value(buf: &mut Bytes) -> R<Value> {
    match get_u8(buf)? {
        0 => Ok(Value::Lit(get_i64(buf)?)),
        1 => Ok(Value::Sym(ConstId(get_u32(buf)?))),
        t => Err(WireError::BadTag {
            what: "Value",
            tag: t,
        }),
    }
}

fn put_index_kind(out: &mut BytesMut, k: &IndexKind) {
    match k {
        IndexKind::AoIndex => out.put_u8(0),
        IndexKind::MoIndex => out.put_u8(1),
        IndexKind::MoAIndex => out.put_u8(2),
        IndexKind::MoBIndex => out.put_u8(3),
        IndexKind::LaIndex => out.put_u8(4),
        IndexKind::Simple => out.put_u8(5),
        IndexKind::Subindex { parent } => {
            out.put_u8(6);
            out.put_u32_le(parent.0);
        }
    }
}

fn get_index_kind(buf: &mut Bytes) -> R<IndexKind> {
    Ok(match get_u8(buf)? {
        0 => IndexKind::AoIndex,
        1 => IndexKind::MoIndex,
        2 => IndexKind::MoAIndex,
        3 => IndexKind::MoBIndex,
        4 => IndexKind::LaIndex,
        5 => IndexKind::Simple,
        6 => IndexKind::Subindex {
            parent: IndexId(get_u32(buf)?),
        },
        t => {
            return Err(WireError::BadTag {
                what: "IndexKind",
                tag: t,
            })
        }
    })
}

fn put_array_kind(out: &mut BytesMut, k: &ArrayKind) {
    out.put_u8(match k {
        ArrayKind::Static => 0,
        ArrayKind::Temp => 1,
        ArrayKind::Local => 2,
        ArrayKind::Distributed => 3,
        ArrayKind::Served => 4,
    });
}

fn get_array_kind(buf: &mut Bytes) -> R<ArrayKind> {
    Ok(match get_u8(buf)? {
        0 => ArrayKind::Static,
        1 => ArrayKind::Temp,
        2 => ArrayKind::Local,
        3 => ArrayKind::Distributed,
        4 => ArrayKind::Served,
        t => {
            return Err(WireError::BadTag {
                what: "ArrayKind",
                tag: t,
            })
        }
    })
}

fn put_block_ref(out: &mut BytesMut, b: &BlockRef) {
    out.put_u32_le(b.array.0);
    put_vec(out, &b.indices, |o, id| o.put_u32_le(id.0));
}

fn get_block_ref(buf: &mut Bytes) -> R<BlockRef> {
    let array = ArrayId(get_u32(buf)?);
    let indices = get_vec(buf, |b| Ok(IndexId(get_u32(b)?)))?;
    Ok(BlockRef { array, indices })
}

fn put_scalar_expr(out: &mut BytesMut, e: &ScalarExpr) {
    match e {
        ScalarExpr::Lit(x) => {
            out.put_u8(0);
            out.put_f64_le(*x);
        }
        ScalarExpr::Scalar(id) => {
            out.put_u8(1);
            out.put_u32_le(id.0);
        }
        ScalarExpr::IndexVal(id) => {
            out.put_u8(2);
            out.put_u32_le(id.0);
        }
        ScalarExpr::Bin(op, l, r) => {
            out.put_u8(3);
            out.put_u8(match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
            });
            put_scalar_expr(out, l);
            put_scalar_expr(out, r);
        }
        ScalarExpr::Neg(x) => {
            out.put_u8(4);
            put_scalar_expr(out, x);
        }
        ScalarExpr::Const(id) => {
            out.put_u8(5);
            out.put_u32_le(id.0);
        }
    }
}

fn get_scalar_expr(buf: &mut Bytes) -> R<ScalarExpr> {
    Ok(match get_u8(buf)? {
        0 => ScalarExpr::Lit(get_f64(buf)?),
        1 => ScalarExpr::Scalar(ScalarId(get_u32(buf)?)),
        2 => ScalarExpr::IndexVal(IndexId(get_u32(buf)?)),
        3 => {
            let op = match get_u8(buf)? {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div,
                t => {
                    return Err(WireError::BadTag {
                        what: "BinOp",
                        tag: t,
                    })
                }
            };
            let l = get_scalar_expr(buf)?;
            let r = get_scalar_expr(buf)?;
            ScalarExpr::Bin(op, Box::new(l), Box::new(r))
        }
        4 => ScalarExpr::Neg(Box::new(get_scalar_expr(buf)?)),
        5 => ScalarExpr::Const(ConstId(get_u32(buf)?)),
        t => {
            return Err(WireError::BadTag {
                what: "ScalarExpr",
                tag: t,
            })
        }
    })
}

fn put_cmp(out: &mut BytesMut, c: &CmpOp) {
    out.put_u8(match c {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn get_cmp(buf: &mut Bytes) -> R<CmpOp> {
    Ok(match get_u8(buf)? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => {
            return Err(WireError::BadTag {
                what: "CmpOp",
                tag: t,
            })
        }
    })
}

fn put_bool_expr(out: &mut BytesMut, e: &BoolExpr) {
    match e {
        BoolExpr::Cmp(l, op, r) => {
            out.put_u8(0);
            put_scalar_expr(out, l);
            put_cmp(out, op);
            put_scalar_expr(out, r);
        }
        BoolExpr::And(l, r) => {
            out.put_u8(1);
            put_bool_expr(out, l);
            put_bool_expr(out, r);
        }
        BoolExpr::Or(l, r) => {
            out.put_u8(2);
            put_bool_expr(out, l);
            put_bool_expr(out, r);
        }
        BoolExpr::Not(x) => {
            out.put_u8(3);
            put_bool_expr(out, x);
        }
    }
}

fn get_bool_expr(buf: &mut Bytes) -> R<BoolExpr> {
    Ok(match get_u8(buf)? {
        0 => {
            let l = get_scalar_expr(buf)?;
            let op = get_cmp(buf)?;
            let r = get_scalar_expr(buf)?;
            BoolExpr::Cmp(l, op, r)
        }
        1 => BoolExpr::And(Box::new(get_bool_expr(buf)?), Box::new(get_bool_expr(buf)?)),
        2 => BoolExpr::Or(Box::new(get_bool_expr(buf)?), Box::new(get_bool_expr(buf)?)),
        3 => BoolExpr::Not(Box::new(get_bool_expr(buf)?)),
        t => {
            return Err(WireError::BadTag {
                what: "BoolExpr",
                tag: t,
            })
        }
    })
}

fn put_put_mode(out: &mut BytesMut, m: &PutMode) {
    out.put_u8(match m {
        PutMode::Replace => 0,
        PutMode::Accumulate => 1,
    });
}

fn get_put_mode(buf: &mut Bytes) -> R<PutMode> {
    Ok(match get_u8(buf)? {
        0 => PutMode::Replace,
        1 => PutMode::Accumulate,
        t => {
            return Err(WireError::BadTag {
                what: "PutMode",
                tag: t,
            })
        }
    })
}

fn put_arg(out: &mut BytesMut, a: &Arg) {
    match a {
        Arg::Block(b) => {
            out.put_u8(0);
            put_block_ref(out, b);
        }
        Arg::Scalar(id) => {
            out.put_u8(1);
            out.put_u32_le(id.0);
        }
        Arg::Index(id) => {
            out.put_u8(2);
            out.put_u32_le(id.0);
        }
    }
}

fn get_arg(buf: &mut Bytes) -> R<Arg> {
    Ok(match get_u8(buf)? {
        0 => Arg::Block(get_block_ref(buf)?),
        1 => Arg::Scalar(ScalarId(get_u32(buf)?)),
        2 => Arg::Index(IndexId(get_u32(buf)?)),
        t => {
            return Err(WireError::BadTag {
                what: "Arg",
                tag: t,
            })
        }
    })
}

#[allow(clippy::too_many_lines)]
fn put_instruction(out: &mut BytesMut, ins: &Instruction) {
    use Instruction::*;
    match ins {
        PardoStart {
            indices,
            where_clauses,
            end_pc,
        } => {
            out.put_u8(0);
            put_vec(out, indices, |o, id| o.put_u32_le(id.0));
            put_vec(out, where_clauses, put_bool_expr);
            out.put_u32_le(*end_pc);
        }
        PardoEnd { start_pc } => {
            out.put_u8(1);
            out.put_u32_le(*start_pc);
        }
        DoStart { index, end_pc } => {
            out.put_u8(2);
            out.put_u32_le(index.0);
            out.put_u32_le(*end_pc);
        }
        DoEnd { start_pc } => {
            out.put_u8(3);
            out.put_u32_le(*start_pc);
        }
        DoInStart {
            sub,
            parent,
            end_pc,
            parallel,
        } => {
            out.put_u8(4);
            out.put_u32_le(sub.0);
            out.put_u32_le(parent.0);
            out.put_u32_le(*end_pc);
            out.put_u8(u8::from(*parallel));
        }
        DoInEnd { start_pc } => {
            out.put_u8(5);
            out.put_u32_le(*start_pc);
        }
        JumpIfFalse { cond, target } => {
            out.put_u8(6);
            put_bool_expr(out, cond);
            out.put_u32_le(*target);
        }
        Jump { target } => {
            out.put_u8(7);
            out.put_u32_le(*target);
        }
        Call { proc } => {
            out.put_u8(8);
            out.put_u32_le(proc.0);
        }
        Return => out.put_u8(9),
        Halt => out.put_u8(10),
        Create { array } => {
            out.put_u8(11);
            out.put_u32_le(array.0);
        }
        Delete { array } => {
            out.put_u8(12);
            out.put_u32_le(array.0);
        }
        Get { block } => {
            out.put_u8(13);
            put_block_ref(out, block);
        }
        Put { dest, src, mode } => {
            out.put_u8(14);
            put_block_ref(out, dest);
            put_block_ref(out, src);
            put_put_mode(out, mode);
        }
        Request { block } => {
            out.put_u8(15);
            put_block_ref(out, block);
        }
        Prepare { dest, src, mode } => {
            out.put_u8(16);
            put_block_ref(out, dest);
            put_block_ref(out, src);
            put_put_mode(out, mode);
        }
        BlocksToList { array, label } => {
            out.put_u8(17);
            out.put_u32_le(array.0);
            out.put_u32_le(label.0);
        }
        ListToBlocks { array, label } => {
            out.put_u8(18);
            out.put_u32_le(array.0);
            out.put_u32_le(label.0);
        }
        BlockFill { dest, value } => {
            out.put_u8(19);
            put_block_ref(out, dest);
            put_scalar_expr(out, value);
        }
        BlockCopy { dest, src } => {
            out.put_u8(20);
            put_block_ref(out, dest);
            put_block_ref(out, src);
        }
        BlockAccumulate { dest, src, sign } => {
            out.put_u8(21);
            put_block_ref(out, dest);
            put_block_ref(out, src);
            out.put_f64_le(*sign);
        }
        BlockScale { dest, factor } => {
            out.put_u8(22);
            put_block_ref(out, dest);
            put_scalar_expr(out, factor);
        }
        BlockContract {
            dest,
            a,
            b,
            accumulate,
        } => {
            out.put_u8(23);
            put_block_ref(out, dest);
            put_block_ref(out, a);
            put_block_ref(out, b);
            out.put_u8(u8::from(*accumulate));
        }
        ScalarAssign { dest, expr } => {
            out.put_u8(24);
            out.put_u32_le(dest.0);
            put_scalar_expr(out, expr);
        }
        ScalarFromBlock {
            dest,
            src,
            accumulate,
        } => {
            out.put_u8(25);
            out.put_u32_le(dest.0);
            put_block_ref(out, src);
            out.put_u8(u8::from(*accumulate));
        }
        ExecuteSuper { name, args } => {
            out.put_u8(26);
            out.put_u32_le(name.0);
            put_vec(out, args, put_arg);
        }
        Print { items } => {
            out.put_u8(27);
            put_vec(out, items, |o, item| match item {
                PrintItem::Str(id) => {
                    o.put_u8(0);
                    o.put_u32_le(id.0);
                }
                PrintItem::Expr(e) => {
                    o.put_u8(1);
                    put_scalar_expr(o, e);
                }
            });
        }
        SipBarrier => out.put_u8(28),
        ServerBarrier => out.put_u8(29),
        ExitLoop {
            loop_start_pc,
            target,
        } => {
            out.put_u8(30);
            out.put_u32_le(*loop_start_pc);
            out.put_u32_le(*target);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn get_instruction(buf: &mut Bytes) -> R<Instruction> {
    use Instruction::*;
    Ok(match get_u8(buf)? {
        0 => PardoStart {
            indices: get_vec(buf, |b| Ok(IndexId(get_u32(b)?)))?,
            where_clauses: get_vec(buf, get_bool_expr)?,
            end_pc: get_u32(buf)?,
        },
        1 => PardoEnd {
            start_pc: get_u32(buf)?,
        },
        2 => DoStart {
            index: IndexId(get_u32(buf)?),
            end_pc: get_u32(buf)?,
        },
        3 => DoEnd {
            start_pc: get_u32(buf)?,
        },
        4 => DoInStart {
            sub: IndexId(get_u32(buf)?),
            parent: IndexId(get_u32(buf)?),
            end_pc: get_u32(buf)?,
            parallel: get_u8(buf)? != 0,
        },
        5 => DoInEnd {
            start_pc: get_u32(buf)?,
        },
        6 => JumpIfFalse {
            cond: get_bool_expr(buf)?,
            target: get_u32(buf)?,
        },
        7 => Jump {
            target: get_u32(buf)?,
        },
        8 => Call {
            proc: ProcId(get_u32(buf)?),
        },
        9 => Return,
        10 => Halt,
        11 => Create {
            array: ArrayId(get_u32(buf)?),
        },
        12 => Delete {
            array: ArrayId(get_u32(buf)?),
        },
        13 => Get {
            block: get_block_ref(buf)?,
        },
        14 => Put {
            dest: get_block_ref(buf)?,
            src: get_block_ref(buf)?,
            mode: get_put_mode(buf)?,
        },
        15 => Request {
            block: get_block_ref(buf)?,
        },
        16 => Prepare {
            dest: get_block_ref(buf)?,
            src: get_block_ref(buf)?,
            mode: get_put_mode(buf)?,
        },
        17 => BlocksToList {
            array: ArrayId(get_u32(buf)?),
            label: StringId(get_u32(buf)?),
        },
        18 => ListToBlocks {
            array: ArrayId(get_u32(buf)?),
            label: StringId(get_u32(buf)?),
        },
        19 => BlockFill {
            dest: get_block_ref(buf)?,
            value: get_scalar_expr(buf)?,
        },
        20 => BlockCopy {
            dest: get_block_ref(buf)?,
            src: get_block_ref(buf)?,
        },
        21 => BlockAccumulate {
            dest: get_block_ref(buf)?,
            src: get_block_ref(buf)?,
            sign: get_f64(buf)?,
        },
        22 => BlockScale {
            dest: get_block_ref(buf)?,
            factor: get_scalar_expr(buf)?,
        },
        23 => BlockContract {
            dest: get_block_ref(buf)?,
            a: get_block_ref(buf)?,
            b: get_block_ref(buf)?,
            accumulate: get_u8(buf)? != 0,
        },
        24 => ScalarAssign {
            dest: ScalarId(get_u32(buf)?),
            expr: get_scalar_expr(buf)?,
        },
        25 => ScalarFromBlock {
            dest: ScalarId(get_u32(buf)?),
            src: get_block_ref(buf)?,
            accumulate: get_u8(buf)? != 0,
        },
        26 => ExecuteSuper {
            name: StringId(get_u32(buf)?),
            args: get_vec(buf, get_arg)?,
        },
        27 => Print {
            items: get_vec(buf, |b| {
                Ok(match get_u8(b)? {
                    0 => PrintItem::Str(StringId(get_u32(b)?)),
                    1 => PrintItem::Expr(get_scalar_expr(b)?),
                    t => {
                        return Err(WireError::BadTag {
                            what: "PrintItem",
                            tag: t,
                        })
                    }
                })
            })?,
        },
        28 => SipBarrier,
        29 => ServerBarrier,
        30 => ExitLoop {
            loop_start_pc: get_u32(buf)?,
            target: get_u32(buf)?,
        },
        t => {
            return Err(WireError::BadTag {
                what: "Instruction",
                tag: t,
            })
        }
    })
}

// ---- program codec -----------------------------------------------------------

/// Serializes a [`Program`] to the SIA bytecode wire format.
pub fn encode_program(p: &Program) -> Bytes {
    let mut out = BytesMut::with_capacity(4096);
    out.put_slice(MAGIC);
    out.put_u32_le(VERSION);
    put_str(&mut out, &p.name);
    put_vec(&mut out, &p.indices, |o, d| {
        put_str(o, &d.name);
        put_index_kind(o, &d.kind);
        put_value(o, &d.low);
        put_value(o, &d.high);
    });
    put_vec(&mut out, &p.arrays, |o, d| {
        put_str(o, &d.name);
        put_array_kind(o, &d.kind);
        put_vec(o, &d.dims, |o2, id| o2.put_u32_le(id.0));
        o.put_u8(u8::from(d.sparse));
    });
    put_vec(&mut out, &p.scalars, |o, d| {
        put_str(o, &d.name);
        o.put_f64_le(d.init);
    });
    put_vec(&mut out, &p.consts, |o, s| put_str(o, s));
    put_vec(&mut out, &p.procs, |o, d| {
        put_str(o, &d.name);
        o.put_u32_le(d.entry_pc);
    });
    put_vec(&mut out, &p.strings, |o, s| put_str(o, s));
    put_vec(&mut out, &p.code, put_instruction);
    // v3: optional source line table (presence byte, then file + lines).
    match &p.line_table {
        Some(t) => {
            out.put_u8(1);
            put_str(&mut out, &t.file);
            put_vec(&mut out, &t.lines, |o, &l| o.put_u32_le(l));
        }
        None => out.put_u8(0),
    }
    out.freeze()
}

/// Decodes a [`Program`] from the SIA bytecode wire format.
pub fn decode_program(data: &[u8]) -> R<Program> {
    let mut buf = Bytes::copy_from_slice(data);
    need(&buf, 4)?;
    let magic = buf.copy_to_bytes(4);
    if magic.as_ref() != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = get_u32(&mut buf)?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let name = get_str(&mut buf)?;
    let indices = get_vec(&mut buf, |b| {
        Ok(IndexDecl {
            name: get_str(b)?,
            kind: get_index_kind(b)?,
            low: get_value(b)?,
            high: get_value(b)?,
        })
    })?;
    let arrays = get_vec(&mut buf, |b| {
        Ok(ArrayDecl {
            name: get_str(b)?,
            kind: get_array_kind(b)?,
            dims: get_vec(b, |b2| Ok(IndexId(get_u32(b2)?)))?,
            sparse: get_u8(b)? != 0,
        })
    })?;
    let scalars = get_vec(&mut buf, |b| {
        Ok(ScalarDecl {
            name: get_str(b)?,
            init: get_f64(b)?,
        })
    })?;
    let consts = get_vec(&mut buf, get_str)?;
    let procs = get_vec(&mut buf, |b| {
        Ok(ProcDecl {
            name: get_str(b)?,
            entry_pc: get_u32(b)?,
        })
    })?;
    let strings = get_vec(&mut buf, get_str)?;
    let code = get_vec(&mut buf, get_instruction)?;
    let line_table = match get_u8(&mut buf)? {
        0 => None,
        1 => Some(LineTable {
            file: get_str(&mut buf)?,
            lines: get_vec(&mut buf, get_u32)?,
        }),
        t => {
            return Err(WireError::BadTag {
                what: "LineTable",
                tag: t,
            })
        }
    };
    Ok(Program {
        name,
        indices,
        arrays,
        scalars,
        consts,
        procs,
        strings,
        code,
        line_table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ScalarId, Value};

    fn sample_program() -> Program {
        let mut p = Program {
            name: "roundtrip".into(),
            indices: vec![
                IndexDecl {
                    name: "i".into(),
                    kind: IndexKind::AoIndex,
                    low: Value::Lit(1),
                    high: Value::Sym(ConstId(0)),
                },
                IndexDecl {
                    name: "ii".into(),
                    kind: IndexKind::Subindex { parent: IndexId(0) },
                    low: Value::Lit(1),
                    high: Value::Lit(4),
                },
            ],
            arrays: vec![ArrayDecl {
                name: "T".into(),
                kind: ArrayKind::Served,
                dims: vec![IndexId(0), IndexId(0)],
                sparse: true,
            }],
            scalars: vec![ScalarDecl {
                name: "energy".into(),
                init: 1.5,
            }],
            consts: vec!["norb".into()],
            procs: vec![ProcDecl {
                name: "main".into(),
                entry_pc: 0,
            }],
            strings: vec![],
            code: vec![],
            line_table: Some(LineTable {
                file: "roundtrip.sial".into(),
                lines: vec![3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 12, 13, 0],
            }),
        };
        let label = p.intern("ckpt");
        let sup = p.intern("compute_integrals");
        let b = BlockRef {
            array: ArrayId(0),
            indices: vec![IndexId(0), IndexId(0)],
        };
        p.code = vec![
            Instruction::PardoStart {
                indices: vec![IndexId(0)],
                where_clauses: vec![BoolExpr::Cmp(
                    ScalarExpr::IndexVal(IndexId(0)),
                    CmpOp::Le,
                    ScalarExpr::Bin(
                        BinOp::Add,
                        Box::new(ScalarExpr::Lit(2.0)),
                        Box::new(ScalarExpr::Scalar(ScalarId(0))),
                    ),
                )],
                end_pc: 9,
            },
            Instruction::Get { block: b.clone() },
            Instruction::Request { block: b.clone() },
            Instruction::BlockContract {
                dest: b.clone(),
                a: b.clone(),
                b: b.clone(),
                accumulate: true,
            },
            Instruction::Put {
                dest: b.clone(),
                src: b.clone(),
                mode: PutMode::Accumulate,
            },
            Instruction::Prepare {
                dest: b.clone(),
                src: b.clone(),
                mode: PutMode::Replace,
            },
            Instruction::ExecuteSuper {
                name: sup,
                args: vec![
                    Arg::Block(b.clone()),
                    Arg::Scalar(ScalarId(0)),
                    Arg::Index(IndexId(0)),
                ],
            },
            Instruction::BlocksToList {
                array: ArrayId(0),
                label,
            },
            Instruction::Print {
                items: vec![
                    PrintItem::Str(label),
                    PrintItem::Expr(ScalarExpr::Neg(Box::new(ScalarExpr::Lit(3.0)))),
                ],
            },
            Instruction::PardoEnd { start_pc: 0 },
            Instruction::SipBarrier,
            Instruction::ServerBarrier,
            Instruction::Halt,
        ];
        p
    }

    #[test]
    fn roundtrip_identity() {
        let p = sample_program();
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_program(&sample_program()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode_program(&bytes).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn only_the_current_version_decodes() {
        // Older versions (1: no sparse flags, 2: no line table) are refused
        // like any unknown one, not read on a best-effort basis.
        for version in [0, 1, 2, VERSION + 1, 0xFF] {
            let mut bytes = encode_program(&sample_program()).to_vec();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_program(&bytes).unwrap_err(),
                WireError::BadVersion(version)
            );
        }
    }

    #[test]
    fn truncation_detected_at_any_cut() {
        let bytes = encode_program(&sample_program()).to_vec();
        // Cut the stream at a few interior positions; decode must error, not
        // panic.
        for cut in [5, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_program(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn line_table_roundtrips_exactly() {
        let p = sample_program();
        let q = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(p.line_table, q.line_table);
        assert_eq!(q.source_of(0), Some(("roundtrip.sial", 3)));
        assert_eq!(q.source_of(12), None, "0 entry means unknown");
    }

    #[test]
    fn empty_program_roundtrips() {
        let p = Program {
            name: String::new(),
            ..Default::default()
        };
        let q = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(p, q);
    }
}
