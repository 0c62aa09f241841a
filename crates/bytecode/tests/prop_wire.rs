//! Property tests for the wire format: arbitrary programs round-trip
//! exactly, and corrupt streams never panic.

use proptest::prelude::*;
use sia_bytecode::ops::PrintItem;
use sia_bytecode::{
    decode_program, encode_program, Arg, ArrayDecl, ArrayId, ArrayKind, BinOp, BlockRef, BoolExpr,
    CmpOp, ConstId, IndexDecl, IndexId, IndexKind, Instruction, ProcDecl, ProcId, Program, PutMode,
    ScalarDecl, ScalarExpr, ScalarId, StringId, Value,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Lit),
        (0u32..8).prop_map(|i| Value::Sym(ConstId(i))),
    ]
}

fn arb_index_kind() -> impl Strategy<Value = IndexKind> {
    prop_oneof![
        Just(IndexKind::AoIndex),
        Just(IndexKind::MoIndex),
        Just(IndexKind::MoAIndex),
        Just(IndexKind::MoBIndex),
        Just(IndexKind::LaIndex),
        Just(IndexKind::Simple),
        (0u32..4).prop_map(|i| IndexKind::Subindex { parent: IndexId(i) }),
    ]
}

fn arb_scalar_expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        (-1e6..1e6f64).prop_map(ScalarExpr::Lit),
        (0u32..8).prop_map(|i| ScalarExpr::Scalar(ScalarId(i))),
        (0u32..8).prop_map(|i| ScalarExpr::IndexVal(IndexId(i))),
        (0u32..8).prop_map(|i| ScalarExpr::Const(ConstId(i))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div)
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| ScalarExpr::Bin(op, Box::new(l), Box::new(r))),
            inner.prop_map(|x| ScalarExpr::Neg(Box::new(x))),
        ]
    })
}

fn arb_bool_expr() -> impl Strategy<Value = BoolExpr> {
    let cmp = (
        arb_scalar_expr(),
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ],
        arb_scalar_expr(),
    )
        .prop_map(|(l, op, r)| BoolExpr::Cmp(l, op, r));
    cmp.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|x| BoolExpr::Not(Box::new(x))),
        ]
    })
}

fn arb_block_ref() -> impl Strategy<Value = BlockRef> {
    (0u32..8, prop::collection::vec(0u32..8, 0..5)).prop_map(|(a, idx)| BlockRef {
        array: ArrayId(a),
        indices: idx.into_iter().map(IndexId).collect(),
    })
}

fn arb_put_mode() -> impl Strategy<Value = PutMode> {
    prop_oneof![Just(PutMode::Replace), Just(PutMode::Accumulate)]
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (
            prop::collection::vec(0u32..8, 1..4),
            prop::collection::vec(arb_bool_expr(), 0..2),
            any::<u32>()
        )
            .prop_map(|(idx, wheres, end)| Instruction::PardoStart {
                indices: idx.into_iter().map(IndexId).collect(),
                where_clauses: wheres,
                end_pc: end,
            }),
        any::<u32>().prop_map(|pc| Instruction::PardoEnd { start_pc: pc }),
        (0u32..8, any::<u32>()).prop_map(|(i, pc)| Instruction::DoStart {
            index: IndexId(i),
            end_pc: pc
        }),
        any::<u32>().prop_map(|pc| Instruction::DoEnd { start_pc: pc }),
        (0u32..8, 0u32..8, any::<u32>(), any::<bool>()).prop_map(|(s, p, pc, par)| {
            Instruction::DoInStart {
                sub: IndexId(s),
                parent: IndexId(p),
                end_pc: pc,
                parallel: par,
            }
        }),
        (arb_bool_expr(), any::<u32>())
            .prop_map(|(c, t)| Instruction::JumpIfFalse { cond: c, target: t }),
        any::<u32>().prop_map(|t| Instruction::Jump { target: t }),
        (0u32..4).prop_map(|p| Instruction::Call { proc: ProcId(p) }),
        Just(Instruction::Return),
        Just(Instruction::Halt),
        arb_block_ref().prop_map(|b| Instruction::Get { block: b }),
        (arb_block_ref(), arb_block_ref(), arb_put_mode()).prop_map(|(d, s, m)| Instruction::Put {
            dest: d,
            src: s,
            mode: m
        }),
        arb_block_ref().prop_map(|b| Instruction::Request { block: b }),
        (arb_block_ref(), arb_block_ref(), arb_put_mode()).prop_map(|(d, s, m)| {
            Instruction::Prepare {
                dest: d,
                src: s,
                mode: m,
            }
        }),
        (arb_block_ref(), arb_scalar_expr())
            .prop_map(|(d, v)| Instruction::BlockFill { dest: d, value: v }),
        (arb_block_ref(), arb_block_ref())
            .prop_map(|(d, s)| Instruction::BlockCopy { dest: d, src: s }),
        (arb_block_ref(), arb_block_ref(), -1.0..1.0f64).prop_map(|(d, s, sign)| {
            Instruction::BlockAccumulate {
                dest: d,
                src: s,
                sign,
            }
        }),
        (
            arb_block_ref(),
            arb_block_ref(),
            arb_block_ref(),
            any::<bool>()
        )
            .prop_map(|(d, a, b, acc)| Instruction::BlockContract {
                dest: d,
                a,
                b,
                accumulate: acc
            }),
        (0u32..8, arb_scalar_expr()).prop_map(|(d, e)| Instruction::ScalarAssign {
            dest: ScalarId(d),
            expr: e
        }),
        (
            0u32..4,
            prop::collection::vec(
                prop_oneof![
                    arb_block_ref().prop_map(Arg::Block),
                    (0u32..8).prop_map(|i| Arg::Scalar(ScalarId(i))),
                    (0u32..8).prop_map(|i| Arg::Index(IndexId(i))),
                ],
                0..4
            )
        )
            .prop_map(|(n, args)| Instruction::ExecuteSuper {
                name: StringId(n),
                args
            }),
        prop::collection::vec(
            prop_oneof![
                (0u32..4).prop_map(|i| PrintItem::Str(StringId(i))),
                arb_scalar_expr().prop_map(PrintItem::Expr),
            ],
            0..3
        )
        .prop_map(|items| Instruction::Print { items }),
        Just(Instruction::SipBarrier),
        Just(Instruction::ServerBarrier),
        (0u32..8, 0u32..4).prop_map(|(a, l)| Instruction::BlocksToList {
            array: ArrayId(a),
            label: StringId(l)
        }),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        "[a-z_][a-z0-9_]{0,10}",
        prop::collection::vec(
            (
                "[a-zA-Z][a-zA-Z0-9]{0,6}",
                arb_index_kind(),
                arb_value(),
                arb_value(),
            ),
            0..6,
        ),
        prop::collection::vec(
            (
                "[a-zA-Z][a-zA-Z0-9]{0,6}",
                prop_oneof![
                    Just(ArrayKind::Static),
                    Just(ArrayKind::Temp),
                    Just(ArrayKind::Local),
                    Just(ArrayKind::Distributed),
                    Just(ArrayKind::Served)
                ],
                prop::collection::vec(0u32..6, 0..4),
                any::<bool>(),
            ),
            0..6,
        ),
        prop::collection::vec(("[a-z]{1,8}", -10.0..10.0f64), 0..4),
        prop::collection::vec("[a-z]{1,8}", 0..4),
        prop::collection::vec(("[a-z]{1,8}", any::<u32>()), 0..3),
        prop::collection::vec(".{0,12}", 0..4),
        prop::collection::vec(arb_instruction(), 0..20),
        (
            any::<bool>(),
            "[a-z]{1,8}",
            prop::collection::vec(0u32..40, 0..24),
        ),
    )
        .prop_map(
            |(name, indices, arrays, scalars, consts, procs, strings, code, lt)| Program {
                name,
                indices: indices
                    .into_iter()
                    .map(|(name, kind, low, high)| IndexDecl {
                        name,
                        kind,
                        low,
                        high,
                    })
                    .collect(),
                arrays: arrays
                    .into_iter()
                    .map(|(name, kind, dims, sparse)| ArrayDecl {
                        name,
                        kind,
                        dims: dims.into_iter().map(IndexId).collect(),
                        sparse,
                    })
                    .collect(),
                scalars: scalars
                    .into_iter()
                    .map(|(name, init)| ScalarDecl { name, init })
                    .collect(),
                consts,
                procs: procs
                    .into_iter()
                    .map(|(name, entry_pc)| ProcDecl { name, entry_pc })
                    .collect(),
                strings,
                code,
                line_table: if lt.0 {
                    Some(sia_bytecode::LineTable {
                        file: lt.1,
                        lines: lt.2,
                    })
                } else {
                    None
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for arbitrary programs.
    #[test]
    fn wire_roundtrip(p in arb_program()) {
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).unwrap();
        prop_assert_eq!(p, q);
    }

    /// Truncating an encoded program anywhere yields an error, never a panic
    /// or a silent success.
    #[test]
    fn truncation_always_errors(p in arb_program(), cut_frac in 0.0..1.0f64) {
        let bytes = encode_program(&p);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_program(&bytes[..cut]).is_err());
        }
    }

    /// Bytes after a complete program are an error, not ignored.
    #[test]
    fn trailing_bytes_error(p in arb_program(), junk in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut bytes = encode_program(&p);
        bytes.extend_from_slice(&junk);
        prop_assert_eq!(
            decode_program(&bytes).unwrap_err(),
            sia_bytecode::WireError::TrailingBytes(junk.len())
        );
    }

    /// Flipping a byte never panics (may decode to a different program or
    /// error, but must not crash).
    #[test]
    fn corruption_never_panics(p in arb_program(), pos_frac in 0.0..1.0f64, flip in 1u8..255) {
        let mut bytes = encode_program(&p).to_vec();
        if !bytes.is_empty() {
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            let _ = decode_program(&bytes);
        }
    }

    /// The disassembler accepts any program without panicking, even with
    /// dangling table references.
    #[test]
    fn disassembler_total(p in arb_program()) {
        let listing = sia_bytecode::disassemble(&p);
        prop_assert!(listing.contains("code:"));
    }
}
