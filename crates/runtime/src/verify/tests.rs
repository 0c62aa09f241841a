//! Unit tests for the static verifier: each structural rule firing on
//! minimal hand-built bytecode, each race rule firing on a compiled
//! program, and the corresponding exemptions staying quiet.

use super::*;
use sia_bytecode::ops::CmpOp;
use sia_bytecode::{ArrayDecl, IndexDecl, ProcDecl, Value};

fn ao(name: &str) -> IndexDecl {
    IndexDecl {
        name: name.into(),
        kind: IndexKind::AoIndex,
        low: Value::Lit(1),
        high: Value::Lit(2),
    }
}

fn idx(name: &str, kind: IndexKind) -> IndexDecl {
    IndexDecl {
        name: name.into(),
        kind,
        low: Value::Lit(1),
        high: Value::Lit(2),
    }
}

fn arr(name: &str, kind: ArrayKind, dims: Vec<u32>) -> ArrayDecl {
    ArrayDecl {
        name: name.into(),
        kind,
        dims: dims.into_iter().map(IndexId).collect(),
        sparse: false,
    }
}

fn prog(indices: Vec<IndexDecl>, arrays: Vec<ArrayDecl>, code: Vec<I>) -> Program {
    Program {
        name: "t".into(),
        indices,
        arrays,
        code,
        ..Program::default()
    }
}

fn bref(array: u32, indices: &[u32]) -> BlockRef {
    BlockRef {
        array: ArrayId(array),
        indices: indices.iter().map(|&i| IndexId(i)).collect(),
    }
}

fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule.name()).collect()
}

fn check_src(src: &str) -> Vec<Diagnostic> {
    check_program(&sial_frontend::compile(src).unwrap())
}

// ---- structural rules ------------------------------------------------------

#[test]
fn bad_array_id_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![],
        vec![
            I::Get {
                block: bref(5, &[0]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert!(rules(&d).contains(&"bad-id"), "{d:?}");
}

#[test]
fn sparse_on_non_remote_kind_flagged() {
    let mut t = arr("T", ArrayKind::Temp, vec![0]);
    t.sparse = true;
    let p = prog(vec![ao("i")], vec![t], vec![I::Halt]);
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["sparse-kind"], "{d:?}");
    assert!(d[0].message.contains("only distributed and served"));
}

#[test]
fn sparse_on_remote_kinds_passes() {
    let mut x = arr("X", ArrayKind::Distributed, vec![0]);
    x.sparse = true;
    let mut s = arr("S", ArrayKind::Served, vec![0]);
    s.sparse = true;
    let p = prog(vec![ao("i")], vec![x, s], vec![I::Halt]);
    assert!(check_program(&p).is_empty());
}

#[test]
fn bad_index_id_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![arr("X", ArrayKind::Distributed, vec![0])],
        vec![
            I::Get {
                block: bref(0, &[9]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert!(rules(&d).contains(&"bad-id"), "{d:?}");
}

#[test]
fn arity_mismatch_flagged() {
    let p = prog(
        vec![ao("i"), ao("j")],
        vec![arr("X", ArrayKind::Distributed, vec![0, 1])],
        vec![
            I::Get {
                block: bref(0, &[0]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["arity"], "{d:?}");
    assert!(d[0].message.contains("rank 2"), "{}", d[0].message);
}

#[test]
fn index_kind_mismatch_flagged() {
    let p = prog(
        vec![ao("i"), idx("m", IndexKind::MoIndex)],
        vec![arr("X", ArrayKind::Distributed, vec![0])],
        vec![
            I::Get {
                block: bref(0, &[1]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["kind-mismatch"], "{d:?}");
}

#[test]
fn simple_index_in_block_ref_flagged() {
    let p = prog(
        vec![ao("i"), idx("c", IndexKind::Simple)],
        vec![arr("X", ArrayKind::Distributed, vec![0])],
        vec![
            I::Get {
                block: bref(0, &[1]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["kind-mismatch"], "{d:?}");
    assert!(d[0].message.contains("simple index"), "{}", d[0].message);
}

#[test]
fn subindex_addresses_parent_segments() {
    // A subindex of i addresses X(i)'s segments: no diagnostic.
    let p = prog(
        vec![
            ao("i"),
            idx("ii", IndexKind::Subindex { parent: IndexId(0) }),
        ],
        vec![arr("X", ArrayKind::Distributed, vec![0])],
        vec![
            I::Get {
                block: bref(0, &[1]),
            },
            I::Halt,
        ],
    );
    assert!(check_program(&p).is_empty());
}

#[test]
fn unbalanced_do_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![],
        vec![
            I::DoStart {
                index: IndexId(0),
                end_pc: 5,
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert!(rules(&d).iter().all(|r| *r == "nesting"), "{d:?}");
    assert!(!d.is_empty());
}

#[test]
fn nested_pardo_flagged() {
    let p = prog(
        vec![ao("i"), ao("j")],
        vec![],
        vec![
            I::PardoStart {
                indices: vec![IndexId(0)],
                where_clauses: vec![],
                end_pc: 3,
            },
            I::PardoStart {
                indices: vec![IndexId(1)],
                where_clauses: vec![],
                end_pc: 2,
            },
            I::PardoEnd { start_pc: 1 },
            I::PardoEnd { start_pc: 0 },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["nesting"], "{d:?}");
    assert_eq!(d[0].pc, 1);
}

#[test]
fn jump_into_loop_body_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![],
        vec![
            I::Jump { target: 2 },
            I::DoStart {
                index: IndexId(0),
                end_pc: 3,
            },
            I::SipBarrier,
            I::DoEnd { start_pc: 1 },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["jump-into-loop"], "{d:?}");
    assert_eq!(d[0].pc, 0);
}

#[test]
fn branch_to_loop_start_from_outside_is_fine() {
    // Jumping AT a loop start (not past it) is the compiled if/else shape.
    let p = prog(
        vec![ao("i")],
        vec![],
        vec![
            I::Jump { target: 1 },
            I::DoStart {
                index: IndexId(0),
                end_pc: 2,
            },
            I::DoEnd { start_pc: 1 },
            I::Halt,
        ],
    );
    assert!(check_program(&p).is_empty());
}

#[test]
fn where_clause_on_unbound_index_flagged() {
    let p = prog(
        vec![ao("i"), ao("j")],
        vec![],
        vec![
            I::PardoStart {
                indices: vec![IndexId(0)],
                where_clauses: vec![BoolExpr::Cmp(
                    ScalarExpr::IndexVal(IndexId(1)),
                    CmpOp::Le,
                    ScalarExpr::Lit(1.0),
                )],
                end_pc: 1,
            },
            I::PardoEnd { start_pc: 0 },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["where-clause"], "{d:?}");
    assert!(d[0].message.contains('j'), "{}", d[0].message);
}

#[test]
fn barrier_inside_pardo_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![],
        vec![
            I::PardoStart {
                indices: vec![IndexId(0)],
                where_clauses: vec![],
                end_pc: 2,
            },
            I::SipBarrier,
            I::PardoEnd { start_pc: 0 },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["barrier-in-pardo"], "{d:?}");
}

#[test]
fn get_on_served_array_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![arr("S", ArrayKind::Served, vec![0])],
        vec![
            I::Get {
                block: bref(0, &[0]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["kind-usage"], "{d:?}");
}

#[test]
fn put_to_static_array_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![
            arr("A", ArrayKind::Static, vec![0]),
            arr("t", ArrayKind::Temp, vec![0]),
        ],
        vec![
            I::Put {
                dest: bref(0, &[0]),
                src: bref(1, &[0]),
                mode: PutMode::Replace,
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["kind-usage"], "{d:?}");
}

#[test]
fn direct_write_to_distributed_flagged() {
    let p = prog(
        vec![ao("i")],
        vec![arr("X", ArrayKind::Distributed, vec![0])],
        vec![
            I::BlockFill {
                dest: bref(0, &[0]),
                value: ScalarExpr::Lit(0.0),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["kind-usage"], "{d:?}");
}

#[test]
fn recursive_proc_flagged() {
    let mut p = prog(
        vec![],
        vec![],
        vec![I::Halt, I::Call { proc: ProcId(0) }, I::Return],
    );
    p.procs = vec![ProcDecl {
        name: "p".into(),
        entry_pc: 1,
    }];
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["recursion"], "{d:?}");
}

#[test]
fn mutually_recursive_procs_flagged() {
    let mut p = prog(
        vec![],
        vec![],
        vec![
            I::Halt,
            I::Call { proc: ProcId(1) },
            I::Return,
            I::Call { proc: ProcId(0) },
            I::Return,
        ],
    );
    p.procs = vec![
        ProcDecl {
            name: "a".into(),
            entry_pc: 1,
        },
        ProcDecl {
            name: "b".into(),
            entry_pc: 3,
        },
    ];
    let d = check_program(&p);
    assert!(rules(&d).contains(&"recursion"), "{d:?}");
}

#[test]
fn branch_target_out_of_bounds_flagged() {
    let p = prog(vec![], vec![], vec![I::Jump { target: 99 }, I::Halt]);
    let d = check_program(&p);
    assert_eq!(rules(&d), vec!["jump-into-loop"], "{d:?}");
    assert!(d[0].message.contains("out of bounds"), "{}", d[0].message);
}

// ---- race rules (on frontend-compiled programs) ----------------------------

#[test]
fn write_write_race_flagged() {
    // Two iterations differing only in j overwrite the same X(i) block.
    let d = check_src(
        "sial ww
aoindex i = 1, n
aoindex j = 1, n
distributed X(i)
temp t(i)
pardo i, j
  t(i) = 1.0
  put X(i) = t(i)
endpardo i, j
sip_barrier
endsial
",
    );
    assert_eq!(rules(&d), vec!["write-write-race"], "{d:?}");
    assert!(d[0].message.contains('j'), "{}", d[0].message);
    assert!(d[0].listing.contains("put"), "{}", d[0].listing);
}

#[test]
fn accumulate_put_is_exempt_from_write_write() {
    // The paper makes += atomic precisely so this pattern is legal.
    let d = check_src(
        "sial wwacc
aoindex i = 1, n
aoindex j = 1, n
distributed X(i)
temp t(i)
pardo i, j
  t(i) = 1.0
  put X(i) += t(i)
endpardo i, j
sip_barrier
endsial
",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn get_after_put_without_barrier_flagged() {
    let d = check_src(
        "sial gap
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
endsial
",
    );
    assert_eq!(rules(&d), vec!["get-after-put"], "{d:?}");
    assert!(d[0].message.contains("sip_barrier"), "{}", d[0].message);
}

#[test]
fn sip_barrier_clears_the_hazard() {
    let d = check_src(
        "sial gapok
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
endsial
",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn same_iteration_self_read_is_exempt() {
    // put X(i) … get X(i) inside one iteration reads back the block only
    // this iteration writes; fabric FIFO orders the pair.
    let d = check_src(
        "sial selfread
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
  get X(i)
  u(i) = X(i)
endpardo i
sip_barrier
endsial
",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn request_after_prepare_without_barrier_flagged() {
    let d = check_src(
        "sial rap
aoindex i = 1, n
served S(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  prepare S(i) = t(i)
endpardo i
pardo i
  request S(i)
  u(i) = S(i)
endpardo i
endsial
",
    );
    assert_eq!(rules(&d), vec!["request-after-prepare"], "{d:?}");
    assert!(d[0].message.contains("server_barrier"), "{}", d[0].message);
}

#[test]
fn server_barrier_clears_the_served_hazard() {
    let d = check_src(
        "sial rapok
aoindex i = 1, n
served S(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  prepare S(i) = t(i)
endpardo i
server_barrier
pardo i
  request S(i)
  u(i) = S(i)
endpardo i
endsial
",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn sip_barrier_does_not_clear_served_dirt() {
    let d = check_src(
        "sial wrongbar
aoindex i = 1, n
served S(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  prepare S(i) = t(i)
endpardo i
sip_barrier
pardo i
  request S(i)
  u(i) = S(i)
endpardo i
endsial
",
    );
    assert_eq!(rules(&d), vec!["request-after-prepare"], "{d:?}");
}

#[test]
fn loop_carried_get_after_put_flagged() {
    // Clean in straight-line order, racy around the back edge of `do k`:
    // iteration 2's gets race iteration 1's puts.
    let d = check_src(
        "sial carried
aoindex i = 1, n
aoindex k = 1, n
distributed X(i)
temp t(i)
temp u(i)
do k
  pardo i
    get X(i)
    u(i) = X(i)
  endpardo i
  pardo i
    t(i) = 1.0
    put X(i) = t(i)
  endpardo i
enddo k
endsial
",
    );
    assert_eq!(rules(&d), vec!["get-after-put"], "{d:?}");
}

#[test]
fn barrier_inside_loop_clears_the_carried_hazard() {
    let d = check_src(
        "sial carriedok
aoindex i = 1, n
aoindex k = 1, n
distributed X(i)
temp t(i)
temp u(i)
do k
  pardo i
    get X(i)
    u(i) = X(i)
  endpardo i
  pardo i
    t(i) = 1.0
    put X(i) = t(i)
  endpardo i
  sip_barrier
enddo k
endsial
",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn unbarriered_restore_read_flagged() {
    let d = check_src(
        "sial restore
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
list_to_blocks X \"snap\"
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
endsial
",
    );
    assert_eq!(rules(&d), vec!["get-after-put"], "{d:?}");
}

#[test]
fn shipped_style_checkpoint_flow_is_clean() {
    let d = check_src(
        "sial ckpt
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
sip_barrier
blocks_to_list X \"snap\"
list_to_blocks X \"snap\"
sip_barrier
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
endsial
",
    );
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn compiled_programs_listing_matches_disassembly() {
    // Diagnostics carry the offending instruction, disassembled.
    let d = check_src(
        "sial ww2
aoindex i = 1, n
aoindex j = 1, n
distributed X(j)
temp t(j)
pardo i, j
  t(j) = 1.0
  put X(j) = t(j)
endpardo i, j
endsial
",
    );
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains('i'), "{}", d[0].message);
    let rendered = d[0].to_string();
    assert!(rendered.contains("write-write-race"), "{rendered}");
    assert!(
        rendered.contains(&format!("pc {:>4}", d[0].pc)),
        "{rendered}"
    );
}

#[test]
fn findings_carry_source_lines_from_the_line_table() {
    // Compiled programs carry a wire-v3 line table; the verifier resolves
    // each finding's pc through it so reports read `file:line`.
    let d = check_src(
        "sial ww3
aoindex i = 1, n
aoindex j = 1, n
distributed X(j)
temp t(j)
pardo i, j
  t(j) = 1.0
  put X(j) = t(j)
endpardo i, j
endsial
",
    );
    assert_eq!(rules(&d), vec!["write-write-race"], "{d:?}");
    let (file, line) = d[0].source.clone().expect("line table resolves the pc");
    assert_eq!(file, "<input>");
    assert_eq!(line, 8, "the put statement is on line 8");
    assert!(d[0].to_string().starts_with("<input>:8: "), "{}", d[0]);

    let shared = d[0].to_diagnostic();
    assert_eq!(shared.code, "verify/write-write-race");
    assert_eq!(
        (shared.file.as_str(), shared.line, shared.col),
        ("<input>", 8, 1)
    );
    assert!(shared.message.contains("put"), "{}", shared.message);
}

#[test]
fn hand_built_bytecode_has_no_source() {
    let p = prog(
        vec![ao("i")],
        vec![],
        vec![
            I::Get {
                block: bref(5, &[0]),
            },
            I::Halt,
        ],
    );
    let d = check_program(&p);
    assert!(d.iter().all(|x| x.source.is_none()), "{d:?}");
    let shared = d[0].to_diagnostic();
    assert_eq!(shared.line, 0, "no line table, no location");
}
