//! Corrupt bytecode meets the layout as typed errors. The layout resolves
//! every instruction's static facts when it is built — code that never runs
//! included — so a mutant of a shipped program that still decodes and
//! passes `sial check` must resolve to `Ok` or to a typed error, never to a
//! panic.

use proptest::TestRng;
use sia_bytecode::{decode_program, encode_program, ConstBindings, Program};
use sia_runtime::{check_program, Layout, SipConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Mutants of each program.
const CASES: u64 = 3_000;

/// Every `programs/*.sial`, compiled.
fn shipped() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut found: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sial"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).unwrap();
            let program = sial_frontend::compile(&src).unwrap();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                program,
            )
        })
        .collect();
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found
}

/// `encoded` with one to three of its bytes flipped.
fn mutate(encoded: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = encoded.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 + rng.below(255) as u8;
    }
    bytes
}

#[test]
fn mutants_that_pass_the_verifier_resolve_without_panicking() {
    let programs = shipped();
    assert!(programs.len() >= 5, "{} programs", programs.len());
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .segment_size(4)
        .build()
        .unwrap();
    let mut resolved = 0;
    for (name, program) in &programs {
        let encoded = encode_program(program);
        for case in 0..CASES {
            let mut rng = TestRng::for_case(name, case);
            let Ok(mutant) = decode_program(&mutate(&encoded, &mut rng)) else {
                continue;
            };
            if !check_program(&mutant).is_empty() {
                continue;
            }
            // Bind every constant the mutant names, so resolution reaches
            // the instruction table rather than stopping at a missing one.
            let bindings: ConstBindings = mutant.consts.iter().map(|c| (c.clone(), 3)).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Layout::for_config(Arc::new(mutant), &bindings, &config).map(drop)
            }));
            assert!(outcome.is_ok(), "{name}, case {case}: the layout panicked");
            resolved += 1;
        }
    }
    // Most mutants fail to decode or to verify; enough must get through
    // for the loop to test the layout at all.
    assert!(
        resolved >= 100,
        "only {resolved} mutants reached the layout"
    );
    eprintln!("{resolved} mutants reached the layout");
}
