//! Cross-crate integration: SIAL source through every layer of the system —
//! compiler → wire format → disassembler → real SIP → results — plus
//! agreement between the real runtime and the simulator on shared policy
//! code, and end-to-end numeric validation of the chemistry workloads
//! against independently computed references.

use sia::chem::{
    self, ccsd_iteration, ccsd_t_triples, contraction_demo, fock_build, mp2_energy, Molecule,
};
use sia::runtime::trace::TracePhase;
use sia::{ConstBindings, Sip, SipConfig};

fn tiny() -> Molecule {
    Molecule {
        name: "tiny",
        formula: "X",
        electrons: 8,
        n_occ: 4,
        n_ao: 12,
        open_shell: false,
    }
}

fn config(workers: usize) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .io_servers(1)
        .collect_distributed(true)
        .build()
        .unwrap()
}

#[test]
fn source_wire_disasm_run_roundtrip() {
    let workload = contraction_demo(&tiny(), 2);
    // Compile.
    let program = workload.compile().unwrap();
    // Through the wire format.
    let bytes = sia::bytecode::encode_program(&program);
    let decoded = sia::bytecode::decode_program(&bytes).unwrap();
    assert_eq!(program, decoded);
    // Disassembly is stable across the roundtrip.
    assert_eq!(sia::disassemble(&program), sia::disassemble(&decoded));
    // And the decoded program runs.
    let mut cfg = config(2);
    cfg.segments.default = workload.seg;
    let out = sia::Sip::new(cfg)
        .with_registry(workload.registry())
        .run(decoded, &workload.bindings)
        .unwrap();
    assert!(out.scalars["rnorm"] > 0.0);
}

#[test]
fn all_chem_workloads_run_for_real() {
    let m = tiny();
    let cases = [
        contraction_demo(&m, 2),
        mp2_energy(&m, 2),
        ccsd_iteration(&m, 2, 1),
        ccsd_t_triples(&m, 2),
        fock_build(&m, 2),
    ];
    for w in cases {
        let out = w
            .run_real(config(2))
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        // Every workload ends in an allreduced scalar; it must be finite and
        // the run must have executed pardo iterations.
        assert!(out.profile.iterations > 0, "{}", w.name);
        for (name, v) in &out.scalars {
            assert!(v.is_finite(), "{}: scalar {name} = {v}", w.name);
        }
    }
}

#[test]
fn results_independent_of_worker_count() {
    // The SIA contract: SIAL semantics do not depend on scheduling. Same
    // program, same bindings, different topologies → identical scalars.
    let m = tiny();
    for w in [
        contraction_demo(&m, 2),
        mp2_energy(&m, 2),
        fock_build(&m, 2),
    ] {
        let mut results = Vec::new();
        for workers in [1usize, 3] {
            let out = w
                .run_real(config(workers))
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            results.push(out.scalars.clone());
        }
        for (k, v) in &results[0] {
            let v2 = results[1][k];
            assert!(
                (v - v2).abs() <= 1e-9 * v.abs().max(1.0),
                "{}: scalar {k} differs across worker counts: {v} vs {v2}",
                w.name
            );
        }
    }
}

#[test]
fn mp2_energy_matches_dense_reference() {
    // Evaluate the MP2 pseudo-energy directly from the synthetic kernels and
    // compare against the full SIAL+SIP pipeline.
    let m = tiny();
    let seg = 2usize;
    let w = mp2_energy(&m, seg);
    let out = w.run_real(config(3)).unwrap();
    let got = out.scalars["emp2"];

    // Dense reference over padded dimensions (segment counts × seg).
    let (occ_segs, _, virt_segs) = m.segments(seg as u32);
    let n_occ_pad = occ_segs as usize * seg;
    let n_virt_pad = virt_segs as usize * seg;
    let nocc_actual = m.n_occ as usize;
    let mut want = 0.0;
    for i in 0..n_occ_pad {
        for a in 0..n_virt_pad {
            for j in 0..n_occ_pad {
                for b in 0..n_virt_pad {
                    let v = chem::integrals::eri(i, a, j, b);
                    let x = chem::integrals::eri(i, b, j, a);
                    let d = chem::integrals::orbital_energy(i, nocc_actual)
                        + chem::integrals::orbital_energy(j, nocc_actual)
                        - chem::integrals::orbital_energy(a + nocc_actual, nocc_actual)
                        - chem::integrals::orbital_energy(b + nocc_actual, nocc_actual);
                    want += (2.0 * v - x) / d * v;
                }
            }
        }
    }
    assert!(
        (got - want).abs() < 1e-6 * want.abs().max(1.0),
        "MP2 pipeline {got} vs dense reference {want}"
    );
}

#[test]
fn fock_trace_diagnostic_matches_dense_reference() {
    let m = tiny();
    let seg = 2usize;
    let w = fock_build(&m, seg);
    let out = w.run_real(config(2)).unwrap();
    let got = out.scalars["trfd"];

    let (_, ao_segs, _) = m.segments(seg as u32);
    let n = ao_segs as usize * seg;
    let dd = |l: usize, s: usize| chem::integrals::oei(l, s);
    // F(m,n) = Σ_ls D(l,s)[2(mn|ls) − (ml|ns)], diagnostic Σ_{m≤n blocks} F·D.
    // Block filter m<=n is at segment granularity: include element (m,n) iff
    // its m-block ≤ n-block.
    let mut want = 0.0;
    for mm in 0..n {
        for nn in 0..n {
            if mm / seg > nn / seg {
                continue;
            }
            let mut f = 0.0;
            for l in 0..n {
                for s in 0..n {
                    f += dd(l, s)
                        * (2.0 * chem::integrals::eri(mm, nn, l, s)
                            - chem::integrals::eri(mm, l, nn, s));
                }
            }
            want += f * dd(mm, nn);
        }
    }
    assert!(
        (got - want).abs() < 1e-6 * want.abs().max(1.0),
        "Fock pipeline {got} vs dense reference {want}"
    );
}

#[test]
fn trace_totals_agree_with_real_run_traffic_shape() {
    // The simulator's trace and the real run must agree on the program's
    // structure: same pardo phases, iteration counts matching the real
    // scheduler's executed iterations.
    let m = tiny();
    let w = contraction_demo(&m, 2);
    let trace = w.trace(2, 1).unwrap();
    let out = w.run_real(config(2)).unwrap();
    let traced_iters: u64 = trace
        .phases
        .iter()
        .map(|p| match p {
            TracePhase::Pardo { iterations, .. } => *iterations,
            _ => 0,
        })
        .sum();
    assert_eq!(
        traced_iters, out.profile.iterations,
        "trace and real run disagree on total pardo iterations"
    );
}

#[test]
fn builder_facade_end_to_end() {
    let program = sia::compile(
        r#"
sial facade
aoindex i = 1, n
distributed X(i)
temp t(i)
scalar s
pardo i
  execute ramp t(i)
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  s += X(i) * X(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#,
    )
    .unwrap();
    let config = SipConfig::builder()
        .workers(2)
        .segment_size(3)
        .collect_distributed(true)
        .build()
        .unwrap();
    let mut sip = Sip::new(config);
    sip.registry_mut().register("ramp", |args, _env| {
        let segs: Vec<i64> = args[0].segs()?.to_vec();
        args[0].block_mut()?.fill(segs[0] as f64);
        Ok(())
    });
    let bindings: ConstBindings = [("n".to_string(), 4)].into_iter().collect();
    let out = sip.run(program, &bindings).unwrap();
    // Σ_i 3·i² over segments 1..4 (3 elements per block).
    let want: f64 = (1..=4).map(|i| 3.0 * (i * i) as f64).sum();
    assert!((out.scalars["s"] - want).abs() < 1e-9);
}

#[test]
fn profile_and_warnings_surface_through_facade() {
    let m = tiny();
    let w = contraction_demo(&m, 2);
    let out = w.run_real(config(2)).unwrap();
    assert!(!out.profile.lines.is_empty());
    // The hottest line should be a compute instruction (the contraction or
    // the integral kernel), not control flow.
    let hottest = &out.profile.lines[0];
    assert_eq!(
        hottest.class,
        sia::bytecode::InstructionClass::Compute,
        "hottest line: {}",
        hottest.text
    );
}
