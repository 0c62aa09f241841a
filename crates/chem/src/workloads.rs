//! SIAL program generators for the methods the paper benchmarks.
//!
//! Each generator returns a [`Workload`]: SIAL source + constant bindings +
//! the kernel registry and cost model it needs. A workload can be *run for
//! real* on the SIP (`run_real`, used with scaled-down molecules in tests
//! and examples) or *traced* for the scale simulator (`trace`, used with the
//! paper's molecules and machines in the figure harnesses).
//!
//! The programs are faithful to the paper's programming model — pardo over
//! output blocks, sequential `do` loops over contracted segments, integrals
//! computed on demand, `put +=`-style accumulation, barriers between
//! conflicting phases — while the *method* bodies are representative rather
//! than chemically complete (e.g. the CCSD iteration carries the
//! particle-particle-ladder contraction that dominates its cost, not all
//! ~50 CCSD diagram terms; DESIGN.md documents each simplification).

use crate::integrals::{integral_cost_model, register_integrals};
use crate::molecules::Molecule;
use sia_bytecode::{ConstBindings, Program};
use sia_runtime::trace::{generate, Trace};
use sia_runtime::{
    Layout, RunOutput, RuntimeError, SegmentConfig, Sip, SipConfig, SuperRegistry, Topology,
};
use std::sync::Arc;

/// A runnable/traceable chemistry workload.
#[derive(Clone)]
pub struct Workload {
    /// Human-readable name (method + molecule).
    pub name: String,
    /// SIAL source text.
    pub source: String,
    /// Symbolic-constant bindings (segment counts).
    pub bindings: ConstBindings,
    /// Segment size the kernels assume.
    pub seg: usize,
    /// Occupied-orbital count (for denominators).
    pub n_occ: usize,
    /// Multiplier applied to traced flops, accounting for the method's
    /// diagram terms not spelled out in the representative SIAL program
    /// (e.g. the ~dozens of CCSD doubles diagrams beyond the ladder term,
    /// UHF spin cases, gradient passes). 1.0 where the program is complete.
    /// Affects simulation only; real-mode runs execute exactly the program.
    pub work_factor: f64,
}

impl Workload {
    fn new(
        name: impl Into<String>,
        source: String,
        bindings: ConstBindings,
        seg: usize,
        n_occ: usize,
    ) -> Self {
        Workload {
            name: name.into(),
            source,
            bindings,
            seg,
            n_occ,
            work_factor: 1.0,
        }
    }

    fn with_work_factor(mut self, f: f64) -> Self {
        self.work_factor = f;
        self
    }

    /// Compiles the SIAL source.
    pub fn compile(&self) -> Result<Program, sial_frontend::CompileErrors> {
        sial_frontend::compile(&self.source)
    }

    /// The kernel registry this workload needs.
    pub fn registry(&self) -> SuperRegistry {
        let mut reg = SuperRegistry::new();
        register_integrals(&mut reg, self.seg, self.n_occ);
        reg
    }

    /// Segment configuration (one size for every index type, as in the
    /// paper's default).
    pub fn segments(&self) -> SegmentConfig {
        SegmentConfig {
            default: self.seg,
            nsub: 2,
            ..Default::default()
        }
    }

    /// Resolved layout for a given topology.
    pub fn layout(&self, workers: usize, io_servers: usize) -> Result<Layout, RuntimeError> {
        let program = self
            .compile()
            .map_err(|e| RuntimeError::BadProgram(e.to_string()))?;
        Layout::new(
            Arc::new(program),
            &self.bindings,
            self.segments(),
            Topology::new(workers, io_servers),
        )
    }

    /// Trace for the scale simulator, with [`Workload::work_factor`] applied
    /// to the flop counts.
    pub fn trace(&self, workers: usize, io_servers: usize) -> Result<Trace, RuntimeError> {
        let layout = self.layout(workers, io_servers)?;
        let mut trace = generate(&layout, &integral_cost_model())?;
        if self.work_factor != 1.0 {
            for phase in &mut trace.phases {
                match phase {
                    sia_runtime::trace::TracePhase::Serial(p) => {
                        p.flops = (p.flops as f64 * self.work_factor) as u64;
                    }
                    sia_runtime::trace::TracePhase::Pardo { per_iter, .. } => {
                        per_iter.flops = (per_iter.flops as f64 * self.work_factor) as u64;
                    }
                    _ => {}
                }
            }
        }
        Ok(trace)
    }

    /// Total bytes of the workload's distributed arrays (the Figure 7
    /// memory-feasibility quantity).
    pub fn dist_bytes(&self) -> Result<u64, RuntimeError> {
        let layout = self.layout(1, 1)?;
        let mut total = 0;
        for (i, decl) in layout.program.arrays.iter().enumerate() {
            if decl.kind == sia_bytecode::ArrayKind::Distributed {
                let id = sia_bytecode::ArrayId(i as u32);
                total += layout.total_blocks(id) * layout.block_bytes(id);
            }
        }
        Ok(total)
    }

    /// Runs the workload for real on the SIP.
    pub fn run_real(&self, mut config: SipConfig) -> Result<RunOutput, RuntimeError> {
        config.segments = self.segments();
        let program = self
            .compile()
            .map_err(|e| RuntimeError::BadProgram(e.to_string()))?;
        Sip::new(config)
            .with_registry(self.registry())
            .run(program, &self.bindings)
    }
}

fn seg_bindings(m: &Molecule, seg: usize) -> ConstBindings {
    let (occ, ao, virt) = m.segments(seg as u32);
    let mut b = ConstBindings::new();
    b.insert("nocc".into(), occ as i64);
    b.insert("norb".into(), ao as i64);
    b.insert("nvrt".into(), virt as i64);
    b
}

/// The paper's §IV-D example: `R(M,N,I,J) = Σ_{L,S} V(M,N,L,S)·T(L,S,I,J)`
/// with `V` computed on demand. The quickstart workload.
pub fn contraction_demo(m: &Molecule, seg: usize) -> Workload {
    let source = r#"
sial contraction_demo
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
aoindex S = 1, norb
moindex I = 1, nocc
moindex J = 1, nocc
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp tmp(M,N,I,J)
temp tmpsum(M,N,I,J)
temp seed(L,S,I,J)
scalar rnorm

# Fill T with a deterministic seed.
pardo L, S, I, J
  execute compute_integrals seed(L,S,I,J)
  put T(L,S,I,J) = seed(L,S,I,J)
endpardo L, S, I, J
sip_barrier

# The contraction of the paper, §IV-D.
pardo M, N, I, J
  tmpsum(M,N,I,J) = 0.0
  do L
    do S
      get T(L,S,I,J)
      execute compute_integrals V(M,N,L,S)
      tmp(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J)
      tmpsum(M,N,I,J) += tmp(M,N,I,J)
    enddo S
  enddo L
  put R(M,N,I,J) = tmpsum(M,N,I,J)
endpardo M, N, I, J
sip_barrier

# Diagnostic: Σ R·R, reduced globally.
pardo M, N, I, J
  get R(M,N,I,J)
  rnorm += R(M,N,I,J) * R(M,N,I,J)
endpardo M, N, I, J
sip_barrier
execute sip_allreduce rnorm
endsial
"#
    .to_string();
    Workload::new(
        format!("contraction_demo/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
}

/// MP2 energy (the Figure 7 method, energy part): transform-and-store the
/// (ia|jb) integrals into a distributed array, then accumulate
/// `Σ t·(2V − X)` with on-the-fly exchange integrals.
pub fn mp2_energy(m: &Molecule, seg: usize) -> Workload {
    let source = r#"
sial mp2_energy
moindex i = 1, nocc
moindex j = 1, nocc
laindex a = 1, nvrt
laindex b = 1, nvrt
distributed Vd(i,a,j,b)
temp V(i,a,j,b)
temp W(i,b,j,a)
temp X(i,a,j,b)
temp T(i,a,j,b)
scalar emp2

# "Transformation": produce and distribute the ovov integrals.
pardo i, a, j, b
  execute compute_integrals V(i,a,j,b)
  put Vd(i,a,j,b) = V(i,a,j,b)
endpardo i, a, j, b
sip_barrier

# Energy accumulation.
pardo i, a, j, b
  get Vd(i,a,j,b)
  execute compute_integrals W(i,b,j,a)
  X(i,a,j,b) = W(i,b,j,a)
  T(i,a,j,b) = 2.0 * Vd(i,a,j,b)
  T(i,a,j,b) -= X(i,a,j,b)
  execute scale_by_denominator T(i,a,j,b)
  emp2 += T(i,a,j,b) * Vd(i,a,j,b)
endpardo i, a, j, b
sip_barrier
execute sip_allreduce emp2
endsial
"#
    .to_string();
    Workload::new(
        format!("mp2_energy/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
    // Figure 7 measures the MP2 *gradient* (integral transformation, CPHF,
    // and back-transformation on top of the energy): ~40× the energy sweep.
    .with_work_factor(40.0)
}

/// MP2 energy over *screened* integrals with a block-sparse integral store:
/// like [`mp2_energy`] but `Vd` is declared `sparse` and the integrals come
/// from [`crate::integrals::eri_screened`] (exponential decay in index
/// separation, the localized-orbital regime Schwarz screening exploits).
/// Run with [`sia_runtime::SipConfigBuilder::sparsity_threshold`] set and
/// the runtime drops the far-off-diagonal blocks at `put`, serves them as
/// typed absence, and short-circuits the energy contraction on them —
/// with threshold 0 the same program runs dense, bit-for-bit.
pub fn mp2_energy_screened(m: &Molecule, seg: usize) -> Workload {
    let source = r#"
sial mp2_energy_screened
moindex i = 1, nocc
moindex j = 1, nocc
laindex a = 1, nvrt
laindex b = 1, nvrt
sparse distributed Vd(i,a,j,b)
temp V(i,a,j,b)
temp W(i,b,j,a)
temp X(i,a,j,b)
temp T(i,a,j,b)
scalar emp2

# "Transformation": produce and distribute the screened ovov integrals.
# Puts of blocks below the sparsity threshold are dropped at the source.
pardo i, a, j, b
  execute compute_screened_integrals V(i,a,j,b)
  put Vd(i,a,j,b) = V(i,a,j,b)
endpardo i, a, j, b
sip_barrier

# Energy accumulation; the emp2 contraction skips absent Vd blocks.
pardo i, a, j, b
  get Vd(i,a,j,b)
  execute compute_screened_integrals W(i,b,j,a)
  X(i,a,j,b) = W(i,b,j,a)
  T(i,a,j,b) = 2.0 * Vd(i,a,j,b)
  T(i,a,j,b) -= X(i,a,j,b)
  execute scale_by_denominator T(i,a,j,b)
  emp2 += T(i,a,j,b) * Vd(i,a,j,b)
endpardo i, a, j, b
sip_barrier
execute sip_allreduce emp2
endsial
"#
    .to_string();
    Workload::new(
        format!("mp2_energy_screened/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
    .with_work_factor(40.0)
}

/// A-priori realized density of [`mp2_energy_screened`]'s integral array
/// `Vd`: the fraction of its blocks whose Frobenius norm reaches
/// `threshold`, evaluated directly from the synthetic model. This is what
/// the dry run's [`sia_runtime::SipConfigBuilder::sparsity_density`] hint
/// should be fed for a realized (rather than dense) footprint estimate.
pub fn screened_vd_density(m: &Molecule, seg: usize, threshold: f64) -> f64 {
    let (occ, _, virt) = m.segments(seg as u32);
    let (occ, virt) = (occ as usize, virt as usize);
    let (mut kept, mut total) = (0u64, 0u64);
    for (si, sa, sj, sb) in product4(occ, virt, occ, virt) {
        let mut sq = 0.0;
        for (i, a, j, b) in product4(seg, seg, seg, seg) {
            let v = crate::integrals::eri_screened(
                si * seg + i,
                sa * seg + a,
                sj * seg + j,
                sb * seg + b,
            );
            sq += v * v;
        }
        total += 1;
        if sq.sqrt() >= threshold {
            kept += 1;
        }
    }
    kept as f64 / total.max(1) as f64
}

/// All tuples of a 4-way index product.
fn product4(
    n0: usize,
    n1: usize,
    n2: usize,
    n3: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    (0..n0).flat_map(move |a| {
        (0..n1).flat_map(move |b| (0..n2).flat_map(move |c| (0..n3).map(move |d| (a, b, c, d))))
    })
}

/// CCSD iterations (Figures 2–4): the particle-particle-ladder contraction
/// `R(i,a,j,b) = Σ_{c,d} V(c,a,d,b)·T(i,c,j,d)` — the O(o²v⁴) term that
/// dominates CCSD — plus amplitude update with denominators, a served-array
/// history write (the convergence-acceleration storage of §II), and the
/// correlation-energy reduction. `iterations` CCSD sweeps are performed.
pub fn ccsd_iteration(m: &Molecule, seg: usize, iterations: u32) -> Workload {
    let source = format!(
        r#"
sial ccsd_iteration
index iter = 1, {iterations}
moindex i = 1, nocc
moindex j = 1, nocc
laindex a = 1, nvrt
laindex b = 1, nvrt
laindex c = 1, nvrt
laindex d = 1, nvrt
distributed T(i,a,j,b)
distributed R(i,a,j,b)
served Hist(i,a,j,b)
temp VT(i,a,j,b)
temp V(c,a,d,b)
temp tmp(i,a,j,b)
temp tmpsum(i,a,j,b)
temp u(i,a,j,b)
temp VE(i,a,j,b)
scalar ecorr

# MP2-like initial amplitudes.
pardo i, a, j, b
  execute compute_integrals VT(i,a,j,b)
  execute scale_by_denominator VT(i,a,j,b)
  put T(i,a,j,b) = VT(i,a,j,b)
endpardo i, a, j, b
sip_barrier

do iter
  # Ladder term: R = Σ_cd V(c,a,d,b) T(i,c,j,d), V on demand.
  pardo i, a, j, b
    tmpsum(i,a,j,b) = 0.0
    do c
      do d
        get T(i,c,j,d)
        execute compute_integrals V(c,a,d,b)
        tmp(i,a,j,b) = V(c,a,d,b) * T(i,c,j,d)
        tmpsum(i,a,j,b) += tmp(i,a,j,b)
      enddo d
    enddo c
    prepare Hist(i,a,j,b) = tmpsum(i,a,j,b)
    execute scale_by_denominator tmpsum(i,a,j,b)
    put R(i,a,j,b) = tmpsum(i,a,j,b)
  endpardo i, a, j, b
  sip_barrier
  server_barrier

  # Amplitude update and energy.
  pardo i, a, j, b
    get R(i,a,j,b)
    u(i,a,j,b) = R(i,a,j,b)
    put T(i,a,j,b) = u(i,a,j,b)
    execute compute_integrals VE(i,a,j,b)
    ecorr += VE(i,a,j,b) * R(i,a,j,b)
  endpardo i, a, j, b
  sip_barrier
enddo iter
execute sip_allreduce ecorr
endsial
"#
    );
    Workload::new(
        format!("ccsd/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
    // The ladder term is roughly a third of a full CCSD iteration's flops.
    .with_work_factor(3.0)
}

/// CCSD iterated to convergence: like [`ccsd_iteration`] but the sweep loop
/// `exit`s once the correlation-energy change falls below `tol` — the
/// pattern production SIAL codes use (the paper's "16 iterations to
/// converge" in Figure 2 comes from exactly such a loop).
pub fn ccsd_converged(m: &Molecule, seg: usize, max_iterations: u32, tol: f64) -> Workload {
    let source = format!(
        r#"
sial ccsd_converged
index iter = 1, {max_iterations}
moindex i = 1, nocc
moindex j = 1, nocc
laindex a = 1, nvrt
laindex b = 1, nvrt
laindex c = 1, nvrt
laindex d = 1, nvrt
distributed T(i,a,j,b)
distributed R(i,a,j,b)
temp VT(i,a,j,b)
temp V(c,a,d,b)
temp tmp(i,a,j,b)
temp tmpsum(i,a,j,b)
temp u(i,a,j,b)
temp VE(i,a,j,b)
scalar ecorr
scalar eold
scalar delta
scalar iters_run

pardo i, a, j, b
  execute compute_integrals VT(i,a,j,b)
  execute scale_by_denominator VT(i,a,j,b)
  put T(i,a,j,b) = VT(i,a,j,b)
endpardo i, a, j, b
sip_barrier

do iter
  ecorr = 0.0
  pardo i, a, j, b
    # Driving term: R starts from the bare integrals, so the fixed point
    # T* = (V + ladder(T*))/D is nontrivial.
    execute compute_integrals tmpsum(i,a,j,b)
    do c
      do d
        get T(i,c,j,d)
        execute compute_integrals V(c,a,d,b)
        tmp(i,a,j,b) = V(c,a,d,b) * T(i,c,j,d)
        # Damped Jacobi update: our synthetic integrals overweight the
        # ladder coupling, so a damping factor keeps the fixed-point map
        # contractive (production codes use DIIS for the same reason).
        tmpsum(i,a,j,b) += 0.1 * tmp(i,a,j,b)
      enddo d
    enddo c
    execute scale_by_denominator tmpsum(i,a,j,b)
    put R(i,a,j,b) = tmpsum(i,a,j,b)
  endpardo i, a, j, b
  sip_barrier

  pardo i, a, j, b
    get R(i,a,j,b)
    u(i,a,j,b) = R(i,a,j,b)
    put T(i,a,j,b) = u(i,a,j,b)
    execute compute_integrals VE(i,a,j,b)
    ecorr += VE(i,a,j,b) * R(i,a,j,b)
  endpardo i, a, j, b
  sip_barrier
  execute sip_allreduce ecorr
  iters_run = iters_run + 1.0

  delta = ecorr - eold
  eold = ecorr
  if delta < {tol} and delta > -{tol}
    exit
  endif
enddo iter
endsial
"#
    );
    Workload::new(
        format!("ccsd_converged/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
    .with_work_factor(3.0)
}

/// CCSD(T) triples correction (Figure 5): pardo over ordered occupied block
/// triples (i ≤ j ≤ k) crossed with virtual block pairs (a,b) — the fine
/// task decomposition real (T) codes use — contracting on-demand integral
/// blocks against T2 over an O(v) inner loop. Total work scales as
/// o³v³·seg⁶ ~ n⁷, the paper's CCSD(T) exponent.
pub fn ccsd_t_triples(m: &Molecule, seg: usize) -> Workload {
    let source = r#"
sial ccsd_t
moindex i = 1, nocc
moindex j = 1, nocc
moindex k = 1, nocc
laindex a = 1, nvrt
laindex b = 1, nvrt
laindex c = 1, nvrt
laindex d = 1, nvrt
distributed T(i,a,j,b)
temp VT(i,a,j,b)
temp V(j,b,k,c)
temp U(d,c)
temp w(i,a,k,c)
temp wsum(i,a,k,c)
temp y(i,a,j,b)
temp tsum(i,a,j,b)
scalar et3

pardo i, a, j, b
  execute compute_integrals VT(i,a,j,b)
  execute scale_by_denominator VT(i,a,j,b)
  put T(i,a,j,b) = VT(i,a,j,b)
endpardo i, a, j, b
sip_barrier

pardo i, j, k, a, b where i <= j where j <= k
  get T(i,a,j,b)
  tsum(i,a,j,b) = 0.0
  do c
    execute compute_integrals V(j,b,k,c)
    # W(i,a,k,c) = Σ_d T(i,a,k,d)·U(d,c): the O(v⁴)-per-triple inner
    # contraction that gives (T) its n⁷ cost.
    wsum(i,a,k,c) = 0.0
    do d
      get T(i,a,k,d)
      execute compute_integrals U(d,c)
      w(i,a,k,c) = T(i,a,k,d) * U(d,c)
      wsum(i,a,k,c) += w(i,a,k,c)
    enddo d
    y(i,a,j,b) = V(j,b,k,c) * wsum(i,a,k,c)
    tsum(i,a,j,b) += y(i,a,j,b)
  enddo c
  et3 += T(i,a,j,b) * tsum(i,a,j,b)
endpardo i, j, k, a, b
sip_barrier
execute sip_allreduce et3
endsial
"#
    .to_string();
    Workload::new(
        format!("ccsd_t/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
    // The full (T) evaluates ~9 permutational variants of the W intermediate.
    .with_work_factor(9.0)
}

/// The Fock matrix build (Figure 6): `F(m,n) = Σ_{l,s} D(l,s)·[2(mn|ls) −
/// (ml|ns)]`, parallelized over *shell-block quartets* `(m,n,l,s)` with
/// atomic `put +=` accumulation into F (no barrier needed between
/// accumulates — §IV-C footnote 5). Quartet tasks are tiny compared to CCSD
/// tasks, which is exactly why Figure 6 exposes scheduler/latency limits at
/// 84k–108k cores where CCSD does not.
pub fn fock_build(m: &Molecule, seg: usize) -> Workload {
    let source = r#"
sial fock_build
aoindex m = 1, norb
aoindex n = 1, norb
aoindex l = 1, norb
aoindex s = 1, norb
distributed D(l,s)
distributed F(m,n)
temp dd(l,s)
temp J(m,n,l,s)
temp K(m,l,n,s)
temp jt(m,n)
temp kt(m,n)
temp ft(m,n)
scalar trfd

# Synthetic density.
pardo l, s
  execute compute_oei dd(l,s)
  put D(l,s) = dd(l,s)
endpardo l, s
sip_barrier

# Fock build over shell-block quartets; += accumulation is atomic.
pardo m, n, l, s where m <= n
  get D(l,s)
  execute compute_integrals J(m,n,l,s)
  execute compute_integrals K(m,l,n,s)
  jt(m,n) = J(m,n,l,s) * D(l,s)
  kt(m,n) = K(m,l,n,s) * D(l,s)
  ft(m,n) = 2.0 * jt(m,n)
  ft(m,n) -= kt(m,n)
  put F(m,n) += ft(m,n)
endpardo m, n, l, s
sip_barrier

# tr(F·D) diagnostic.
pardo m, n where m <= n
  get F(m,n)
  get D(m,n)
  trfd += F(m,n) * D(m,n)
endpardo m, n
sip_barrier
execute sip_allreduce trfd
endsial
"#
    .to_string();
    Workload::new(
        format!("fock_build/{}", m.name),
        source,
        seg_bindings(m, seg),
        seg,
        m.n_occ as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecules::{CYTOSINE_OH, DIAMOND_NC, LUCIFERIN, RDX};
    use sia_runtime::trace::TracePhase;

    fn tiny() -> Molecule {
        Molecule {
            name: "tiny",
            formula: "He2",
            electrons: 4,
            n_occ: 4,
            n_ao: 12,
            open_shell: false,
        }
    }

    #[test]
    fn all_workloads_compile() {
        let m = tiny();
        for w in [
            contraction_demo(&m, 2),
            mp2_energy(&m, 2),
            mp2_energy_screened(&m, 2),
            ccsd_iteration(&m, 2, 2),
            ccsd_t_triples(&m, 2),
            fock_build(&m, 2),
        ] {
            w.compile().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn all_workloads_trace() {
        let m = tiny();
        for w in [
            contraction_demo(&m, 2),
            mp2_energy(&m, 2),
            mp2_energy_screened(&m, 2),
            ccsd_iteration(&m, 2, 1),
            ccsd_t_triples(&m, 2),
            fock_build(&m, 2),
        ] {
            let t = w.trace(4, 1).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(t.total_flops() > 0, "{} has no flops", w.name);
            assert!(
                t.phases
                    .iter()
                    .any(|p| matches!(p, TracePhase::Pardo { .. })),
                "{} has no pardo phases",
                w.name
            );
        }
    }

    #[test]
    fn ccsd_trace_scales_like_o2v4() {
        // Doubling the virtual space must grow ladder flops ≈ 16×.
        let small = Molecule {
            n_ao: 4 + 8,
            n_occ: 4,
            ..tiny()
        };
        let big = Molecule {
            n_ao: 4 + 16,
            n_occ: 4,
            ..tiny()
        };
        let ts = ccsd_iteration(&small, 2, 1).trace(4, 1).unwrap();
        let tb = ccsd_iteration(&big, 2, 1).trace(4, 1).unwrap();
        let ratio = tb.total_flops() as f64 / ts.total_flops() as f64;
        assert!(
            (8.0..32.0).contains(&ratio),
            "v⁴ scaling expected, ratio {ratio}"
        );
    }

    #[test]
    fn fock_tasks_much_smaller_than_ccsd_tasks() {
        let fock = fock_build(&DIAMOND_NC, 32).trace(64, 1).unwrap();
        let ccsd = ccsd_iteration(&RDX, 32, 1).trace(64, 1).unwrap();
        let task_flops = |t: &Trace| {
            t.phases
                .iter()
                .filter_map(|p| match p {
                    TracePhase::Pardo { per_iter, .. } if per_iter.flops > 0 => {
                        Some(per_iter.flops)
                    }
                    _ => None,
                })
                .max()
                .unwrap()
        };
        assert!(task_flops(&ccsd) > 10 * task_flops(&fock));
    }

    #[test]
    fn mp2_dist_bytes_scale_with_basis() {
        let small = mp2_energy(&CYTOSINE_OH.scaled(4), 8).dist_bytes().unwrap();
        let big = mp2_energy(&CYTOSINE_OH, 8).dist_bytes().unwrap();
        assert!(big > 10 * small);
    }

    #[test]
    fn mp2_screening_drops_blocks_and_preserves_energy() {
        let m = tiny();
        let w = mp2_energy_screened(&m, 2);
        let cfg = |thr: f64| {
            sia_runtime::SipConfig::builder()
                .workers(2)
                .io_servers(0)
                .collect_distributed(true)
                .sparsity_threshold(thr)
                .build()
                .unwrap()
        };
        let dense = w.run_real(cfg(0.0)).unwrap();
        let sparse = w.run_real(cfg(1e-10)).unwrap();
        let (e_d, e_s) = (dense.scalars["emp2"], sparse.scalars["emp2"]);
        assert!(
            (e_d - e_s).abs() < 1e-8,
            "screened energy {e_s} differs from dense {e_d}"
        );
        // The collected store only holds resident blocks: absence is the
        // measure of what screening dropped.
        let total = dense.collected["Vd"].len();
        let kept = sparse.collected.get("Vd").map_or(0, |b| b.len());
        assert!(total > 0);
        let dropped = total - kept;
        assert!(
            dropped as f64 >= 0.3 * total as f64,
            "expected >= 30% of integral blocks dropped, got {dropped}/{total}"
        );
        let sp = &sparse.profile.metrics.sparse;
        assert!(sp.blocks_skipped > 0, "energy contraction must skip");
        assert!(sp.flops_avoided > 0);
        assert_eq!(
            dense.profile.metrics.sparse.blocks_skipped, 0,
            "threshold 0 runs dense"
        );
    }

    #[test]
    fn screened_dryrun_realized_tracks_density() {
        let m = tiny();
        let w = mp2_energy_screened(&m, 2);
        let density = screened_vd_density(&m, 2, 1e-10);
        assert!(
            (0.0..0.8).contains(&density),
            "screened model should be sparse, density {density}"
        );
        let mut cfg = sia_runtime::SipConfig::builder()
            .workers(2)
            .io_servers(0)
            .sparsity_threshold(1e-10)
            .sparsity_density("Vd", density)
            .build()
            .unwrap();
        cfg.segments = w.segments();
        let est = Sip::new(cfg)
            .dry_run(w.compile().unwrap(), &w.bindings)
            .unwrap();
        assert!(
            est.per_worker_bytes < est.dense_per_worker_bytes,
            "density hint must tighten the realized estimate: {} vs dense {}",
            est.per_worker_bytes,
            est.dense_per_worker_bytes
        );
    }

    #[test]
    fn screened_density_hint_matches_measured_drops() {
        // The a-priori density and the runtime's realized density must agree:
        // the dry run's hint is trustworthy for what the run actually keeps.
        let m = tiny();
        let w = mp2_energy_screened(&m, 2);
        let out = w
            .run_real(
                sia_runtime::SipConfig::builder()
                    .workers(2)
                    .io_servers(0)
                    .collect_distributed(true)
                    .sparsity_threshold(1e-10)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let layout = w.layout(2, 0).unwrap();
        let vd = layout
            .program
            .arrays
            .iter()
            .position(|a| a.name == "Vd")
            .unwrap();
        let total = layout.total_blocks(sia_bytecode::ArrayId(vd as u32));
        let kept = out.collected.get("Vd").map_or(0, |b| b.len()) as u64;
        let measured = kept as f64 / total as f64;
        let predicted = screened_vd_density(&m, 2, 1e-10);
        assert!(
            (measured - predicted).abs() <= 0.1,
            "predicted density {predicted} vs measured {measured}"
        );
    }

    /// The dry run's realized (density-hinted) per-worker estimate bounds
    /// what screened MP2 really holds, with the same 10 % headroom the
    /// dense `memory_budget` test allows. The cache holds two blocks so the
    /// estimate, which charges the cache at capacity, and the measured
    /// high water compare like for like.
    #[test]
    fn screened_estimate_bounds_measured_high_water() {
        let m = Molecule {
            name: "screened-he3",
            formula: "He3",
            electrons: 6,
            n_occ: 6,
            n_ao: 18,
            open_shell: false,
        };
        let (seg, threshold) = (2, 1e-10);
        let w = mp2_energy_screened(&m, seg);
        let mut cfg = sia_runtime::SipConfig::builder()
            .workers(4)
            .io_servers(0)
            .cache_blocks(2)
            .sparsity_threshold(threshold)
            .sparsity_density("Vd", screened_vd_density(&m, seg, threshold))
            .build()
            .unwrap();
        cfg.segments = w.segments();
        let est = Sip::new(cfg.clone())
            .dry_run(w.compile().unwrap(), &w.bindings)
            .unwrap();
        let out = w.run_real(cfg).unwrap();
        let high_water = out.profile.metrics.memory.high_water_bytes;
        assert!(high_water > 0);
        assert!(
            high_water as f64 <= 1.10 * est.per_worker_bytes as f64,
            "high water {high_water} B over 110 % of the realized estimate {} B",
            est.per_worker_bytes
        );
    }

    #[test]
    fn ccsd_converged_stops_early() {
        let m = tiny();
        let w = ccsd_converged(&m, 2, 20, 1.0e-4);
        let out = w
            .run_real(
                sia_runtime::SipConfig::builder()
                    .workers(2)
                    .io_servers(0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let iters = out.scalars["iters_run"];
        assert!(iters >= 1.0, "at least one sweep");
        assert!(
            iters < 20.0,
            "convergence loop must exit before the iteration cap, ran {iters}"
        );
        assert!(out.scalars["ecorr"].is_finite());
    }

    #[test]
    fn ccsd_converged_deterministic_across_workers() {
        let m = tiny();
        let w = ccsd_converged(&m, 2, 10, 1.0e-6);
        let run = |workers| {
            w.run_real(
                sia_runtime::SipConfig::builder()
                    .workers(workers)
                    .io_servers(0)
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .scalars["ecorr"]
        };
        let a = run(1);
        let b = run(3);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn luciferin_ccsd_iterations_counted() {
        // Figure 2's workload: check the per-iteration pardo count matches
        // occ²·virt² blocks.
        let w = ccsd_iteration(&LUCIFERIN, 26, 1);
        let t = w.trace(32, 1).unwrap();
        let (occ, _, virt) = LUCIFERIN.segments(26);
        let expect = (occ as u64 * virt as u64).pow(2);
        let ladder = t
            .phases
            .iter()
            .filter_map(|p| match p {
                TracePhase::Pardo {
                    iterations,
                    per_iter,
                    ..
                } if per_iter.gets > 0 && per_iter.prepares > 0 => Some(*iterations),
                _ => None,
            })
            .next()
            .expect("ladder pardo present");
        assert_eq!(ladder, expect);
    }
}
