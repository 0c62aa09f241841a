//! Trace generation: the dry-run walk that feeds the scale simulator.
//!
//! The paper's evaluation runs on up to 108,000 cores — far beyond one host.
//! Our reproduction replays the *policies* of the SIP (guided chunks,
//! prefetch overlap, static placement) in a discrete-event simulator
//! (`sia-sim`), driven by a trace extracted here with the same machinery the
//! dry run uses: a sequential, data-free walk of the bytecode that records,
//! per pardo iteration, how many blocks move and how many flops run.
//!
//! Iterations of one pardo are homogeneous in this domain (the same loop
//! body over same-shaped blocks), so the trace stores one representative
//! iteration profile plus the iteration count — keeping traces tiny even for
//! CCSD(T)-sized problems.

use crate::error::RuntimeError;
use crate::layout::Layout;
use crate::scheduler::{
    check_where_indices, cross_product, decode_ordinal, eval_bool, eval_scalar,
};
use sia_blocks::Shape;
use sia_bytecode::{ArrayKind, BlockRef, IndexId, Instruction as I};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-iteration (or per-serial-section) operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterProfile {
    /// Distributed-block fetches (after per-iteration cache dedup).
    pub gets: u64,
    /// Bytes fetched from distributed arrays.
    pub get_bytes: u64,
    /// Served-block fetches.
    pub requests: u64,
    /// Bytes fetched from served arrays.
    pub request_bytes: u64,
    /// Distributed-block stores.
    pub puts: u64,
    /// Bytes stored to distributed arrays.
    pub put_bytes: u64,
    /// Served-block stores.
    pub prepares: u64,
    /// Bytes stored to served arrays.
    pub prepare_bytes: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Of `get_bytes`, the portion a [`SipConfig::sparsity_density`](crate::SipConfig::sparsity_density) hint
    /// says will never ship (absent blocks of `sparse` arrays). Zero when
    /// the trace was generated without density hints. The dense totals
    /// above stay dense so the scale simulator and the planner can model
    /// both the declared and the realized traffic.
    pub get_discount_bytes: u64,
    /// Sparse discount on `put_bytes`.
    pub put_discount_bytes: u64,
    /// Sparse discount on `request_bytes`.
    pub request_discount_bytes: u64,
    /// Sparse discount on `prepare_bytes`.
    pub prepare_discount_bytes: u64,
}

impl IterProfile {
    /// Whether anything at all happens.
    pub fn is_trivial(&self) -> bool {
        *self == IterProfile::default()
    }

    /// Componentwise sum.
    pub fn add(&mut self, other: &IterProfile) {
        self.gets += other.gets;
        self.get_bytes += other.get_bytes;
        self.requests += other.requests;
        self.request_bytes += other.request_bytes;
        self.puts += other.puts;
        self.put_bytes += other.put_bytes;
        self.prepares += other.prepares;
        self.prepare_bytes += other.prepare_bytes;
        self.flops += other.flops;
        self.get_discount_bytes += other.get_discount_bytes;
        self.put_discount_bytes += other.put_discount_bytes;
        self.request_discount_bytes += other.request_discount_bytes;
        self.prepare_discount_bytes += other.prepare_discount_bytes;
    }
}

/// One phase of the traced program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TracePhase {
    /// Code executed redundantly by every worker (outside pardos).
    Serial(IterProfile),
    /// A pardo: `iterations` copies of `per_iter`, scheduled by the master.
    Pardo {
        /// Pc of the `PardoStart` (profile/trace correlation).
        pc: u32,
        /// Iterations surviving the where clauses.
        iterations: u64,
        /// Representative per-iteration profile.
        per_iter: IterProfile,
    },
    /// `sip_barrier`.
    SipBarrier,
    /// `server_barrier`.
    ServerBarrier,
    /// A collective (e.g. `sip_allreduce`): one small message per worker to
    /// the master and back.
    Collective,
}

/// A whole-program trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Phases in program order.
    pub phases: Vec<TracePhase>,
}

impl Trace {
    /// Total flops across all phases (all iterations).
    pub fn total_flops(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                TracePhase::Serial(s) => s.flops,
                TracePhase::Pardo {
                    iterations,
                    per_iter,
                    ..
                } => iterations * per_iter.flops,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes moved (gets + puts + requests + prepares).
    pub fn total_bytes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                TracePhase::Serial(s) => {
                    s.get_bytes + s.put_bytes + s.request_bytes + s.prepare_bytes
                }
                TracePhase::Pardo {
                    iterations,
                    per_iter,
                    ..
                } => {
                    iterations
                        * (per_iter.get_bytes
                            + per_iter.put_bytes
                            + per_iter.request_bytes
                            + per_iter.prepare_bytes)
                }
                _ => 0,
            })
            .sum()
    }
}

/// Cost model for `execute` super instructions: flops given the instruction
/// name and its block-argument shapes.
pub type CostModel = Arc<dyn Fn(&str, &[Shape]) -> u64 + Send + Sync>;

/// The default cost model: touching every element once (2 flops/element).
pub fn default_cost_model() -> CostModel {
    Arc::new(|_name, shapes| shapes.iter().map(|s| 2 * s.len() as u64).sum())
}

/// Above this iteration-space size, where-clause survival is estimated by
/// deterministic strided sampling instead of full enumeration.
const EXACT_COUNT_LIMIT: u64 = 4_000_000;

/// Per-pardo-iteration walk context: the accumulating profile plus the
/// fetch-dedup set mirroring the block cache.
type IterCtx<'a> = Option<(&'a mut IterProfile, &'a mut HashSet<(u32, Vec<i64>)>)>;

struct Walker<'a> {
    layout: &'a Layout,
    cost: &'a CostModel,
    scalars: Vec<f64>,
    env: Vec<i64>,
    phases: Vec<TracePhase>,
    serial: IterProfile,
    /// Per-array expected fraction of blocks that actually ship (1.0 for
    /// dense arrays and for sparse arrays without a density hint).
    densities: Vec<f64>,
}

/// Generates the trace for a program under a layout, assuming every block
/// ships dense (no sparsity hints).
pub fn generate(layout: &Layout, cost: &CostModel) -> Result<Trace, RuntimeError> {
    generate_with_densities(layout, cost, &std::collections::BTreeMap::new())
}

/// Expected shipped fraction per array: `sparsity_density` hints apply to
/// `sparse` arrays only, clamped to `[0, 1]`; every other array is dense.
/// The dry run's realized estimate reads the same values, so the two
/// models agree.
pub(crate) fn array_densities(
    layout: &Layout,
    densities: &std::collections::BTreeMap<String, f64>,
) -> Vec<f64> {
    layout
        .program
        .arrays
        .iter()
        .map(|decl| {
            if decl.sparse {
                densities
                    .get(&decl.name)
                    .copied()
                    .unwrap_or(1.0)
                    .clamp(0.0, 1.0)
            } else {
                1.0
            }
        })
        .collect()
}

/// Generates the trace, additionally recording the per-class byte discount
/// that [`SipConfig::sparsity_density`](crate::SipConfig::sparsity_density) hints predict for `sparse` arrays
/// (the comm planner subtracts it from the dense totals).
pub fn generate_with_densities(
    layout: &Layout,
    cost: &CostModel,
    densities: &std::collections::BTreeMap<String, f64>,
) -> Result<Trace, RuntimeError> {
    let mut w = Walker {
        layout,
        cost,
        scalars: layout.program.scalars.iter().map(|s| s.init).collect(),
        env: vec![0; layout.program.indices.len()],
        phases: Vec::new(),
        serial: IterProfile::default(),
        densities: array_densities(layout, densities),
    };
    w.walk_range(0, layout.program.code.len() as u32, &mut None)?;
    w.flush_serial();
    Ok(Trace { phases: w.phases })
}

/// The bytes a density hint predicts will *not* ship for one dense-sized
/// transfer.
pub(crate) fn density_discount(bytes: u64, density: f64) -> u64 {
    bytes - (bytes as f64 * density).round() as u64
}

impl<'a> Walker<'a> {
    fn flush_serial(&mut self) {
        if !self.serial.is_trivial() {
            self.phases.push(TracePhase::Serial(self.serial));
            self.serial = IterProfile::default();
        }
    }

    fn eval(&self, e: &sia_bytecode::ScalarExpr) -> f64 {
        let env = &self.env;
        let sc = &self.scalars;
        let c = &self.layout.consts;
        eval_scalar(
            e,
            &|id: IndexId| env[id.index()],
            &|i| sc[i as usize],
            &|i| c[i as usize],
        )
    }

    fn cond(&self, e: &sia_bytecode::BoolExpr) -> bool {
        let env = &self.env;
        let sc = &self.scalars;
        let c = &self.layout.consts;
        eval_bool(
            e,
            &|id: IndexId| env[id.index()],
            &|i| sc[i as usize],
            &|i| c[i as usize],
        )
    }

    /// Record a fetch with per-iteration dedup (`seen` is reset per pardo
    /// iteration, mirroring the block cache).
    fn record_fetch(
        &self,
        r: &BlockRef,
        seen: Option<&mut HashSet<(u32, Vec<i64>)>>,
        acc: &mut IterProfile,
    ) {
        let segs: Vec<i64> = r.indices.iter().map(|&i| self.env[i.index()]).collect();
        if let Some(set) = seen {
            if !set.insert((r.array.0, segs)) {
                return;
            }
        }
        let bytes = self.layout.block_bytes(r.array);
        let discount = density_discount(bytes, self.densities[r.array.index()]);
        match self.layout.array_kind(r.array) {
            ArrayKind::Distributed => {
                acc.gets += 1;
                acc.get_bytes += bytes;
                acc.get_discount_bytes += discount;
            }
            ArrayKind::Served => {
                acc.requests += 1;
                acc.request_bytes += bytes;
                acc.request_discount_bytes += discount;
            }
            _ => {}
        }
    }

    /// Walks `[from, to)` accumulating into `self.serial` unless inside a
    /// pardo body walk (then `iter_acc` is a Some(&mut profile) target).
    #[allow(clippy::too_many_lines)]
    fn walk_range(&mut self, from: u32, to: u32, ctx: &mut IterCtx) -> Result<(), RuntimeError> {
        let layout = self.layout;
        let program = &layout.program;
        let mut pc = from;
        while pc < to {
            let (ins, facts) = layout.instruction(pc)?;
            match ins {
                I::PardoStart {
                    indices,
                    where_clauses,
                    end_pc,
                } => {
                    if ctx.is_some() {
                        return Err(RuntimeError::BadProgram("nested pardo in trace".into()));
                    }
                    self.flush_serial();
                    let pardo = layout.pardo(pc).expect("the layout resolves every pardo");
                    let (iterations, first) =
                        self.count_iterations(indices, &pardo.ranges, where_clauses)?;
                    let mut per_iter = IterProfile::default();
                    if let Some(vals) = first {
                        for (idx, v) in indices.iter().zip(&vals) {
                            self.env[idx.index()] = *v;
                        }
                        let mut seen: HashSet<(u32, Vec<i64>)> = HashSet::new();
                        let mut inner = IterProfile::default();
                        {
                            let mut c = Some((&mut inner, &mut seen));
                            self.walk_range(pc + 1, *end_pc, &mut c)?;
                        }
                        per_iter = inner;
                        for idx in indices {
                            self.env[idx.index()] = 0;
                        }
                    }
                    self.phases.push(TracePhase::Pardo {
                        pc,
                        iterations,
                        per_iter,
                    });
                    pc = *end_pc + 1;
                    continue;
                }
                I::PardoEnd { .. } => {}
                I::DoStart { index, end_pc } => {
                    let (lo, hi) = self.layout.range(*index);
                    for v in lo..=hi {
                        self.env[index.index()] = v;
                        self.walk_range(pc + 1, *end_pc, ctx)?;
                    }
                    self.env[index.index()] = 0;
                    pc = *end_pc + 1;
                    continue;
                }
                I::DoInStart {
                    sub,
                    parent,
                    end_pc,
                    ..
                } => {
                    let pval = self.env[parent.index()];
                    let (lo, hi) = self.layout.sub_range(pval.max(1));
                    for v in lo..=hi {
                        self.env[sub.index()] = v;
                        self.walk_range(pc + 1, *end_pc, ctx)?;
                    }
                    self.env[sub.index()] = 0;
                    pc = *end_pc + 1;
                    continue;
                }
                I::DoEnd { .. } | I::DoInEnd { .. } => {}
                I::JumpIfFalse { cond, target } => {
                    if !self.cond(cond) {
                        pc = *target;
                        continue;
                    }
                }
                I::Jump { target } => {
                    pc = *target;
                    continue;
                }
                I::Call { proc } => {
                    let entry = program.procs[proc.index()].entry_pc;
                    // Procedure bodies end at their Return.
                    let mut end = entry;
                    while !matches!(program.code.get(end as usize), Some(I::Return) | None) {
                        end += 1;
                    }
                    self.walk_range(entry, end, ctx)?;
                }
                I::Return | I::Halt => return Ok(()),
                // `exit` ends the enclosing sequential loop at runtime. The
                // walker cannot know when a data-dependent exit fires, so it
                // stops the current body walk and lets the loop continue —
                // the trace upper-bounds work for convergence-style loops.
                I::ExitLoop { .. } => return Ok(()),
                I::Create { .. } | I::Delete { .. } => {}
                I::Get { block } | I::Request { block } => {
                    let mut tmp = IterProfile::default();
                    let seen = ctx.as_mut().map(|(_, seen)| &mut **seen);
                    self.record_fetch(block, seen, &mut tmp);
                    self.acc(ctx).add(&tmp);
                }
                I::Put { dest, .. } => {
                    let bytes = facts.refs[0].shape.len() as u64 * 8;
                    let discount = density_discount(bytes, self.densities[dest.array.index()]);
                    let acc = self.acc(ctx);
                    acc.puts += 1;
                    acc.put_bytes += bytes;
                    acc.put_discount_bytes += discount;
                }
                I::Prepare { dest, .. } => {
                    let bytes = facts.refs[0].shape.len() as u64 * 8;
                    let discount = density_discount(bytes, self.densities[dest.array.index()]);
                    let acc = self.acc(ctx);
                    acc.prepares += 1;
                    acc.prepare_bytes += bytes;
                    acc.prepare_discount_bytes += discount;
                }
                I::BlocksToList { array, .. } | I::ListToBlocks { array, .. } => {
                    let blocks = self.layout.total_blocks(*array);
                    let bytes = self.layout.block_bytes(*array) * blocks;
                    let acc = self.acc(ctx);
                    acc.put_bytes += bytes;
                    acc.puts += blocks;
                }
                I::BlockFill { .. } | I::BlockScale { .. } => {
                    self.acc(ctx).flops += facts.refs[0].shape.len() as u64;
                }
                I::BlockCopy { .. } | I::BlockAccumulate { .. } => {
                    self.acc(ctx).flops += 2 * facts.refs[0].shape.len() as u64;
                }
                I::BlockContract { .. } => {
                    let (a, b) = (&facts.refs[1], &facts.refs[2]);
                    self.acc(ctx).flops += facts.plan()?.flops(&a.shape, &b.shape);
                }
                I::ScalarAssign { dest, expr } => {
                    self.scalars[dest.index()] = self.eval(expr);
                }
                I::ScalarFromBlock { .. } | I::Print { .. } => {}
                I::ExecuteSuper { name, .. } => {
                    let name = &program.strings[name.index()];
                    if name == crate::interp::SIP_ALLREDUCE {
                        self.flush_serial();
                        self.phases.push(TracePhase::Collective);
                    } else {
                        let shapes: Vec<Shape> = facts.refs.iter().map(|r| r.shape).collect();
                        self.acc(ctx).flops += (self.cost)(name, &shapes);
                    }
                }
                I::SipBarrier => {
                    self.flush_serial();
                    self.phases.push(TracePhase::SipBarrier);
                }
                I::ServerBarrier => {
                    self.flush_serial();
                    self.phases.push(TracePhase::ServerBarrier);
                }
            }
            pc += 1;
        }
        Ok(())
    }

    fn acc<'b>(&'b mut self, ctx: &'b mut IterCtx<'_>) -> &'b mut IterProfile {
        match ctx {
            Some((acc, _)) => acc,
            None => &mut self.serial,
        }
    }

    /// Counts iterations passing the where clauses, returning the first
    /// passing assignment. Uses exact enumeration up to a limit, then
    /// deterministic strided sampling. A where clause over an index the
    /// pardo does not bind, or a space of more than 2^64 iterations, is
    /// refused as the master refuses it.
    fn count_iterations(
        &self,
        indices: &[IndexId],
        ranges: &[(i64, i64)],
        wheres: &[sia_bytecode::BoolExpr],
    ) -> Result<(u64, Option<Vec<i64>>), RuntimeError> {
        check_where_indices(indices, wheres)?;
        let product = cross_product(ranges)?;
        if product == 0 {
            return Ok((0, None));
        }
        let sc = &self.scalars;
        let c = &self.layout.consts;
        let passes = |vals: &[i64]| -> bool {
            let index_val = |id: IndexId| -> i64 {
                indices
                    .iter()
                    .position(|&x| x == id)
                    .map(|p| vals[p])
                    .unwrap_or(0)
            };
            wheres
                .iter()
                .all(|w| eval_bool(w, &index_val, &|i| sc[i as usize], &|i| c[i as usize]))
        };
        let decode = |n: u64| -> Vec<i64> {
            let mut vals = vec![0i64; ranges.len()];
            decode_ordinal(ranges, n, |d, v| vals[d] = v);
            vals
        };
        if wheres.is_empty() {
            return Ok((product, Some(decode(0))));
        }
        if product <= EXACT_COUNT_LIMIT {
            let mut count = 0;
            let mut first = None;
            for n in 0..product {
                let vals = decode(n);
                if passes(&vals) {
                    count += 1;
                    if first.is_none() {
                        first = Some(vals);
                    }
                }
            }
            Ok((count, first))
        } else {
            // Deterministic strided sampling.
            let samples = 1_000_000u64;
            let stride = (product / samples).max(1);
            let mut hits = 0u64;
            let mut tried = 0u64;
            let mut first = None;
            let mut n = 0u64;
            while n < product {
                let vals = decode(n);
                tried += 1;
                if passes(&vals) {
                    hits += 1;
                    if first.is_none() {
                        first = Some(vals);
                    }
                }
                n += stride;
            }
            let est = ((hits as f64 / tried as f64) * product as f64).round() as u64;
            Ok((est, first))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{SegmentConfig, Topology};
    use sia_bytecode::ConstBindings;

    fn trace_of(src: &str, n: i64) -> Trace {
        let program = sial_frontend::compile(src).unwrap();
        let mut b = ConstBindings::new();
        b.insert("n".into(), n);
        b.insert("nocc".into(), 2);
        let layout = Layout::new(
            Arc::new(program),
            &b,
            SegmentConfig {
                default: 4,
                ..Default::default()
            },
            Topology::new(2, 1),
        )
        .unwrap();
        generate(&layout, &default_cost_model()).unwrap()
    }

    #[test]
    fn paper_example_trace_shape() {
        let src = r#"
sial t
aoindex M = 1, n
aoindex N = 1, n
aoindex L = 1, n
aoindex S = 1, n
moindex I = 1, nocc
moindex J = 1, nocc
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp tmp(M,N,I,J)
temp tmpsum(M,N,I,J)
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
endsial
"#;
        let t = trace_of(src, 3);
        assert_eq!(t.phases.len(), 1);
        match &t.phases[0] {
            TracePhase::Pardo {
                iterations,
                per_iter,
                ..
            } => {
                // 3*3*2*2 pardo iterations.
                assert_eq!(*iterations, 36);
                // Inner loops L,S: 9 gets of 4^4-element blocks.
                assert_eq!(per_iter.gets, 9);
                assert_eq!(per_iter.get_bytes, 9 * 256 * 8);
                assert_eq!(per_iter.puts, 1);
                // Contraction flops dominate: GEMM dims m=n=k=16 (4×4 seg
                // pairs), 2·16³ = 8192 flops per contraction, 9 contractions.
                assert!(per_iter.flops >= 9 * 8192, "flops = {}", per_iter.flops);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_clause_reduces_iterations() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed X(M,N)\ntemp q(M,N)\npardo M, N where M < N\nq(M,N) = 0.0\nput X(M,N) = q(M,N)\nendpardo\nendsial\n";
        let t = trace_of(src, 4);
        match &t.phases[0] {
            TracePhase::Pardo { iterations, .. } => assert_eq!(*iterations, 6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn barriers_and_collectives_split_phases() {
        let src = "sial t\naoindex M = 1, n\ndistributed X(M)\ntemp q(M)\nscalar e\npardo M\nq(M) = 1.0\nput X(M) = q(M)\nendpardo\nsip_barrier\nexecute sip_allreduce e\nendsial\n";
        let t = trace_of(src, 4);
        assert_eq!(
            t.phases
                .iter()
                .map(|p| match p {
                    TracePhase::Pardo { .. } => "pardo",
                    TracePhase::SipBarrier => "barrier",
                    TracePhase::Collective => "collective",
                    TracePhase::Serial(_) => "serial",
                    TracePhase::ServerBarrier => "server",
                })
                .collect::<Vec<_>>(),
            vec!["pardo", "barrier", "collective"]
        );
    }

    #[test]
    fn gets_deduped_within_iteration() {
        // The same block fetched twice in one iteration counts once.
        let src = "sial t\naoindex M = 1, n\naoindex L = 1, n\ndistributed X(M,L)\ntemp q(M,L)\npardo M\ndo L\nget X(M,L)\nget X(M,L)\nq(M,L) = X(M,L)\nenddo L\nendpardo\nendsial\n";
        let t = trace_of(src, 3);
        match &t.phases[0] {
            TracePhase::Pardo { per_iter, .. } => assert_eq!(per_iter.gets, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pardo_in_do_traced_per_encounter() {
        let src = "sial t\nindex sweep = 1, 3\naoindex M = 1, n\ndistributed X(M)\ntemp q(M)\ndo sweep\npardo M\nq(M) = 1.0\nput X(M) = q(M)\nendpardo\nsip_barrier\nenddo sweep\nendsial\n";
        let t = trace_of(src, 4);
        let pardos = t
            .phases
            .iter()
            .filter(|p| matches!(p, TracePhase::Pardo { .. }))
            .count();
        let barriers = t
            .phases
            .iter()
            .filter(|p| matches!(p, TracePhase::SipBarrier))
            .count();
        assert_eq!(pardos, 3, "one pardo phase per sweep");
        assert_eq!(barriers, 3);
    }

    #[test]
    fn serial_section_recorded() {
        let src = "sial t\naoindex M = 1, n\nstatic F(M,M)\ntemp q(M,M)\ndo M\nq(M,M) = 1.0\nF(M,M) = q(M,M)\nenddo M\nsip_barrier\nendsial\n";
        let t = trace_of(src, 4);
        assert!(matches!(t.phases[0], TracePhase::Serial(_)));
        assert!(matches!(t.phases[1], TracePhase::SipBarrier));
    }

    #[test]
    fn totals_consistent() {
        let src = "sial t\naoindex M = 1, n\ndistributed X(M)\ntemp q(M)\npardo M\nget X(M)\nq(M) = X(M)\nput X(M) += q(M)\nendpardo\nendsial\n";
        let t = trace_of(src, 5);
        // 5 iterations × (get 32 B + put 32 B) per iteration (4-element
        // rank-1 blocks of doubles).
        assert_eq!(t.total_bytes(), 5 * 2 * 32);
        assert!(t.total_flops() > 0);
    }

    #[test]
    fn served_traffic_counted_separately() {
        let src = "sial t\naoindex M = 1, n\nserved V(M)\ntemp q(M)\npardo M\nrequest V(M)\nq(M) = V(M)\nprepare V(M) = q(M)\nendpardo\nendsial\n";
        let t = trace_of(src, 4);
        match &t.phases[0] {
            TracePhase::Pardo { per_iter, .. } => {
                assert_eq!(per_iter.requests, 1);
                assert_eq!(per_iter.prepares, 1);
                assert_eq!(per_iter.gets, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Bytecode whose where clause names an index its pardo does not bind
    /// (the front end never emits it) is refused, not counted with that
    /// index read as 0.
    #[test]
    fn where_on_unbound_index_is_bad_bytecode() {
        let src = "sial t\naoindex i = 1, n\naoindex j = 1, n\ntemp q(i)\npardo i where i <= 2\nq(i) = 1.0\nendpardo i\nendsial\n";
        let mut program = sial_frontend::compile(src).unwrap();
        let j = IndexId(1);
        assert_eq!(program.indices[j.index()].name, "j");
        let Some(I::PardoStart { where_clauses, .. }) = program.code.get_mut(0) else {
            panic!("the program starts with its pardo");
        };
        where_clauses[0] = sia_bytecode::BoolExpr::Cmp(
            sia_bytecode::ScalarExpr::IndexVal(j),
            sia_bytecode::CmpOp::Le,
            sia_bytecode::ScalarExpr::Lit(2.0),
        );
        let mut b = ConstBindings::new();
        b.insert("n".into(), 4);
        let layout = Layout::new(
            Arc::new(program),
            &b,
            SegmentConfig::default(),
            Topology::new(2, 1),
        )
        .unwrap();
        match generate(&layout, &default_cost_model()) {
            Err(RuntimeError::BadBytecode(m)) => assert!(m.contains("#1"), "{m}"),
            other => panic!("expected BadBytecode, got {other:?}"),
        }
    }
}
