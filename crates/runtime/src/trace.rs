//! Trace generation: the dry-run walk that feeds the scale simulator and
//! predicts the run's fabric bytes.
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
//!
//! The same walk predicts the bytes the run's fabric carries (DESIGN.md §17,
//! the `comm_plan` metrics section, `sial dryrun`), charging each block ref
//! it meets by one rule. A ref of the pardo's owner-compute anchor's block
//! costs nothing: the iteration runs where that block lives. A
//! broadcast-shaped `get` — every index pardo-bound, a strict subset of the
//! pardo's indices, its array not put in the body — reaches every worker
//! once, so its distinct blocks cost 2(W−1) block transfers each, once per
//! pardo encounter. Every other get, put, request or prepare is spread
//! uniformly: a (W−1)/W share is remote, counted out and in, per iteration.
//! Bytes are realized bytes: a [`SipConfig::sparsity_density`] hint on a
//! `sparse` array scales them as the dry run's estimate does.
//!
//! [`SipConfig::sparsity_density`]: crate::SipConfig::sparsity_density

use crate::error::RuntimeError;
use crate::layout::{Layout, PardoFacts};
use crate::scheduler::{
    check_where_indices, cross_product, decode_ordinal, eval_bool, eval_scalar,
};
use sia_blocks::Shape;
use sia_bytecode::{ArrayId, ArrayKind, BlockRef, IndexId, Instruction as I};
use std::collections::{BTreeMap, HashSet};
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
}

impl IterProfile {
    /// Whether anything at all happens.
    pub fn is_trivial(&self) -> bool {
        *self == IterProfile::default()
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

/// The walk through one pardo iteration: its profile, the fetch-dedup set
/// mirroring the block cache, and what its fabric bytes are charged by.
struct Iter<'a> {
    profile: IterProfile,
    seen: HashSet<(u32, Vec<i64>)>,
    pardo: &'a PardoFacts,
    body: &'a [I],
    /// The broadcast-shaped operands charged in this pardo encounter.
    charged: Vec<(ArrayId, &'a [IndexId])>,
    /// Realized bytes the iteration moves, spread over the ranks.
    spread: u64,
}

impl Iter<'_> {
    /// Whether `r` addresses the owner-compute anchor's block, which the
    /// iteration finds at home.
    fn anchored(&self, r: &BlockRef) -> bool {
        let (pardo, owner) = (&self.pardo.indices, self.pardo.owner.as_ref());
        owner.is_some_and(|o| o.is_read_by(r.array, &r.indices, pardo))
    }

    /// Whether a get of `r` is broadcast-shaped: every index pardo-bound
    /// but not every pardo index used, so whole groups of iterations read
    /// each block, and its array not put in the body (its blocks would
    /// change under the readers).
    fn broadcasts(&self, r: &BlockRef) -> bool {
        let pardo = &self.pardo.indices;
        r.indices.iter().all(|i| pardo.contains(i))
            && pardo.iter().any(|i| !r.indices.contains(i))
            && !self.anchored(r)
            && !(self.body.iter())
                .any(|ins| matches!(ins, I::Put { dest, .. } if dest.array == r.array))
    }
}

/// `Some` while the walk is inside a pardo body.
type IterCtx<'a> = Option<Iter<'a>>;

/// Whether the walk is in a pardo iteration that finds `r` at home.
fn anchored(ctx: &IterCtx, r: &BlockRef) -> bool {
    ctx.as_ref().is_some_and(|it| it.anchored(r))
}

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
    /// Predicted fabric bytes so far, in and out.
    fabric: f64,
}

/// Generates the trace for a program under a layout.
pub fn generate(layout: &Layout, cost: &CostModel) -> Result<Trace, RuntimeError> {
    walk(layout, cost, &BTreeMap::new()).map(|w| Trace { phases: w.phases })
}

/// The fabric bytes the walk predicts for a run under `layout`, with
/// `densities` as [`SipConfig::sparsity_density`] hints.
///
/// [`SipConfig::sparsity_density`]: crate::SipConfig::sparsity_density
pub(crate) fn predicted_fabric_bytes(
    layout: &Layout,
    densities: &BTreeMap<String, f64>,
) -> Result<u64, RuntimeError> {
    let fabric = walk(layout, &default_cost_model(), densities)?.fabric;
    Ok(fabric.round() as u64)
}

fn walk<'a>(
    layout: &'a Layout,
    cost: &'a CostModel,
    densities: &BTreeMap<String, f64>,
) -> Result<Walker<'a>, RuntimeError> {
    let mut w = Walker {
        layout,
        cost,
        scalars: layout.program.scalars.iter().map(|s| s.init).collect(),
        env: vec![0; layout.program.indices.len()],
        phases: Vec::new(),
        serial: IterProfile::default(),
        densities: array_densities(layout, densities),
        fabric: 0.0,
    };
    w.walk_range(0, layout.program.code.len() as u32, &mut None)?;
    w.flush_serial();
    Ok(w)
}

/// Expected shipped fraction per array: `sparsity_density` hints apply to
/// `sparse` arrays only, clamped to `[0, 1]`; every other array is dense.
/// The dry run's realized estimate reads the same values, so the two
/// models agree.
pub(crate) fn array_densities(layout: &Layout, densities: &BTreeMap<String, f64>) -> Vec<f64> {
    (layout.program.arrays.iter())
        .map(|decl| match densities.get(&decl.name) {
            Some(d) if decl.sparse => d.clamp(0.0, 1.0),
            _ => 1.0,
        })
        .collect()
}

/// The bytes of one dense-sized transfer of `bytes` that an array of
/// `density` is expected to ship.
pub(crate) fn realized_bytes(bytes: u64, density: f64) -> u64 {
    (bytes as f64 * density).round() as u64
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

    /// Of each byte a transfer spread uniformly over W workers moves, the
    /// share that crosses the fabric, counted out and in: 2(W−1)/W.
    fn remote(&self) -> f64 {
        let w = self.layout.topology.workers.max(1) as f64;
        2.0 * (w - 1.0) / w
    }

    /// Records a fetch once per block per iteration (the block cache holds
    /// it across the iteration) and charges its fabric bytes.
    fn fetch(&mut self, r: &'a BlockRef, ctx: &mut IterCtx<'a>) {
        let bytes = self.layout.block_bytes(r.array);
        let kind = self.layout.array_kind(r.array);
        let broadcast =
            kind == ArrayKind::Distributed && ctx.as_ref().is_some_and(|it| it.broadcasts(r));
        if broadcast {
            self.broadcast(r, bytes, ctx);
        }
        let segs: Vec<i64> = r.indices.iter().map(|&i| self.env[i.index()]).collect();
        if (ctx.as_mut()).is_some_and(|it| !it.seen.insert((r.array.0, segs))) {
            return;
        }
        let acc = self.acc(ctx);
        match kind {
            ArrayKind::Distributed => {
                acc.gets += 1;
                acc.get_bytes += bytes;
            }
            ArrayKind::Served => {
                acc.requests += 1;
                acc.request_bytes += bytes;
            }
            _ => return,
        }
        if !broadcast && !anchored(ctx, r) {
            self.charge(r.array, bytes, ctx);
        }
    }

    /// Charges a broadcast-shaped get the first time the pardo encounter
    /// meets it: every worker but the home fetches each of its blocks once,
    /// so W−1 copies leave the home and W−1 arrive.
    fn broadcast(&mut self, r: &'a BlockRef, bytes: u64, ctx: &mut IterCtx<'a>) {
        let Some(it) = ctx else { return };
        if it.charged.contains(&(r.array, &r.indices[..])) {
            return;
        }
        it.charged.push((r.array, &r.indices));
        let blocks = (r.indices.iter())
            .map(|&i| self.layout.range_len(i))
            .fold(1, u64::saturating_mul);
        let copies = 2 * (self.layout.topology.workers.max(1) - 1);
        let bytes = realized_bytes(bytes, self.densities[r.array.index()]);
        self.fabric += blocks as f64 * bytes as f64 * copies as f64;
    }

    /// Charges the realized bytes of one transfer of `bytes` dense bytes of
    /// `array`, spread over the ranks: per iteration inside a pardo, at
    /// once in serial code.
    fn charge(&mut self, array: ArrayId, bytes: u64, ctx: &mut IterCtx<'a>) {
        let bytes = realized_bytes(bytes, self.densities[array.index()]);
        match ctx {
            Some(it) => it.spread += bytes,
            None => self.fabric += bytes as f64 * self.remote(),
        }
    }

    /// Walks `[from, to)` accumulating into `self.serial` unless inside a
    /// pardo body walk (then into `ctx`'s iteration).
    #[allow(clippy::too_many_lines)]
    fn walk_range(
        &mut self,
        from: u32,
        to: u32,
        ctx: &mut IterCtx<'a>,
    ) -> Result<(), RuntimeError> {
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
                        let body = program.code.get(pc as usize + 1..*end_pc as usize);
                        let mut iter = Some(Iter {
                            profile: IterProfile::default(),
                            seen: HashSet::new(),
                            pardo,
                            body: body.unwrap_or_default(),
                            charged: Vec::new(),
                            spread: 0,
                        });
                        self.walk_range(pc + 1, *end_pc, &mut iter)?;
                        if let Some(it) = iter {
                            per_iter = it.profile;
                            self.fabric += iterations as f64 * it.spread as f64 * self.remote();
                        }
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
                I::Get { block } | I::Request { block } => self.fetch(block, ctx),
                I::Put { dest, .. } => {
                    let bytes = facts.refs[0].shape.len() as u64 * 8;
                    let acc = self.acc(ctx);
                    acc.puts += 1;
                    acc.put_bytes += bytes;
                    if !anchored(ctx, dest) {
                        self.charge(dest.array, bytes, ctx);
                    }
                }
                I::Prepare { dest, .. } => {
                    let bytes = facts.refs[0].shape.len() as u64 * 8;
                    let acc = self.acc(ctx);
                    acc.prepares += 1;
                    acc.prepare_bytes += bytes;
                    self.charge(dest.array, bytes, ctx);
                }
                I::BlocksToList { array, .. } | I::ListToBlocks { array, .. } => {
                    let blocks = self.layout.total_blocks(*array);
                    let bytes = self.layout.block_bytes(*array) * blocks;
                    let acc = self.acc(ctx);
                    acc.put_bytes += bytes;
                    acc.puts += blocks;
                    self.charge(*array, bytes, ctx);
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
            Some(it) => &mut it.profile,
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

    /// `src` compiled with `n` (and `nocc` = 2) bound, in segments of 4.
    fn layout_of(src: &str, n: i64, workers: usize) -> Layout {
        let program = sial_frontend::compile(src).unwrap();
        let bindings = ConstBindings::from([("n".into(), n), ("nocc".into(), 2)]);
        let segments = SegmentConfig {
            default: 4,
            ..Default::default()
        };
        Layout::new(
            Arc::new(program),
            &bindings,
            segments,
            Topology::new(workers, 1),
        )
        .unwrap()
    }

    fn trace_of(src: &str, n: i64) -> Trace {
        generate(&layout_of(src, n, 2), &default_cost_model()).unwrap()
    }

    /// The fabric bytes the walk predicts on three workers, where a
    /// broadcast block costs 2(W−1) = 4 transfers and a spread one
    /// 2(W−1)/W = 4/3.
    fn predicted(src: &str, n: i64) -> u64 {
        predicted_fabric_bytes(&layout_of(src, n, 3), &BTreeMap::new()).unwrap()
    }

    /// `n` iterations' transfers of `bytes` each, spread over three workers.
    fn spread(n: u64, bytes: u64) -> u64 {
        (n as f64 * bytes as f64 * 4.0 / 3.0).round() as u64
    }

    /// `F(M)` is read by every iteration sharing `M`; `R(M,N)` is the
    /// owner-compute anchor, so its put is local.
    const BCAST: &str = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed F(M)\ndistributed R(M,N)\ntemp f(M)\ntemp q(M,N)\npardo M, N\nget F(M)\nf(M) = F(M)\nq(M,N) = 0.0\nput R(M,N) = q(M,N)\nendpardo\nendsial\n";

    /// Rank-1 blocks of 4 doubles and rank-2 blocks of 16.
    const VECTOR: u64 = 32;
    const MATRIX: u64 = 128;

    /// Each of `F`'s 4 blocks reaches the 2 workers not its home: 4
    /// transfers, out and in, once for the pardo's 16 iterations.
    #[test]
    fn broadcast_operand_detected() {
        assert_eq!(predicted(BCAST, 4), 4 * VECTOR * 4);
    }

    /// `R` is read with all pardo indices — each iteration gets its own
    /// block, nothing shared — so each of the 16 reads is spread.
    #[test]
    fn fully_bound_get_is_not_broadcast() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M,N)\ndistributed S(M,N)\ntemp q(M,N)\npardo M, N\nget R(M,N)\nq(M,N) = R(M,N)\nput S(M,N) = q(M,N)\nendpardo\nendsial\n";
        assert_eq!(predicted(src, 4), spread(16, MATRIX));
    }

    /// `F` is both read and written in the body — its blocks change under
    /// the readers — so its get is spread like the put.
    #[test]
    fn written_array_never_broadcast() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed F(M)\ntemp q(M)\npardo M, N\nget F(M)\nq(M) = F(M)\nput F(M) += q(M)\nendpardo\nendsial\n";
        assert_eq!(predicted(src, 4), spread(16, 2 * VECTOR));
    }

    /// A get addressed by an inner `do` index is spread: 4 iterations of 4.
    #[test]
    fn inner_do_get_not_broadcast() {
        let src = "sial t\naoindex M = 1, n\naoindex L = 1, n\ndistributed X(M,L)\ntemp q(M,L)\npardo M\ndo L\nget X(M,L)\nq(M,L) = X(M,L)\nenddo L\nendpardo\nendsial\n";
        assert_eq!(predicted(src, 4), spread(4 * 4, MATRIX));
    }

    /// Owner-compute makes the aligned `put R(M,N)` local: the program
    /// predicts only its broadcast operand's fabric bytes. (Without the put
    /// the region would anchor on `get F(M)` instead.)
    #[test]
    fn aligned_puts_charge_no_volume() {
        let layout = layout_of(BCAST, 6, 3);
        let pardo = (0..layout.program.code.len() as u32).find_map(|pc| layout.pardo(pc));
        let owner = pardo.and_then(|p| p.owner.as_ref());
        assert_eq!(owner.map(|o| o.anchor), Some(crate::layout::Anchor::Put));
        assert_eq!(predicted(BCAST, 6), 6 * VECTOR * 4);
    }

    /// Regression: the predicted fabric bytes must honour
    /// `sparsity_density` hints the way the dry run's realized-footprint
    /// estimate does, instead of charging dense payloads for sparse
    /// arrays. On the screened-MP2 program (whose only distributed array
    /// is the sparse `Vd`), the prediction under a density hint must scale
    /// by that density and stay consistent with the realized per-block
    /// bytes the memory estimate assumes. Both of the program's sweeps are
    /// aligned (the put sweep and the read-only `get Vd` sweep anchor on
    /// `Vd` itself) and predict no traffic, so the energy sweep here also
    /// reads `Vd(k,a,j,b)` in a `do k` loop: that read is what ships.
    #[test]
    fn sparse_density_scales_comm_volume_like_realized_estimate() {
        use crate::layout::SipConfig;
        let src = include_str!("../../../programs/mp2_screened.sial")
            .replace(
                "moindex j = 1, nocc\n",
                "moindex j = 1, nocc\nmoindex k = 1, nocc\n",
            )
            .replace(
                "  get Vd(i,a,j,b)\n",
                "  get Vd(i,a,j,b)\n  do k\n    get Vd(k,a,j,b)\n  enddo k\n",
            );
        let program = sial_frontend::compile(&src).unwrap();
        let b = ConstBindings::from([("nocc".into(), 2), ("nvrt".into(), 4)]);
        let segments = SegmentConfig {
            default: 4,
            ..Default::default()
        };
        let layout = Layout::new(Arc::new(program), &b, segments, Topology::new(4, 0)).unwrap();
        let density = 0.2;
        let hints = BTreeMap::from([("Vd".to_string(), density)]);

        let dense = predicted_fabric_bytes(&layout, &BTreeMap::new()).unwrap();
        let sparse = predicted_fabric_bytes(&layout, &hints).unwrap();
        assert!(dense > 0, "the dense walk predicts traffic");
        let ratio = sparse as f64 / dense as f64;
        assert!(
            (ratio - density).abs() < 0.01,
            "predicted bytes must scale by the density hint: ratio {ratio}, density {density}"
        );

        // Agreement with the dryrun memory estimate's convention: both
        // models assume the same realized bytes per shipped Vd block.
        let config = SipConfig {
            workers: 4,
            io_servers: 0,
            sparsity_density: hints.clone(),
            ..SipConfig::default()
        };
        let est = crate::dryrun::estimate(&layout, &config);
        assert!(
            est.per_worker_bytes < est.dense_per_worker_bytes,
            "realized estimate must drop below dense under the hint"
        );
        let vd = layout.program.array_by_name("Vd").unwrap();
        let dense_block = layout.block_bytes(vd);
        let shared = array_densities(&layout, &config.sparsity_density)[vd.index()];
        assert_eq!(
            realized_bytes(dense_block, shared),
            (dense_block as f64 * density).round() as u64,
            "walker and dry run must share the realized per-block bytes"
        );
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
