//! The communication planner (DESIGN.md §17).
//!
//! Distributed blocks live in per-array slabs of block ordinals
//! ([`Layout::slot_of_distributed`]). The planner walks the bytecode once,
//! and for every pardo region classifies each distributed-array reference
//! as
//!
//! * **aligned** — a `put` whose indices are all pardo-bound, so with the
//!   master's owner-compute chunk affinity the write lands on the rank that
//!   already homes the block (no fabric traffic at all);
//! * **broadcast-shaped** — a `get` whose indices are all pardo-bound but
//!   form a *strict subset* of the pardo indices, so many iterations (on
//!   many ranks) read the same block, each rank fetching it once;
//! * **other** — everything else (e.g. a `get` driven by an inner `do`
//!   loop index), spread uniformly over the ranks.
//!
//! The classification is purely static and deterministic: it depends only
//! on the program, the resolved index ranges, and the topology — never on
//! execution order — so every rank derives the identical plan from the
//! same `Layout`.
//!
//! The planner also predicts a per-rank communication-volume table
//! (`sial dryrun` prints it; metrics compare it against the measured
//! volume) and exports an aggregate [`PlanSummary`] that the `sia-sim`
//! strong-scaling model extrapolates to simulated rank counts far beyond
//! one host.

use crate::layout::Layout;
use crate::msg::{BlockKey, MAX_RANK};
use crate::trace::{Trace, TracePhase};
use sia_bytecode::{ArrayId, ArrayKind, IndexId, Instruction as I, PutMode};
use std::collections::BTreeMap;

/// One broadcast-shaped operand of a pardo region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOp {
    /// The distributed array read by every iteration sharing its indices.
    pub array: ArrayId,
    /// The reference's index variables (each pardo-bound; strict subset of
    /// the pardo indices).
    pub indices: Vec<IndexId>,
    /// Distinct blocks the reference addresses (product of index ranges).
    pub blocks: u64,
    /// Bytes of one (declared-shape) block.
    pub block_bytes: u64,
}

/// Owner-compute affinity for a pardo region: the distributed array whose
/// `put` is fully pardo-bound, and for each of its dimensions the position
/// of the addressing index inside the pardo index list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerCompute {
    /// The written array.
    pub array: ArrayId,
    /// `dim_pos[d]` = position in the pardo index list of the index
    /// addressing dimension `d`.
    pub dim_pos: Vec<usize>,
}

impl OwnerCompute {
    /// The block key an iteration writes, given the pardo index values in
    /// pardo order. Built on the stack: the master calls this once per
    /// iteration of every pardo encounter.
    pub fn key_of(&self, pardo_vals: &[i64]) -> BlockKey {
        let mut segs = [0; MAX_RANK];
        for (seg, &p) in segs.iter_mut().zip(&self.dim_pos) {
            *seg = pardo_vals[p];
        }
        BlockKey::new(self.array, &segs[..self.dim_pos.len()])
    }
}

/// The plan for one pardo region, keyed by the `PardoStart` pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Pc of the `PardoStart`.
    pub pc: u32,
    /// The pardo's index variables, in program order.
    pub indices: Vec<IndexId>,
    /// Operands read by whole groups of iterations.
    pub broadcast: Vec<BroadcastOp>,
    /// Owner-compute affinity, when the region has exactly one
    /// fully-pardo-bound distributed `put` target (and no conflicting
    /// second write pattern).
    pub owner: Option<OwnerCompute>,
}

/// Predicted per-rank communication volume (fabric bytes in + out).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommVolume {
    /// Bytes per worker (index = worker index, not rank).
    pub per_rank: Vec<f64>,
}

impl CommVolume {
    fn new(workers: usize) -> Self {
        CommVolume {
            per_rank: vec![0.0; workers],
        }
    }

    /// Total predicted fabric bytes across all workers.
    pub fn total(&self) -> u64 {
        self.per_rank.iter().sum::<f64>().round() as u64
    }

    /// The most-loaded worker's bytes.
    pub fn max(&self) -> u64 {
        self.per_rank.iter().cloned().fold(0.0, f64::max).round() as u64
    }

    /// Max / mean load ratio (1.0 = perfectly balanced; 0 workers or zero
    /// traffic reports 1.0).
    pub fn imbalance(&self) -> f64 {
        if self.per_rank.is_empty() {
            return 1.0;
        }
        let mean = self.per_rank.iter().sum::<f64>() / self.per_rank.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        self.per_rank.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Aggregate byte classes the strong-scaling model extrapolates over
/// simulated rank counts (all summed over every pardo region, all
/// iterations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Bytes of fully-pardo-bound distributed puts (local under
    /// owner-compute).
    pub aligned_put_bytes: u64,
    /// Distinct broadcast-shaped blocks × their byte size (bytes shipped to
    /// *each* consuming rank once, whatever the transport).
    pub broadcast_bytes: u64,
    /// Distinct broadcast-shaped blocks (message-count model).
    pub broadcast_blocks: u64,
    /// All remaining get/put/request/prepare bytes (uniformly spread).
    pub other_bytes: u64,
}

/// The whole-program communication plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommPlan {
    /// Per-pardo-region plans, keyed by `PardoStart` pc.
    pub regions: BTreeMap<u32, RegionPlan>,
    /// Predicted per-rank fabric volume.
    pub volume: CommVolume,
    /// Aggregate classes for the scaling model.
    pub summary: PlanSummary,
}

impl CommPlan {
    /// The plan for the pardo starting at `pc`, if any.
    pub fn region(&self, pc: u32) -> Option<&RegionPlan> {
        self.regions.get(&pc)
    }

    /// Renders the per-rank volume table the dryrun prints.
    pub fn volume_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "predicted comm volume per rank:");
        for (i, b) in self.volume.per_rank.iter().enumerate() {
            let _ = writeln!(out, "  worker {:>3}: {:>14} bytes", i + 1, b.round() as u64);
        }
        let _ = writeln!(
            out,
            "  total {} bytes, max {} bytes, imbalance {:.2}",
            self.volume.total(),
            self.volume.max(),
            self.volume.imbalance()
        );
        out
    }
}

/// Builds the communication plan for a program under a layout, consuming
/// the dry-run trace for iteration counts and byte totals.
pub struct CommPlanner<'a> {
    layout: &'a Layout,
    trace: &'a Trace,
    /// Per-array expected shipped fraction (1.0 everywhere without
    /// [`SipConfig::sparsity_density`](crate::SipConfig::sparsity_density) hints). Indexed by `ArrayId`.
    densities: Vec<f64>,
}

/// Above this many block-home evaluations per reference, the per-rank
/// volume model falls back to a uniform spread instead of enumerating the
/// block grid.
const ENUMERATION_LIMIT: u64 = 100_000;

impl<'a> CommPlanner<'a> {
    /// A planner over `layout` and the trace generated from it, assuming
    /// every block ships dense.
    pub fn new(layout: &'a Layout, trace: &'a Trace) -> Self {
        Self::with_densities(layout, trace, &BTreeMap::new())
    }

    /// A planner that folds [`SipConfig::sparsity_density`](crate::SipConfig::sparsity_density) hints into the
    /// volume model: a `sparse` array with density `d` is expected to ship
    /// only `d` of each dense block's bytes (the same clamped convention
    /// the dry run's realized-footprint estimate uses). Dense arrays and
    /// unhinted sparse arrays charge full dense payloads.
    pub fn with_densities(
        layout: &'a Layout,
        trace: &'a Trace,
        densities: &BTreeMap<String, f64>,
    ) -> Self {
        CommPlanner {
            layout,
            trace,
            densities: crate::trace::array_densities(layout, densities),
        }
    }

    /// The expected shipped fraction for one array.
    fn density_of(&self, array: ArrayId) -> f64 {
        self.densities[array.index()]
    }

    /// The bytes of one dense-sized transfer expected to actually ship.
    fn effective_bytes(&self, array: ArrayId, dense: u64) -> u64 {
        dense - crate::trace::density_discount(dense, self.density_of(array))
    }

    /// Derives the deterministic plan.
    pub fn plan(&self) -> CommPlan {
        let mut regions = BTreeMap::new();
        let code = &self.layout.program.code;
        for (pc, ins) in code.iter().enumerate() {
            if let I::PardoStart {
                indices, end_pc, ..
            } = ins
            {
                let region = self.plan_region(pc as u32, indices, *end_pc);
                regions.insert(pc as u32, region);
            }
        }
        let (volume, summary) = self.predict(&regions);
        CommPlan {
            regions,
            volume,
            summary,
        }
    }

    /// Classifies one pardo body.
    fn plan_region(&self, pc: u32, pardo: &[IndexId], end_pc: u32) -> RegionPlan {
        let code = &self.layout.program.code;
        let body = &code[(pc as usize + 1)..(end_pc as usize)];

        // Arrays written anywhere in the body are never broadcast: their
        // blocks change under the readers.
        let mut written: Vec<ArrayId> = Vec::new();
        for ins in body {
            if let I::Put { dest, .. } = ins {
                written.push(dest.array);
            }
        }

        let mut broadcast: Vec<BroadcastOp> = Vec::new();
        let mut owner: Option<OwnerCompute> = None;
        let mut owner_conflict = false;
        for ins in body {
            match ins {
                I::Get { block } => {
                    if self.layout.array_kind(block.array) != ArrayKind::Distributed
                        || written.contains(&block.array)
                    {
                        continue;
                    }
                    let all_bound = block.indices.iter().all(|i| pardo.contains(i));
                    // Strict subset: at least one pardo index does not
                    // address the operand, so whole groups of iterations
                    // share each block.
                    let strict = pardo.iter().any(|i| !block.indices.contains(i));
                    if !all_bound || !strict {
                        continue;
                    }
                    if broadcast
                        .iter()
                        .any(|b| b.array == block.array && b.indices == block.indices)
                    {
                        continue;
                    }
                    let blocks: u64 = block
                        .indices
                        .iter()
                        .map(|&i| self.layout.range_len(i))
                        .product();
                    broadcast.push(BroadcastOp {
                        array: block.array,
                        indices: block.indices.clone(),
                        blocks,
                        block_bytes: self.layout.block_bytes(block.array),
                    });
                }
                I::Put { dest, mode, .. } => {
                    if self.layout.array_kind(dest.array) != ArrayKind::Distributed {
                        continue;
                    }
                    let fully_bound = dest.indices.iter().all(|i| pardo.contains(i))
                        && dest.indices.len() == self.layout.array(dest.array).dims.len();
                    // Accumulates from several iterations may target one
                    // block; affinity would then pick one owner for
                    // iterations that also read elsewhere — still sound,
                    // but only Replace guarantees a one-to-one
                    // iteration→block map worth steering for.
                    if !fully_bound || *mode != PutMode::Replace {
                        owner_conflict = true;
                        continue;
                    }
                    let dim_pos: Vec<usize> = dest
                        .indices
                        .iter()
                        .map(|i| pardo.iter().position(|p| p == i).unwrap())
                        .collect();
                    let candidate = OwnerCompute {
                        array: dest.array,
                        dim_pos,
                    };
                    match &owner {
                        None => owner = Some(candidate),
                        Some(o) if *o == candidate => {}
                        Some(_) => owner_conflict = true,
                    }
                }
                _ => {}
            }
        }
        if owner_conflict {
            owner = None;
        }
        RegionPlan {
            pc,
            indices: pardo.to_vec(),
            broadcast,
            owner,
        }
    }

    /// Predicts per-rank fabric bytes, plus the aggregate summary for the
    /// scaling model.
    ///
    /// The model is deliberately simple: aligned puts are local (zero
    /// fabric bytes); each broadcast block reaches every worker once,
    /// point-to-point, so its outbound side is concentrated at the home;
    /// everything else is spread uniformly with a (W−1)/W remote fraction.
    fn predict(&self, regions: &BTreeMap<u32, RegionPlan>) -> (CommVolume, PlanSummary) {
        let workers = self.layout.topology.workers;
        let mut vol = CommVolume::new(workers);
        let mut sum = PlanSummary::default();
        if workers == 0 {
            return (vol, sum);
        }
        let w = workers as f64;
        let remote = (w - 1.0) / w;

        for phase in &self.trace.phases {
            let (pc, iterations, per_iter) = match phase {
                TracePhase::Pardo {
                    pc,
                    iterations,
                    per_iter,
                } => (Some(*pc), *iterations, *per_iter),
                TracePhase::Serial(p) => (None, 1, *p),
                _ => continue,
            };
            let region = pc.and_then(|pc| regions.get(&pc));

            // Broadcast operands: each distinct block reaches every worker
            // once (the cache holds it across iterations). Dense bytes and
            // the sparse discount are tracked separately so the subtraction
            // from the trace's dense totals below stays exact.
            let mut bcast_get_bytes_per_iter = 0u64;
            let mut bcast_get_discount_per_iter = 0u64;
            if let Some(r) = region {
                for b in &r.broadcast {
                    let eff = self.effective_bytes(b.array, b.block_bytes);
                    bcast_get_bytes_per_iter += b.block_bytes;
                    bcast_get_discount_per_iter += b.block_bytes - eff;
                    sum.broadcast_blocks += b.blocks;
                    sum.broadcast_bytes += b.blocks * eff;
                    self.spread_broadcast(&mut vol, b);
                }
            }

            // Aligned puts: local under owner-compute, no traffic.
            let mut aligned_put_bytes_per_iter = 0u64;
            let mut aligned_put_discount_per_iter = 0u64;
            if let Some(OwnerCompute { array, .. }) = region.and_then(|r| r.owner.as_ref()) {
                let bytes = self.layout.block_bytes(*array);
                let eff = self.effective_bytes(*array, bytes);
                aligned_put_bytes_per_iter = bytes;
                aligned_put_discount_per_iter = bytes - eff;
                let blocks = self.layout.total_blocks(*array);
                sum.aligned_put_bytes += blocks * eff;
            }

            // Everything else from the trace, uniformly spread. Bytes are
            // totals over all iterations; broadcast/aligned components use
            // the cache-aware models above instead. The trace's sparse
            // discounts (density hints) come off each class, minus the
            // share already excluded with the broadcast/aligned bytes.
            let get_discount = per_iter
                .get_discount_bytes
                .saturating_sub(bcast_get_discount_per_iter);
            let put_discount = per_iter
                .put_discount_bytes
                .saturating_sub(aligned_put_discount_per_iter);
            let other_get = (iterations * per_iter.get_bytes)
                .saturating_sub(iterations * bcast_get_bytes_per_iter)
                .saturating_sub(iterations * get_discount);
            let other_put = (iterations * per_iter.put_bytes)
                .saturating_sub(iterations * aligned_put_bytes_per_iter)
                .saturating_sub(iterations * put_discount);
            let served = (iterations * (per_iter.request_bytes + per_iter.prepare_bytes))
                .saturating_sub(
                    iterations
                        * (per_iter.request_discount_bytes + per_iter.prepare_discount_bytes),
                );
            let other = (other_get + other_put + served) as f64;
            sum.other_bytes += other.round() as u64;
            // in + out for each transferred byte, remote fraction (W−1)/W.
            let per_rank = other * remote * 2.0 / w;
            for v in vol.per_rank.iter_mut() {
                *v += per_rank;
            }
        }
        (vol, sum)
    }

    /// Charges one broadcast operand's traffic to the volume table.
    fn spread_broadcast(&self, vol: &mut CommVolume, b: &BroadcastOp) {
        let workers = self.layout.topology.workers;
        let w = workers as f64;
        let eff_bytes = self.effective_bytes(b.array, b.block_bytes);
        let cost = b.blocks * workers as u64;
        if cost > ENUMERATION_LIMIT {
            // Uniform fallback: every rank receives each block once;
            // outbound averages out across homes in aggregate.
            let per_rank = b.blocks as f64 * eff_bytes as f64 * (2.0 * (w - 1.0) / w);
            for v in vol.per_rank.iter_mut() {
                *v += per_rank;
            }
            return;
        }
        let ranges: Vec<(i64, i64)> = b.indices.iter().map(|&i| self.layout.range(i)).collect();
        let mut segs: Vec<i64> = ranges.iter().map(|r| r.0).collect();
        loop {
            let key = BlockKey::new(b.array, &segs);
            let home = self.layout.slot_of_distributed(&key);
            let bytes = eff_bytes as f64;
            // Every rank but the home receives the block once.
            for (i, v) in vol.per_rank.iter_mut().enumerate() {
                if i != home {
                    *v += bytes;
                }
            }
            // The home answers W−1 GETs itself.
            vol.per_rank[home] += bytes * (w - 1.0);
            // Advance the odometer.
            let mut d = segs.len();
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                segs[d] += 1;
                if segs[d] <= ranges[d].1 {
                    break;
                }
                segs[d] = ranges[d].0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{SegmentConfig, Topology};
    use crate::trace::{default_cost_model, generate};
    use sia_bytecode::ConstBindings;
    use std::sync::Arc;

    fn plan_of(src: &str, n: i64) -> (Arc<Layout>, CommPlan) {
        let program = sial_frontend::compile(src).unwrap();
        let mut b = ConstBindings::new();
        b.insert("n".into(), n);
        b.insert("nocc".into(), 2);
        let topo = Topology::new(3, 1);
        let layout = Arc::new(
            Layout::new(
                Arc::new(program),
                &b,
                SegmentConfig {
                    default: 4,
                    ..Default::default()
                },
                topo,
            )
            .unwrap(),
        );
        let trace = generate(&layout, &default_cost_model()).unwrap();
        let plan = CommPlanner::new(&layout, &trace).plan();
        (layout, plan)
    }

    const BCAST: &str = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed F(M)\ndistributed R(M,N)\ntemp f(M)\ntemp q(M,N)\npardo M, N\nget F(M)\nf(M) = F(M)\nq(M,N) = 0.0\nput R(M,N) = q(M,N)\nendpardo\nendsial\n";

    #[test]
    fn broadcast_operand_detected() {
        let (_, plan) = plan_of(BCAST, 4);
        let region = plan.regions.values().next().unwrap();
        assert_eq!(region.broadcast.len(), 1, "{region:?}");
        let b = &region.broadcast[0];
        assert_eq!(b.blocks, 4);
        assert!(b.block_bytes > 0);
    }

    #[test]
    fn fully_bound_get_is_not_broadcast() {
        // R is read with all pardo indices — each iteration gets its own
        // block, nothing shared.
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M,N)\ntemp q(M,N)\npardo M, N\nget R(M,N)\nq(M,N) = R(M,N)\nendpardo\nendsial\n";
        let (_, plan) = plan_of(src, 4);
        let region = plan.regions.values().next().unwrap();
        assert!(region.broadcast.is_empty());
    }

    #[test]
    fn written_array_never_broadcast() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed F(M)\ntemp q(M)\npardo M, N\nget F(M)\nq(M) = F(M)\nput F(M) = q(M)\nendpardo\nendsial\n";
        // F is both read and written in the body — its blocks change under
        // the readers, so it must not classify as broadcast.
        let (_, plan) = plan_of(src, 4);
        let region = plan.regions.values().next().unwrap();
        assert!(region.broadcast.is_empty());
    }

    #[test]
    fn inner_do_get_not_broadcast() {
        let src = "sial t\naoindex M = 1, n\naoindex L = 1, n\ndistributed X(M,L)\ntemp q(M,L)\npardo M\ndo L\nget X(M,L)\nq(M,L) = X(M,L)\nenddo L\nendpardo\nendsial\n";
        let (_, plan) = plan_of(src, 4);
        let region = plan.regions.values().next().unwrap();
        assert!(region.broadcast.is_empty());
    }

    #[test]
    fn owner_compute_detected_and_keys_map() {
        let (_, plan) = plan_of(BCAST, 4);
        let region = plan.regions.values().next().unwrap();
        let owner = region.owner.as_ref().expect("owner-compute");
        // pardo M, N; put R(M,N): dim 0 ← pardo pos 0, dim 1 ← pos 1.
        assert_eq!(owner.dim_pos, vec![0, 1]);
        let key = owner.key_of(&[2, 3]);
        assert_eq!(&key.segs[..2], &[2, 3]);
    }

    #[test]
    fn accumulate_put_disables_owner_compute() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M)\ntemp q(M)\npardo M, N\nq(M) = 1.0\nput R(M) += q(M)\nendpardo\nendsial\n";
        let (_, plan) = plan_of(src, 4);
        let region = plan.regions.values().next().unwrap();
        assert!(region.owner.is_none());
    }

    #[test]
    fn plan_deterministic() {
        let (_, a) = plan_of(BCAST, 4);
        let (_, b) = plan_of(BCAST, 4);
        assert_eq!(a, b);
    }

    /// Owner-compute makes the aligned `put R(M,N)` local: the program
    /// predicts the same fabric bytes as one without the put.
    #[test]
    fn aligned_puts_charge_no_volume() {
        let without_put = BCAST.replace("put R(M,N) = q(M,N)\n", "");
        let (_, with) = plan_of(BCAST, 6);
        let (_, without) = plan_of(&without_put, 6);
        assert!(with.summary.aligned_put_bytes > 0);
        assert_eq!(without.summary.aligned_put_bytes, 0);
        assert!(with.volume.total() > 0);
        assert_eq!(with.volume, without.volume);
    }

    #[test]
    fn volume_table_renders() {
        let (_, plan) = plan_of(BCAST, 4);
        let table = plan.volume_table();
        assert!(table.contains("predicted comm volume per rank:"));
        assert!(table.contains("imbalance"));
    }

    #[test]
    fn summary_classes_populated() {
        let (_, plan) = plan_of(BCAST, 4);
        assert!(plan.summary.aligned_put_bytes > 0);
        assert!(plan.summary.broadcast_bytes > 0);
        assert_eq!(plan.summary.broadcast_blocks, 4);
    }

    /// Regression (PR 9): the comm-volume table must honour
    /// `sparsity_density` hints the way the dry run's realized-footprint
    /// estimate does, instead of charging dense payloads for sparse
    /// arrays. On the screened-MP2 program (whose only distributed array
    /// is the sparse `Vd`), the predicted volume under a density hint must
    /// scale by that density and stay consistent with the realized
    /// per-block bytes the memory estimate assumes.
    #[test]
    fn sparse_density_scales_comm_volume_like_realized_estimate() {
        use crate::layout::SipConfig;
        let src = include_str!("../../../programs/mp2_screened.sial");
        let program = sial_frontend::compile(src).unwrap();
        let mut b = ConstBindings::new();
        b.insert("nocc".into(), 2);
        b.insert("nvrt".into(), 4);
        let topo = Topology::new(4, 0);
        let layout = Arc::new(
            Layout::new(
                Arc::new(program),
                &b,
                SegmentConfig {
                    default: 4,
                    ..Default::default()
                },
                topo,
            )
            .unwrap(),
        );
        let density = 0.2;
        let mut hints = BTreeMap::new();
        hints.insert("Vd".to_string(), density);

        let dense_trace = generate(&layout, &default_cost_model()).unwrap();
        let dense = CommPlanner::new(&layout, &dense_trace).plan();
        let sparse_trace =
            crate::trace::generate_with_densities(&layout, &default_cost_model(), &hints).unwrap();
        let sparse = CommPlanner::with_densities(&layout, &sparse_trace, &hints).plan();

        assert!(dense.volume.total() > 0, "dense plan predicts traffic");
        let ratio = sparse.volume.total() as f64 / dense.volume.total() as f64;
        assert!(
            (ratio - density).abs() < 0.01,
            "predicted volume must scale by the density hint: ratio {ratio}, density {density}"
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
        let planner = CommPlanner::with_densities(&layout, &sparse_trace, &hints);
        assert_eq!(
            planner.effective_bytes(vd, dense_block),
            (dense_block as f64 * density).round() as u64,
            "planner and dry run must share the realized per-block bytes"
        );
    }
}
