//! The communication planner (DESIGN.md §17).
//!
//! Distributed blocks live in per-array slabs of block ordinals
//! ([`Layout::slot_of_distributed`]). The planner walks the bytecode once,
//! and for every pardo region classifies each distributed-array reference
//! as
//!
//! * **aligned** — the region's owner-compute anchor, which the layout
//!   decides per pardo: a `put` whose indices are all pardo-bound, or, in
//!   a region that puts no distributed array, the first `get` whose
//!   indices are a full pardo-bound key. With the master's owner-compute
//!   chunk affinity the access lands on the rank that already homes the
//!   block (no fabric traffic at all);
//! * **broadcast-shaped** — a `get` whose indices are all pardo-bound but
//!   form a *strict subset* of the pardo indices, so many iterations (on
//!   many ranks) read the same block, each rank fetching it once;
//! * **other** — everything else (e.g. a `get` driven by an inner `do`
//!   loop index), spread uniformly over the ranks.
//!
//! The classification is purely static and deterministic: it depends only
//! on the program, the resolved index ranges, and the topology — never on
//! execution order. From it and the dry-run trace the planner predicts a
//! per-rank communication-volume table (`sial dryrun` prints it; metrics
//! compare it against the measured volume). Nothing of the plan reaches
//! the master or the workers.

use crate::layout::{Anchor, Layout};
use crate::msg::BlockKey;
use crate::trace::{Trace, TracePhase};
use sia_bytecode::{ArrayId, ArrayKind, IndexId, Instruction as I};
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

/// The plan for one pardo region, keyed by the `PardoStart` pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Pc of the `PardoStart`.
    pub pc: u32,
    /// The pardo's index variables, in program order.
    pub indices: Vec<IndexId>,
    /// Operands read by whole groups of iterations.
    pub broadcast: Vec<BroadcastOp>,
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

/// The whole-program communication plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommPlan {
    /// Per-pardo-region plans, keyed by `PardoStart` pc.
    pub regions: BTreeMap<u32, RegionPlan>,
    /// Predicted per-rank fabric volume.
    pub volume: CommVolume,
}

impl CommPlan {
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
        let volume = self.predict(&regions);
        CommPlan { regions, volume }
    }

    /// Classifies one pardo body's reads.
    fn plan_region(&self, pc: u32, pardo: &[IndexId], end_pc: u32) -> RegionPlan {
        let code = &self.layout.program.code;
        let body = &code[(pc as usize + 1)..(end_pc as usize)];

        // Arrays written anywhere in the body are never broadcast: their
        // blocks change under the readers.
        let written: Vec<ArrayId> = (body.iter())
            .filter_map(|ins| match ins {
                I::Put { dest, .. } => Some(dest.array),
                _ => None,
            })
            .collect();
        // Each iteration runs where its get anchor's block lives, so that
        // read is local, not broadcast.
        let owner = self.layout.pardo(pc).and_then(|f| f.owner.as_ref());
        let mut broadcast: Vec<BroadcastOp> = Vec::new();
        for ins in body {
            let I::Get { block } = ins else {
                continue;
            };
            if self.layout.array_kind(block.array) != ArrayKind::Distributed
                || written.contains(&block.array)
                || owner.is_some_and(|o| o.is_read_by(block.array, &block.indices, pardo))
            {
                continue;
            }
            let all_bound = block.indices.iter().all(|i| pardo.contains(i));
            // Strict subset: at least one pardo index does not address the
            // operand, so whole groups of iterations share each block.
            let strict = pardo.iter().any(|i| !block.indices.contains(i));
            if !all_bound
                || !strict
                || (broadcast.iter()).any(|b| b.array == block.array && b.indices == block.indices)
            {
                continue;
            }
            let blocks = (block.indices.iter())
                .map(|&i| self.layout.range_len(i))
                .fold(1, u64::saturating_mul);
            broadcast.push(BroadcastOp {
                array: block.array,
                indices: block.indices.clone(),
                blocks,
                block_bytes: self.layout.block_bytes(block.array),
            });
        }
        RegionPlan {
            pc,
            indices: pardo.to_vec(),
            broadcast,
        }
    }

    /// Predicts per-rank fabric bytes.
    ///
    /// The model is deliberately simple: the anchor's access — an aligned
    /// put, or a read-only region's aligned get — is local (zero fabric
    /// bytes); each broadcast block reaches every worker once,
    /// point-to-point, so its outbound side is concentrated at the home;
    /// everything else is spread uniformly with a (W−1)/W remote fraction.
    fn predict(&self, regions: &BTreeMap<u32, RegionPlan>) -> CommVolume {
        let workers = self.layout.topology.workers;
        let mut vol = CommVolume::new(workers);
        if workers == 0 {
            return vol;
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
                    self.spread_broadcast(&mut vol, b);
                }
            }

            // The anchor's access: local under owner-compute, no traffic.
            let (mut aligned_get, mut aligned_put) = ((0u64, 0u64), (0u64, 0u64));
            let owner = pc.and_then(|pc| self.layout.pardo(pc)?.owner.as_ref());
            if let Some(owner) = owner {
                let bytes = self.layout.block_bytes(owner.array);
                let discount = bytes - self.effective_bytes(owner.array, bytes);
                match owner.anchor {
                    Anchor::Get => aligned_get = (bytes, discount),
                    Anchor::Put => aligned_put = (bytes, discount),
                }
            }

            // Everything else from the trace, uniformly spread. Bytes are
            // totals over all iterations; broadcast/aligned components use
            // the cache-aware models above instead. The trace's sparse
            // discounts (density hints) come off each class, minus the
            // share already excluded with the broadcast/aligned bytes.
            let get_discount = per_iter
                .get_discount_bytes
                .saturating_sub(bcast_get_discount_per_iter + aligned_get.1);
            let put_discount = per_iter.put_discount_bytes.saturating_sub(aligned_put.1);
            let other_get = (per_iter.get_bytes)
                .saturating_sub(bcast_get_bytes_per_iter + aligned_get.0)
                .saturating_sub(get_discount);
            let other_put = (per_iter.put_bytes)
                .saturating_sub(aligned_put.0)
                .saturating_sub(put_discount);
            let served = (per_iter.request_bytes + per_iter.prepare_bytes)
                .saturating_sub(per_iter.request_discount_bytes + per_iter.prepare_discount_bytes);
            // Over all iterations, in `f64`: a space of up to 2^64
            // iterations must not overflow the product.
            let other = iterations as f64 * (other_get + other_put + served) as f64;
            // in + out for each transferred byte, remote fraction (W−1)/W.
            let per_rank = other * remote * 2.0 / w;
            for v in vol.per_rank.iter_mut() {
                *v += per_rank;
            }
        }
        vol
    }

    /// Charges one broadcast operand's traffic to the volume table.
    fn spread_broadcast(&self, vol: &mut CommVolume, b: &BroadcastOp) {
        let workers = self.layout.topology.workers;
        let w = workers as f64;
        let eff_bytes = self.effective_bytes(b.array, b.block_bytes);
        let cost = b.blocks.saturating_mul(workers as u64);
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
    use crate::layout::{OwnerCompute, SegmentConfig, Topology};
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

    /// The owner-compute anchor the layout decided for the program's first
    /// pardo.
    fn owner_of(layout: &Layout) -> Option<&OwnerCompute> {
        let pardo = (0..layout.program.code.len() as u32).find_map(|pc| layout.pardo(pc));
        pardo?.owner.as_ref()
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
        let (layout, _) = plan_of(BCAST, 4);
        let owner = owner_of(&layout).expect("owner-compute");
        // pardo M, N; put R(M,N): dim 0 ← pardo pos 0, dim 1 ← pos 1.
        assert_eq!(owner.dim_pos, vec![0, 1]);
        let key = owner.key_of(&[2, 3]);
        assert_eq!(&key.segs[..2], &[2, 3]);
    }

    /// A read-only region anchors on its aligned get, whose reads are then
    /// local: the program predicts the same fabric bytes as one that does
    /// not read `R` at all.
    #[test]
    fn read_only_region_anchors_on_its_aligned_get() {
        let reads = "sial t\naoindex M = 1, n\naoindex N = 1, n\naoindex L = 1, n\ndistributed R(M,N)\ndistributed X(M,L)\ntemp q(M,N)\ntemp x(M,L)\npardo M, N\nget R(M,N)\nq(M,N) = R(M,N)\ndo L\nget X(M,L)\nx(M,L) = X(M,L)\nenddo L\nendpardo\nendsial\n";
        let (layout, with) = plan_of(reads, 6);
        let region = with.regions.values().next().unwrap();
        let owner = owner_of(&layout).expect("a get anchor");
        assert_eq!(
            (owner.anchor, &owner.dim_pos[..]),
            (Anchor::Get, &[0, 1][..])
        );
        assert!(region.broadcast.is_empty());
        assert!(with.volume.total() > 0, "the do-loop get still ships");
        let without = reads.replace("get R(M,N)\nq(M,N) = R(M,N)\n", "");
        let (_, without) = plan_of(&without, 6);
        assert_eq!(with.volume, without.volume);
        // Alone, the aligned get predicts no traffic at all.
        let alone = reads.replace("get X(M,L)\nx(M,L) = X(M,L)\n", "");
        assert_eq!(plan_of(&alone, 6).1.volume.total(), 0);
    }

    #[test]
    fn transposed_get_anchor_permutes_dim_pos() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M,N)\ntemp q(N,M)\npardo M, N\nget R(N,M)\nq(N,M) = R(N,M)\nendpardo\nendsial\n";
        let (layout, _) = plan_of(src, 4);
        let owner = owner_of(&layout).expect("a get anchor");
        assert_eq!(
            (owner.anchor, &owner.dim_pos[..]),
            (Anchor::Get, &[1, 0][..])
        );
        assert_eq!(&owner.key_of(&[2, 3]).segs[..2], &[3, 2]);
    }

    /// A region that puts keeps its put anchor, whatever it reads first.
    #[test]
    fn put_region_keeps_its_put_anchor() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed A(M,N)\ndistributed R(M,N)\ntemp q(N,M)\npardo M, N\nget A(M,N)\nq(N,M) = A(M,N)\nput R(N,M) = q(N,M)\nendpardo\nendsial\n";
        let (layout, _) = plan_of(src, 4);
        let owner = owner_of(&layout).expect("a put anchor");
        let r = layout.program.array_by_name("R").unwrap();
        assert_eq!(
            (owner.array, owner.anchor, &owner.dim_pos[..]),
            (r, Anchor::Put, &[1, 0][..])
        );
        // An accumulating put still leaves the region without an owner,
        // even though it reads a full key.
        let (acc, _) = plan_of(&src.replace("put R(N,M) =", "put R(N,M) +="), 4);
        assert!(owner_of(&acc).is_none());
    }

    #[test]
    fn accumulate_put_disables_owner_compute() {
        let src = "sial t\naoindex M = 1, n\naoindex N = 1, n\ndistributed R(M)\ntemp q(M)\npardo M, N\nq(M) = 1.0\nput R(M) += q(M)\nendpardo\nendsial\n";
        let (layout, _) = plan_of(src, 4);
        assert!(owner_of(&layout).is_none());
    }

    #[test]
    fn plan_deterministic() {
        let (_, a) = plan_of(BCAST, 4);
        let (_, b) = plan_of(BCAST, 4);
        assert_eq!(a, b);
    }

    /// Owner-compute makes the aligned `put R(M,N)` local: the program
    /// predicts only its broadcast operand's fabric bytes. (Without the put
    /// the region would anchor on `get F(M)` instead.)
    #[test]
    fn aligned_puts_charge_no_volume() {
        let (layout, with) = plan_of(BCAST, 6);
        let region = with.regions.values().next().unwrap();
        assert_eq!(owner_of(&layout).map(|o| o.anchor), Some(Anchor::Put));
        assert!(with.volume.total() > 0);
        let trace = generate(&layout, &default_cost_model()).unwrap();
        let mut broadcast_only = CommVolume::new(layout.topology.workers);
        CommPlanner::new(&layout, &trace)
            .spread_broadcast(&mut broadcast_only, &region.broadcast[0]);
        assert_eq!(with.volume, broadcast_only);
    }

    #[test]
    fn volume_table_renders() {
        let (_, plan) = plan_of(BCAST, 4);
        let table = plan.volume_table();
        assert!(table.contains("predicted comm volume per rank:"));
        assert!(table.contains("imbalance"));
    }

    /// Regression (PR 9): the comm-volume table must honour
    /// `sparsity_density` hints the way the dry run's realized-footprint
    /// estimate does, instead of charging dense payloads for sparse
    /// arrays. On the screened-MP2 program (whose only distributed array
    /// is the sparse `Vd`), the predicted volume under a density hint must
    /// scale by that density and stay consistent with the realized
    /// per-block bytes the memory estimate assumes. Both of the program's
    /// sweeps are aligned (the put sweep and the read-only `get Vd` sweep
    /// anchor on `Vd` itself) and predict no traffic, so the energy sweep
    /// here also reads `Vd(k,a,j,b)` in a `do k` loop: that read is what
    /// ships.
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
