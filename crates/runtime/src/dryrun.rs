//! The dry run: memory-feasibility analysis before the real run.
//!
//! "The master inspects the SIAL program in 'dry-run' mode … an estimate of
//! the memory requirements for each worker given the number of processors …
//! the sizes of the arrays, and the distributed data layout. This feature
//! allows the user to avoid wasting valuable supercomputing resources on an
//! infeasible computation. … If the computation is not feasible with the
//! available memory, this is reported to the user along with the number of
//! processors that would be sufficient." (§V-B)

use crate::layout::{Layout, SipConfig};
use sia_bytecode::ArrayKind;

/// Approximate heap bytes one norm-table entry costs a sparse home (key +
/// `f64` norm + hash-map overhead). Shared with the runtime's accounting in
/// [`crate::memory::BlockManager::norm_table_bytes`] so the prediction and
/// the measurement use the same per-entry constant.
pub const NORM_TABLE_ENTRY_BYTES: u64 = 48;

/// The dry run's memory estimate.
///
/// For sparse arrays the headline `per_worker_bytes` is the **realized**
/// footprint: blocks expected to carry data cost full payload, blocks
/// expected to be dropped cost one norm-table entry. The expectation comes
/// from [`SipConfig::sparsity_density`] hints (`array name → fraction of
/// blocks realized`); arrays without a hint are estimated dense, so the
/// estimate only tightens when the user asserts something.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Upper-bound bytes resident on one worker (realized footprint).
    pub per_worker_bytes: u64,
    /// The same bound with every sparse block materialized (what a dense
    /// run of the identical program would need). Equal to
    /// `per_worker_bytes` when no sparse array has a density hint.
    pub dense_per_worker_bytes: u64,
    /// Upper-bound bytes resident on one I/O server: the serve cache plus
    /// the norm table of any sparse served array (disk is assumed
    /// unbounded, as in the original, but norm tables live in memory).
    pub per_server_bytes: u64,
    /// Per-array per-worker contributions `(array name, realized bytes)`.
    pub breakdown: Vec<(String, u64)>,
    /// Size of the largest single block (drives cache sizing).
    pub largest_block_bytes: u64,
    /// Bytes attributed to the block cache.
    pub cache_bytes: u64,
}

impl MemoryEstimate {
    /// Does the estimate fit a per-worker budget? A saturated estimate
    /// (more bytes than a `u64` counts) fits none.
    pub fn feasible(&self, budget: u64) -> bool {
        self.per_worker_bytes <= budget && self.per_worker_bytes < u64::MAX
    }
}

/// Estimates per-worker memory for the layout's worker count.
pub fn estimate(layout: &Layout, config: &SipConfig) -> MemoryEstimate {
    per_worker(layout, config, layout.topology.workers as u64)
}

fn per_worker(layout: &Layout, config: &SipConfig, workers: u64) -> MemoryEstimate {
    let workers = workers.max(1);
    let servers = (layout.topology.io_servers as u64).max(1);
    let mut breakdown = Vec::new();
    let mut total: u64 = 0;
    let mut dense_total: u64 = 0;
    let mut largest: u64 = 0;
    let mut server_norm_bytes: u64 = 0;

    // Fraction of blocks expected to carry data. Only sparse arrays with an
    // explicit hint tighten the estimate; everything else is the
    // conservative dense bound.
    let densities = crate::trace::array_densities(layout, &config.sparsity_density);
    for (i, (decl, &density)) in layout.program.arrays.iter().zip(&densities).enumerate() {
        let id = sia_bytecode::ArrayId(i as u32);
        let bb = layout.block_bytes(id);
        largest = largest.max(bb);
        let blocks = layout.total_blocks(id);
        // Blocks homed on (or replicated to) one worker.
        let home_blocks = match decl.kind {
            // Distributed blocks spread evenly under the static placement.
            ArrayKind::Distributed => blocks.div_ceil(workers),
            // Served blocks live on the servers; workers only cache them.
            ArrayKind::Served => 0,
            // Static arrays are fully replicated.
            ArrayKind::Static => blocks,
            // Local arrays: upper bound is the full block set (the paper's
            // locals are "fully formed in at least one dimension"; we bound
            // by the whole array, which is what the original's conservative
            // dry run reports too).
            ArrayKind::Local => blocks,
            // One live block per temp.
            ArrayKind::Temp => 1,
        };
        // Counts past `u64` saturate (a daemon's socket may bring any
        // binding), and the saturated estimate fits no budget.
        let dense_bytes = home_blocks.saturating_mul(bb);
        // Realized: payload for the expected-live blocks, a norm-table
        // entry for each expected-dropped block.
        let live = ((home_blocks as f64) * density).ceil() as u64;
        let live = live.min(home_blocks);
        let bytes = (live.saturating_mul(bb))
            .saturating_add((home_blocks - live).saturating_mul(NORM_TABLE_ENTRY_BYTES));
        // A sparse served array's dropped blocks cost its home — the I/O
        // server — a norm-table entry each (disk holds the live payloads).
        if decl.kind == ArrayKind::Served && decl.sparse {
            let server_blocks = blocks.div_ceil(servers);
            let server_live = (((server_blocks as f64) * density).ceil() as u64).min(server_blocks);
            server_norm_bytes = server_norm_bytes.saturating_add(
                (server_blocks - server_live).saturating_mul(NORM_TABLE_ENTRY_BYTES),
            );
        }
        if bytes > 0 {
            breakdown.push((decl.name.clone(), bytes));
        }
        total = total.saturating_add(bytes);
        dense_total = dense_total.saturating_add(dense_bytes);
    }
    // The same sizing the worker's BlockManager uses at runtime, so the
    // prediction and the enforced ceiling are in the same units. The cache
    // sizes may come off a daemon's socket: an absurd one saturates, and
    // admission refuses it as over budget.
    let cache = cache_bytes(config.cache_blocks, layout.largest_remote_block_bytes());
    MemoryEstimate {
        per_worker_bytes: total.saturating_add(cache),
        dense_per_worker_bytes: dense_total.saturating_add(cache),
        per_server_bytes: cache_bytes(config.server_cache_blocks, largest)
            .saturating_add(server_norm_bytes),
        breakdown,
        largest_block_bytes: largest,
        cache_bytes: cache,
    }
}

/// The bytes of a cache of `blocks` blocks of `block_bytes` each,
/// saturating.
pub(crate) fn cache_bytes(blocks: usize, block_bytes: u64) -> u64 {
    (blocks as u64).saturating_mul(block_bytes)
}

/// The smallest worker count whose per-worker estimate fits `budget`
/// (`None` when even "infinitely many" workers cannot fit — the
/// non-distributed residue alone exceeds the budget).
pub fn sufficient_workers(layout: &Layout, config: &SipConfig, budget: u64) -> Option<usize> {
    // Fixed part: everything that does not shrink with more workers.
    let many = per_worker(layout, config, u64::MAX / 2);
    if !many.feasible(budget) {
        return None;
    }
    // Binary search the worker count (estimate is monotone nonincreasing).
    let (mut lo, mut hi) = (1u64, 1u64 << 32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if per_worker(layout, config, mid).feasible(budget) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{SegmentConfig, Topology};
    use sia_bytecode::{ArrayDecl, ConstBindings, IndexDecl, IndexId, IndexKind, Program, Value};
    use std::sync::Arc;

    fn layout(workers: usize, arrays: Vec<ArrayDecl>) -> Layout {
        let program = Program {
            indices: vec![IndexDecl {
                name: "i".into(),
                kind: IndexKind::AoIndex,
                low: Value::Lit(1),
                high: Value::Lit(10),
            }],
            arrays,
            ..Default::default()
        };
        Layout::new(
            Arc::new(program),
            &ConstBindings::new(),
            SegmentConfig {
                default: 8,
                ..Default::default()
            },
            Topology::new(workers, 1),
        )
        .unwrap()
    }

    fn arr(name: &str, kind: ArrayKind, rank: usize) -> ArrayDecl {
        ArrayDecl {
            name: name.into(),
            kind,
            dims: vec![IndexId(0); rank],
            sparse: false,
        }
    }

    fn config(cache_blocks: usize) -> SipConfig {
        SipConfig {
            cache_blocks,
            server_cache_blocks: 4,
            ..SipConfig::default()
        }
    }

    #[test]
    fn distributed_scales_with_workers() {
        // 100 blocks of 8x8 doubles = 512 B each.
        let arrays = vec![arr("D", ArrayKind::Distributed, 2)];
        let e1 = per_worker(&layout(1, arrays.clone()), &config(0), 1);
        let e4 = per_worker(&layout(4, arrays), &config(0), 4);
        assert_eq!(e1.per_worker_bytes, 100 * 512);
        assert_eq!(e4.per_worker_bytes, 25 * 512);
    }

    #[test]
    fn static_replicated_temp_single() {
        let arrays = vec![arr("S", ArrayKind::Static, 2), arr("T", ArrayKind::Temp, 2)];
        let e = per_worker(&layout(4, arrays), &config(0), 4);
        assert_eq!(e.per_worker_bytes, 100 * 512 + 512);
    }

    #[test]
    fn served_costs_cache_only() {
        let arrays = vec![arr("V", ArrayKind::Served, 2)];
        let e = per_worker(&layout(2, arrays), &config(3), 2);
        assert_eq!(e.per_worker_bytes, 3 * 512);
        assert_eq!(e.cache_bytes, 3 * 512);
        assert_eq!(e.per_server_bytes, 4 * 512);
    }

    fn sparse_arr(name: &str, kind: ArrayKind, rank: usize) -> ArrayDecl {
        ArrayDecl {
            sparse: true,
            ..arr(name, kind, rank)
        }
    }

    #[test]
    fn sparse_without_hint_estimates_dense() {
        let dense = estimate(
            &layout(1, vec![arr("D", ArrayKind::Distributed, 2)]),
            &config(0),
        );
        let sparse = estimate(
            &layout(1, vec![sparse_arr("D", ArrayKind::Distributed, 2)]),
            &config(0),
        );
        assert_eq!(sparse.per_worker_bytes, dense.per_worker_bytes);
        assert_eq!(sparse.dense_per_worker_bytes, sparse.per_worker_bytes);
    }

    #[test]
    fn density_hint_tightens_realized_estimate() {
        // 100 blocks × 512 B dense; at 25% density, 25 blocks carry payload
        // and 75 cost a norm-table entry each.
        let mut c = config(0);
        c.sparsity_density.insert("D".into(), 0.25);
        let e = estimate(
            &layout(1, vec![sparse_arr("D", ArrayKind::Distributed, 2)]),
            &c,
        );
        assert_eq!(e.dense_per_worker_bytes, 100 * 512);
        assert_eq!(
            e.per_worker_bytes,
            25 * 512 + 75 * NORM_TABLE_ENTRY_BYTES,
            "realized = live payloads + norm-table entries"
        );
        assert!(e.per_worker_bytes < e.dense_per_worker_bytes);
        // Density hints on a *dense* array are ignored.
        let dense = estimate(&layout(1, vec![arr("D", ArrayKind::Distributed, 2)]), &c);
        assert_eq!(dense.per_worker_bytes, 100 * 512);
    }

    #[test]
    fn served_sparse_charges_server_norm_table() {
        // Regression: served arrays used to cost 0 everywhere, silently
        // undercounting the home-side norm table of a sparse served array.
        let mut c = config(3);
        c.sparsity_density.insert("V".into(), 0.5);
        let e = estimate(&layout(2, vec![sparse_arr("V", ArrayKind::Served, 2)]), &c);
        // Workers still pay cache only …
        assert_eq!(e.per_worker_bytes, 3 * 512);
        // … but the single server now carries 50 norm-table entries on top
        // of its serve cache.
        assert_eq!(e.per_server_bytes, 4 * 512 + 50 * NORM_TABLE_ENTRY_BYTES);
        // Dense served arrays are unchanged (disk-backed, cache only).
        let d = estimate(&layout(2, vec![arr("V", ArrayKind::Served, 2)]), &c);
        assert_eq!(d.per_server_bytes, 4 * 512);
    }

    #[test]
    fn sufficient_workers_found() {
        let arrays = vec![arr("D", ArrayKind::Distributed, 2)];
        let l = layout(1, arrays);
        let c = config(0);
        // 100 blocks × 512 B; a 13-block budget needs ⌈100/12.?⌉…: find W
        // with ceil(100/W)*512 ≤ 13*512 → ceil(100/W) ≤ 13 → W = 8.
        let w = sufficient_workers(&l, &c, 13 * 512).unwrap();
        assert_eq!(w, 8);
        assert!(
            estimate(&layout(8, vec![arr("D", ArrayKind::Distributed, 2)]), &c).feasible(13 * 512)
        );
    }

    #[test]
    fn infeasible_at_any_scale() {
        // Static array never shrinks.
        let arrays = vec![arr("S", ArrayKind::Static, 2)];
        let l = layout(1, arrays);
        assert_eq!(sufficient_workers(&l, &config(0), 100), None);
    }

    #[test]
    fn breakdown_names_arrays() {
        let arrays = vec![
            arr("D", ArrayKind::Distributed, 2),
            arr("T", ArrayKind::Temp, 1),
        ];
        let e = estimate(&layout(2, arrays), &config(0));
        let names: Vec<&str> = e.breakdown.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["D", "T"]);
        assert_eq!(e.largest_block_bytes, 512);
    }
}
