//! Pardo iteration enumeration and guided chunk scheduling.
//!
//! The master "divides [the iterations] into 'chunks' and doles them out …
//! When a worker completes its chunk, it requests another chunk from the
//! master. The chunk size decreases as the computation proceeds" — the
//! guided-scheduling scheme of OpenMP. [`IterationSpace`] numbers the
//! filtered cross product of the pardo indices; [`GuidedScheduler`] hands out
//! shrinking chunks of it.

use crate::error::RuntimeError;
use sia_bytecode::{BoolExpr, IndexId, ScalarExpr};

/// Appends every index id a scalar expression mentions to `out`.
/// Shared by [`IterationSpace::enumerate`] and the static verifier, so both
/// reject the same set of malformed where clauses.
pub fn scalar_expr_indices(e: &ScalarExpr, out: &mut Vec<IndexId>) {
    match e {
        ScalarExpr::Lit(_) | ScalarExpr::Scalar(_) | ScalarExpr::Const(_) => {}
        ScalarExpr::IndexVal(id) => out.push(*id),
        ScalarExpr::Bin(_, l, r) => {
            scalar_expr_indices(l, out);
            scalar_expr_indices(r, out);
        }
        ScalarExpr::Neg(x) => scalar_expr_indices(x, out),
    }
}

/// Appends every index id a boolean expression mentions to `out`.
pub fn bool_expr_indices(e: &BoolExpr, out: &mut Vec<IndexId>) {
    match e {
        BoolExpr::Cmp(l, _, r) => {
            scalar_expr_indices(l, out);
            scalar_expr_indices(r, out);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            bool_expr_indices(a, out);
            bool_expr_indices(b, out);
        }
        BoolExpr::Not(x) => bool_expr_indices(x, out),
    }
}

/// Refuses a where clause that mentions an index the pardo does not bind
/// with [`RuntimeError::BadBytecode`]: such an index has no value, and
/// evaluating it as 0 would silently mis-filter the iteration space.
pub(crate) fn check_where_indices(
    indices: &[IndexId],
    wheres: &[BoolExpr],
) -> Result<(), RuntimeError> {
    let mut mentioned = Vec::new();
    for w in wheres {
        bool_expr_indices(w, &mut mentioned);
    }
    match mentioned.iter().find(|id| !indices.contains(id)) {
        Some(bad) => Err(RuntimeError::BadBytecode(format!(
            "where clause references index #{} which the pardo does not bind",
            bad.0
        ))),
        None => Ok(()),
    }
}

/// Evaluates a scalar expression given index values and scalar/const tables.
/// Shared by the master (where-clause filtering) and workers (interpreter).
pub fn eval_scalar(
    e: &ScalarExpr,
    index_val: &dyn Fn(IndexId) -> i64,
    scalar_val: &dyn Fn(u32) -> f64,
    const_val: &dyn Fn(u32) -> i64,
) -> f64 {
    match e {
        ScalarExpr::Lit(x) => *x,
        ScalarExpr::Scalar(id) => scalar_val(id.0),
        ScalarExpr::IndexVal(id) => index_val(*id) as f64,
        ScalarExpr::Const(id) => const_val(id.0) as f64,
        ScalarExpr::Bin(op, l, r) => op.eval(
            eval_scalar(l, index_val, scalar_val, const_val),
            eval_scalar(r, index_val, scalar_val, const_val),
        ),
        ScalarExpr::Neg(x) => -eval_scalar(x, index_val, scalar_val, const_val),
    }
}

/// Evaluates a boolean expression with the same environment hooks.
pub fn eval_bool(
    e: &BoolExpr,
    index_val: &dyn Fn(IndexId) -> i64,
    scalar_val: &dyn Fn(u32) -> f64,
    const_val: &dyn Fn(u32) -> i64,
) -> bool {
    match e {
        BoolExpr::Cmp(l, op, r) => op.eval(
            eval_scalar(l, index_val, scalar_val, const_val),
            eval_scalar(r, index_val, scalar_val, const_val),
        ),
        BoolExpr::And(a, b) => {
            eval_bool(a, index_val, scalar_val, const_val)
                && eval_bool(b, index_val, scalar_val, const_val)
        }
        BoolExpr::Or(a, b) => {
            eval_bool(a, index_val, scalar_val, const_val)
                || eval_bool(b, index_val, scalar_val, const_val)
        }
        BoolExpr::Not(x) => !eval_bool(x, index_val, scalar_val, const_val),
    }
}

/// The filtered iteration space of one pardo. An iteration travels as its
/// *ordinal*: its position in the row-major cross product of the pardo's
/// index ranges (last index fastest), which [`decode_ordinal`] turns back
/// into index values. An unfiltered space is only its count; a where clause
/// keeps the ordinals of the iterations passing it, in order.
#[derive(Debug, Clone)]
pub struct IterationSpace {
    /// Size of the cross product.
    count: u64,
    /// The surviving ordinals, when a where clause filters.
    survivors: Option<Vec<u64>>,
}

impl IterationSpace {
    /// Enumerates the space. `ranges` gives the inclusive range per pardo
    /// index (parallel to `indices`); `wheres` are evaluated with the given
    /// scalar/const environments.
    ///
    /// Fails with [`RuntimeError::BadBytecode`] when a where clause mentions
    /// an index the pardo does not bind — such an index has no value here,
    /// and the old behavior of evaluating it as 0 silently mis-filtered the
    /// iteration space — and with [`RuntimeError::BadProgram`] when the
    /// cross product has more than 2^64 iterations.
    pub fn enumerate(
        indices: &[IndexId],
        ranges: &[(i64, i64)],
        wheres: &[BoolExpr],
        scalar_val: &dyn Fn(u32) -> f64,
        const_val: &dyn Fn(u32) -> i64,
    ) -> Result<Self, RuntimeError> {
        assert_eq!(indices.len(), ranges.len());
        check_where_indices(indices, wheres)?;
        let count = if indices.is_empty() {
            0
        } else {
            ranges
                .iter()
                .try_fold(1u64, |n, &(lo, hi)| n.checked_mul((hi - lo + 1) as u64))
                .ok_or_else(|| {
                    RuntimeError::BadProgram("pardo iteration space exceeds 2^64".into())
                })?
        };
        if wheres.is_empty() {
            return Ok(IterationSpace {
                count,
                survivors: None,
            });
        }
        let mut vals = vec![0i64; indices.len()];
        let survivors = (0..count)
            .filter(|&ordinal| {
                decode_ordinal(ranges, ordinal, |d, v| vals[d] = v);
                let index_val = |id: IndexId| -> i64 {
                    let p = indices
                        .iter()
                        .position(|&x| x == id)
                        .expect("where-clause indices validated against the pardo");
                    vals[p]
                };
                wheres
                    .iter()
                    .all(|w| eval_bool(w, &index_val, scalar_val, const_val))
            })
            .collect();
        Ok(IterationSpace {
            count,
            survivors: Some(survivors),
        })
    }

    /// Number of surviving iterations.
    pub fn len(&self) -> usize {
        match &self.survivors {
            Some(s) => s.len(),
            None => self.count as usize,
        }
    }

    /// True when no iterations survive the filters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ordinal of the `i`-th surviving iteration.
    pub fn ordinal(&self, i: u64) -> u64 {
        match &self.survivors {
            Some(s) => s[i as usize],
            None => i,
        }
    }
}

/// Decodes an iteration ordinal of the cross product of `ranges` (row-major,
/// last index fastest): calls `set(d, value)` for every position `d`.
pub fn decode_ordinal(ranges: &[(i64, i64)], mut ordinal: u64, mut set: impl FnMut(usize, i64)) {
    for (d, &(lo, hi)) in ranges.iter().enumerate().rev() {
        let len = (hi - lo + 1) as u64;
        set(d, lo + (ordinal % len) as i64);
        ordinal /= len;
    }
}

/// How the master sizes pardo chunks.
///
/// The SIP uses guided scheduling ("the chunk size decreases as the
/// computation proceeds. This is similar to … guided scheduling in
/// OpenMP"). The alternative policies exist for the ablation harness
/// (`cargo run -p sia-bench --bin figures -- ablations`): fixed-size
/// chunking shows the tail-imbalance guided avoids, and single-task
/// chunking shows the master-traffic cost of maximal balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// `chunk = max(remaining / (factor·workers), 1)` — the SIP default.
    Guided {
        /// The divisor factor (2 in the original).
        factor: usize,
    },
    /// Every chunk has the same size.
    Fixed {
        /// Tasks per chunk.
        size: u64,
    },
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy::Guided { factor: 2 }
    }
}

/// Chunk scheduler over a number of tasks, parameterized by [`ChunkPolicy`].
#[derive(Debug)]
pub struct GuidedScheduler {
    total: u64,
    next: u64,
    workers: usize,
    policy: ChunkPolicy,
}

impl GuidedScheduler {
    /// Creates a guided scheduler over `total` tasks for `workers` workers
    /// (the SIP default policy).
    pub fn new(total: u64, workers: usize, factor: usize) -> Self {
        Self::with_policy(
            total,
            workers,
            ChunkPolicy::Guided {
                factor: factor.max(1),
            },
        )
    }

    /// Creates a scheduler with an explicit policy.
    pub fn with_policy(total: u64, workers: usize, policy: ChunkPolicy) -> Self {
        GuidedScheduler {
            total,
            next: 0,
            workers: workers.max(1),
            policy,
        }
    }

    /// The next chunk as a range of flattened task ids, or `None` when the
    /// space is exhausted.
    pub fn next_chunk(&mut self) -> Option<std::ops::Range<u64>> {
        if self.next >= self.total {
            return None;
        }
        let remaining = self.total - self.next;
        let size = match self.policy {
            ChunkPolicy::Guided { factor } => {
                (remaining / (factor.max(1) as u64 * self.workers as u64)).max(1)
            }
            ChunkPolicy::Fixed { size } => size.max(1),
        };
        let start = self.next;
        self.next += size.min(remaining);
        Some(start..self.next)
    }

    /// Remaining unassigned tasks.
    pub fn remaining(&self) -> u64 {
        self.total - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_bytecode::{CmpOp, ScalarExpr as SE};

    fn no_scalars(_: u32) -> f64 {
        0.0
    }
    fn no_consts(_: u32) -> i64 {
        0
    }

    #[test]
    fn full_cross_product() {
        let sp = IterationSpace::enumerate(
            &[IndexId(0), IndexId(1)],
            &[(1, 3), (1, 2)],
            &[],
            &no_scalars,
            &no_consts,
        )
        .unwrap();
        assert_eq!(sp.len(), 6);
        assert_eq!(values(&sp, &[(1, 3), (1, 2)], 0), vec![1, 1]);
        assert_eq!(values(&sp, &[(1, 3), (1, 2)], 1), vec![1, 2]); // last index fastest
        assert_eq!(values(&sp, &[(1, 3), (1, 2)], 5), vec![3, 2]);
    }

    /// The index values of the `i`-th surviving iteration.
    fn values(sp: &IterationSpace, ranges: &[(i64, i64)], i: u64) -> Vec<i64> {
        let mut vals = vec![0; ranges.len()];
        decode_ordinal(ranges, sp.ordinal(i), |d, v| vals[d] = v);
        vals
    }

    #[test]
    fn where_filters_triangle() {
        // where i < j over 1..4 x 1..4 → 6 iterations.
        let w = BoolExpr::Cmp(
            SE::IndexVal(IndexId(0)),
            CmpOp::Lt,
            SE::IndexVal(IndexId(1)),
        );
        let sp = IterationSpace::enumerate(
            &[IndexId(0), IndexId(1)],
            &[(1, 4), (1, 4)],
            &[w],
            &no_scalars,
            &no_consts,
        )
        .unwrap();
        assert_eq!(sp.len(), 6);
        assert!((0..6).all(|i| {
            let v = values(&sp, &[(1, 4), (1, 4)], i);
            v[0] < v[1]
        }));
    }

    #[test]
    fn where_matches_brute_force() {
        // Conjunction of two clauses equals filtering the cross product.
        let w1 = BoolExpr::Cmp(
            SE::IndexVal(IndexId(0)),
            CmpOp::Le,
            SE::IndexVal(IndexId(1)),
        );
        let w2 = BoolExpr::Cmp(
            SE::Bin(
                sia_bytecode::BinOp::Add,
                Box::new(SE::IndexVal(IndexId(0))),
                Box::new(SE::IndexVal(IndexId(1))),
            ),
            CmpOp::Ne,
            SE::Lit(4.0),
        );
        let sp = IterationSpace::enumerate(
            &[IndexId(0), IndexId(1)],
            &[(1, 5), (2, 4)],
            &[w1.clone(), w2.clone()],
            &no_scalars,
            &no_consts,
        )
        .unwrap();
        let mut expect = 0;
        for i in 1..=5i64 {
            for j in 2..=4i64 {
                if i <= j && i + j != 4 {
                    expect += 1;
                }
            }
        }
        assert_eq!(sp.len(), expect);
    }

    #[test]
    fn empty_where_space() {
        let w = BoolExpr::Cmp(SE::IndexVal(IndexId(0)), CmpOp::Gt, SE::Lit(100.0));
        let sp = IterationSpace::enumerate(&[IndexId(0)], &[(1, 5)], &[w], &no_scalars, &no_consts)
            .unwrap();
        assert!(sp.is_empty());
    }

    #[test]
    fn where_on_unbound_index_is_bad_bytecode() {
        // The clause mentions IndexId(7), which the pardo does not bind.
        // The old behavior evaluated it as 0 and silently mis-filtered the
        // space; now enumeration refuses the bytecode outright.
        let w = BoolExpr::Cmp(
            SE::IndexVal(IndexId(7)),
            CmpOp::Lt,
            SE::IndexVal(IndexId(0)),
        );
        let err =
            IterationSpace::enumerate(&[IndexId(0)], &[(1, 5)], &[w], &no_scalars, &no_consts)
                .unwrap_err();
        match err {
            crate::error::RuntimeError::BadBytecode(m) => {
                assert!(m.contains("#7"), "{m}");
            }
            other => panic!("expected BadBytecode, got {other:?}"),
        }
    }

    #[test]
    fn guided_chunks_partition_exactly() {
        let mut s = GuidedScheduler::new(100, 4, 2);
        let mut seen = [false; 100];
        let mut sizes = Vec::new();
        while let Some(r) = s.next_chunk() {
            sizes.push(r.end - r.start);
            for i in r {
                assert!(!seen[i as usize], "task {i} assigned twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "all tasks assigned");
        // Guided: sizes non-increasing, first chunk is remaining/(f*w) = 12.
        assert_eq!(sizes[0], 12);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "sizes must not increase: {sizes:?}");
        }
        assert_eq!(*sizes.last().unwrap(), 1);
    }

    #[test]
    fn fixed_policy_uniform_chunks() {
        let mut s = GuidedScheduler::with_policy(100, 4, ChunkPolicy::Fixed { size: 7 });
        let mut sizes = Vec::new();
        let mut next = 0;
        while let Some(r) = s.next_chunk() {
            assert_eq!(r.start, next);
            next = r.end;
            sizes.push(r.end - r.start);
        }
        assert_eq!(next, 100);
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 7));
        assert_eq!(*sizes.last().unwrap(), 100 % 7);
    }

    #[test]
    fn fixed_policy_size_zero_clamped() {
        let mut s = GuidedScheduler::with_policy(5, 4, ChunkPolicy::Fixed { size: 0 });
        let mut count = 0;
        while s.next_chunk().is_some() {
            count += 1;
        }
        assert_eq!(count, 5, "size 0 clamps to 1");
    }

    #[test]
    fn guided_handles_tiny_spaces() {
        let mut s = GuidedScheduler::new(1, 8, 2);
        assert_eq!(s.next_chunk(), Some(0..1));
        assert_eq!(s.next_chunk(), None);
        let mut s = GuidedScheduler::new(0, 8, 2);
        assert_eq!(s.next_chunk(), None);
    }

    #[test]
    fn eval_scalar_all_forms() {
        let e = SE::Bin(
            sia_bytecode::BinOp::Mul,
            Box::new(SE::Neg(Box::new(SE::Lit(2.0)))),
            Box::new(SE::Bin(
                sia_bytecode::BinOp::Add,
                Box::new(SE::IndexVal(IndexId(0))),
                Box::new(SE::Const(sia_bytecode::ConstId(0))),
            )),
        );
        let v = eval_scalar(&e, &|_| 3, &no_scalars, &|_| 4);
        assert_eq!(v, -14.0);
    }

    #[test]
    fn eval_bool_connectives() {
        let t = BoolExpr::Cmp(SE::Lit(1.0), CmpOp::Lt, SE::Lit(2.0));
        let f = BoolExpr::Cmp(SE::Lit(1.0), CmpOp::Gt, SE::Lit(2.0));
        let and = BoolExpr::And(Box::new(t.clone()), Box::new(f.clone()));
        let or = BoolExpr::Or(Box::new(t.clone()), Box::new(f.clone()));
        let not = BoolExpr::Not(Box::new(f.clone()));
        assert!(!eval_bool(&and, &|_| 0, &no_scalars, &no_consts));
        assert!(eval_bool(&or, &|_| 0, &no_scalars, &no_consts));
        assert!(eval_bool(&not, &|_| 0, &no_scalars, &no_consts));
    }
}
