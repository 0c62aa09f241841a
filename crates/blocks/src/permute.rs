//! Block permutation — SIAL's permuting assignment.
//!
//! A SIAL statement such as `V1(K,J,I) = V2(I,J,K)` permutes the source block
//! and assigns it. We express the permutation as `perm`, where output
//! dimension `d` reads from input dimension `perm[d]`:
//! `out[i0,..,ik] = in[i_{perm[0]}, .., i_{perm[k]}]` — i.e. `out` axis `d`
//! ranges over `in` axis `perm[d]`.
//!
//! No contraction calls this kernel: its operands are read in place through
//! strided views and its output is written through one (see
//! [`crate::view`]). It is the engine of SIAL's explicit permute super
//! instruction.

use crate::block::Block;
use crate::shape::MAX_RANK;

/// True if `perm` is `[0, 1, .., n-1]`.
pub fn is_identity_permutation(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

/// Inverse permutation: `invert(perm)[perm[i]] == i`.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..perm.len()`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        assert!(p < perm.len(), "invalid permutation entry {p}");
        assert!(inv[p] == usize::MAX, "duplicate permutation entry {p}");
        inv[p] = i;
    }
    inv
}

/// Applies `perm` to a list: `result[i] = items[perm[i]]`.
pub fn apply_permutation<T: Copy>(perm: &[usize], items: &[T]) -> Vec<T> {
    perm.iter().map(|&p| items[p]).collect()
}

/// Returns a new block `out` with `out` axis `d` ranging over `input` axis
/// `perm[d]`.
///
/// The identity permutation degenerates to a clone. See [`permute_into`] for
/// the allocation-free kernel underneath.
///
/// # Panics
/// Panics if `perm.len() != input.rank()` or `perm` is not a permutation.
pub fn permute(input: &Block, perm: &[usize]) -> Block {
    if is_identity_permutation(perm) {
        assert_eq!(
            perm.len(),
            input.shape().rank(),
            "permutation rank mismatch"
        );
        return input.clone();
    }
    let out_shape = input.shape().permuted(perm);
    let mut out = vec![0.0f64; out_shape.len()];
    permute_into(input, perm, &mut out);
    Block::from_data(out_shape, out)
}

/// Cache-blocked permutation into caller-provided storage (`dst.len()` must
/// equal `input.len()`), enabling scratch reuse from a block pool.
///
/// Three tiers, picked per call:
/// 1. a trailing run of unpermuted axes is moved with `copy_from_slice`
///    (identity degenerates to one memcpy);
/// 2. a swap of the innermost two axes runs as a tiled 2D transpose, so both
///    source and destination touch whole cache lines per tile;
/// 3. anything else falls back to a strided gather whose innermost loop is a
///    fixed-stride sweep over the last output axis.
///
/// # Panics
/// Panics if `perm.len() != input.rank()`, `perm` is not a permutation, or
/// `dst` has the wrong length.
pub fn permute_into(input: &Block, perm: &[usize], dst: &mut [f64]) {
    let rank = input.shape().rank();
    assert_eq!(perm.len(), rank, "permutation rank mismatch");
    let mut seen = [false; MAX_RANK];
    for &p in perm {
        assert!(p < rank && !seen[p], "{perm:?} is not a permutation");
        seen[p] = true;
    }
    assert_eq!(dst.len(), input.len(), "destination length mismatch");

    let src = input.data();
    if rank == 0 {
        dst[0] = src[0];
        return;
    }

    let out_shape = input.shape().permuted(perm);
    let in_strides = input.shape().strides();
    // Stride of output axis d in the *input* data.
    let mut gather = [0usize; MAX_RANK];
    for (d, &p) in perm.iter().enumerate() {
        gather[d] = in_strides[p];
    }

    // Tier 1: trailing axes that stay in place form contiguous runs shared
    // by source and destination.
    let mut fixed_tail = 0;
    while fixed_tail < rank && perm[rank - 1 - fixed_tail] == rank - 1 - fixed_tail {
        fixed_tail += 1;
    }
    if fixed_tail == rank {
        dst.copy_from_slice(src);
        return;
    }
    if fixed_tail > 0 {
        let run: usize = (rank - fixed_tail..rank)
            .map(|d| input.shape().dim(d))
            .product();
        if run >= 4 {
            let outer_rank = rank - fixed_tail;
            for_each_outer(&out_shape, &gather, outer_rank, |out_off, src_off| {
                dst[out_off * run..(out_off + 1) * run]
                    .copy_from_slice(&src[src_off..src_off + run]);
            });
            return;
        }
    }

    // Tier 2: innermost two axes swapped — a 2D transpose of contiguous
    // (r x c) slabs, tiled so reads and writes both stay cache-resident.
    if rank >= 2 && perm[rank - 1] == rank - 2 && perm[rank - 2] == rank - 1 {
        const TILE: usize = 32;
        let r = input.shape().dim(rank - 2); // source rows (stride c)
        let c = input.shape().dim(rank - 1); // source cols (stride 1)
        let slab = r * c;
        for_each_outer(&out_shape, &gather, rank - 2, |out_off, src_off| {
            let d = &mut dst[out_off * slab..(out_off + 1) * slab];
            let s = &src[src_off..src_off + slab];
            let mut jt = 0;
            while jt < c {
                let jb = TILE.min(c - jt);
                let mut it = 0;
                while it < r {
                    let ib = TILE.min(r - it);
                    for j in jt..jt + jb {
                        for i in it..it + ib {
                            d[j * r + i] = s[i * c + j];
                        }
                    }
                    it += ib;
                }
                jt += jb;
            }
        });
        return;
    }

    // Tier 3: strided gather, innermost loop hoisted out of the odometer.
    let n_last = out_shape.dim(rank - 1);
    let g_last = gather[rank - 1];
    for_each_outer(&out_shape, &gather, rank - 1, |out_off, src_off| {
        let row = &mut dst[out_off * n_last..(out_off + 1) * n_last];
        let mut s = src_off;
        for slot in row.iter_mut() {
            *slot = src[s];
            s += g_last;
        }
    });
}

/// Drives an odometer over the first `outer_rank` axes of `out_shape`,
/// calling `body(outer_index_linear, src_offset)` for each setting, where
/// `src_offset` is the gathered base offset into the source data.
fn for_each_outer(
    out_shape: &crate::shape::Shape,
    gather: &[usize; MAX_RANK],
    outer_rank: usize,
    mut body: impl FnMut(usize, usize),
) {
    let outer_len: usize = (0..outer_rank).map(|d| out_shape.dim(d)).product();
    let mut idx = [0usize; MAX_RANK];
    let mut src_off = 0usize;
    for out_off in 0..outer_len {
        body(out_off, src_off);
        let mut d = outer_rank;
        loop {
            if d == 0 {
                break;
            }
            d -= 1;
            idx[d] += 1;
            src_off += gather[d];
            if idx[d] < out_shape.dim(d) {
                break;
            }
            src_off -= gather[d] * idx[d];
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn identity_is_clone() {
        let b = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64);
        let p = permute(&b, &[0, 1]);
        assert_eq!(b, p);
    }

    #[test]
    fn transpose_2d() {
        let b = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 10 + i[1]) as f64);
        let t = permute(&b, &[1, 0]);
        assert_eq!(t.shape().dims(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(&[j, i]), b.get(&[i, j]));
            }
        }
    }

    #[test]
    fn rank4_rotation() {
        let s = Shape::new(&[2, 3, 4, 5]);
        let b = Block::from_fn(s, |i| (i[0] * 1000 + i[1] * 100 + i[2] * 10 + i[3]) as f64);
        let perm = [3, 1, 0, 2];
        let p = permute(&b, &perm);
        assert_eq!(p.shape().dims(), &[5, 3, 2, 4]);
        for idx in p.shape().indices() {
            let o = &idx[..4];
            // out[o] == in[o applied through inverse]: in index at axis perm[d] is o[d]
            let mut src = [0usize; 4];
            for d in 0..4 {
                src[perm[d]] = o[d];
            }
            assert_eq!(p.get(o), b.get(&src));
        }
    }

    #[test]
    fn permute_then_inverse_is_identity() {
        let s = Shape::new(&[3, 4, 2]);
        let b = Block::from_fn(s, |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let perm = [2, 0, 1];
        let inv = invert_permutation(&perm);
        let round = permute(&permute(&b, &perm), &inv);
        assert_eq!(b, round);
    }

    #[test]
    fn scalar_permute() {
        let b = Block::scalar(7.0);
        let p = permute(&b, &[]);
        assert_eq!(p.as_scalar(), 7.0);
    }

    #[test]
    fn apply_permutation_list() {
        assert_eq!(
            apply_permutation(&[2, 0, 1], &[10, 20, 30]),
            vec![30, 10, 20]
        );
    }

    #[test]
    #[should_panic]
    fn bad_permutation_panics() {
        let b = Block::zeros(Shape::new(&[2, 2]));
        let _ = permute(&b, &[0, 0]);
    }

    #[test]
    fn invert_roundtrip() {
        let p = [3, 0, 2, 1];
        let inv = invert_permutation(&p);
        for i in 0..4 {
            assert_eq!(inv[p[i]], i);
        }
    }

    /// Every rank-4 permutation, on a shape big enough to cross the 2D
    /// transpose tile boundary and exercise all three kernel tiers.
    #[test]
    fn all_rank4_permutations_match_gather() {
        let s = Shape::new(&[3, 5, 34, 33]);
        let b = Block::from_fn(s, |i| {
            (i[0] * 10_000 + i[1] * 1000 + i[2] * 50 + i[3]) as f64
        });
        let mut perm = [0usize; 4];
        let mut perms = Vec::new();
        permutations(&mut perm, &mut [false; 4], 0, &mut perms);
        assert_eq!(perms.len(), 24);
        for perm in perms {
            let p = permute(&b, &perm);
            assert_eq!(p.len(), b.len(), "perm {perm:?}");
            for idx in p.shape().indices() {
                let o = &idx[..4];
                let mut srci = [0usize; 4];
                for d in 0..4 {
                    srci[perm[d]] = o[d];
                }
                assert_eq!(p.get(o), b.get(&srci), "perm {perm:?} at {o:?}");
            }
        }
    }

    fn permutations(
        cur: &mut [usize; 4],
        used: &mut [bool; 4],
        d: usize,
        out: &mut Vec<[usize; 4]>,
    ) {
        if d == 4 {
            out.push(*cur);
            return;
        }
        for v in 0..4 {
            if !used[v] {
                used[v] = true;
                cur[d] = v;
                permutations(cur, used, d + 1, out);
                used[v] = false;
            }
        }
    }

    #[test]
    fn permute_into_matches_permute() {
        let s = Shape::new(&[4, 6, 5]);
        let b = Block::from_fn(s, |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        for perm in [
            [0, 1, 2],
            [2, 1, 0],
            [1, 0, 2],
            [0, 2, 1],
            [2, 0, 1],
            [1, 2, 0],
        ] {
            let expect = permute(&b, &perm);
            let mut dst = vec![f64::NAN; b.len()];
            permute_into(&b, &perm, &mut dst);
            assert_eq!(dst, expect.data(), "perm {perm:?}");
        }
    }

    #[test]
    #[should_panic]
    fn permute_into_wrong_len_panics() {
        let b = Block::zeros(Shape::new(&[2, 2]));
        let mut dst = vec![0.0; 3];
        permute_into(&b, &[1, 0], &mut dst);
    }
}
