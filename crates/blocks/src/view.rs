//! Strided matrix views: the bridge between permuted tensor operands and
//! the GEMM pack routines.
//!
//! A contraction wants each operand as a logical `rows x cols` matrix whose
//! row index runs over the free indices and whose column index runs over the
//! contracted ones (or vice versa for B). Stored index order rarely matches
//! that grouping, and materializing a permuted copy first would cost a full
//! extra memory sweep per operand.
//!
//! [`MatView`] removes that sweep: it describes the logical matrix as two
//! *axis groups* (row group, column group), each a list of source-tensor
//! dimensions with their row-major strides in GEMM order. Element `(i, j)`
//! lives at `data[row_offset(i) + col_offset(j)]`, where each group offset
//! decomposes its logical index over the group's dims mixed-radix style.
//! [`crate::gemm`] tabulates these offsets once per GEMM
//! ([`AxisGroup::fill_offsets`]), so an arbitrarily permuted operand is
//! packed straight from its home buffer — and, through a [`MatLayout`] for
//! C, an arbitrarily permuted output is written straight to its home buffer.
//!
//! What the pack routines and the C write key on is a group's *unit run*
//! ([`AxisGroup::unit_run`]): how many consecutive logical indices are
//! adjacent in storage. The source's unit-stride axis sits in exactly one of
//! a view's two groups; when it is that group's innermost axis the group
//! reads (or writes) in contiguous runs. The plain `NoTrans`/`Trans`
//! layouts of `from_matrix` are the degenerate cases: a permuted view whose
//! permutation is the identity, or a rotation of the two groups, has the
//! same uniform strides and unit runs, so the GEMM reads it identically.

use crate::shape::{Shape, MAX_RANK};
use crate::GemmLayout;

/// One axis group of a [`MatView`]: a mixed-radix decomposition of a logical
/// index onto source-buffer offsets. Dim 0 varies slowest (GEMM order).
#[derive(Clone, Copy, Debug)]
pub struct AxisGroup {
    dims: [usize; MAX_RANK],
    strides: [usize; MAX_RANK],
    rank: usize,
    /// Total extent: product of `dims[..rank]` (1 for an empty group).
    len: usize,
    /// `Some(s)` iff `offset(i) == i * s` for all `i < len` (uniform
    /// strides); `Some(0)` for an empty group.
    uniform: Option<usize>,
    /// See [`AxisGroup::unit_run`].
    run: usize,
}

impl AxisGroup {
    fn new(dims: &[usize], strides: &[usize]) -> Self {
        assert_eq!(dims.len(), strides.len());
        assert!(dims.len() <= MAX_RANK, "axis group rank exceeds MAX_RANK");
        let mut g = AxisGroup {
            dims: [1; MAX_RANK],
            strides: [0; MAX_RANK],
            rank: dims.len(),
            len: 1,
            uniform: None,
            run: 1,
        };
        for (i, (&d, &s)) in dims.iter().zip(strides).enumerate() {
            assert!(d > 0, "zero-extent axis in view");
            g.dims[i] = d;
            g.strides[i] = s;
            g.len *= d;
        }
        g.uniform = g.detect_uniform();
        g.run = g.detect_unit_run();
        g
    }

    /// Extent of the longest innermost sub-block that is contiguous in
    /// storage: trailing dims are absorbed while each one's stride equals
    /// the extent absorbed so far (extent-1 dims are transparent).
    fn detect_unit_run(&self) -> usize {
        let mut run = 1;
        for d in (0..self.rank).rev() {
            if self.dims[d] == 1 {
                continue;
            }
            if self.strides[d] != run {
                break;
            }
            run *= self.dims[d];
        }
        run
    }

    /// A group is uniform when consecutive logical indices step by a fixed
    /// stride: `strides[d] == strides[d+1] * dims[d+1]` for every adjacent
    /// pair. The innermost stride is then the step. Dims of extent 1 are
    /// transparent (their stride never multiplies an index).
    fn detect_uniform(&self) -> Option<usize> {
        // Drop extent-1 dims: they contribute nothing to offsets.
        let mut dims = [0usize; MAX_RANK];
        let mut strides = [0usize; MAX_RANK];
        let mut r = 0;
        for d in 0..self.rank {
            if self.dims[d] > 1 {
                dims[r] = self.dims[d];
                strides[r] = self.strides[d];
                r += 1;
            }
        }
        if r == 0 {
            return Some(0);
        }
        for d in 0..r - 1 {
            if strides[d] != strides[d + 1] * dims[d + 1] {
                return None;
            }
        }
        Some(strides[r - 1])
    }

    /// Total extent of the group.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the group has extent 1 (rank 0 or all dims extent 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 1
    }

    /// `Some(step)` when `offset(i) == i * step`.
    #[inline]
    pub fn uniform_stride(&self) -> Option<usize> {
        self.uniform
    }

    /// The largest `r` dividing [`len`](Self::len) such that
    /// `offset(q * r + j) == offset(q * r) + j` for every `j < r`: logical
    /// indices come in storage-contiguous runs of `r`. It is 1 when the
    /// group's innermost axis is not the source's unit-stride axis.
    #[inline]
    pub fn unit_run(&self) -> usize {
        self.run
    }

    /// Largest offset any logical index maps to.
    pub fn max_offset(&self) -> usize {
        (0..self.rank)
            .map(|d| (self.dims[d] - 1) * self.strides[d])
            .sum()
    }

    /// Writes the offsets of logical indices `start..start + out.len()`.
    pub fn fill_offsets(&self, start: usize, out: &mut [usize]) {
        if let Some(step) = self.uniform {
            for (i, o) in out.iter_mut().enumerate() {
                *o = (start + i) * step;
            }
            return;
        }
        let mut c = self.cursor(start);
        for o in out {
            *o = c.offset();
            c.advance();
        }
    }

    /// Source-buffer offset of logical index `i` (mixed-radix decompose).
    #[inline]
    pub fn offset(&self, mut i: usize) -> usize {
        if let Some(s) = self.uniform {
            return i * s;
        }
        let mut off = 0;
        for d in (0..self.rank).rev() {
            let ext = self.dims[d];
            off += (i % ext) * self.strides[d];
            i /= ext;
        }
        off
    }

    /// Starts an incremental walk at logical index `i`.
    #[inline]
    pub fn cursor(&self, i: usize) -> AxisCursor {
        let mut c = AxisCursor {
            dims: self.dims,
            strides: self.strides,
            rank: self.rank,
            idx: [0; MAX_RANK],
            off: 0,
        };
        c.seek(self, i);
        c
    }
}

/// Incremental odometer over one [`AxisGroup`]: yields source offsets of
/// consecutive logical indices without per-step divisions. `advance` is O(1)
/// amortized (it carries like an odometer), so packing a panel costs one
/// decompose per row plus one add per element.
#[derive(Clone, Copy, Debug)]
pub struct AxisCursor {
    dims: [usize; MAX_RANK],
    strides: [usize; MAX_RANK],
    rank: usize,
    idx: [usize; MAX_RANK],
    off: usize,
}

impl AxisCursor {
    /// Repositions the cursor at logical index `i`.
    #[inline]
    pub fn seek(&mut self, group: &AxisGroup, mut i: usize) {
        let mut off = 0;
        for d in (0..self.rank).rev() {
            let ext = group.dims[d];
            let id = i % ext;
            self.idx[d] = id;
            off += id * self.strides[d];
            i /= ext;
        }
        self.off = off;
    }

    /// Source offset of the current logical index.
    #[inline]
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Steps to the next logical index. Walking past the end of the group is
    /// allowed mid-carry but the resulting offset must not be read.
    #[inline]
    pub fn advance(&mut self) {
        for d in (0..self.rank).rev() {
            self.idx[d] += 1;
            self.off += self.strides[d];
            if self.idx[d] < self.dims[d] {
                return;
            }
            // Carry: unwind this digit and bump the next.
            self.off -= self.dims[d] * self.strides[d];
            self.idx[d] = 0;
        }
    }
}

/// The addressing half of a [`MatView`]: a logical `rows x cols` matrix as
/// two axis groups over some buffer, element `(i, j)` at
/// `rows.offset(i) + cols.offset(j)`. GEMM takes one of these for C, whose
/// buffer it borrows mutably.
#[derive(Clone, Copy, Debug)]
pub struct MatLayout {
    rows: AxisGroup,
    cols: AxisGroup,
}

impl MatLayout {
    /// A plain row-major `rows x cols` matrix (`NoTrans`) or the transpose
    /// of a stored `cols x rows` matrix (`Trans`).
    pub fn matrix(rows: usize, cols: usize, layout: GemmLayout) -> Self {
        let (rs, cs) = match layout {
            GemmLayout::NoTrans => (cols, 1), // data[i*cols + j]
            GemmLayout::Trans => (1, rows),   // data[j*rows + i]
        };
        MatLayout {
            rows: AxisGroup::new(&[rows.max(1)], &[rs]),
            cols: AxisGroup::new(&[cols.max(1)], &[cs]),
        }
    }

    /// A stored tensor of `shape` seen through an index permutation, split
    /// into a row group and a column group.
    ///
    /// `perm[d]` names the source axis that provides GEMM-order axis `d`
    /// (the same convention as [`crate::permute::permute`]: output axis `d`
    /// reads source axis `perm[d]`). Axes `perm[..split]` form the row
    /// group, `perm[split..]` the column group; within each group, earlier
    /// axes vary slower.
    pub fn permuted(shape: &Shape, perm: &[usize], split: usize) -> Self {
        assert_eq!(perm.len(), shape.rank(), "permutation rank mismatch");
        assert!(split <= perm.len(), "row/col split out of range");
        let strides = shape.strides();
        let dims = shape.dims();
        let build = |axes: &[usize]| {
            let mut d = [0usize; MAX_RANK];
            let mut s = [0usize; MAX_RANK];
            for (i, &ax) in axes.iter().enumerate() {
                d[i] = dims[ax] as usize;
                s[i] = strides[ax];
            }
            AxisGroup::new(&d[..axes.len()], &s[..axes.len()])
        };
        MatLayout {
            rows: build(&perm[..split]),
            cols: build(&perm[split..]),
        }
    }

    /// The same storage read as the transposed matrix.
    pub fn transposed(&self) -> Self {
        MatLayout {
            rows: self.cols,
            cols: self.rows,
        }
    }

    /// Row axis group.
    #[inline]
    pub fn row_group(&self) -> &AxisGroup {
        &self.rows
    }

    /// Column axis group.
    #[inline]
    pub fn col_group(&self) -> &AxisGroup {
        &self.cols
    }

    /// Elements a buffer must hold for every `(i, j)` to be in bounds.
    pub fn span(&self) -> usize {
        self.rows.max_offset() + self.cols.max_offset() + 1
    }
}

/// A logical `rows x cols` matrix over strided storage. Element `(i, j)` is
/// `data[rows.offset(i) + cols.offset(j)]`. See the module docs for how this
/// folds operand permutations into GEMM packing.
#[derive(Clone, Copy, Debug)]
pub struct MatView<'a> {
    data: &'a [f64],
    layout: MatLayout,
}

impl<'a> MatView<'a> {
    /// Views a plain row-major `rows x cols` matrix (`NoTrans`) or the
    /// transpose of a stored `cols x rows` matrix (`Trans`).
    pub fn from_matrix(data: &'a [f64], rows: usize, cols: usize, layout: GemmLayout) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix view dimension mismatch");
        MatView {
            data,
            layout: MatLayout::matrix(rows, cols, layout),
        }
    }

    /// Views a stored tensor through an index permutation, split into a row
    /// group and a column group — the permute-on-pack constructor. See
    /// [`MatLayout::permuted`] for the conventions.
    pub fn permuted(data: &'a [f64], shape: &Shape, perm: &[usize], split: usize) -> Self {
        assert_eq!(data.len(), shape.len(), "tensor view length mismatch");
        MatView {
            data,
            layout: MatLayout::permuted(shape, perm, split),
        }
    }

    /// The same storage read as the transposed matrix.
    pub fn transposed(&self) -> Self {
        MatView {
            data: self.data,
            layout: self.layout.transposed(),
        }
    }

    /// The underlying storage.
    #[inline]
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Logical row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.layout.rows.len()
    }

    /// Logical column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.layout.cols.len()
    }

    /// Row axis group.
    #[inline]
    pub fn row_group(&self) -> &AxisGroup {
        &self.layout.rows
    }

    /// Column axis group.
    #[inline]
    pub fn col_group(&self) -> &AxisGroup {
        &self.layout.cols
    }

    /// Element accessor (tests / reference paths; pack uses offset tables).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.layout.rows.offset(i) + self.layout.cols.offset(j)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::permute;
    use crate::Block;

    fn filled(shape: Shape) -> Block {
        let mut i = 0.0;
        Block::from_fn(shape, |_| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn from_matrix_matches_indexing() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let v = MatView::from_matrix(&data, 3, 4, GemmLayout::NoTrans);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 4);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(v.at(i, j), data[i * 4 + j]);
            }
        }
        // Trans: logical (i, j) of the 4x3 transpose reads data[j*4 + i]...
        let t = MatView::from_matrix(&data, 4, 3, GemmLayout::Trans);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(t.at(i, j), data[j * 4 + i]);
            }
        }
    }

    #[test]
    fn uniform_stride_detection() {
        // Row-major (2, 3, 4): strides (12, 4, 1).
        let b = filled(Shape::new(&[2, 3, 4]));
        // Grouping the leading two axes: uniform (12 == 4*3? no — 12, 4 with
        // dims 2, 3: uniform needs strides[0] == strides[1]*dims[1] = 12 ✓).
        let v = MatView::permuted(b.data(), b.shape(), &[0, 1, 2], 2);
        assert_eq!(v.row_group().uniform_stride(), Some(4));
        assert_eq!(v.col_group().uniform_stride(), Some(1));
        // Swapped leading axes: (1, 0) group has strides (4, 12) — not
        // uniform.
        let w = MatView::permuted(b.data(), b.shape(), &[1, 0, 2], 2);
        assert_eq!(w.row_group().uniform_stride(), None);
        assert_eq!(w.col_group().uniform_stride(), Some(1));
        // Empty row group (full contraction): uniform Some(0).
        let e = MatView::permuted(b.data(), b.shape(), &[0, 1, 2], 0);
        assert_eq!(e.rows(), 1);
        assert_eq!(e.row_group().uniform_stride(), Some(0));
    }

    #[test]
    fn extent_one_dims_are_transparent() {
        // (2, 1, 3) with a middle singleton: grouping all three axes is
        // still uniform because the singleton contributes no offsets.
        let b = filled(Shape::new(&[2, 1, 3]));
        let v = MatView::permuted(b.data(), b.shape(), &[0, 1, 2], 3);
        assert_eq!(v.row_group().uniform_stride(), Some(1));
        assert_eq!(v.rows(), 6);
    }

    #[test]
    fn permuted_view_matches_materialized_permute() {
        let b = filled(Shape::new(&[2, 3, 4, 5]));
        for (perm, split) in [
            (vec![2, 0, 3, 1], 2usize),
            (vec![3, 1, 2, 0], 1),
            (vec![1, 0, 2, 3], 3),
            (vec![0, 1, 2, 3], 2),
        ] {
            let p = permute(&b, &perm);
            let v = MatView::permuted(b.data(), b.shape(), &perm, split);
            let rows = v.rows();
            let cols = v.cols();
            assert_eq!(rows * cols, b.shape().len());
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        v.at(i, j),
                        p.data()[i * cols + j],
                        "perm {perm:?} ({i},{j})"
                    );
                }
            }
        }
    }

    /// The premise of reading every operand through `permuted`: for an
    /// identity permutation (stored order is GEMM order) and for a rotation
    /// of the two groups (stored order is the transpose), both groups have
    /// the offsets, uniform stride and unit run of the plain `from_matrix`
    /// view, so packing reads the same elements in the same order.
    #[test]
    fn identity_and_rotation_are_plain_matrix_views() {
        fn same(got: &AxisGroup, want: &AxisGroup, what: &str) {
            assert_eq!(got.len(), want.len(), "{what}: len");
            assert_eq!(
                got.uniform_stride(),
                want.uniform_stride(),
                "{what}: uniform"
            );
            assert_eq!(got.unit_run(), want.unit_run(), "{what}: unit run");
            for i in 0..got.len() {
                assert_eq!(got.offset(i), want.offset(i), "{what}: offset({i})");
            }
        }
        let shapes: [&[usize]; 10] = [
            &[5],
            &[1],
            &[3, 4],
            &[1, 4],
            &[3, 1],
            &[2, 1, 3],
            &[2, 3, 4],
            &[2, 3, 4, 5],
            &[1, 3, 1, 4],
            &[4, 1, 1, 1],
        ];
        for dims in shapes {
            let b = filled(Shape::new(dims));
            let rank = dims.len();
            for s in 0..=rank {
                // Split s: the leading group X = dims[..s], the trailing Y.
                let (x, y): (usize, usize) =
                    (dims[..s].iter().product(), dims[s..].iter().product());
                let what = format!("{dims:?} split {s}");
                let identity: Vec<usize> = (0..rank).collect();
                let v = MatView::permuted(b.data(), b.shape(), &identity, s);
                let m = MatView::from_matrix(b.data(), x, y, GemmLayout::NoTrans);
                same(
                    v.row_group(),
                    m.row_group(),
                    &format!("{what} identity rows"),
                );
                same(
                    v.col_group(),
                    m.col_group(),
                    &format!("{what} identity cols"),
                );
                // GEMM order (Y | X) over stored (X, Y): the transpose.
                let rotation: Vec<usize> = (s..rank).chain(0..s).collect();
                let v = MatView::permuted(b.data(), b.shape(), &rotation, rank - s);
                let t = MatView::from_matrix(b.data(), y, x, GemmLayout::Trans);
                same(
                    v.row_group(),
                    t.row_group(),
                    &format!("{what} rotation rows"),
                );
                same(
                    v.col_group(),
                    t.col_group(),
                    &format!("{what} rotation cols"),
                );
            }
        }
    }

    #[test]
    fn cursor_walks_match_offsets() {
        let b = filled(Shape::new(&[3, 4, 5]));
        let v = MatView::permuted(b.data(), b.shape(), &[2, 0, 1], 1);
        let g = v.col_group();
        let mut c = g.cursor(0);
        for i in 0..g.len() {
            assert_eq!(c.offset(), g.offset(i), "index {i}");
            c.advance();
        }
        // Seek mid-way matches too.
        let mut c2 = g.cursor(7);
        assert_eq!(c2.offset(), g.offset(7));
        c2.advance();
        assert_eq!(c2.offset(), g.offset(8));
    }
}
