//! Block shapes: the dimensions of a single tile of a segmented array.
//!
//! SIAL arrays have at most [`MAX_RANK`] dimensions. Segment sizes in the
//! paper's domain are typically 10–50, so a rank-4 block holds `seg^4`
//! (10^4 .. 6.25·10^6) doubles. Blocks are stored row-major (last index
//! fastest), matching the C side of the original SIP.

use std::fmt;

/// Maximum rank of a block. The paper notes that intermediates of rank > 4
/// occasionally arise (handled with subindices); 8 gives generous headroom
/// while keeping shapes inline (no heap allocation per shape).
pub const MAX_RANK: usize = 8;

/// The shape of a dense block: an inline list of up to [`MAX_RANK`] extents.
///
/// A rank-0 shape is a scalar block with exactly one element.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [u32; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from the given extents.
    ///
    /// # Panics
    /// Panics if `dims.len() > MAX_RANK` or any extent is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "shape rank {} exceeds MAX_RANK {}",
            dims.len(),
            MAX_RANK
        );
        let mut d = [0u32; MAX_RANK];
        for (i, &x) in dims.iter().enumerate() {
            assert!(x > 0, "zero extent in dimension {i}");
            assert!(x <= u32::MAX as usize, "extent too large");
            d[i] = x as u32;
        }
        Shape {
            dims: d,
            rank: dims.len() as u8,
        }
    }

    /// Non-panicking [`Shape::new`] for extents read from outside the
    /// program: `None` when the rank exceeds [`MAX_RANK`], an extent is zero
    /// or over `u32::MAX`, or the element count overflows `usize`.
    pub fn try_new(dims: &[usize]) -> Option<Self> {
        let fits = dims.len() <= MAX_RANK
            && dims.iter().all(|&x| (1..=u32::MAX as usize).contains(&x))
            && dims
                .iter()
                .try_fold(1usize, |n, &x| n.checked_mul(x))
                .is_some();
        fits.then(|| Shape::new(dims))
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape {
            dims: [0; MAX_RANK],
            rank: 0,
        }
    }

    /// A rank-`r` shape with every extent equal to `seg` — the common case
    /// for SIA blocks where one segment size applies to all indices of a
    /// given type.
    pub fn cube(rank: usize, seg: usize) -> Self {
        std::iter::repeat_n(seg, rank).collect()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The extents as a slice of length `rank()`.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims[..self.rank as usize]
    }

    /// Extent of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        debug_assert!(d < self.rank());
        self.dims[d] as usize
    }

    /// Total number of elements (1 for a scalar shape).
    #[inline]
    pub fn len(&self) -> usize {
        self.dims().iter().map(|&d| d as usize).product()
    }

    /// Shapes are never empty; provided for clippy-completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row-major strides (last dimension has stride 1).
    pub fn strides(&self) -> [usize; MAX_RANK] {
        let mut s = [0usize; MAX_RANK];
        let r = self.rank();
        if r == 0 {
            return s;
        }
        s[r - 1] = 1;
        for d in (0..r - 1).rev() {
            s[d] = s[d + 1] * self.dims[d + 1] as usize;
        }
        s
    }

    /// Linear (row-major) offset of the multi-index `idx`.
    ///
    /// # Panics
    /// Debug-asserts that `idx` is within bounds and has the right rank.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let strides = self.strides();
        let mut off = 0;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[d] as usize, "index out of bounds");
            off += i * strides[d];
        }
        off
    }

    /// Iterates over all multi-indices of the shape in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: *self,
            next: Some([0; MAX_RANK]),
        }
    }

    /// The shape obtained by permuting dimensions: `result.dim(i) ==
    /// self.dim(perm[i])`.
    pub fn permuted(&self, perm: &[usize]) -> Shape {
        assert_eq!(perm.len(), self.rank());
        perm.iter().map(|&p| self.dim(p)).collect()
    }
}

/// Collects extents into a shape without touching the heap (an empty
/// iterator is the scalar shape).
///
/// # Panics
/// As [`Shape::new`]: more than [`MAX_RANK`] extents, or a zero extent.
impl FromIterator<usize> for Shape {
    fn from_iter<I: IntoIterator<Item = usize>>(extents: I) -> Self {
        let mut dims = [0usize; MAX_RANK];
        let mut rank = 0;
        for x in extents {
            assert!(rank < MAX_RANK, "shape rank exceeds MAX_RANK {MAX_RANK}");
            dims[rank] = x;
            rank += 1;
        }
        Shape::new(&dims[..rank])
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strs: Vec<String> = self.dims().iter().map(|d| d.to_string()).collect();
        write!(f, "[{}]", strs.join("x"))
    }
}

/// Row-major iterator over the multi-indices of a [`Shape`].
pub struct IndexIter {
    shape: Shape,
    next: Option<[usize; MAX_RANK]>,
}

impl Iterator for IndexIter {
    type Item = [usize; MAX_RANK];

    fn next(&mut self) -> Option<Self::Item> {
        let cur = self.next?;
        let r = self.shape.rank();
        // Advance like an odometer, last dimension fastest.
        let mut nxt = cur;
        let mut d = r;
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            nxt[d] += 1;
            if nxt[d] < self.shape.dim(d) {
                self.next = Some(nxt);
                break;
            }
            nxt[d] = 0;
        }
        if r == 0 {
            self.next = None;
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.indices().count(), 1);
    }

    #[test]
    fn cube_shape() {
        let s = Shape::cube(4, 12);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.len(), 12 * 12 * 12 * 12);
        assert_eq!(s.dims(), &[12, 12, 12, 12]);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        let st = s.strides();
        assert_eq!(&st[..3], &[12, 4, 1]);
    }

    #[test]
    fn offset_matches_manual() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    fn index_iter_covers_all_in_order() {
        let s = Shape::new(&[2, 3]);
        let idxs: Vec<_> = s.indices().map(|i| (i[0], i[1])).collect();
        assert_eq!(idxs, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn index_iter_offsets_are_sequential() {
        let s = Shape::new(&[3, 2, 4]);
        for (n, idx) in s.indices().enumerate() {
            assert_eq!(s.offset(&idx[..s.rank()]), n);
        }
    }

    #[test]
    fn permuted_shape() {
        let s = Shape::new(&[2, 3, 4]);
        let p = s.permuted(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
    }

    #[test]
    fn collected_shapes_match_new() {
        assert_eq!(
            [2usize, 3].into_iter().collect::<Shape>(),
            Shape::new(&[2, 3])
        );
        assert_eq!(std::iter::empty().collect::<Shape>(), Shape::scalar());
    }

    #[test]
    #[should_panic]
    fn collecting_too_many_extents_panics() {
        let _: Shape = std::iter::repeat_n(1, MAX_RANK + 1).collect();
    }

    #[test]
    #[should_panic]
    fn zero_extent_panics() {
        let _ = Shape::new(&[2, 0, 4]);
    }

    #[test]
    #[should_panic]
    fn too_many_dims_panics() {
        let _ = Shape::new(&[1; MAX_RANK + 1]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }
}
