//! Slices and insertions — the data movement behind SIAL subindices.
//!
//! SIAL's `Xii(ii,j) = Xi(ii,j)` copies the subblock of `Xi` selected by the
//! subindex `ii` into the smaller block `Xii` (a *slice*); the reverse
//! assignment writes it back (an *insertion*). A [`SliceSpec`] captures the
//! per-dimension `(offset, extent)` window the subindex value selects.

use crate::block::Block;
use crate::shape::{Shape, MAX_RANK};
use std::fmt;

/// A rectangular window within a block: `offset[d] .. offset[d] + extent[d]`
/// in each dimension, held inline like a [`Shape`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SliceSpec {
    offsets: [usize; MAX_RANK],
    extents: [usize; MAX_RANK],
    rank: usize,
}

/// Errors constructing or applying a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceError {
    /// Spec rank differs from block rank.
    RankMismatch { spec: usize, block: usize },
    /// A window runs past the block boundary.
    OutOfBounds { dim: usize },
    /// Source block shape does not equal the window extents (insertion).
    ShapeMismatch,
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::RankMismatch { spec, block } => {
                write!(f, "slice rank {spec} does not match block rank {block}")
            }
            SliceError::OutOfBounds { dim } => {
                write!(f, "slice window exceeds block bounds in dimension {dim}")
            }
            SliceError::ShapeMismatch => write!(f, "source shape does not match slice extents"),
        }
    }
}

impl std::error::Error for SliceError {}

impl SliceSpec {
    /// Builds a spec from parallel offset/extent lists.
    ///
    /// # Panics
    /// Panics if lengths differ, exceed [`MAX_RANK`], or any extent is zero.
    pub fn new(offsets: &[usize], extents: &[usize]) -> Self {
        assert_eq!(
            offsets.len(),
            extents.len(),
            "offset/extent length mismatch"
        );
        assert!(offsets.len() <= MAX_RANK);
        assert!(extents.iter().all(|&e| e > 0), "zero slice extent");
        let mut spec = SliceSpec {
            rank: offsets.len(),
            ..SliceSpec::default()
        };
        spec.offsets[..spec.rank].copy_from_slice(offsets);
        spec.extents[..spec.rank].copy_from_slice(extents);
        spec
    }

    /// The window covering an entire block of shape `shape` (identity slice).
    pub fn full(shape: &Shape) -> Self {
        let extents: Vec<usize> = shape.dims().iter().map(|&d| d as usize).collect();
        SliceSpec::new(&[0; MAX_RANK][..extents.len()], &extents)
    }

    /// Window rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Per-dimension window starts.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets[..self.rank]
    }

    /// Per-dimension window lengths.
    pub fn extents(&self) -> &[usize] {
        &self.extents[..self.rank]
    }

    /// The shape of the extracted slice.
    pub fn slice_shape(&self) -> Shape {
        Shape::new(self.extents())
    }

    fn validate(&self, shape: &Shape) -> Result<(), SliceError> {
        if self.rank() != shape.rank() {
            return Err(SliceError::RankMismatch {
                spec: self.rank(),
                block: shape.rank(),
            });
        }
        for d in 0..self.rank() {
            if self.offsets[d] + self.extents[d] > shape.dim(d) {
                return Err(SliceError::OutOfBounds { dim: d });
            }
        }
        Ok(())
    }
}

/// Extracts the window `spec` of `block` into a new, densely packed block —
/// the SIAL slicing assignment.
pub fn extract_slice(block: &Block, spec: &SliceSpec) -> Result<Block, SliceError> {
    spec.validate(block.shape())?;
    let out_shape = spec.slice_shape();
    let rank = spec.rank();
    if rank == 0 {
        return Ok(block.clone());
    }
    let src_strides = block.shape().strides();
    let mut out = Vec::with_capacity(out_shape.len());

    // Copy contiguous runs along the last dimension.
    let run = spec.extents[rank - 1];
    let outer_extents = &spec.extents[..rank - 1];
    let mut counters = [0usize; MAX_RANK];
    loop {
        let mut base = spec.offsets[rank - 1] * src_strides[rank - 1];
        for d in 0..rank - 1 {
            base += (spec.offsets[d] + counters[d]) * src_strides[d];
        }
        out.extend_from_slice(&block.data()[base..base + run]);
        // Advance outer odometer.
        let mut d = rank - 1;
        loop {
            if d == 0 {
                return Ok(Block::from_data(out_shape, out));
            }
            d -= 1;
            counters[d] += 1;
            if counters[d] < outer_extents[d] {
                break;
            }
            counters[d] = 0;
        }
    }
}

/// Writes `src` into the window `spec` of `dest` — the SIAL insertion
/// assignment. `src.shape()` must equal the window extents.
pub fn insert_slice(dest: &mut Block, spec: &SliceSpec, src: &Block) -> Result<(), SliceError> {
    spec.validate(dest.shape())?;
    if src.shape() != &spec.slice_shape() {
        return Err(SliceError::ShapeMismatch);
    }
    let rank = spec.rank();
    if rank == 0 {
        dest.data_mut()[0] = src.data()[0];
        return Ok(());
    }
    let dst_strides = dest.shape().strides();
    let run = spec.extents[rank - 1];
    let outer_extents = &spec.extents[..rank - 1];
    let mut counters = [0usize; MAX_RANK];
    let mut src_off = 0usize;
    loop {
        let mut base = spec.offsets[rank - 1] * dst_strides[rank - 1];
        for d in 0..rank - 1 {
            base += (spec.offsets[d] + counters[d]) * dst_strides[d];
        }
        dest.data_mut()[base..base + run].copy_from_slice(&src.data()[src_off..src_off + run]);
        src_off += run;
        let mut d = rank - 1;
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            counters[d] += 1;
            if counters[d] < outer_extents[d] {
                break;
            }
            counters[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(dims: &[usize]) -> Block {
        let shape = Shape::new(dims);
        let mut n = 0.0;
        Block::from_fn(shape, |_| {
            n += 1.0;
            n
        })
    }

    #[test]
    fn paper_example_16x16_to_4x16() {
        // Fig 1 of the paper: Xii(ii,j) = Xi(ii,j) takes a 4x16 slice of a
        // 16x16 block.
        let xi = numbered(&[16, 16]);
        let spec = SliceSpec::new(&[4, 0], &[4, 16]);
        let xii = extract_slice(&xi, &spec).unwrap();
        assert_eq!(xii.shape().dims(), &[4, 16]);
        for r in 0..4 {
            for c in 0..16 {
                assert_eq!(xii.get(&[r, c]), xi.get(&[r + 4, c]));
            }
        }
    }

    #[test]
    fn insert_roundtrip_is_identity_on_window() {
        let mut dst = numbered(&[6, 5, 4]);
        let orig = dst.clone();
        let spec = SliceSpec::new(&[1, 2, 0], &[3, 2, 4]);
        let sl = extract_slice(&dst, &spec).unwrap();
        insert_slice(&mut dst, &spec, &sl).unwrap();
        assert_eq!(dst, orig);
    }

    #[test]
    fn insert_changes_only_window() {
        let mut dst = Block::zeros(Shape::new(&[4, 4]));
        let src = Block::filled(Shape::new(&[2, 2]), 9.0);
        let spec = SliceSpec::new(&[1, 1], &[2, 2]);
        insert_slice(&mut dst, &spec, &src).unwrap();
        let mut want = Block::zeros(Shape::new(&[4, 4]));
        for r in 1..3 {
            for c in 1..3 {
                want.set(&[r, c], 9.0);
            }
        }
        assert_eq!(dst, want);
    }

    #[test]
    fn full_slice_is_clone() {
        let b = numbered(&[3, 4]);
        let spec = SliceSpec::full(b.shape());
        assert_eq!(extract_slice(&b, &spec).unwrap(), b);
    }

    #[test]
    fn rank1_slice() {
        let b = numbered(&[10]);
        let spec = SliceSpec::new(&[3], &[4]);
        let s = extract_slice(&b, &spec).unwrap();
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let b = numbered(&[4, 4]);
        let spec = SliceSpec::new(&[2, 0], &[3, 4]);
        assert_eq!(
            extract_slice(&b, &spec).unwrap_err(),
            SliceError::OutOfBounds { dim: 0 }
        );
    }

    #[test]
    fn rank_mismatch_detected() {
        let b = numbered(&[4, 4]);
        let spec = SliceSpec::new(&[0], &[2]);
        assert!(matches!(
            extract_slice(&b, &spec),
            Err(SliceError::RankMismatch { .. })
        ));
    }

    #[test]
    fn insertion_shape_mismatch_detected() {
        let mut b = numbered(&[4, 4]);
        let spec = SliceSpec::new(&[0, 0], &[2, 2]);
        let src = Block::zeros(Shape::new(&[2, 3]));
        assert_eq!(
            insert_slice(&mut b, &spec, &src).unwrap_err(),
            SliceError::ShapeMismatch
        );
    }
}
