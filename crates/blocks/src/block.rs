//! The [`Block`] type: a dense tile of doubles — a SIA *super number*.
//!
//! Blocks carry their shape and own their storage. The intrinsic scalar super
//! instructions of SIAL (assigning a scalar to a block fills it; multiplying
//! a block by a scalar scales every element; `+=` accumulates) are methods
//! here, so the interpreter in `sia-runtime` maps one SIAL statement to one
//! method call.

use crate::shape::Shape;
use std::fmt;

/// A dense, row-major block of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Block {
    shape: Shape,
    data: Vec<f64>,
}

impl Block {
    /// A zero-initialized block of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        Block {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// A block with every element set to `value`.
    pub fn filled(shape: Shape, value: f64) -> Self {
        Block {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// A scalar block holding one value.
    pub fn scalar(value: f64) -> Self {
        Block {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Builds a block from a shape and existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_data(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), shape.len(), "data length does not match shape");
        Block { shape, data }
    }

    /// Decodes a block whose elements are stored as little-endian `f64`s —
    /// the payload layout of every on-disk block format. `None` when `bytes`
    /// is not exactly `shape.len()` elements long.
    pub fn from_le_bytes(shape: Shape, bytes: &[u8]) -> Option<Self> {
        if shape.len().checked_mul(8)? != bytes.len() {
            return None;
        }
        // On a little-endian target the encoding is the elements' own
        // memory: one copy of the whole payload, not one per element.
        #[cfg(target_endian = "little")]
        let data = {
            let mut data = Vec::<f64>::with_capacity(shape.len());
            // SAFETY: `bytes` is `shape.len() * 8` bytes (checked above) and
            // the fresh allocation has room for as many; they cannot overlap.
            // Every bit pattern is an `f64`, so all `shape.len()` elements
            // are initialized once the bytes are in.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    data.as_mut_ptr().cast::<u8>(),
                    bytes.len(),
                );
                data.set_len(shape.len());
            }
            data
        };
        #[cfg(not(target_endian = "little"))]
        let data = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        Some(Block { shape, data })
    }

    /// Appends the block's elements to `out` as little-endian `f64`s — the
    /// encoding [`Block::from_le_bytes`] reads back.
    pub fn append_le_bytes(&self, out: &mut Vec<u8>) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: an `f64` slice is `len * 8` initialized bytes with no
            // padding, and `u8` has no alignment requirement.
            let bytes = unsafe {
                std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len() * 8)
            };
            out.extend_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        {
            out.reserve(self.data.len() * 8);
            for v in &self.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Builds a block by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for idx in shape.indices() {
            data.push(f(&idx[..shape.rank()]));
        }
        Block { shape, data }
    }

    /// The block's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Blocks are never empty (shapes have no zero extents).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read-only view of the raw data (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw data (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the block, returning its storage.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Element at multi-index `idx`.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at multi-index `idx`.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// The value of a scalar (rank-0 or single-element) block.
    ///
    /// # Panics
    /// Panics if the block has more than one element.
    pub fn as_scalar(&self) -> f64 {
        assert_eq!(self.data.len(), 1, "block is not a scalar");
        self.data[0]
    }

    // ---- intrinsic scalar super instructions -------------------------------

    /// SIAL `blk = s`: every element receives the scalar.
    pub fn fill(&mut self, s: f64) {
        self.data.fill(s);
    }

    /// SIAL `blk = blk * s` (and `s * blk`): scale every element.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// SIAL `blk += other`: elementwise accumulation.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &Block) {
        assert_eq!(self.shape, other.shape, "accumulate: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// SIAL `blk -= other`: elementwise subtraction.
    pub fn subtract(&mut self, other: &Block) {
        assert_eq!(self.shape, other.shape, "subtract: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= *b;
        }
    }

    /// `self += alpha * other` — the workhorse AXPY on blocks.
    pub fn axpy(&mut self, alpha: f64, other: &Block) {
        assert_eq!(self.shape, other.shape, "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
    }

    /// Elementwise (Hadamard) product, used by a few ACES III kernels.
    pub fn hadamard(&mut self, other: &Block) {
        assert_eq!(self.shape, other.shape, "hadamard: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= *b;
        }
    }

    // ---- reductions --------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Dot product with another block of the same shape (full contraction).
    pub fn dot(&self, other: &Block) -> f64 {
        assert_eq!(self.shape, other.shape, "dot: shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// True if all elements of `self` and `other` agree within `tol`.
    pub fn approx_eq(&self, other: &Block, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({}, {} elems)", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b123() -> Block {
        Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64)
    }

    #[test]
    fn zeros_and_len() {
        let b = Block::zeros(Shape::new(&[3, 4]));
        assert_eq!(b.len(), 12);
        assert_eq!(b.sum(), 0.0);
    }

    #[test]
    fn from_fn_get_set() {
        let mut b = b123();
        assert_eq!(b.get(&[1, 2]), 5.0);
        b.set(&[1, 2], -1.0);
        assert_eq!(b.get(&[1, 2]), -1.0);
    }

    #[test]
    fn le_bytes_roundtrip() {
        let b = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64 - 0.125);
        let mut raw = vec![0xAA];
        b.append_le_bytes(&mut raw);
        assert_eq!(raw.len(), 1 + 6 * 8, "appended after what was there");
        assert_eq!(raw[1..9], (-0.125f64).to_le_bytes());
        assert_eq!(Block::from_le_bytes(*b.shape(), &raw[1..]), Some(b.clone()));
        assert_eq!(
            Block::from_le_bytes(*b.shape(), &raw),
            None,
            "one byte over"
        );
        assert_eq!(Block::from_le_bytes(*b.shape(), &raw[9..]), None, "short");
    }

    #[test]
    fn scalar_block_roundtrip() {
        let b = Block::scalar(3.25);
        assert_eq!(b.as_scalar(), 3.25);
        assert_eq!(b.shape().rank(), 0);
    }

    #[test]
    fn fill_scale_accumulate() {
        let mut a = Block::zeros(Shape::new(&[2, 2]));
        a.fill(2.0);
        a.scale(3.0);
        let b = Block::filled(Shape::new(&[2, 2]), 1.0);
        a.accumulate(&b);
        assert!(a.data().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Block::filled(Shape::new(&[4]), 1.0);
        let b = Block::filled(Shape::new(&[4]), 2.0);
        a.axpy(0.5, &b);
        assert!(a.data().iter().all(|&x| (x - 2.0).abs() < 1e-15));
    }

    #[test]
    fn subtract_and_hadamard() {
        let mut a = Block::filled(Shape::new(&[3]), 5.0);
        let b = Block::filled(Shape::new(&[3]), 2.0);
        a.subtract(&b);
        assert!(a.data().iter().all(|&x| x == 3.0));
        a.hadamard(&b);
        assert!(a.data().iter().all(|&x| x == 6.0));
    }

    #[test]
    fn reductions() {
        let b = b123(); // 0..=5
        assert_eq!(b.sum(), 15.0);
        assert_eq!(b.max_abs(), 5.0);
        let n2: f64 = (0..6).map(|x| (x * x) as f64).sum();
        assert!((b.norm() - n2.sqrt()).abs() < 1e-12);
        assert!((b.dot(&b) - n2).abs() < 1e-12);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Block::filled(Shape::new(&[2]), 1.0);
        let mut b = a.clone();
        b.data_mut()[0] += 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
    }

    #[test]
    #[should_panic]
    fn accumulate_shape_mismatch_panics() {
        let mut a = Block::zeros(Shape::new(&[2, 2]));
        let b = Block::zeros(Shape::new(&[4]));
        a.accumulate(&b);
    }

    #[test]
    #[should_panic]
    fn from_data_length_mismatch_panics() {
        let _ = Block::from_data(Shape::new(&[2, 2]), vec![0.0; 3]);
    }
}
