//! Tensor shapes and row-major index arithmetic.

use serde::{Deserialize, Serialize};

/// The extent of each tensor dimension, outermost first (row-major).
///
/// CNN activations are rank-4 `NCHW` (or rank-5 `NCHWc` after blocking); the
/// vision operators also use rank-2/3 tensors (box lists, score matrices), so
/// `Shape` stays rank-generic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Create a shape from dimension extents.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `i` (panics if out of range).
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (product of extents; 1 for rank-0).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (in elements, not bytes).
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Flat row-major offset of a multi-index. Panics (in debug) on
    /// out-of-range coordinates.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for i in (0..self.rank()).rev() {
            debug_assert!(idx[i] < self.0[i], "index {} out of range dim {}", idx[i], i);
            off += idx[i] * stride;
            stride *= self.0[i];
        }
        off
    }

    /// Interpret as `NCHW` activation dims. Panics unless rank is 4.
    pub fn nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 4, "expected NCHW shape, got rank {}", self.rank());
        (self.0[0], self.0[1], self.0[2], self.0[3])
    }

    /// Interpret as blocked `NCHWc` activation dims. Panics unless rank is 5.
    pub fn nchwc(&self) -> (usize, usize, usize, usize, usize) {
        assert_eq!(self.rank(), 5, "expected NCHWc shape, got rank {}", self.rank());
        (self.0[0], self.0[1], self.0[2], self.0[3], self.0[4])
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_strides() {
        let s = Shape::from([2, 3, 4, 5]);
        assert_eq!(s.numel(), 120);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::from([2, 3, 4]);
        let st = s.strides();
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    let by_stride = n * st[0] + c * st[1] + h * st[2];
                    assert_eq!(s.offset(&[n, c, h]), by_stride);
                }
            }
        }
    }

    #[test]
    fn rank0_numel_is_one() {
        let s = Shape::new(Vec::<usize>::new());
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn nchw_accessor() {
        let s = Shape::from([1, 64, 56, 56]);
        assert_eq!(s.nchw(), (1, 64, 56, 56));
    }

    #[test]
    #[should_panic]
    fn nchw_wrong_rank_panics() {
        Shape::from([1, 2, 3]).nchw();
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Shape::from([1, 3, 224, 224])), "(1, 3, 224, 224)");
    }
}
