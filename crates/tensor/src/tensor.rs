//! The dense tensor container used throughout the stack.

use crate::{DType, Shape};

/// Backing storage for a tensor, tagged by element type.
///
/// A small closed enum (instead of a generic parameter) keeps the graph
/// runtime object-safe: graph nodes pass `Tensor`s around without
/// monomorphizing the whole executor per dtype.
#[derive(Debug, Clone, PartialEq)]
pub enum Storage {
    F32(Vec<f32>),
}

impl Storage {
    /// Number of elements held.
    pub fn len(&self) -> usize {
        match self {
            Storage::F32(v) => v.len(),
        }
    }

    /// True if no elements are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type of the storage.
    pub fn dtype(&self) -> DType {
        match self {
            Storage::F32(_) => DType::F32,
        }
    }
}

/// A dense row-major tensor.
///
/// `Tensor` owns its buffer. The integrated-GPU simulator shares host memory
/// with the CPU (as real integrated GPUs share DRAM), so no separate device
/// allocation type exists; device residency is tracked by the graph runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Storage,
}

impl Tensor {
    /// Build a tensor from a shape and matching storage.
    ///
    /// # Panics
    /// Panics if `shape.numel() != data.len()`.
    pub fn new(shape: impl Into<Shape>, data: Storage) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} does not match buffer of {} elements",
            data.len()
        );
        Tensor { shape, data }
    }

    /// All-zero f32 tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: Storage::F32(vec![0.0; n]) }
    }

    /// f32 tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: Storage::F32(vec![value; n]) }
    }

    /// f32 tensor from an existing buffer.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        Tensor::new(shape, Storage::F32(data))
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Element dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Borrow as f32 slice.
    pub fn as_f32(&self) -> &[f32] {
        match &self.data {
            Storage::F32(v) => v,
        }
    }

    /// Mutably borrow as f32 slice.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            Storage::F32(v) => v,
        }
    }

    /// f32 element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.as_f32()[self.shape.offset(idx)]
    }

    /// Set f32 element at a multi-index.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.shape.offset(idx);
        self.as_f32_mut()[off] = v;
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape {} -> {shape} changes element count",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Map every f32 element through `f`, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.as_f32_mut() {
            *v = f(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_count_and_dtype() {
        let t = Tensor::zeros([2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.dtype(), DType::F32);
        assert!(t.as_f32().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
        assert_eq!(t.as_f32()[t.shape().offset(&[1, 2, 3])], 7.5);
    }

    #[test]
    #[should_panic]
    fn mismatched_buffer_panics() {
        Tensor::from_vec([2, 2], vec![1.0; 5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.reshape([3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    #[should_panic]
    fn reshape_bad_count_panics() {
        Tensor::zeros([2, 3]).reshape([4, 2]);
    }

    #[test]
    fn map_inplace() {
        let mut t = Tensor::from_vec([3], vec![1.0, -2.0, 3.0]);
        t.map_inplace(|x| x.max(0.0));
        assert_eq!(t.as_f32(), &[1.0, 0.0, 3.0]);
    }
}
