//! # unigpu-tensor
//!
//! Dense n-dimensional tensors, data layouts, and layout transformations for the
//! `unigpu` CNN-inference stack.
//!
//! The stack follows the paper's TVM lineage: activations are 4-d `NCHW` tensors
//! by default, and the graph tuner may rewrite convolution subgraphs into blocked
//! `NCHW{c}` layouts (a.k.a. `NCHWc`) so that the innermost dimension matches a
//! device's SIMD width. Weights are `OIHW`.
//!
//! Everything here is plain host memory: the simulated devices in
//! `unigpu-device` share memory with the CPU (integrated GPUs share DRAM with
//! the CPU cores), so a "device tensor" is the same buffer plus an ownership tag
//! maintained by the runtime.

pub mod approx;
pub mod dtype;
pub mod init;
pub mod layout;
pub mod shape;
pub mod tensor;

pub use approx::{allclose, max_abs_diff};
pub use dtype::DType;
pub use init::Initializer;
pub use layout::Layout;
pub use shape::Shape;
pub use tensor::{Storage, Tensor};
