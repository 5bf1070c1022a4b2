//! Dense network operators: linear algebra, pooling, normalization,
//! activations and tensor plumbing.
//!
//! These are the non-convolution operators CNN models are assembled from.
//! The executor calls the `_into` forms, which write a caller's buffer; the
//! matching cost-model profiles live in [`profiles`].

pub mod eltwise;
pub mod linear;
pub mod norm;
pub mod pool;
pub mod profiles;

pub use eltwise::{
    add, add_into, concat_channels_into, flatten, leaky_relu, relu, sigmoid, upsample_nearest_into,
};
pub use linear::{bias_add, dense, dense_into};
pub use norm::{batch_norm_into, fold_batch_norm, softmax, softmax_into};
pub use pool::{global_avg_pool, global_avg_pool_into, max_pool2d_into};
pub use profiles::{eltwise_profile, pool_profile, reduction_profile};
