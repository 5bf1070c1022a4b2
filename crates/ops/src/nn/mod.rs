//! Dense network operators: linear algebra, pooling, normalization,
//! activations and tensor plumbing.
//!
//! These are the non-convolution operators CNN models are assembled from.
//! Each is a plain tensor function; the matching cost-model profiles live in
//! [`profiles`].

pub mod eltwise;
pub mod linear;
pub mod norm;
pub mod pool;
pub mod profiles;

pub use eltwise::{add, concat_channels, flatten, leaky_relu, relu, sigmoid, upsample_nearest};
pub use linear::{bias_add, dense};
pub use norm::{batch_norm, fold_batch_norm, softmax};
pub use pool::{avg_pool2d, global_avg_pool, max_pool2d};
pub use profiles::{eltwise_profile, pool_profile, reduction_profile};
