//! Convolution: reference kernels, the tunable spatial-pack template, and the
//! schedule-config → cost-model bridge.

pub mod config;
pub mod profile;
pub mod reference;
pub mod spatial_pack;
pub mod te;

pub use config::{ConfigSpace, ConvConfig, FallbackClass};
pub use profile::conv_profile;
pub use reference::{
    all_finite, conv2d_prechecked, conv2d_prechecked_into, conv2d_ref, conv2d_scratch_len,
};
pub use spatial_pack::conv2d_spatial_pack;
