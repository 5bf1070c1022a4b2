//! # unigpu-baselines
//!
//! Emulation of the vendor-provided baselines the paper compares against
//! (§4.1):
//!
//! * **Intel OpenVINO / clDNN** on AWS DeepLens — expert fixed schedules for
//!   Intel Graphics (including subgroup usage and a mature depthwise
//!   kernel), but *classification models only*: "OpenVINO only restricts the
//!   support of the image classification models".
//! * **ARM Compute Library v19.02** on Acer aiSage — good dense kernels and
//!   hand-written detection post-processing, wired up manually ("it required
//!   sophisticated programming skills").
//! * **MXNet + cuDNN v7** on Jetson Nano — excellent classic-shape
//!   convolutions, weaker coverage of novel shapes (depthwise, SqueezeNet
//!   towers), no cross-operator fusion, framework dispatch overhead per op.
//!
//! Each baseline is a [`ScheduleProvider`] of curated expert schedules plus
//! a coverage matrix and framework-level adjustments, priced through the
//! *same* device cost model as our stack — reproducing the structure of the
//! paper's comparison: fixed expert schedules + coverage gaps versus
//! searched schedules + full coverage.
//!
//! [`paper`] holds the paper's reported cells and [`paper::tables`], which
//! regenerates the whole evaluation against these baselines.
//!
//! [`ScheduleProvider`]: unigpu_graph::ScheduleProvider

pub mod paper;
pub mod vendor;

pub use vendor::{acl, baseline_for, cudnn_mxnet, openvino, Baseline, VendorSchedules};
