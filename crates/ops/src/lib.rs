//! # unigpu-ops
//!
//! The operator library of the stack:
//!
//! * [`conv`] — the computationally-intensive operators (§3.2): direct
//!   reference convolution, the schedule-parameterized spatial-pack template
//!   searched by AutoTVM, depthwise convolution, and the bridge that turns a
//!   (workload, schedule-config, device) triple into a cost-model
//!   [`unigpu_device::KernelProfile`]. The Intel Graphics heuristics of
//!   §3.2.1 (subgroup weight broadcast, GRF-resident register tiles) live
//!   here.
//! * [`nn`] — the remaining dense network operators: dense, pooling,
//!   batch norm (+ inference folding), activations, softmax, elementwise,
//!   concat, upsampling.
//! * [`vision`] — the vision-specific operators of §3.1 that block object
//!   detection models from running on integrated GPUs: segmented argsort
//!   (Fig. 2), the three-stage register-blocked prefix sum (Fig. 3),
//!   divergence-free `box_nms`, SSD multibox anchor generation and decoding,
//!   `ROIAlign`, and the YOLO detection head. Each has an *optimized* and a
//!   *naive* GPU realization so Table 4's ablation can be regenerated.
//!
//! Every operator provides (a) a functional implementation (real numbers,
//! tested) and (b) an analytic profile for the device cost model (simulated
//! latency).

pub mod conv;
pub mod nn;
pub mod vision;
pub mod workload;

pub use workload::ConvWorkload;
