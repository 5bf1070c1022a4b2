//! # unigpu-device
//!
//! The integrated-GPU substrate of the stack: device descriptions, an analytic
//! performance (cost) model, and a work-group executor that runs simulated GPU
//! kernels on the host with faithful barrier semantics.
//!
//! ## Why a simulator
//!
//! The paper evaluates on three physical edge SoCs (AWS DeepLens / Intel HD
//! 505, Acer aiSage / ARM Mali T-860, Nvidia Jetson Nano / Maxwell). Those
//! devices — and a mature Rust OpenCL/CUDA autotuning path — are unavailable
//! here, so this crate provides the closest synthetic equivalent:
//!
//! * [`spec::DeviceSpec`] captures the microarchitectural parameters the
//!   paper's optimizations key on (compute units, SIMD width, subgroup support
//!   on Intel, *absence* of shared local memory on Mali, warp width on
//!   Maxwell, memory bandwidth, launch overheads).
//! * [`cost::CostModel`] is a roofline-plus-penalties model: every knob in a
//!   schedule template (tiling, vectorization, unrolling, work-group shape,
//!   subgroup usage) moves a measurable factor, so the AutoTVM-style search in
//!   `unigpu-tuner` explores a landscape with the same structure as the real
//!   hardware's.
//! * [`exec`] actually executes kernels (functionally, on the host) using
//!   the OpenCL/CUDA execution model: a grid of work-groups, work-items inside
//!   a group, and phases separated by barriers.
//!
//! Functional results are real and tested; *latency* is the model's output.

pub mod cost;
pub mod exec;
pub mod fault;
pub mod profile;
pub mod spec;
pub mod timeline;

pub use cost::{CostModel, CostTable};
pub use exec::{dispatch_chunks, dispatch_lanes, dispatch_map, lanes};
pub use fault::{
    DeviceFault, DeviceFaultPlan, DeviceFaultState, FaultPlan, LaunchOutcome, NetFaultPlan,
};
pub use profile::{KernelProfile, TransferProfile};
pub use spec::{Api, DeviceKind, DeviceSpec, Platform, Vendor};
pub use timeline::{MultiTimeline, StreamEvent, StreamLabel};
