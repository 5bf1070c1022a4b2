//! # unigpu-graph
//!
//! The computational-graph layer of the stack (Fig. 1's "Computational
//! Graph → Optimized Computational Graph" stages):
//!
//! * [`node`]/[`graph`] — the graph representation with shape inference;
//! * [`passes`] — graph-level optimizations (§3.2.3): batch-norm folding
//!   into convolution weights (pre-computing), operator fusion
//!   (conv+bias+activation, activation chains), and the §3.1.2 two-pass
//!   heterogeneous *device placement* that falls GPU-unfriendly operators
//!   back to the CPU with `DeviceCopy` nodes inserted at boundaries;
//! * [`exec`] — the functional executor (real tensors, used by tests and
//!   examples), which runs in the arena [`memory`] plans;
//! * [`latency`] — the simulated-latency estimator: every operator's cost-
//!   model profiles are priced on the assigned device, plus CPU↔GPU
//!   transfer costs at placement boundaries. This is what regenerates the
//!   paper's latency tables.

pub mod analysis;
pub mod exec;
pub mod graph;
pub mod latency;
pub mod memory;
pub mod node;
pub mod passes;

pub use analysis::{op_histogram, parameter_count, to_dot};
pub use exec::Executor;
pub use graph::{Graph, NodeId};
pub use latency::{
    estimate_latency, estimate_latency_traced, LatencyOptions, LatencyReport, ScheduleProvider,
};
pub use memory::{MemoryPlan, Workspace};
pub use node::{Activation, Const, Node, OpKind};
pub use passes::{
    fold_batch_norms, fuse_ops, place, rebatch, Device, Placement, PlacementPolicy,
};
