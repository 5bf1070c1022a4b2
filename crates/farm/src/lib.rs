//! # unigpu-farm
//!
//! A distributed measurement service for the auto-tuner, mirroring
//! AutoTVM's RPC tracker / measurement-worker architecture. The paper's
//! schedule search "took up to tens of hours ... for one device" (§3.2.3);
//! in production TVM amortizes that across a farm of devices. This crate
//! reproduces the coordination layer over plain TCP with length-prefixed
//! JSON frames — std networking only:
//!
//! * [`tracker`] — the coordination service: registers workers, leases
//!   jobs with deadlines and heartbeats, re-queues leases on worker death
//!   or timeout with bounded retries, accumulates per-batch results.
//! * [`worker`] — serves one simulated [`DeviceSpec`], running leased jobs
//!   through `unigpu_tuner::tune_one` (bit-identical to the local path).
//! * [`client`] — [`FarmClient`], the `Dispatcher` impl that
//!   `tune_graph_with` uses to fan a model's workloads out to the farm.
//! * [`proto`] — the frame format shared by all three.
//! * [`framing`] — the protocol-agnostic length-prefixed JSON codec (also
//!   used by the fleet serving protocol in `unigpu-fleet`).
//! * [`netchaos`] — deterministic *wire-level* fault injection: dropped
//!   connections, flipped bytes, truncated and duplicated frames, applied
//!   by a [`ChaosStream`] wrapper.
//! * [`backoff`] — the deterministic bounded reconnect schedule shared by
//!   the worker and the fleet router's resume path.
//!
//! Both fault domains a farm process has, worker death
//! (`kill_after_leases=K`) and the wire, are knobs of the one fault plan,
//! [`unigpu_device::FaultPlan`], which [`WorkerConfig::faults`] carries.
//!
//! [`DeviceSpec`]: unigpu_device::DeviceSpec

pub mod backoff;
pub mod client;
pub mod framing;
pub mod netchaos;
pub mod proto;
pub mod tracker;
pub mod worker;

pub use backoff::Backoff;
pub use client::FarmClient;
pub use framing::{crc32, FrameError, Framed, WireFrame, FRAMING_VERSION};
pub use netchaos::{ChaosStream, NetStats, SharedNetFaults};
pub use unigpu_device::NetFaultPlan;
pub use proto::{read_frame, write_frame, Frame, MAX_FRAME_BYTES};
pub use tracker::{Tracker, TrackerConfig, TrackerHandle, LANE_FARM_WORKER_BASE};
pub use worker::{run_worker, WorkerConfig, WorkerExit};
