//! # unigpu-fleet
//!
//! Fleet-scale serving: a heterogeneous pool of simulated devices behind
//! a device-aware router. The paper tunes one model for one integrated
//! GPU at a time; a deployment serves that model from *many* such boards
//! at once — DeepLens alongside aiSage alongside Jetson Nano — and the
//! per-device cost model the compiler already built is exactly the
//! information a load balancer needs to use them well.
//!
//! * [`proto`] — the router⇄replica wire protocol, over the same
//!   length-prefixed JSON codec as the tuning farm
//!   ([`unigpu_farm::framing`]).
//! * [`replica`] — one replica: a [`Server`] wrapping a
//!   [`CompiledModel`] for one simulated device, in-process
//!   ([`LocalReplica`]) or behind TCP ([`run_replica`]).
//! * [`router`] — the [`Router`]: power-of-two-choices weighted by
//!   predicted cost, breaker/SLO-aware health gating, and lossless
//!   failover of dead replicas' backlogs
//!   (`offered == completed + shed + expired + failed`, fleet-wide).
//! * [`replication`] — warm artifact replication: one compile per device
//!   class, pushed to peers so cold replicas skip recompilation.
//! * [`pool`] — in-process heterogeneous pools for tests and benches.
//!
//! Everything runs on the simulated clock with counter-based fault
//! injection from one fault plan ([`unigpu_device::FaultPlan`]): device
//! knobs in each replica's server, wire knobs in every
//! [`unigpu_farm::netchaos`] stream, and `die_on_submit` replica kills; a
//! zero-noise fleet
//! run replays bit for bit ([`FleetReport::digest`]), and under any
//! fault composition the accounting balances with zero duplicate
//! completions ([`FleetReport::duplicate_completions`]).
//!
//! [`Server`]: unigpu_engine::Server
//! [`CompiledModel`]: unigpu_engine::CompiledModel

pub mod pool;
pub mod proto;
pub mod replica;
pub mod replication;
pub mod router;

pub use pool::{build_pool, ReplicaSpec};
pub use proto::{FleetFrame, ReplicaHealth, ReplicaReport};
pub use replica::{run_replica, LocalReplica, ReplicaConfig, ReplicaLink};
pub use replication::{artifact_of, warm_remote_pool};
pub use router::{FleetReport, RemoteReplica, RouteDecision, RoutePolicy, Router, RouterConfig};

/// Chrome-trace lane for fleet control events (replica deaths, failover).
/// Sits above the farm's worker lanes (64+) so a merged trace never
/// collides.
pub const LANE_FLEET_CONTROL: u32 = 96;
/// First Chrome-trace lane for per-replica routing spans; replica `i`
/// records on `LANE_FLEET_REPLICA_BASE + i`.
pub const LANE_FLEET_REPLICA_BASE: u32 = 97;
