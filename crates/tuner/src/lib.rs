//! # unigpu-tuner
//!
//! The machine-learning-based performance-tuning layer (§3.2.3):
//!
//! * [`measure`] — the "hardware measurement" abstraction. On real devices
//!   AutoTVM compiles and times candidate kernels; here candidates are priced
//!   by the device cost model with optional measurement noise, which
//!   exercises the full statistical machinery.
//! * [`features`] — schedule-config feature extraction for the cost model.
//! * [`gbt`] — gradient-boosted regression trees, the surrogate model that
//!   ranks unmeasured configurations (AutoTVM's XGBoost stand-in).
//! * [`tuners`] — search strategies over a [`ConfigSpace`]: random, grid,
//!   simulated annealing, and the model-based tuner (GBT + SA proposal +
//!   ε-greedy batch selection).
//! * [`records`] — the tuning database: "we maintain a database to store the
//!   results for every convolution workload on each hardware platform".
//! * [`graph_tuner`] — the graph-level layout tuner: dynamic programming
//!   over per-layer schedule candidates weighing kernel gains against data
//!   layout transformation overheads.
//! * [`dispatch`] — how the pipeline fans search out: one [`TuneJob`] per
//!   distinct workload through a [`Dispatcher`] (the host's lanes, or the
//!   `unigpu-farm` tracker/worker service), bit-identical at zero
//!   measurement noise on any number of lanes.
//! * [`pipeline`] — end-to-end: extract a model's conv workloads, tune each,
//!   produce a [`records::Database`] whose `TunedSchedules` plugs into the
//!   graph latency estimator.
//!
//! [`ConfigSpace`]: unigpu_ops::conv::ConfigSpace

pub mod dispatch;
pub mod features;
pub mod ga;
pub mod gbt;
pub mod graph_tuner;
pub mod measure;
pub mod pipeline;
pub mod records;
pub mod tuners;

pub use dispatch::{
    tune_one, Candidate, DispatchError, Dispatcher, LocalDispatcher, MeasuredDrift, TuneJob,
    TuneOutcome,
};
pub use measure::{Measurer, SimMeasurer};
pub use pipeline::{tune_graph, tune_graph_with, TunedSchedules, TuningBudget};
pub use records::{db_dir, device_db_path, Database, LoadRecovery, TuneRecord};
pub use ga::GaTuner;
pub use tuners::{GridTuner, ModelBasedTuner, RandomTuner, SaTuner, TuneResult, Tuner};
