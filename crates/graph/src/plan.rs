//! The compiled plan: one pass over a placed graph that every later use of
//! it reads.
//!
//! [`Plan::new`] infers the placed graph's shapes once and prices every node
//! on its device ([`latency`](crate::latency)); the priced steps, summed in
//! node order, are the plan's [`LatencyReport`]. The first [`Plan::run`]
//! places the arena (`memory.rs`) from the same shapes, so a plan that is
//! only priced never pays for placement, and the plan keeps one workspace
//! for its runs.

use crate::exec::run_steps;
use crate::graph::Graph;
use crate::latency::{price, LatencyOptions, LatencyReport, ScheduleProvider};
use crate::memory::{Arena, Workspace};
use crate::passes::{Device, Placement};
use std::sync::{Mutex, OnceLock};
use unigpu_device::Platform;
use unigpu_telemetry::tel_debug;
use unigpu_tensor::{Shape, Tensor};

/// A placed graph, priced once and placed in memory by its first run.
#[derive(Debug)]
pub struct Plan {
    shapes: Vec<Shape>,
    /// Per node: its device and predicted ms.
    steps: Vec<(Device, f64)>,
    pub(crate) report: LatencyReport,
    arena: OnceLock<Arena>,
    /// The workspace runs reuse: a run takes it and puts it back, and a run
    /// that finds it taken by a concurrent one makes its own.
    workspace: Mutex<Option<Workspace>>,
}

impl Plan {
    /// Prices `placement` on `platform` under `provider`'s schedules.
    ///
    /// # Panics
    /// Panics where shape inference does.
    pub fn new(
        placement: &Placement,
        platform: &Platform,
        provider: &dyn ScheduleProvider,
        opts: &LatencyOptions,
    ) -> Plan {
        let shapes = placement.graph.infer_shapes();
        let (steps, report) = price(placement, &shapes, platform, provider, opts);
        Plan {
            shapes,
            steps,
            report,
            arena: OnceLock::new(),
            workspace: Mutex::default(),
        }
    }

    /// The latency the steps sum to.
    pub fn report(&self) -> &LatencyReport {
        &self.report
    }

    /// Per node, in node order: its device, predicted ms and output shape.
    pub fn steps(&self) -> impl Iterator<Item = (Device, f64, &Shape)> {
        self.steps.iter().zip(&self.shapes).map(|(&(device, ms), shape)| (device, ms, shape))
    }

    /// Floats in the arena of `graph`, the graph this plan priced.
    pub fn arena_len(&self, graph: &Graph) -> usize {
        self.arena(graph).arena_len
    }

    /// The most arena floats live at one step of `graph`: no placement fits
    /// in less.
    pub fn liveness_bound(&self, graph: &Graph) -> usize {
        self.arena(graph).liveness_bound()
    }

    fn arena(&self, graph: &Graph) -> &Arena {
        self.arena.get_or_init(|| {
            let arena = Arena::new(graph, &self.shapes);
            tel_debug!(
                "graph",
                "arena of {}: {} floats, liveness bound {}",
                graph.name,
                arena.arena_len,
                arena.liveness_bound()
            );
            arena
        })
    }

    /// Runs `graph`, the graph this plan priced, on `inputs` in the plan's
    /// arena and kept workspace. Returns the tensors of the marked outputs.
    pub fn run(&self, graph: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
        let arena = self.arena(graph);
        let kept = self.workspace.lock().expect("workspace poisoned").take();
        let mut workspace = kept.unwrap_or_else(|| arena.workspace());
        let outputs = run_steps(graph, &self.shapes, arena, &mut workspace, inputs, None);
        self.workspace.lock().expect("workspace poisoned").get_or_insert(workspace);
        outputs
    }
}
