//! Schedule primitives (the "how").
//!
//! A [`Schedule`] is an ordered list of loops derived from a compute's axes
//! by `split` / `reorder`, with per-loop execution tags applied by
//! `unroll` / `vectorize` / `bind`. These are precisely the knobs the paper's
//! convolution template exposes to AutoTVM (§3.2.2): output-channel blocking,
//! feature-map height splitting, unrolling, vectorizing, and work-group
//! binding.

use crate::compute::Compute;
use crate::expr::Expr;
use crate::stmt::LoopKind;
use serde::{Deserialize, Serialize};

/// Execution tag attached to a scheduled loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopTag {
    Serial,
    Unroll,
    Vectorize,
    BlockIdx(usize),
    ThreadIdx(usize),
}

impl LoopTag {
    pub fn to_kind(self) -> LoopKind {
        match self {
            LoopTag::Serial => LoopKind::Serial,
            LoopTag::Unroll => LoopKind::Unrolled,
            LoopTag::Vectorize => LoopKind::Vectorized,
            LoopTag::BlockIdx(d) => LoopKind::BlockIdx(d),
            LoopTag::ThreadIdx(d) => LoopKind::ThreadIdx(d),
        }
    }
}

/// One loop of the scheduled nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopDef {
    pub var: String,
    pub extent: usize,
    pub tag: LoopTag,
    /// True if this loop iterates (part of) a reduction axis.
    pub is_reduce: bool,
}

/// Errors raised by illegal schedule transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    UnknownLoop(String),
    /// Binding a reduction loop to the GPU grid would require cross-thread
    /// reduction support, which this stack (like the paper's template)
    /// performs via rfactor-free serial reduction per thread.
    BindReduceLoop(String),
    DuplicateName(String),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnknownLoop(n) => write!(f, "unknown loop `{n}`"),
            ScheduleError::BindReduceLoop(n) => {
                write!(f, "cannot bind reduction loop `{n}` to the GPU grid")
            }
            ScheduleError::DuplicateName(n) => write!(f, "loop name `{n}` already exists"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A schedule over one compute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    loops: Vec<LoopDef>,
    /// Variable substitutions accumulated by split, applied to the
    /// compute body at lowering time, in application order.
    substs: Vec<(String, Expr)>,
    /// Guard predicates for imperfect splits (`i_o*f + i_i < extent`).
    guards: Vec<Expr>,
}

impl Schedule {
    /// The default schedule: spatial axes outermost (in declaration order),
    /// then reduction axes, all serial.
    pub fn default_for(c: &Compute) -> Self {
        let mut loops = Vec::new();
        for a in &c.axes {
            loops.push(LoopDef {
                var: a.name.clone(),
                extent: a.extent,
                tag: LoopTag::Serial,
                is_reduce: false,
            });
        }
        for a in &c.reduce_axes {
            loops.push(LoopDef {
                var: a.name.clone(),
                extent: a.extent,
                tag: LoopTag::Serial,
                is_reduce: true,
            });
        }
        Schedule { loops, substs: Vec::new(), guards: Vec::new() }
    }

    /// Current loop order (outermost first).
    pub fn loops(&self) -> &[LoopDef] {
        &self.loops
    }

    /// Accumulated substitutions (oldest first).
    pub fn substs(&self) -> &[(String, Expr)] {
        &self.substs
    }

    /// Accumulated guard predicates.
    pub fn guards(&self) -> &[Expr] {
        &self.guards
    }

    fn position(&self, name: &str) -> Result<usize, ScheduleError> {
        self.loops
            .iter()
            .position(|l| l.var == name)
            .ok_or_else(|| ScheduleError::UnknownLoop(name.to_string()))
    }

    /// Split loop `name` by `factor` into `{name}.o` (outer) and `{name}.i`
    /// (inner, extent = factor). Imperfect splits get a lowering guard.
    /// Returns the new (outer, inner) names.
    pub fn split(&mut self, name: &str, factor: usize) -> Result<(String, String), ScheduleError> {
        assert!(factor > 0, "split factor must be positive");
        let pos = self.position(name)?;
        let outer_name = format!("{name}.o");
        let inner_name = format!("{name}.i");
        for n in [&outer_name, &inner_name] {
            if self.loops.iter().any(|l| &l.var == n) {
                return Err(ScheduleError::DuplicateName(n.clone()));
            }
        }
        let old = self.loops[pos].clone();
        let outer_extent = old.extent.div_ceil(factor);
        let outer = LoopDef {
            var: outer_name.clone(),
            extent: outer_extent,
            tag: LoopTag::Serial,
            is_reduce: old.is_reduce,
        };
        let inner = LoopDef {
            var: inner_name.clone(),
            extent: factor,
            tag: LoopTag::Serial,
            is_reduce: old.is_reduce,
        };
        self.loops.splice(pos..=pos, [outer, inner]);
        let recon = Expr::var(outer_name.clone()) * Expr::Int(factor as i64)
            + Expr::var(inner_name.clone());
        if outer_extent * factor != old.extent {
            self.guards.push(Expr::lt(recon.clone(), Expr::Int(old.extent as i64)));
        }
        self.substs.push((name.to_string(), recon));
        Ok((outer_name, inner_name))
    }

    /// Reorder the listed loops into the given relative order; loops not
    /// listed keep their positions.
    pub fn reorder(&mut self, order: &[&str]) -> Result<(), ScheduleError> {
        let mut positions = Vec::with_capacity(order.len());
        for name in order {
            positions.push(self.position(name)?);
        }
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        let reordered: Vec<LoopDef> = positions
            .iter()
            .map(|&p| self.loops[p].clone())
            .collect();
        for (slot, def) in sorted.into_iter().zip(reordered) {
            self.loops[slot] = def;
        }
        Ok(())
    }

    /// Tag a loop as fully unrolled.
    pub fn unroll(&mut self, name: &str) -> Result<(), ScheduleError> {
        let p = self.position(name)?;
        self.loops[p].tag = LoopTag::Unroll;
        Ok(())
    }

    /// Tag a loop as SIMD-vectorized.
    pub fn vectorize(&mut self, name: &str) -> Result<(), ScheduleError> {
        let p = self.position(name)?;
        self.loops[p].tag = LoopTag::Vectorize;
        Ok(())
    }

    /// Bind a spatial loop to a GPU grid dimension.
    pub fn bind(&mut self, name: &str, tag: LoopTag) -> Result<(), ScheduleError> {
        let p = self.position(name)?;
        if self.loops[p].is_reduce && matches!(tag, LoopTag::BlockIdx(_) | LoopTag::ThreadIdx(_)) {
            return Err(ScheduleError::BindReduceLoop(name.to_string()));
        }
        self.loops[p].tag = tag;
        Ok(())
    }

    /// `split` + `bind` convenience: outer→BlockIdx(dim), inner→ThreadIdx(dim).
    pub fn split_bind(
        &mut self,
        name: &str,
        factor: usize,
        dim: usize,
    ) -> Result<(String, String), ScheduleError> {
        let (o, i) = self.split(name, factor)?;
        self.bind(&o, LoopTag::BlockIdx(dim))?;
        self.bind(&i, LoopTag::ThreadIdx(dim))?;
        Ok((o, i))
    }

    /// Product of extents of loops bound to `ThreadIdx` — the work-group size.
    pub fn workgroup_size(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| matches!(l.tag, LoopTag::ThreadIdx(_)))
            .map(|l| l.extent)
            .product()
    }

    /// Product of extents of loops bound to `BlockIdx` — the grid size.
    pub fn grid_size(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| matches!(l.tag, LoopTag::BlockIdx(_)))
            .map(|l| l.extent)
            .product()
    }

    /// Extent of the vectorized loop (1 if none).
    pub fn vector_len(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| l.tag == LoopTag::Vectorize)
            .map(|l| l.extent)
            .product::<usize>()
            .max(1)
    }

    /// Product of extents of unrolled loops (1 if none).
    pub fn unroll_len(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| l.tag == LoopTag::Unroll)
            .map(|l| l.extent)
            .product::<usize>()
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Axis;
    use crate::expr::Expr;

    fn simple_compute() -> Compute {
        Compute::reduce_sum(
            "out",
            vec![Axis::new("i", 16), Axis::new("j", 12)],
            vec![Axis::new("k", 8)],
            Expr::load("a", Expr::var("i") * Expr::Int(8) + Expr::var("k"))
                * Expr::load("b", Expr::var("k") * Expr::Int(12) + Expr::var("j")),
            Expr::var("i") * Expr::Int(12) + Expr::var("j"),
        )
    }

    #[test]
    fn default_order_spatial_then_reduce() {
        let s = Schedule::default_for(&simple_compute());
        let names: Vec<_> = s.loops().iter().map(|l| l.var.as_str()).collect();
        assert_eq!(names, ["i", "j", "k"]);
        assert!(s.loops()[2].is_reduce);
    }

    #[test]
    fn split_perfect_has_no_guard() {
        let mut s = Schedule::default_for(&simple_compute());
        let (o, i) = s.split("i", 4).unwrap();
        assert_eq!(o, "i.o");
        assert_eq!(i, "i.i");
        assert_eq!(s.loops()[0].extent, 4);
        assert_eq!(s.loops()[1].extent, 4);
        assert!(s.guards().is_empty());
        assert_eq!(s.substs().len(), 1);
    }

    #[test]
    fn split_imperfect_adds_guard() {
        let mut s = Schedule::default_for(&simple_compute());
        s.split("j", 5).unwrap(); // 12 = 3*5 - 3 → guard
        assert_eq!(s.guards().len(), 1);
        // outer extent = ceil(12/5) = 3
        let outer = s.loops().iter().find(|l| l.var == "j.o").unwrap();
        assert_eq!(outer.extent, 3);
    }

    #[test]
    fn bind_reduce_loop_rejected() {
        let mut s = Schedule::default_for(&simple_compute());
        let err = s.bind("k", LoopTag::ThreadIdx(0)).unwrap_err();
        assert_eq!(err, ScheduleError::BindReduceLoop("k".into()));
        // unroll/vectorize of reduce loops is fine
        s.unroll("k").unwrap();
    }

    #[test]
    fn reorder_permutes_listed_only() {
        let mut s = Schedule::default_for(&simple_compute());
        s.reorder(&["k", "i"]).unwrap(); // swap i and k, j untouched
        let names: Vec<_> = s.loops().iter().map(|l| l.var.as_str()).collect();
        assert_eq!(names, ["k", "j", "i"]);
    }

    #[test]
    fn grid_and_workgroup_sizes() {
        let mut s = Schedule::default_for(&simple_compute());
        s.split_bind("i", 4, 0).unwrap();
        s.split_bind("j", 6, 1).unwrap();
        assert_eq!(s.grid_size(), 4 * 2); // 16/4 * 12/6
        assert_eq!(s.workgroup_size(), 4 * 6);
    }

    #[test]
    fn vector_and_unroll_lengths() {
        let mut s = Schedule::default_for(&simple_compute());
        let (_, ji) = s.split("j", 4).unwrap();
        s.vectorize(&ji).unwrap();
        s.unroll("k").unwrap();
        assert_eq!(s.vector_len(), 4);
        assert_eq!(s.unroll_len(), 8);
    }

    #[test]
    fn unknown_loop_errors() {
        let mut s = Schedule::default_for(&simple_compute());
        assert!(matches!(s.split("zz", 2), Err(ScheduleError::UnknownLoop(_))));
        assert!(matches!(s.unroll("zz"), Err(ScheduleError::UnknownLoop(_))));
    }

    #[test]
    fn double_split_names_unique() {
        let mut s = Schedule::default_for(&simple_compute());
        s.split("i", 4).unwrap();
        let (oo, oi) = s.split("i.o", 2).unwrap();
        assert_eq!(oo, "i.o.o");
        assert_eq!(oi, "i.o.i");
    }
}
