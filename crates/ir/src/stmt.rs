//! Imperative statements — the lowered form of a scheduled compute.

use crate::expr::Expr;
use serde::{Deserialize, Serialize};

/// How a loop executes after scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopKind {
    /// Plain sequential loop.
    Serial,
    /// Fully unrolled (§3.2.2: "unrolling the nested loops of a convolution
    /// kernel ... reduced control overhead, increased ILP").
    Unrolled,
    /// SIMD-vectorized innermost loop.
    Vectorized,
    /// Bound to the GPU grid: `get_group_id(dim)` / `blockIdx.{x,y,z}`.
    BlockIdx(usize),
    /// Bound to the work-group: `get_local_id(dim)` / `threadIdx.{x,y,z}`.
    ThreadIdx(usize),
}

/// Memory scope of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemScope {
    /// Off-chip DRAM, visible to all work-items.
    Global,
    /// Work-group shared local memory (`__local` / `__shared__`). On Mali
    /// this is emulated in DRAM — the cost model charges for that.
    Shared,
    /// Per-thread registers (Intel GRF; §3.2.1).
    Register,
}

/// A statement tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `for var in 0..extent { body }` with an execution annotation.
    For { var: String, extent: Expr, kind: LoopKind, body: Box<Stmt> },
    /// `buf[index] = value`.
    Store { buf: String, index: Expr, value: Expr },
    /// Statement sequence.
    Seq(Vec<Stmt>),
    /// `if cond { then } else { els }`.
    If { cond: Expr, then: Box<Stmt>, els: Option<Box<Stmt>> },
    /// Scoped allocation: `buf` of `size` f32 elements live within `body`.
    Alloc { buf: String, size: Expr, scope: MemScope, body: Box<Stmt> },
    /// Work-group barrier.
    Barrier,
    /// No-op (useful as an `If` else-arm placeholder).
    Nop,
}

impl Stmt {
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        Stmt::Seq(stmts)
    }

    pub fn store(buf: impl Into<String>, index: Expr, value: Expr) -> Stmt {
        Stmt::Store { buf: buf.into(), index, value }
    }

    pub fn for_(var: impl Into<String>, extent: impl Into<Expr>, kind: LoopKind, body: Stmt) -> Stmt {
        Stmt::For { var: var.into(), extent: extent.into(), kind, body: Box::new(body) }
    }

    pub fn if_(cond: Expr, then: Stmt) -> Stmt {
        Stmt::If { cond, then: Box::new(then), els: None }
    }

    /// Total AST node count (statements + expressions).
    pub fn node_count(&self) -> usize {
        match self {
            Stmt::For { extent, body, .. } => 1 + extent.node_count() + body.node_count(),
            Stmt::Store { index, value, .. } => 1 + index.node_count() + value.node_count(),
            Stmt::Seq(v) => 1 + v.iter().map(Stmt::node_count).sum::<usize>(),
            Stmt::If { cond, then, els } => {
                1 + cond.node_count()
                    + then.node_count()
                    + els.as_ref().map_or(0, |e| e.node_count())
            }
            Stmt::Alloc { size, body, .. } => 1 + size.node_count() + body.node_count(),
            Stmt::Barrier | Stmt::Nop => 1,
        }
    }

    /// Visit every statement node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } | Stmt::Alloc { body, .. } => body.visit(f),
            Stmt::Seq(v) => v.iter().for_each(|s| s.visit(f)),
            Stmt::If { then, els, .. } => {
                then.visit(f);
                if let Some(e) = els {
                    e.visit(f);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_reaches_all_nodes() {
        let s = Stmt::for_(
            "i",
            4usize,
            LoopKind::Serial,
            Stmt::seq(vec![
                Stmt::store("out", Expr::var("i"), Expr::Float(0.0)),
                Stmt::Barrier,
            ]),
        );
        let mut count = 0;
        s.visit(&mut |_| count += 1);
        assert_eq!(count, 4); // For, Seq, Store, Barrier
    }

    #[test]
    fn node_count() {
        let s = Stmt::store("o", Expr::Int(0), Expr::Float(1.0));
        assert_eq!(s.node_count(), 3);
    }
}
