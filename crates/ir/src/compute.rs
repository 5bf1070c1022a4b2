//! Declarative compute definitions (the "what").

use crate::expr::{BinOp, Expr};
use serde::{Deserialize, Serialize};

/// A named iteration axis with a compile-time extent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Axis {
    pub name: String,
    pub extent: usize,
}

impl Axis {
    pub fn new(name: impl Into<String>, extent: usize) -> Self {
        Axis { name: name.into(), extent }
    }

    /// The axis variable as an expression.
    pub fn var(&self) -> Expr {
        Expr::var(self.name.clone())
    }
}

/// A tensor compute: for every point of the spatial axes, reduce `expr` over
/// the reduction axes with `combine`, starting from `init`, and store at
/// `out_index` of buffer `name`.
///
/// Example — `conv2d` declares spatial axes `(n, oc, oh, ow)`, reduction axes
/// `(ic, kh, kw)`, `combine = Add`, and
/// `expr = data[n,ic,oh+kh,ow+kw] * weight[oc,ic,kh,kw]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Compute {
    /// Output buffer name.
    pub name: String,
    /// Spatial (parallelizable) axes.
    pub axes: Vec<Axis>,
    /// Reduction axes (empty for elementwise computes).
    pub reduce_axes: Vec<Axis>,
    /// Reduction identity (`0.0` for sum, `-inf` for max-pool).
    pub init: Expr,
    /// Combination operator applied per reduction step.
    pub combine: BinOp,
    /// Per-point value in terms of the axis variables.
    pub expr: Expr,
    /// Flat output offset in terms of the spatial axis variables.
    pub out_index: Expr,
}

impl Compute {
    /// Sum-reduction compute; with no reduce axes, an elementwise one.
    pub fn reduce_sum(
        name: impl Into<String>,
        axes: Vec<Axis>,
        reduce_axes: Vec<Axis>,
        expr: Expr,
        out_index: Expr,
    ) -> Self {
        Compute {
            name: name.into(),
            axes,
            reduce_axes,
            init: Expr::Float(0.0),
            combine: BinOp::Add,
            expr,
            out_index,
        }
    }

    /// Total number of output points.
    pub fn out_numel(&self) -> usize {
        self.axes.iter().map(|a| a.extent).product()
    }

    /// Total reduction length per output point.
    pub fn reduce_numel(&self) -> usize {
        self.reduce_axes.iter().map(|a| a.extent).product()
    }

    /// FLOPs for the whole compute (2 ops per reduce step: mul + combine;
    /// 1 op per point for pure spatial computes).
    pub fn flops(&self) -> f64 {
        if self.reduce_axes.is_empty() {
            self.out_numel() as f64
        } else {
            2.0 * self.out_numel() as f64 * self.reduce_numel() as f64
        }
    }
}

/// Build a flat row-major index expression from `(var, extent)` pairs,
/// outermost first: `((v0*e1 + v1)*e2 + v2)...`.
pub fn row_major_index(parts: &[(Expr, usize)]) -> Expr {
    assert!(!parts.is_empty(), "row_major_index needs at least one part");
    let mut it = parts.iter();
    let mut acc = it.next().unwrap().0.clone();
    for (v, e) in it {
        acc = acc * Expr::Int(*e as i64) + v.clone();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_matches_manual() {
        // index of [n][c][h] in shape [_,C=3,H=5]
        let e = row_major_index(&[
            (Expr::var("n"), 0),
            (Expr::var("c"), 3),
            (Expr::var("h"), 5),
        ]);
        // ((n*3 + c)*5 + h)
        let mut vars = vec![];
        e.free_vars(&mut vars);
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn flops_of_reduction() {
        let c = Compute::reduce_sum(
            "out",
            vec![Axis::new("i", 4)],
            vec![Axis::new("k", 8)],
            Expr::Float(1.0),
            Expr::var("i"),
        );
        assert_eq!(c.out_numel(), 4);
        assert_eq!(c.reduce_numel(), 8);
        assert_eq!(c.flops(), 64.0);
    }

    #[test]
    fn spatial_flops() {
        let c = Compute::reduce_sum(
            "out",
            vec![Axis::new("i", 10)],
            vec![],
            Expr::Float(0.0),
            Expr::var("i"),
        );
        assert_eq!(c.flops(), 10.0);
        assert_eq!(c.reduce_numel(), 1);
    }
}
