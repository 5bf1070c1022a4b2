//! Lowering: scheduled compute → imperative loop nest.
//!
//! The lowering performs *register tiling*, the pattern behind the paper's
//! spatial-pack convolution template (§3.2.2): spatial loops placed inside
//! the reduction nest accumulate into a per-thread register tile (`acc`),
//! which is initialized before and written back after the reduction — this is
//! what keeps the working set in the Intel GRF / Nvidia registers.

use crate::compute::{row_major_index, Compute};
use crate::expr::{BinOp, Expr};
use crate::schedule::Schedule;
use crate::stmt::{LoopKind, MemScope, Stmt};

/// Apply all schedule substitutions (oldest first) to an expression.
fn apply_substs(e: &Expr, substs: &[(String, Expr)]) -> Expr {
    let mut cur = e.clone();
    for (name, with) in substs {
        cur = cur.subst(name, with);
    }
    cur
}

/// Conjunction of guard expressions (`None` when empty).
fn conjoin(guards: &[Expr]) -> Option<Expr> {
    let mut it = guards.iter();
    let first = it.next()?.clone();
    Some(it.fold(first, |acc, g| Expr::bin(BinOp::And, acc, g.clone())))
}

fn guard_wrap(body: Stmt, guard: &Option<Expr>) -> Stmt {
    match guard {
        Some(g) => Stmt::if_(g.clone(), body),
        None => body,
    }
}

/// Wrap `body` in the given loops, innermost-last.
fn nest(loops: &[(String, usize, LoopKind)], body: Stmt) -> Stmt {
    loops.iter().rev().fold(body, |acc, (var, extent, kind)| {
        Stmt::for_(var.clone(), *extent, *kind, acc)
    })
}

/// Lower a scheduled compute into a statement tree.
///
/// The result reads from the input buffers named in the compute expression
/// and writes the output buffer `compute.name`; the caller (executor or
/// codegen) supplies buffer storage.
pub fn lower(compute: &Compute, schedule: &Schedule) -> Stmt {
    let substs = schedule.substs();
    let body_expr = apply_substs(&compute.expr, substs);
    let out_index = apply_substs(&compute.out_index, substs);
    let guards: Vec<Expr> = schedule.guards().iter().map(|g| apply_substs(g, substs)).collect();

    let all_loops: Vec<_> = schedule
        .loops()
        .iter()
        .map(|l| (l.var.clone(), l.extent, l.tag.to_kind(), l.is_reduce))
        .collect();

    // Position of the first reduction loop, if any.
    let first_reduce = all_loops.iter().position(|(_, _, _, r)| *r);

    let Some(fr) = first_reduce else {
        // Pure spatial compute: one guarded store in the full nest.
        let loops: Vec<_> =
            all_loops.iter().map(|(v, e, k, _)| (v.clone(), *e, *k)).collect();
        let store = Stmt::store(compute.name.clone(), out_index, body_expr);
        return nest(&loops, guard_wrap(store, &conjoin(&guards)));
    };

    // ---- register-tiled reduction lowering ----
    let outer: Vec<_> = all_loops[..fr]
        .iter()
        .map(|(v, e, k, _)| (v.clone(), *e, *k))
        .collect();
    let inner = &all_loops[fr..];

    // Spatial loops living inside the reduction nest form the register tile.
    let tile_loops: Vec<_> = inner
        .iter()
        .filter(|(_, _, _, r)| !*r)
        .map(|(v, e, k, _)| (v.clone(), *e, *k))
        .collect();
    let tile_size: usize = tile_loops.iter().map(|(_, e, _)| *e).product::<usize>().max(1);
    let tile_index = if tile_loops.is_empty() {
        Expr::Int(0)
    } else {
        row_major_index(
            &tile_loops
                .iter()
                .map(|(v, e, _)| (Expr::var(v.clone()), *e))
                .collect::<Vec<_>>(),
        )
    };

    // Guards mentioning reduction-derived vars only apply inside the update.
    let reduce_vars: Vec<String> = inner
        .iter()
        .filter(|(_, _, _, r)| *r)
        .map(|(v, _, _, _)| v.clone())
        .collect();
    let (reduce_guards, spatial_guards): (Vec<Expr>, Vec<Expr>) = guards.into_iter().partition(|g| {
        let mut vars = vec![];
        g.free_vars(&mut vars);
        vars.iter().any(|v| reduce_vars.contains(v))
    });
    let update_guard = conjoin(
        &reduce_guards
            .iter()
            .chain(spatial_guards.iter())
            .cloned()
            .collect::<Vec<_>>(),
    );
    let writeback_guard = conjoin(&spatial_guards);

    let acc = format!("{}.acc", compute.name);

    // init: acc[tile] = init
    let init_body = Stmt::store(acc.clone(), tile_index.clone(), compute.init.clone());
    let init = nest(&tile_loops, init_body);

    // update: full inner nest, acc[tile] = combine(acc[tile], body)
    let inner_all: Vec<_> = inner.iter().map(|(v, e, k, _)| (v.clone(), *e, *k)).collect();
    let update_body = Stmt::store(
        acc.clone(),
        tile_index.clone(),
        Expr::bin(
            compute.combine,
            Expr::load(acc.clone(), tile_index.clone()),
            body_expr,
        ),
    );
    let update = nest(&inner_all, guard_wrap(update_body, &update_guard));

    // writeback: out[idx] = acc[tile]
    let wb_body = Stmt::store(
        compute.name.clone(),
        out_index,
        Expr::load(acc.clone(), tile_index),
    );
    let writeback = nest(&tile_loops, guard_wrap(wb_body, &writeback_guard));

    let kernel_body = Stmt::Alloc {
        buf: acc,
        size: Expr::Int(tile_size as i64),
        scope: MemScope::Register,
        body: Box::new(Stmt::seq(vec![init, update, writeback])),
    };

    nest(&outer, kernel_body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Axis;

    fn matmul(m: usize, n: usize, k: usize) -> Compute {
        Compute::reduce_sum(
            "c",
            vec![Axis::new("i", m), Axis::new("j", n)],
            vec![Axis::new("k", k)],
            Expr::load("a", Expr::var("i") * Expr::Int(k as i64) + Expr::var("k"))
                * Expr::load("b", Expr::var("k") * Expr::Int(n as i64) + Expr::var("j")),
            Expr::var("i") * Expr::Int(n as i64) + Expr::var("j"),
        )
    }

    #[test]
    fn default_schedule_lowers_to_tiled_form() {
        let c = matmul(4, 4, 4);
        let s = Schedule::default_for(&c);
        let stmt = lower(&c, &s);
        // outer i, j loops then Alloc(acc) with 3-part Seq
        let mut allocs = 0;
        stmt.visit(&mut |s| {
            if matches!(s, Stmt::Alloc { .. }) {
                allocs += 1;
            }
        });
        assert_eq!(allocs, 1);
    }

    #[test]
    fn spatial_only_lowering_has_no_alloc() {
        let c = Compute::reduce_sum(
            "out",
            vec![Axis::new("i", 8)],
            vec![],
            Expr::load("x", Expr::var("i")) + Expr::Float(1.0),
            Expr::var("i"),
        );
        let s = Schedule::default_for(&c);
        let stmt = lower(&c, &s);
        let mut allocs = 0;
        stmt.visit(&mut |s| {
            if matches!(s, Stmt::Alloc { .. }) {
                allocs += 1;
            }
        });
        assert_eq!(allocs, 0);
    }

    #[test]
    fn imperfect_split_produces_guard() {
        let c = matmul(5, 4, 4);
        let mut s = Schedule::default_for(&c);
        s.split("i", 2).unwrap(); // 5 → imperfect
        let stmt = lower(&c, &s);
        let mut ifs = 0;
        stmt.visit(&mut |s| {
            if matches!(s, Stmt::If { .. }) {
                ifs += 1;
            }
        });
        // guard in update AND writeback paths
        assert!(ifs >= 2, "expected guards in update and writeback, got {ifs}");
    }
}
