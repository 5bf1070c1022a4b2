//! A reference interpreter for lowered IR.
//!
//! This is the stack's functional ground truth: every schedule variant of a
//! compute must evaluate to the same tensor as the default schedule (the
//! "schedules never change results" invariant, property-tested in the `ops`
//! crate). GPU-bound loops run sequentially — binding only changes *where*
//! iterations run, never *what* they compute.

use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use std::collections::HashMap;

/// Interpreter state: named f64 buffers + a loop-variable environment.
#[derive(Debug, Default)]
pub struct Machine {
    bufs: HashMap<String, Vec<f64>>,
    env: HashMap<String, i64>,
}

impl Machine {
    pub fn new() -> Self {
        Machine::default()
    }

    /// Register an input/output buffer.
    pub fn with_buffer(mut self, name: impl Into<String>, data: Vec<f64>) -> Self {
        self.bufs.insert(name.into(), data);
        self
    }

    /// Read back a buffer.
    pub fn buffer(&self, name: &str) -> &[f64] {
        &self.bufs[name]
    }

    /// Evaluate an expression in *index* context: integer division/modulo
    /// semantics, loop variables only.
    fn eval_i(&self, e: &Expr) -> i64 {
        match e {
            Expr::Int(v) => *v,
            Expr::Float(v) => *v as i64,
            Expr::Var(n) => *self
                .env
                .get(n)
                .unwrap_or_else(|| panic!("unbound loop var `{n}`")),
            Expr::Bin { op, a, b } => {
                let (x, y) = (self.eval_i(a), self.eval_i(b));
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x.div_euclid(y),
                    BinOp::Mod => x.rem_euclid(y),
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Lt => (x < y) as i64,
                    BinOp::Le => (x <= y) as i64,
                    BinOp::Gt => (x > y) as i64,
                    BinOp::Ge => (x >= y) as i64,
                    BinOp::Eq => (x == y) as i64,
                    BinOp::And => ((x != 0) && (y != 0)) as i64,
                    BinOp::Or => ((x != 0) || (y != 0)) as i64,
                }
            }
            Expr::Select { cond, t, f } => {
                if self.eval_i(cond) != 0 {
                    self.eval_i(t)
                } else {
                    self.eval_i(f)
                }
            }
            Expr::Load { .. } | Expr::Call { .. } => {
                panic!("loads/calls are not valid in index context: {e:?}")
            }
        }
    }

    /// Evaluate an expression in *data* context (f64 arithmetic).
    fn eval_f(&self, e: &Expr) -> f64 {
        match e {
            Expr::Int(v) => *v as f64,
            Expr::Float(v) => *v,
            Expr::Var(n) => *self
                .env
                .get(n)
                .unwrap_or_else(|| panic!("unbound loop var `{n}`")) as f64,
            Expr::Load { buf, index } => {
                let i = self.eval_i(index);
                let b = self
                    .bufs
                    .get(buf)
                    .unwrap_or_else(|| panic!("unknown buffer `{buf}`"));
                assert!(
                    (0..b.len() as i64).contains(&i),
                    "OOB load {buf}[{i}] (len {})",
                    b.len()
                );
                b[i as usize]
            }
            Expr::Bin { op, a, b } => {
                let (x, y) = (self.eval_f(a), self.eval_f(b));
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Mod => x.rem_euclid(y),
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Lt => (x < y) as i64 as f64,
                    BinOp::Le => (x <= y) as i64 as f64,
                    BinOp::Gt => (x > y) as i64 as f64,
                    BinOp::Ge => (x >= y) as i64 as f64,
                    BinOp::Eq => (x == y) as i64 as f64,
                    BinOp::And => ((x != 0.0) && (y != 0.0)) as i64 as f64,
                    BinOp::Or => ((x != 0.0) || (y != 0.0)) as i64 as f64,
                }
            }
            Expr::Select { cond, t, f } => {
                if self.eval_f(cond) != 0.0 {
                    self.eval_f(t)
                } else {
                    self.eval_f(f)
                }
            }
            Expr::Call { name, args } => {
                let a: Vec<f64> = args.iter().map(|x| self.eval_f(x)).collect();
                match (name.as_str(), a.as_slice()) {
                    ("exp", [x]) => x.exp(),
                    ("log", [x]) => x.ln(),
                    ("sqrt", [x]) => x.sqrt(),
                    ("abs", [x]) => x.abs(),
                    ("floor", [x]) => x.floor(),
                    ("sigmoid", [x]) => 1.0 / (1.0 + (-x).exp()),
                    ("tanh", [x]) => x.tanh(),
                    ("pow", [x, y]) => x.powf(*y),
                    _ => panic!("unknown intrinsic `{name}`/{}", a.len()),
                }
            }
        }
    }

    /// Execute a statement tree.
    pub fn run(&mut self, s: &Stmt) {
        match s {
            Stmt::Seq(v) => v.iter().for_each(|s| self.run(s)),
            Stmt::Nop | Stmt::Barrier => {}
            Stmt::For { var, extent, body, .. } => {
                let n = self.eval_i(extent);
                let saved = self.env.get(var).copied();
                for i in 0..n {
                    self.env.insert(var.clone(), i);
                    self.run(body);
                }
                match saved {
                    Some(v) => {
                        self.env.insert(var.clone(), v);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
            }
            Stmt::Store { buf, index, value } => {
                let i = self.eval_i(index);
                let v = self.eval_f(value);
                let b = self
                    .bufs
                    .get_mut(buf)
                    .unwrap_or_else(|| panic!("unknown buffer `{buf}`"));
                assert!(
                    (0..b.len() as i64).contains(&i),
                    "OOB store {buf}[{i}] (len {})",
                    b.len()
                );
                b[i as usize] = v;
            }
            Stmt::If { cond, then, els } => {
                if self.eval_i(cond) != 0 {
                    self.run(then);
                } else if let Some(e) = els {
                    self.run(e);
                }
            }
            Stmt::Alloc { buf, size, body, .. } => {
                let n = self.eval_i(size).max(0) as usize;
                let saved = self.bufs.insert(buf.clone(), vec![0.0; n]);
                self.run(body);
                match saved {
                    Some(old) => {
                        self.bufs.insert(buf.clone(), old);
                    }
                    None => {
                        self.bufs.remove(buf);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{Axis, Compute};
    use crate::lower::lower;
    use crate::schedule::{LoopTag, Schedule};

    fn matmul_compute(m: usize, n: usize, k: usize) -> Compute {
        Compute::reduce_sum(
            "c",
            vec![Axis::new("i", m), Axis::new("j", n)],
            vec![Axis::new("k", k)],
            Expr::load("a", Expr::var("i") * Expr::Int(k as i64) + Expr::var("k"))
                * Expr::load("b", Expr::var("k") * Expr::Int(n as i64) + Expr::var("j")),
            Expr::var("i") * Expr::Int(n as i64) + Expr::var("j"),
        )
    }

    fn reference_matmul(a: &[f64], b: &[f64], m: usize, n: usize, k: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn run_matmul(m: usize, n: usize, k: usize, s: &Schedule) -> Vec<f64> {
        let c = matmul_compute(m, n, k);
        let stmt = lower(&c, s);
        let a: Vec<f64> = (0..m * k).map(|x| (x % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..k * n).map(|x| (x % 5) as f64 * 0.5).collect();
        let mut mach = Machine::new()
            .with_buffer("a", a)
            .with_buffer("b", b)
            .with_buffer("c", vec![0.0; m * n]);
        mach.run(&stmt);
        mach.buffer("c").to_vec()
    }

    #[test]
    fn default_schedule_matches_reference() {
        let (m, n, k) = (4, 6, 5);
        let c = matmul_compute(m, n, k);
        let s = Schedule::default_for(&c);
        let got = run_matmul(m, n, k, &s);
        let a: Vec<f64> = (0..m * k).map(|x| (x % 7) as f64 - 3.0).collect();
        let b: Vec<f64> = (0..k * n).map(|x| (x % 5) as f64 * 0.5).collect();
        assert_eq!(got, reference_matmul(&a, &b, m, n, k));
    }

    #[test]
    fn split_reorder_schedule_is_equivalent() {
        let (m, n, k) = (8, 8, 8);
        let c = matmul_compute(m, n, k);
        let base = run_matmul(m, n, k, &Schedule::default_for(&c));

        let mut s = Schedule::default_for(&c);
        let (_jo, ji) = s.split("j", 4).unwrap();
        s.split("k", 2).unwrap();
        s.reorder(&["k.o", "i"]).unwrap();
        s.vectorize(&ji).unwrap();
        s.unroll("k.i").unwrap();
        assert_eq!(run_matmul(m, n, k, &s), base);
    }

    #[test]
    fn imperfect_split_is_equivalent() {
        let (m, n, k) = (5, 7, 3);
        let c = matmul_compute(m, n, k);
        let base = run_matmul(m, n, k, &Schedule::default_for(&c));
        let mut s = Schedule::default_for(&c);
        s.split("i", 2).unwrap();
        s.split("j", 4).unwrap();
        assert_eq!(run_matmul(m, n, k, &s), base);
    }

    #[test]
    fn gpu_bound_schedule_is_equivalent() {
        let (m, n, k) = (8, 16, 4);
        let c = matmul_compute(m, n, k);
        let base = run_matmul(m, n, k, &Schedule::default_for(&c));
        let mut s = Schedule::default_for(&c);
        s.split_bind("i", 4, 0).unwrap();
        s.bind("j", LoopTag::ThreadIdx(1)).unwrap();
        assert_eq!(run_matmul(m, n, k, &s), base);
    }

    #[test]
    fn register_tile_inside_reduction() {
        // j.i inside k: classic spatial-pack shape.
        let (m, n, k) = (4, 8, 6);
        let c = matmul_compute(m, n, k);
        let base = run_matmul(m, n, k, &Schedule::default_for(&c));
        let mut s = Schedule::default_for(&c);
        s.split("j", 4).unwrap();
        // order: i, j.o, k, j.i  → j.i is a register tile inside reduction
        s.reorder(&["i", "j.o", "k", "j.i"]).unwrap();
        assert_eq!(run_matmul(m, n, k, &s), base);
    }

    #[test]
    fn elementwise_with_intrinsics() {
        let c = Compute::reduce_sum(
            "y",
            vec![Axis::new("i", 4)],
            vec![],
            Expr::Call { name: "sigmoid".into(), args: vec![Expr::load("x", Expr::var("i"))] },
            Expr::var("i"),
        );
        let stmt = lower(&c, &Schedule::default_for(&c));
        let mut m = Machine::new()
            .with_buffer("x", vec![0.0, 1.0, -1.0, 10.0])
            .with_buffer("y", vec![0.0; 4]);
        m.run(&stmt);
        let y = m.buffer("y");
        assert!((y[0] - 0.5).abs() < 1e-12);
        assert!((y[1] - 1.0 / (1.0 + (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    fn oob_store_is_caught() {
        let s = Stmt::store("o", Expr::Int(5), Expr::Float(1.0));
        let mut m = Machine::new().with_buffer("o", vec![0.0; 4]);
        m.run(&s);
    }
}
