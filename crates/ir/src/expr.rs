//! Scalar expressions of the unified IR.

use serde::{Deserialize, Serialize};

/// Binary operators. Comparisons yield 0.0/1.0; `Min`/`Max` are first-class
/// because both OpenCL and CUDA have native `fmin`/`fmax`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    And,
    Or,
}

impl BinOp {
    /// Infix spelling in C-family targets, or `None` for function-call style.
    pub fn c_infix(self) -> Option<&'static str> {
        Some(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Min | BinOp::Max => return None,
        })
    }
}

/// A scalar expression tree.
///
/// Variables and buffers are identified by interned-enough `String` names;
/// the IR stays small, so clarity beats an id-table here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer immediate (loop bounds, strides).
    Int(i64),
    /// Floating immediate.
    Float(f64),
    /// Loop variable or kernel parameter.
    Var(String),
    /// `buf[index]` — flat indexing; multi-dim offsets are built by the
    /// compute declaration.
    Load { buf: String, index: Box<Expr> },
    /// Binary operation.
    Bin { op: BinOp, a: Box<Expr>, b: Box<Expr> },
    /// `cond ? t : f`.
    Select { cond: Box<Expr>, t: Box<Expr>, f: Box<Expr> },
    /// Intrinsic call (e.g. `exp`, `sqrt`, `intel_sub_group_shuffle`).
    Call { name: String, args: Vec<Expr> },
}

impl Expr {
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    pub fn load(buf: impl Into<String>, index: Expr) -> Expr {
        Expr::Load { buf: buf.into(), index: Box::new(index) }
    }

    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin { op, a: Box::new(a), b: Box::new(b) }
    }

    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Min, a, b)
    }

    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Max, a, b)
    }

    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Lt, a, b)
    }

    pub fn select(cond: Expr, t: Expr, f: Expr) -> Expr {
        Expr::Select { cond: Box::new(cond), t: Box::new(t), f: Box::new(f) }
    }

    /// Substitute every occurrence of variable `name` with `with`.
    ///
    /// This is how schedule transforms rewrite indices: splitting axis `i`
    /// by `f` substitutes `i := i_o*f + i_i` throughout the body.
    pub fn subst(&self, name: &str, with: &Expr) -> Expr {
        match self {
            Expr::Var(v) if v == name => with.clone(),
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => self.clone(),
            Expr::Load { buf, index } => {
                Expr::Load { buf: buf.clone(), index: Box::new(index.subst(name, with)) }
            }
            Expr::Bin { op, a, b } => Expr::Bin {
                op: *op,
                a: Box::new(a.subst(name, with)),
                b: Box::new(b.subst(name, with)),
            },
            Expr::Select { cond, t, f } => Expr::Select {
                cond: Box::new(cond.subst(name, with)),
                t: Box::new(t.subst(name, with)),
                f: Box::new(f.subst(name, with)),
            },
            Expr::Call { name: n, args } => Expr::Call {
                name: n.clone(),
                args: args.iter().map(|a| a.subst(name, with)).collect(),
            },
        }
    }

    /// Collect the names of all free variables into `out`.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expr::Int(_) | Expr::Float(_) => {}
            Expr::Load { index, .. } => index.free_vars(out),
            Expr::Bin { a, b, .. } => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Expr::Select { cond, t, f } => {
                cond.free_vars(out);
                t.free_vars(out);
                f.free_vars(out);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| a.free_vars(out)),
        }
    }

    /// Number of AST nodes — the paper compares IR conciseness against raw
    /// CUDA ("around 100 lines of TVM IR vs 325 lines of CUDA", §3.1.1).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => 0,
            Expr::Load { index, .. } => index.node_count(),
            Expr::Bin { a, b, .. } => a.node_count() + b.node_count(),
            Expr::Select { cond, t, f } => cond.node_count() + t.node_count() + f.node_count(),
            Expr::Call { args, .. } => args.iter().map(Expr::node_count).sum(),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Int(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Self {
        Expr::Int(v as i64)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Self {
        Expr::Int(v as i64)
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::Float(v)
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subst_rewrites_nested_occurrences() {
        // (i + load(a, i*2)) with i := io*4+ii
        let e = Expr::var("i") + Expr::load("a", Expr::var("i") * 2.into());
        let with = Expr::var("io") * 4.into() + Expr::var("ii");
        let s = e.subst("i", &with);
        let mut vars = vec![];
        s.free_vars(&mut vars);
        assert!(vars.contains(&"io".to_string()) && vars.contains(&"ii".to_string()));
        assert!(!vars.contains(&"i".to_string()));
    }

    #[test]
    fn free_vars_dedup() {
        let e = Expr::var("x") + Expr::var("x") * Expr::var("y");
        let mut vars = vec![];
        e.free_vars(&mut vars);
        assert_eq!(vars, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn node_count_counts_everything() {
        let e = Expr::var("x") + Expr::Int(1); // Bin + Var + Int = 3
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn infix_table() {
        assert_eq!(BinOp::Add.c_infix(), Some("+"));
        assert_eq!(BinOp::Min.c_infix(), None);
    }

    #[test]
    fn operator_sugar_builds_bins() {
        let e = Expr::var("a") * Expr::var("b");
        assert!(matches!(e, Expr::Bin { op: BinOp::Mul, .. }));
    }
}
