//! # unigpu-ir
//!
//! The *unified IR* of the stack (§2.3 of the paper): a single tensor-program
//! representation that is scheduled once and lowered to either OpenCL (Intel
//! Graphics, ARM Mali) or CUDA (Nvidia) — "the universal GPU IR generated by
//! our solution works for both CUDA and OpenCL" (Fig. 1).
//!
//! The pipeline mirrors TVM/Halide's compute/schedule split:
//!
//! 1. [`compute::Compute`] declares *what* to compute: output axes, reduction
//!    axes, and a scalar [`expr::Expr`] per output point.
//! 2. [`schedule::Schedule`] declares *how*: `split`, `reorder`, `unroll`,
//!    `vectorize`, and `bind` to GPU block/thread indices — exactly
//!    the knobs the paper's convolution template exposes to AutoTVM (§3.2.2).
//! 3. [`lower::lower`] produces an imperative loop nest ([`stmt::Stmt`]).
//! 4. From the loop nest: [`eval`] interprets it (functional ground truth for
//!    tests), [`codegen`] prints OpenCL/CUDA kernel source, and [`features`]
//!    extracts the loop-structure feature vector consumed by the machine-
//!    learning cost model in `unigpu-tuner`.

pub mod codegen;
pub mod compute;
pub mod eval;
pub mod expr;
pub mod features;
pub mod lower;
pub mod schedule;
pub mod simplify;
pub mod stmt;

pub use compute::{Axis, Compute};
pub use expr::{BinOp, Expr};
pub use features::{extract_features, FEATURE_DIM};
pub use lower::lower;
pub use simplify::{simplify_expr, simplify_stmt};
pub use schedule::{LoopTag, Schedule};
pub use stmt::{LoopKind, MemScope, Stmt};
