//! Loop-nest intermediate representation and interpreter.
//!
//! The paper's compiler pass operates on Fortran loop nests inside SUIF;
//! this crate provides the analogous substrate: a structured IR of
//! (possibly symbolically-bounded) counted loops over multi-dimensional
//! arrays, with affine subscripts plus one level of indirection
//! (`a[b[i]]`), scalar temporaries, conditionals, and real floating-point
//! and integer arithmetic. Programs in this IR are *executed*, not just
//! analyzed: [`run_program`] lowers the loop nest to flat register
//! bytecode once, then performs every load, store, and arithmetic
//! operation against a [`vm::PagedVm`], charging user time according to
//! an explicit cost model. This is what lets the
//! test suite prove that the prefetching compiler's output is
//! semantically identical to its input — the non-binding-prefetch
//! correctness property of the paper's Figure 1.
//!
//! The IR also carries the three hint statements the compiler inserts:
//! `prefetch`, `release`, and the bundled `prefetch_release` (each in
//! single-page and block forms via a page count), mirroring Figure 2(b).

mod dispatch;
pub mod exec;
pub mod expr;
mod lower;
#[cfg(test)]
mod oracle;
pub mod parse;
pub mod program;
mod strip;
#[cfg(test)]
mod treewalk;
pub mod vm;

pub use dispatch::Vm;
pub use exec::{run_program, run_program_profiled, ArrayBinding, ExecStats};
pub use expr::{lin, param, var, BinOp, CmpOp, Cond, Expr, LinExpr, Sym, UnOp};
pub use parse::{parse_program, ParseError};
pub use program::{ArrayDecl, ArrayRef, ElemType, HintTarget, Index, Loop, Program, Stmt};
pub use vm::{ArrayData, CostModel, MemVm, PagedVm, Park};
