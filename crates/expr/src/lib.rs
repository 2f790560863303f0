//! Symbolic bit-vector expressions for Cloud9-RS.
//!
//! This crate provides the expression language that the symbolic execution
//! engine ([`c9-vm`](../c9_vm/index.html)) uses to represent values derived
//! from symbolic program inputs, and that the constraint solver
//! ([`c9-solver`](../c9_solver/index.html)) reasons about.
//!
//! Expressions are immutable reference-counted DAGs over fixed-width
//! bit-vectors (1 to 64 bits). Construction goes through [`Expr`]'s
//! associated functions, which perform constant folding and a set of cheap
//! algebraic simplifications so that fully-concrete computations never reach
//! the solver.
//!
//! # Examples
//!
//! ```
//! use c9_expr::{Expr, Width, SymbolManager, Assignment};
//!
//! let mut syms = SymbolManager::new();
//! let x = syms.fresh("x", Width::W8);
//! // (x + 1) == 5
//! let sum = Expr::add(Expr::sym(x, Width::W8), Expr::const_(1, Width::W8));
//! let cond = Expr::eq(sum, Expr::const_(5, Width::W8));
//!
//! let mut asg = Assignment::new();
//! asg.set(x, 4);
//! assert_eq!(cond.eval(&asg).unwrap().value(), 1);
//! ```

mod build;
mod eval;
mod expr;
mod symbol;
mod value;
mod visit;
mod width;

pub use eval::Assignment;
pub use expr::{BinaryOp, Expr, ExprKind, ExprRef, UnaryOp};
pub use symbol::{SymbolId, SymbolInfo, SymbolManager};
pub use value::ConstValue;
pub use visit::{collect_symbols, expr_depth, expr_size, substitute, symbols_of, SymbolList};
pub use width::Width;

#[cfg(test)]
mod tests;
