//! Evaluation of expressions under (partial) assignments.

use crate::expr::{Expr, ExprKind};
use crate::{ConstValue, SymbolId, Width};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A (possibly partial) assignment of concrete values to symbolic variables.
///
/// The solver produces total assignments over the symbols of a constraint set
/// (a *model*); during its search it evaluates constraints under partial
/// assignments to prune the search space early.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    values: BTreeMap<SymbolId, u64>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Binds `sym` to `value`.
    pub fn set(&mut self, sym: SymbolId, value: u64) {
        self.values.insert(sym, value);
    }

    /// Removes the binding for `sym`.
    pub fn unset(&mut self, sym: SymbolId) {
        self.values.remove(&sym);
    }

    /// Looks up the value bound to `sym`.
    pub fn get(&self, sym: SymbolId) -> Option<u64> {
        self.values.get(&sym).copied()
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the assignment binds no symbols.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over all bindings in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, u64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

impl Extend<(SymbolId, u64)> for Assignment {
    fn extend<T: IntoIterator<Item = (SymbolId, u64)>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl FromIterator<(SymbolId, u64)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (SymbolId, u64)>>(iter: T) -> Assignment {
        Assignment {
            values: iter.into_iter().collect(),
        }
    }
}

impl Expr {
    /// Evaluates the expression under `assignment`.
    ///
    /// Returns `None` if the expression references a symbol that the
    /// assignment does not bind (partial evaluation may still succeed if the
    /// unbound symbol does not influence the result, e.g. in a short-circuit
    /// `Ite` whose condition is concrete).
    pub fn eval(&self, assignment: &Assignment) -> Option<ConstValue> {
        match self.kind() {
            ExprKind::Const(v) => Some(*v),
            ExprKind::Sym(id) => assignment
                .get(*id)
                .map(|raw| ConstValue::new(raw, self.width())),
            ExprKind::Unary(op, a) => a.eval(assignment).map(|v| op.apply(v)),
            ExprKind::Binary(op, a, b) => {
                let va = a.eval(assignment)?;
                let vb = b.eval(assignment)?;
                Some(op.apply(va, vb))
            }
            ExprKind::Ite(c, t, e) => {
                let vc = c.eval(assignment)?;
                if vc.is_true() {
                    t.eval(assignment)
                } else {
                    e.eval(assignment)
                }
            }
            ExprKind::ZExt(a) => a.eval(assignment).map(|v| v.zext(self.width())),
            ExprKind::SExt(a) => a.eval(assignment).map(|v| v.sext(self.width())),
            ExprKind::Extract(a, offset) => {
                a.eval(assignment).map(|v| v.extract(*offset, self.width()))
            }
            ExprKind::Concat(hi, lo) => {
                let vh = hi.eval(assignment)?;
                let vl = lo.eval(assignment)?;
                let bits = (vh.value() << lo.width().bits()) | vl.value();
                Some(ConstValue::new(bits, self.width()))
            }
        }
    }

    /// Evaluates a 1-bit expression to a boolean under `assignment`.
    pub fn eval_bool(&self, assignment: &Assignment) -> Option<bool> {
        debug_assert_eq!(self.width(), Width::W1);
        self.eval(assignment).map(|v| v.is_true())
    }
}
