//! The expression DAG.

use crate::{ConstValue, SymbolId, Width};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Reference-counted handle to an expression node.
///
/// Expressions are immutable; sharing is achieved through `Arc` so that a
/// forked execution state can reuse the expressions of its parent without
/// copying.
pub type ExprRef = Arc<Expr>;

/// Binary operators over bit-vectors.
///
/// Comparison operators produce a 1-bit result; all other operators produce a
/// result of the same width as their operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields all-ones (the VM reports a
    /// division-by-zero bug before evaluating it).
    UDiv,
    /// Signed division.
    SDiv,
    /// Unsigned remainder.
    URem,
    /// Signed remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left; shift amounts ≥ width yield zero.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Equality (1-bit result).
    Eq,
    /// Inequality (1-bit result).
    Ne,
    /// Unsigned less-than (1-bit result).
    Ult,
    /// Unsigned less-or-equal (1-bit result).
    Ule,
    /// Signed less-than (1-bit result).
    Slt,
    /// Signed less-or-equal (1-bit result).
    Sle,
}

impl BinaryOp {
    /// Whether the operator is a comparison (produces a 1-bit result).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Ult
                | BinaryOp::Ule
                | BinaryOp::Slt
                | BinaryOp::Sle
        )
    }

    /// Whether the operator is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinaryOp::Add
                | BinaryOp::Mul
                | BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Xor
                | BinaryOp::Eq
                | BinaryOp::Ne
        )
    }

    /// Applies the operator to two concrete values of equal width.
    #[inline]
    pub fn apply(self, a: ConstValue, b: ConstValue) -> ConstValue {
        debug_assert_eq!(a.width(), b.width(), "operand width mismatch in {self:?}");
        let w = a.width();
        let (ua, ub) = (a.value(), b.value());
        // Sign-extended only by the operators that read the signed view.
        let signed = || (a.signed(), b.signed());
        match self {
            BinaryOp::Add => ConstValue::new(ua.wrapping_add(ub), w),
            BinaryOp::Sub => ConstValue::new(ua.wrapping_sub(ub), w),
            BinaryOp::Mul => ConstValue::new(ua.wrapping_mul(ub), w),
            BinaryOp::UDiv => ConstValue::new(ua.checked_div(ub).unwrap_or(w.mask()), w),
            BinaryOp::SDiv => {
                let (sa, sb) = signed();
                ConstValue::new(
                    if sb == 0 {
                        w.mask()
                    } else {
                        sa.wrapping_div(sb) as u64
                    },
                    w,
                )
            }
            BinaryOp::URem => ConstValue::new(if ub == 0 { ua } else { ua % ub }, w),
            BinaryOp::SRem => {
                let (sa, sb) = signed();
                ConstValue::new(
                    if sb == 0 {
                        ua
                    } else {
                        sa.wrapping_rem(sb) as u64
                    },
                    w,
                )
            }
            BinaryOp::And => ConstValue::new(ua & ub, w),
            BinaryOp::Or => ConstValue::new(ua | ub, w),
            BinaryOp::Xor => ConstValue::new(ua ^ ub, w),
            BinaryOp::Shl => {
                if ub >= u64::from(w.bits()) {
                    ConstValue::new(0, w)
                } else {
                    ConstValue::new(ua << ub, w)
                }
            }
            BinaryOp::LShr => {
                if ub >= u64::from(w.bits()) {
                    ConstValue::new(0, w)
                } else {
                    ConstValue::new(ua >> ub, w)
                }
            }
            BinaryOp::AShr => {
                let shift = ub.min(u64::from(w.bits()) - 1);
                ConstValue::new((a.signed() >> shift) as u64, w)
            }
            BinaryOp::Eq => ConstValue::bool(ua == ub),
            BinaryOp::Ne => ConstValue::bool(ua != ub),
            BinaryOp::Ult => ConstValue::bool(ua < ub),
            BinaryOp::Ule => ConstValue::bool(ua <= ub),
            BinaryOp::Slt => {
                let (sa, sb) = signed();
                ConstValue::bool(sa < sb)
            }
            BinaryOp::Sle => {
                let (sa, sb) = signed();
                ConstValue::bool(sa <= sb)
            }
        }
    }
}

/// Unary operators over bit-vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Bitwise complement.
    Not,
    /// Two's complement negation.
    Neg,
}

impl UnaryOp {
    /// Applies the operator to a concrete value.
    pub fn apply(self, a: ConstValue) -> ConstValue {
        let w = a.width();
        match self {
            UnaryOp::Not => ConstValue::new(!a.value(), w),
            UnaryOp::Neg => ConstValue::new(a.value().wrapping_neg(), w),
        }
    }
}

/// The different kinds of expression nodes.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExprKind {
    /// A concrete constant.
    Const(ConstValue),
    /// A symbolic variable.
    Sym(SymbolId),
    /// A unary operation.
    Unary(UnaryOp, ExprRef),
    /// A binary operation.
    Binary(BinaryOp, ExprRef, ExprRef),
    /// If-then-else over a 1-bit condition; both arms have equal width.
    Ite(ExprRef, ExprRef, ExprRef),
    /// Zero extension to a wider width.
    ZExt(ExprRef),
    /// Sign extension to a wider width.
    SExt(ExprRef),
    /// Bit extraction: `offset` is the bit offset of the least significant
    /// extracted bit.
    Extract(ExprRef, u32),
    /// Concatenation: the first operand forms the high bits.
    Concat(ExprRef, ExprRef),
}

/// A bit-vector expression node.
///
/// Construct expressions with the associated functions in this crate (e.g.
/// [`Expr::add`], [`Expr::eq`]); they perform constant folding and light
/// simplification. The width of every node is computed at construction time
/// and cached.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Expr {
    kind: ExprKind,
    width: Width,
}

impl Expr {
    pub(crate) fn new(kind: ExprKind, width: Width) -> ExprRef {
        Arc::new(Expr { kind, width })
    }

    /// The kind of this node.
    pub fn kind(&self) -> &ExprKind {
        &self.kind
    }

    /// The width of the value this expression produces.
    pub fn width(&self) -> Width {
        self.width
    }

    /// If the expression is a constant, returns its value.
    pub fn as_const(&self) -> Option<ConstValue> {
        match self.kind {
            ExprKind::Const(v) => Some(v),
            _ => None,
        }
    }

    /// If the expression is a bare symbol, returns its identifier.
    pub fn as_sym(&self) -> Option<SymbolId> {
        match self.kind {
            ExprKind::Sym(id) => Some(id),
            _ => None,
        }
    }

    /// Whether the expression contains no symbolic variables.
    ///
    /// Because constructors constant-fold, a concrete expression is always a
    /// single `Const` node.
    pub fn is_concrete(&self) -> bool {
        matches!(self.kind, ExprKind::Const(_))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExprKind::Const(v) => write!(f, "{}", v.value()),
            ExprKind::Sym(id) => write!(f, "{id:?}"),
            ExprKind::Unary(op, a) => write!(f, "({op:?} {a})"),
            ExprKind::Binary(op, a, b) => write!(f, "({op:?} {a} {b})"),
            ExprKind::Ite(c, t, e) => write!(f, "(Ite {c} {t} {e})"),
            ExprKind::ZExt(a) => write!(f, "(ZExt{} {a})", self.width),
            ExprKind::SExt(a) => write!(f, "(SExt{} {a})", self.width),
            ExprKind::Extract(a, off) => write!(f, "(Extract{}@{off} {a})", self.width),
            ExprKind::Concat(hi, lo) => write!(f, "(Concat {hi} {lo})"),
        }
    }
}
