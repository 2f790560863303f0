//! Unit and property-based tests for the expression crate.

use crate::{
    collect_symbols, expr_depth, expr_size, substitute, symbols_of, Assignment, BinaryOp,
    ConstValue, Expr, ExprKind, ExprRef, SymbolId, SymbolManager, Width,
};
use proptest::prelude::*;

fn mgr_with_bytes(n: usize) -> (SymbolManager, Vec<crate::SymbolId>) {
    let mut m = SymbolManager::new();
    let syms = m.fresh_bytes("in", n);
    (m, syms)
}

#[test]
fn constant_folding_collapses_concrete_math() {
    let e = Expr::add(Expr::const_(40, Width::W32), Expr::const_(2, Width::W32));
    assert_eq!(e.as_const().unwrap().value(), 42);

    let e = Expr::mul(Expr::const_(6, Width::W8), Expr::const_(7, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 42);

    let e = Expr::eq(Expr::const_(1, Width::W8), Expr::const_(2, Width::W8));
    assert!(e.as_const().unwrap().is_false());
}

#[test]
fn wrapping_semantics() {
    let e = Expr::add(Expr::const_(250, Width::W8), Expr::const_(10, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 4);
    let e = Expr::sub(Expr::const_(0, Width::W8), Expr::const_(1, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 255);
}

#[test]
fn identity_simplifications() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    assert_eq!(Expr::add(x.clone(), Expr::const_(0, Width::W8)), x);
    assert_eq!(Expr::mul(x.clone(), Expr::const_(1, Width::W8)), x);
    assert!(Expr::mul(x.clone(), Expr::const_(0, Width::W8))
        .as_const()
        .unwrap()
        .is_zero());
    assert_eq!(
        Expr::and(x.clone(), Expr::const_(0xff, Width::W8)),
        x.clone()
    );
    assert!(Expr::eq(x.clone(), x.clone()).as_const().unwrap().is_true());
    assert!(Expr::ult(x.clone(), x.clone())
        .as_const()
        .unwrap()
        .is_false());
}

#[test]
fn commutative_canonicalization_moves_constant_right() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    let a = Expr::add(Expr::const_(3, Width::W8), x.clone());
    let b = Expr::add(x, Expr::const_(3, Width::W8));
    assert_eq!(a, b);
}

#[test]
fn ite_simplification() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    let t = Expr::const_(1, Width::W8);
    let f = Expr::const_(2, Width::W8);
    assert_eq!(Expr::ite(Expr::true_(), t.clone(), f.clone()), t);
    assert_eq!(Expr::ite(Expr::false_(), t.clone(), f.clone()), f);
    let cond = Expr::eq(x, Expr::const_(0, Width::W8));
    assert_eq!(Expr::ite(cond, t.clone(), t.clone()), t);
}

#[test]
fn division_by_zero_is_total() {
    // The engine reports division-by-zero separately; the expression algebra
    // itself must stay total so the solver never panics.
    let e = Expr::udiv(Expr::const_(10, Width::W8), Expr::const_(0, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 0xff);
    let e = Expr::urem(Expr::const_(10, Width::W8), Expr::const_(0, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 10);
}

#[test]
fn shift_out_of_range_is_zero() {
    let e = Expr::shl(Expr::const_(1, Width::W8), Expr::const_(9, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 0);
    let e = Expr::lshr(Expr::const_(0x80, Width::W8), Expr::const_(200, Width::W8));
    assert_eq!(e.as_const().unwrap().value(), 0);
}

#[test]
fn extensions_and_extract() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    let z = Expr::zext(x.clone(), Width::W32);
    assert_eq!(z.width(), Width::W32);
    // Extract of zext within the original width folds back to the original.
    let low = Expr::extract(z.clone(), 0, Width::W8);
    assert_eq!(low, x);
    // Extract of zext entirely in the extension is zero.
    let hi = Expr::extract(z, 16, Width::W8);
    assert!(hi.as_const().unwrap().is_zero());
}

#[test]
fn concat_and_le_bytes_roundtrip() {
    let (_, syms) = mgr_with_bytes(4);
    let bytes: Vec<_> = syms.iter().map(|s| Expr::sym(*s, Width::W8)).collect();
    let word = Expr::from_le_bytes(&bytes);
    assert_eq!(word.width(), Width::W32);

    let mut asg = Assignment::new();
    asg.set(syms[0], 0xef);
    asg.set(syms[1], 0xbe);
    asg.set(syms[2], 0xad);
    asg.set(syms[3], 0xde);
    assert_eq!(word.eval(&asg).unwrap().value(), 0xdead_beef);

    let split = Expr::to_le_bytes(&word);
    assert_eq!(split.len(), 4);
    assert_eq!(split[0].eval(&asg).unwrap().value(), 0xef);
    assert_eq!(split[3].eval(&asg).unwrap().value(), 0xde);
}

#[test]
fn eval_respects_signedness() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    let is_neg = Expr::slt(x.clone(), Expr::const_(0, Width::W8));
    let mut asg = Assignment::new();
    asg.set(syms[0], 0x80);
    assert_eq!(is_neg.eval_bool(&asg), Some(true));
    asg.set(syms[0], 0x7f);
    assert_eq!(is_neg.eval_bool(&asg), Some(false));
}

/// The signed operators read their operands as two's complement; the rest
/// read the raw bits.
#[test]
fn signed_operators_read_twos_complement() {
    let b = |v: u64| ConstValue::new(v, Width::W8);
    let apply = |op: BinaryOp, x: u64, y: u64| op.apply(b(x), b(y)).value();
    assert_eq!(apply(BinaryOp::SDiv, 0xfa, 4), 0xff); // -6 / 4 = -1
    assert_eq!(apply(BinaryOp::UDiv, 0xfa, 4), 0x3e);
    assert_eq!(apply(BinaryOp::SDiv, 0xfa, 0), 0xff);
    assert_eq!(apply(BinaryOp::SRem, 0xf9, 2), 0xff); // -7 % 2 = -1
    assert_eq!(apply(BinaryOp::SRem, 0xf9, 0), 0xf9);
    assert_eq!(apply(BinaryOp::AShr, 0x80, 1), 0xc0);
    assert_eq!(apply(BinaryOp::AShr, 0x80, 200), 0xff);
    assert_eq!(apply(BinaryOp::LShr, 0x80, 1), 0x40);
    assert_eq!(apply(BinaryOp::Slt, 0xff, 0), 1);
    assert_eq!(apply(BinaryOp::Ult, 0xff, 0), 0);
    assert_eq!(apply(BinaryOp::Sle, 0x80, 0x7f), 1);
    assert_eq!(apply(BinaryOp::Sle, 0x7f, 0x7f), 1);
    assert_eq!(apply(BinaryOp::Sle, 0x7f, 0x80), 0);
}

#[test]
fn partial_eval_returns_none_for_unbound() {
    let (_, syms) = mgr_with_bytes(2);
    let x = Expr::sym(syms[0], Width::W8);
    let y = Expr::sym(syms[1], Width::W8);
    let sum = Expr::add(x, y);
    let mut asg = Assignment::new();
    asg.set(syms[0], 1);
    assert_eq!(sum.eval(&asg), None);
}

#[test]
fn symbol_collection_and_size() {
    let (_, syms) = mgr_with_bytes(3);
    let x = Expr::sym(syms[0], Width::W8);
    let y = Expr::sym(syms[1], Width::W8);
    let e = Expr::add(Expr::mul(x.clone(), y.clone()), x.clone());
    let collected = collect_symbols(&e);
    assert!(collected.contains(&syms[0]));
    assert!(collected.contains(&syms[1]));
    assert!(!collected.contains(&syms[2]));
    assert!(expr_size(&e) >= 4);
    assert!(expr_depth(&e) >= 3);
}

#[test]
fn substitution_folds_constants() {
    let (_, syms) = mgr_with_bytes(2);
    let x = Expr::sym(syms[0], Width::W8);
    let y = Expr::sym(syms[1], Width::W8);
    let e = Expr::add(Expr::mul(x, Expr::const_(2, Width::W8)), y.clone());
    let mut asg = Assignment::new();
    asg.set(syms[0], 10);
    let sub = substitute(&e, &asg);
    // Becomes 20 + y.
    let expected = Expr::add(y, Expr::const_(20, Width::W8));
    assert_eq!(sub, expected);
}

#[test]
fn logical_not_of_comparison() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    let cond = Expr::ult(x, Expr::const_(10, Width::W8));
    let neg = Expr::logical_not(cond.clone());
    let mut asg = Assignment::new();
    asg.set(syms[0], 5);
    assert_eq!(cond.eval_bool(&asg), Some(true));
    assert_eq!(neg.eval_bool(&asg), Some(false));
    asg.set(syms[0], 20);
    assert_eq!(neg.eval_bool(&asg), Some(true));
}

#[test]
fn display_is_readable() {
    let (_, syms) = mgr_with_bytes(1);
    let x = Expr::sym(syms[0], Width::W8);
    let e = Expr::eq(
        Expr::add(x, Expr::const_(1, Width::W8)),
        Expr::const_(5, Width::W8),
    );
    let s = format!("{e}");
    assert!(s.contains("Eq"));
    assert!(s.contains("Add"));
}

// ---------------------------------------------------------------------------
// Property-based tests: the smart constructors must agree with direct
// concrete evaluation for every operator.
// ---------------------------------------------------------------------------

/// The symbols of `e` the slow, obvious way: every shared node once, into a
/// set.
fn reference_symbols(e: &ExprRef) -> Vec<SymbolId> {
    fn go(
        e: &ExprRef,
        seen: &mut std::collections::HashSet<*const Expr>,
        out: &mut std::collections::BTreeSet<SymbolId>,
    ) {
        if !seen.insert(std::sync::Arc::as_ptr(e)) {
            return;
        }
        match e.kind() {
            ExprKind::Const(_) => {}
            ExprKind::Sym(id) => {
                out.insert(*id);
            }
            ExprKind::Unary(_, a)
            | ExprKind::ZExt(a)
            | ExprKind::SExt(a)
            | ExprKind::Extract(a, _) => go(a, seen, out),
            ExprKind::Binary(_, a, b) | ExprKind::Concat(a, b) => {
                go(a, seen, out);
                go(b, seen, out);
            }
            ExprKind::Ite(c, t, f) => {
                go(c, seen, out);
                go(t, seen, out);
                go(f, seen, out);
            }
        }
    }
    let mut out = std::collections::BTreeSet::new();
    go(e, &mut Default::default(), &mut out);
    out.into_iter().collect()
}

/// One step of a random expression DAG: an operator and three earlier nodes
/// (indices wrap around the nodes built so far).
type DagStep = (u8, (usize, usize, usize));

/// Builds a DAG of byte-wide expressions over `symbols` symbols (possibly
/// none) bottom-up and returns the sum of its last `roots` nodes. Later
/// steps pick earlier nodes freely, so sub-DAGs are shared and symbols
/// repeat; a long recipe is far larger as a tree than as a DAG.
fn build_dag(symbols: usize, recipe: &[DagStep], roots: usize) -> ExprRef {
    let ids = SymbolManager::new().fresh_bytes("s", symbols);
    let mut nodes: Vec<ExprRef> = ids.iter().map(|id| Expr::sym(*id, Width::W8)).collect();
    nodes.push(Expr::const_(7, Width::W8));
    for &(op, (a, b, c)) in recipe {
        let pick = |i: usize| nodes[i % nodes.len()].clone();
        let (a, b, c) = (pick(a), pick(b), pick(c));
        nodes.push(match op {
            0 => Expr::add(a, b),
            1 => Expr::mul(a, b),
            2 => Expr::ite(
                Expr::ult(a, b),
                c.clone(),
                Expr::xor(c, Expr::const_(1, Width::W8)),
            ),
            3 => Expr::not(a),
            4 => Expr::extract(Expr::concat(a, b), 4, Width::W8),
            5 => Expr::extract(Expr::sext(a, Width::W32), 3, Width::W8),
            6 => Expr::zext(Expr::eq(a, b), Width::W8),
            // The same node on both sides: the tree doubles, the DAG grows
            // by one.
            _ => Expr::add(a.clone(), a),
        });
    }
    let first_root = nodes.len().saturating_sub(roots.max(1));
    nodes.drain(first_root..).reduce(Expr::add).expect("a root")
}

#[test]
fn symbols_of_stays_linear_on_a_heavily_shared_dag() {
    let (_, syms) = mgr_with_bytes(12);
    // 60 doublings: 2^60 nodes as a tree, 72 as a DAG.
    let mut e = Expr::sym(syms[0], Width::W8);
    for s in syms.iter().cycle().skip(1).take(60) {
        let joined = Expr::xor(e.clone(), Expr::sym(*s, Width::W8));
        e = Expr::add(joined.clone(), joined);
    }
    assert_eq!(*symbols_of(&e), *syms);
    assert_eq!(expr_size(&e), 1 + 3 * 60);
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
        Just(Width::W64),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::UDiv),
        Just(BinaryOp::SDiv),
        Just(BinaryOp::URem),
        Just(BinaryOp::SRem),
        Just(BinaryOp::And),
        Just(BinaryOp::Or),
        Just(BinaryOp::Xor),
        Just(BinaryOp::Shl),
        Just(BinaryOp::LShr),
        Just(BinaryOp::AShr),
        Just(BinaryOp::Eq),
        Just(BinaryOp::Ne),
        Just(BinaryOp::Ult),
        Just(BinaryOp::Ule),
        Just(BinaryOp::Slt),
        Just(BinaryOp::Sle),
    ]
}

proptest! {
    /// Folding a binary op over constants equals evaluating the symbolic
    /// form of the same op under an assignment of those constants.
    #[test]
    fn prop_fold_matches_eval(op in arb_binop(), w in arb_width(), a: u64, b: u64) {
        let folded = Expr::binary(op, Expr::const_(a, w), Expr::const_(b, w));
        let folded = folded.as_const().expect("constants must fold");

        let mut m = SymbolManager::new();
        let xa = m.fresh("a", w);
        let xb = m.fresh("b", w);
        let symbolic = Expr::binary(op, Expr::sym(xa, w), Expr::sym(xb, w));
        let mut asg = Assignment::new();
        asg.set(xa, w.truncate(a));
        asg.set(xb, w.truncate(b));
        let evaluated = symbolic.eval(&asg).expect("fully bound");
        prop_assert_eq!(folded, evaluated);
    }

    /// Substituting a full assignment into an expression produces exactly the
    /// constant that evaluation produces.
    #[test]
    fn prop_substitute_agrees_with_eval(a: u8, b: u8, c: u8) {
        let mut m = SymbolManager::new();
        let sa = m.fresh("a", Width::W8);
        let sb = m.fresh("b", Width::W8);
        let sc = m.fresh("c", Width::W8);
        let e = Expr::add(
            Expr::mul(Expr::sym(sa, Width::W8), Expr::sym(sb, Width::W8)),
            Expr::xor(Expr::sym(sc, Width::W8), Expr::const_(0x5a, Width::W8)),
        );
        let mut asg = Assignment::new();
        asg.set(sa, u64::from(a));
        asg.set(sb, u64::from(b));
        asg.set(sc, u64::from(c));
        let substituted = substitute(&e, &asg);
        prop_assert!(substituted.is_concrete());
        prop_assert_eq!(substituted.as_const().unwrap(), e.eval(&asg).unwrap());
    }

    /// from_le_bytes/to_le_bytes round-trips through evaluation.
    #[test]
    fn prop_le_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..=8)) {
        let mut m = SymbolManager::new();
        let syms = m.fresh_bytes("b", bytes.len());
        let exprs: Vec<_> = syms.iter().map(|s| Expr::sym(*s, Width::W8)).collect();
        let word = Expr::from_le_bytes(&exprs);
        let mut asg = Assignment::new();
        for (s, b) in syms.iter().zip(&bytes) {
            asg.set(*s, u64::from(*b));
        }
        let mut expected: u64 = 0;
        for (i, b) in bytes.iter().enumerate() {
            expected |= u64::from(*b) << (8 * i);
        }
        prop_assert_eq!(word.eval(&asg).unwrap().value(), expected);

        let split = Expr::to_le_bytes(&word);
        for (i, part) in split.iter().enumerate() {
            prop_assert_eq!(part.eval(&asg).unwrap().value(), u64::from(bytes[i]));
        }
    }

    /// The allocation-free symbol walk finds what the visited-set reference
    /// finds — few symbols or many (past the inline buffer), none at all,
    /// duplicates, `Ite`, shared sub-DAGs, and trees past the node budget,
    /// where the walk starts over with a visited set.
    #[test]
    fn prop_symbols_of_matches_the_reference(
        symbols in 0usize..20,
        recipe in proptest::collection::vec((0u8..8, (0usize..64, 0usize..64, 0usize..64)), 0..40),
        roots in 1usize..24,
    ) {
        let e = build_dag(symbols, &recipe, roots);
        let expected = reference_symbols(&e);
        prop_assert_eq!(&*symbols_of(&e), &*expected);
        prop_assert!(expected.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(collect_symbols(&e).into_iter().collect::<Vec<_>>(), expected);
    }

    /// Truncation in ConstValue matches Width::truncate.
    #[test]
    fn prop_const_truncation(v: u64, w in arb_width()) {
        let c = crate::ConstValue::new(v, w);
        prop_assert_eq!(c.value(), w.truncate(v));
        prop_assert_eq!(c.signed(), w.sign_extend(v));
    }
}
