//! The tree-walking search the compiled kernel replaced, kept as the
//! reference it is compared against: under every `max_nodes`, the kernel
//! must return the same outcome — the same first model, the same `Unsat`,
//! the same `Unknown` — after the same number of nodes.
//!
//! This search evaluates every constraint that mentions the just-assigned
//! symbol with [`Expr::eval`](c9_expr::Expr::eval) under a `BTreeMap`
//! assignment, at every node. The property generates constraint sets over
//! one to six symbols of widths 1, 8, 16 and 32 from every expression kind:
//! `Ite` (its arms often over symbols its condition does not read, so that
//! it short-circuits while they are unassigned), `Concat`, `Extract`, both
//! extensions, the signed operators and division, whose operands are often
//! zero; sub-expressions are shared within and across constraints, wide
//! domains cannot be enumerated, and a small budget makes many searches
//! run out.

use crate::domain::{refine_domains, Domain};
use crate::search::{search as kernel_search, SearchBudget, SearchOutcome, Searched};
use c9_expr::{collect_symbols, Assignment, ExprRef, SymbolId, Width};
use std::collections::{BTreeMap, BTreeSet};

/// Searches for an assignment satisfying all `constraints`.
///
/// `widths` maps every symbol mentioned by the constraints to its width.
pub fn search(
    constraints: &[ExprRef],
    widths: &BTreeMap<SymbolId, Width>,
    budget: SearchBudget,
) -> Searched {
    let answer = |outcome| Searched { outcome, nodes: 0 };
    // Trivial case: no constraints at all.
    if constraints.is_empty() {
        return answer(SearchOutcome::Sat(Assignment::new()));
    }

    let domains = refine_domains(constraints, widths);

    // Fast-path: any empty domain over an exhaustively-known interval proves
    // unsatisfiability outright.
    for dom in domains.values() {
        if dom.is_empty() {
            return answer(SearchOutcome::Unsat);
        }
    }

    // Variable ordering: most constrained (smallest search size) first, then
    // by how many constraints mention the symbol.
    let constraint_syms: Vec<BTreeSet<SymbolId>> =
        constraints.iter().map(collect_symbols).collect();
    let mut mention_count: BTreeMap<SymbolId, usize> = BTreeMap::new();
    for syms in &constraint_syms {
        for s in syms {
            *mention_count.entry(*s).or_insert(0) += 1;
        }
    }
    let mut order: Vec<SymbolId> = widths.keys().copied().collect();
    order.sort_by_key(|s| {
        let size = domains.get(s).map(|d| d.search_size()).unwrap_or(u64::MAX);
        let mentions = mention_count.get(s).copied().unwrap_or(0);
        (size, usize::MAX - mentions, s.0)
    });

    // Pre-compute, for each depth, which constraints become fully bound once
    // the symbols up to that depth are assigned — those are the only ones
    // worth (re)checking at that depth for definite falseness.
    let assigned_prefix: Vec<BTreeSet<SymbolId>> = {
        let mut acc = BTreeSet::new();
        let mut prefixes = Vec::with_capacity(order.len() + 1);
        prefixes.push(acc.clone());
        for s in &order {
            acc.insert(*s);
            prefixes.push(acc.clone());
        }
        prefixes
    };
    let exhaustive_all = order
        .iter()
        .all(|s| domains.get(s).map(|d| d.exhaustive).unwrap_or(false));

    let mut nodes: u64 = 0;
    let mut assignment = Assignment::new();
    let outcome = dfs(
        0,
        &order,
        &domains,
        constraints,
        &constraint_syms,
        &assigned_prefix,
        &mut assignment,
        &mut nodes,
        budget.max_nodes,
    );
    let outcome = match outcome {
        DfsResult::Found(asg) => SearchOutcome::Sat(asg),
        DfsResult::Exhausted => {
            if exhaustive_all {
                SearchOutcome::Unsat
            } else {
                SearchOutcome::Unknown
            }
        }
        DfsResult::BudgetExceeded => SearchOutcome::Unknown,
    };
    Searched { outcome, nodes }
}

enum DfsResult {
    Found(Assignment),
    Exhausted,
    BudgetExceeded,
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    depth: usize,
    order: &[SymbolId],
    domains: &BTreeMap<SymbolId, Domain>,
    constraints: &[ExprRef],
    constraint_syms: &[BTreeSet<SymbolId>],
    assigned_prefix: &[BTreeSet<SymbolId>],
    assignment: &mut Assignment,
    nodes: &mut u64,
    max_nodes: u64,
) -> DfsResult {
    if depth == order.len() {
        // All symbols assigned: the prefix checks guarantee every constraint
        // already evaluated to true.
        return DfsResult::Found(assignment.clone());
    }
    let sym = order[depth];
    let dom = &domains[&sym];
    for value in dom.iter_values() {
        *nodes += 1;
        if *nodes > max_nodes {
            return DfsResult::BudgetExceeded;
        }
        assignment.set(sym, value);
        // Check constraints that are now fully bound (or that can already be
        // proved false by partial evaluation).
        let prefix = &assigned_prefix[depth + 1];
        let mut contradicted = false;
        for (c, syms) in constraints.iter().zip(constraint_syms) {
            // Skip constraints not mentioning the just-assigned symbol: they
            // were checked at an earlier depth (if bound) or will be later.
            if !syms.contains(&sym) {
                continue;
            }
            if syms.is_subset(prefix) {
                if c.eval_bool(assignment) == Some(false) {
                    contradicted = true;
                    break;
                }
            } else if c.eval_bool(assignment) == Some(false) {
                // Partial evaluation may still prove definite falseness.
                contradicted = true;
                break;
            }
        }
        if !contradicted {
            match dfs(
                depth + 1,
                order,
                domains,
                constraints,
                constraint_syms,
                assigned_prefix,
                assignment,
                nodes,
                max_nodes,
            ) {
                DfsResult::Exhausted => {}
                other => return other,
            }
        }
        assignment.unset(sym);
    }
    DfsResult::Exhausted
}

mod tests {
    use super::*;
    use c9_expr::{BinaryOp, Expr, SymbolManager, UnaryOp};
    use proptest::prelude::*;

    /// splitmix64: the generator's only source of choices.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Clone>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize].clone()
        }
    }

    const WIDTHS: [Width; 4] = [Width::W1, Width::W8, Width::W16, Width::W32];

    const ARITHMETIC: [BinaryOp; 13] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::UDiv,
        BinaryOp::SDiv,
        BinaryOp::URem,
        BinaryOp::SRem,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Shl,
        BinaryOp::LShr,
        BinaryOp::AShr,
    ];

    const COMPARISONS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Ult,
        BinaryOp::Ule,
        BinaryOp::Slt,
        BinaryOp::Sle,
    ];

    /// One generated search problem.
    struct Problem {
        constraints: Vec<ExprRef>,
        widths: BTreeMap<SymbolId, Width>,
        budget: SearchBudget,
    }

    struct Generator {
        rng: Rng,
        syms: Vec<(SymbolId, Width)>,
        /// Every expression built so far, drawn again to share sub-DAGs
        /// within and across constraints.
        pool: Vec<ExprRef>,
    }

    impl Generator {
        fn expr(&mut self, width: Width, depth: u32) -> ExprRef {
            let e = if depth == 0 || self.rng.below(4) == 0 {
                self.leaf(width)
            } else {
                self.inner(width, depth - 1)
            };
            self.pool.push(e.clone());
            e
        }

        fn leaf(&mut self, width: Width) -> ExprRef {
            let shared: Vec<ExprRef> = self
                .pool
                .iter()
                .filter(|e| e.width() == width && !e.is_concrete())
                .cloned()
                .collect();
            match self.rng.below(8) {
                0 | 1 if !shared.is_empty() => self.rng.pick(&shared),
                0..=5 => self.symbol(width),
                _ => {
                    // Zero, one and all-ones (divisors, shift amounts and
                    // signed edges) more often than their share.
                    let v = match self.rng.below(4) {
                        0 => 0,
                        1 => 1,
                        2 => width.mask(),
                        _ => self.rng.next(),
                    };
                    Expr::const_(v, width)
                }
            }
        }

        /// A symbol, cut or extended to `width` when it has another.
        fn symbol(&mut self, width: Width) -> ExprRef {
            let (s, w) = self.rng.pick(&self.syms);
            let e = Expr::sym(s, w);
            if w < width {
                if self.rng.below(2) == 0 {
                    Expr::zext(e, width)
                } else {
                    Expr::sext(e, width)
                }
            } else if w > width {
                let offset = self.rng.below(u64::from(w.bits() - width.bits()) + 1);
                Expr::extract(e, offset as u32, width)
            } else {
                e
            }
        }

        /// A 1-bit constraint: mostly a comparison.
        fn constraint(&mut self) -> ExprRef {
            let depth = self.rng.below(3) as u32;
            if self.rng.below(4) == 0 {
                return self.inner(Width::W1, depth + 1);
            }
            let w = self.rng.pick(&WIDTHS);
            let op = self.rng.pick(&COMPARISONS);
            Expr::binary(op, self.expr(w, depth), self.expr(w, depth))
        }

        fn inner(&mut self, width: Width, depth: u32) -> ExprRef {
            let narrower: Vec<Width> = WIDTHS.iter().copied().filter(|w| *w < width).collect();
            let wider: Vec<Width> = WIDTHS.iter().copied().filter(|w| *w > width).collect();
            match self.rng.below(8) {
                0 | 1 if width == Width::W1 => {
                    let w = self.rng.pick(&WIDTHS);
                    let op = self.rng.pick(&COMPARISONS);
                    Expr::binary(op, self.expr(w, depth), self.expr(w, depth))
                }
                0..=2 => {
                    let op = self.rng.pick(&ARITHMETIC);
                    Expr::binary(op, self.expr(width, depth), self.expr(width, depth))
                }
                3 => {
                    let op = self.rng.pick(&[UnaryOp::Not, UnaryOp::Neg]);
                    Expr::unary(op, self.expr(width, depth))
                }
                4 => Expr::ite(
                    self.expr(Width::W1, depth),
                    self.expr(width, depth),
                    self.expr(width, depth),
                ),
                5 if !narrower.is_empty() => {
                    let from = self.rng.pick(&narrower);
                    let a = self.expr(from, depth);
                    if self.rng.below(2) == 0 {
                        Expr::zext(a, width)
                    } else {
                        Expr::sext(a, width)
                    }
                }
                6 if !wider.is_empty() => {
                    let from = self.rng.pick(&wider);
                    let offset = self.rng.below(u64::from(from.bits() - width.bits()) + 1);
                    Expr::extract(self.expr(from, depth), offset as u32, width)
                }
                7 if width.bits() >= 16 => {
                    let half = Width::new(width.bits() / 2);
                    Expr::concat(self.expr(half, depth), self.expr(half, depth))
                }
                _ => self.leaf(width),
            }
        }
    }

    fn problem(seed: u64) -> Problem {
        let mut rng = Rng(seed);
        let mut manager = SymbolManager::new();
        let syms: Vec<(SymbolId, Width)> = (0..1 + rng.below(6))
            .map(|_| {
                let width = rng.pick(&WIDTHS);
                (manager.fresh("s", width), width)
            })
            .collect();
        let mut gen = Generator {
            rng,
            syms,
            pool: Vec::new(),
        };
        let constraints: Vec<ExprRef> = (0..1 + gen.rng.below(5))
            .map(|_| gen.constraint())
            .collect();
        let mut widths: BTreeMap<SymbolId, Width> = gen.syms.iter().copied().collect();
        // Now and then a symbol the width table does not know: it is never
        // assigned, so no constraint that reads it is ever fully bound.
        if gen.rng.below(8) == 0 {
            let (dropped, _) = gen.rng.pick(&gen.syms);
            widths.remove(&dropped);
        }
        let max_nodes = match gen.rng.below(3) {
            0 => gen.rng.below(50),
            1 => gen.rng.below(500),
            _ => gen.rng.below(4000),
        };
        Problem {
            constraints,
            widths,
            budget: SearchBudget { max_nodes },
        }
    }

    fn both(p: &Problem) -> (Searched, Searched) {
        (
            kernel_search(&p.constraints, &p.widths, p.budget),
            search(&p.constraints, &p.widths, p.budget),
        )
    }

    proptest! {
        /// The kernel returns what the tree-walking search returns, model
        /// included, after the same number of nodes.
        #[test]
        fn prop_kernel_search_is_the_tree_walking_search(seed: u64) {
            let p = problem(seed);
            let (kernel, reference) = both(&p);
            let shown: Vec<String> = p.constraints.iter().map(|c| c.to_string()).collect();
            prop_assert_eq!(
                kernel,
                reference,
                "seed {:#x}: constraints {:?}, widths {:?}, budget {}",
                seed,
                shown,
                p.widths,
                p.budget.max_nodes
            );
        }
    }

    /// The generator reaches every outcome the property is about: models,
    /// proofs, searches cut by the budget and searches over domains too
    /// wide to enumerate.
    #[test]
    fn generated_problems_reach_every_outcome() {
        let (mut sat, mut unsat, mut out_of_budget, mut not_enumerable) = (0, 0, 0, 0);
        for seed in 0..400 {
            let p = problem(seed);
            let (searched, _) = both(&p);
            match searched.outcome {
                SearchOutcome::Sat(_) => sat += 1,
                SearchOutcome::Unsat => unsat += 1,
                SearchOutcome::Unknown if searched.nodes > p.budget.max_nodes => out_of_budget += 1,
                SearchOutcome::Unknown => not_enumerable += 1,
            }
        }
        for (what, n) in [
            ("sat", sat),
            ("unsat", unsat),
            ("out of budget", out_of_budget),
            ("not enumerable", not_enumerable),
        ] {
            assert!(n >= 10, "only {n} of 400 generated searches {what}");
        }
    }
}
