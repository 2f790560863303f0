//! Budgeted backtracking search for satisfying assignments.

use crate::domain::{refine_domains, Domain};
use c9_expr::{collect_symbols, Assignment, ExprRef, SymbolId, Width};
use std::collections::{BTreeMap, BTreeSet};

/// Resource limits on a single search.
#[derive(Clone, Copy, Debug)]
pub struct SearchBudget {
    /// Maximum number of (symbol, value) assignments tried before giving up.
    pub max_nodes: u64,
}

impl Default for SearchBudget {
    fn default() -> SearchBudget {
        SearchBudget { max_nodes: 500_000 }
    }
}

/// Outcome of a backtracking search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A satisfying assignment was found.
    Sat(Assignment),
    /// The constraints are unsatisfiable (proved by exhausting complete
    /// domains).
    Unsat,
    /// The search ran out of budget, or a domain could not be enumerated
    /// exhaustively; nothing was proved.
    Unknown,
}

/// Searches for an assignment satisfying all `constraints`.
///
/// `widths` maps every symbol mentioned by the constraints to its width.
pub fn search(
    constraints: &[ExprRef],
    widths: &BTreeMap<SymbolId, Width>,
    budget: SearchBudget,
) -> SearchOutcome {
    // Trivial case: no constraints at all.
    if constraints.is_empty() {
        return SearchOutcome::Sat(Assignment::new());
    }

    let domains = refine_domains(constraints, widths);

    // Fast-path: any empty domain over an exhaustively-known interval proves
    // unsatisfiability outright.
    for dom in domains.values() {
        if dom.is_empty() {
            return SearchOutcome::Unsat;
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
    match outcome {
        DfsResult::Found(asg) => SearchOutcome::Sat(asg),
        DfsResult::Exhausted => {
            if exhaustive_all {
                SearchOutcome::Unsat
            } else {
                SearchOutcome::Unknown
            }
        }
        DfsResult::BudgetExceeded => SearchOutcome::Unknown,
    }
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
