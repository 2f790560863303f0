//! Criterion micro-benchmarks for the constraint solver, including the
//! cache on/off ablation called out in DESIGN.md.

use c9_expr::{Expr, SymbolManager, Width};
use c9_solver::{ConstraintSet, Solver, SolverConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn parser_constraints(bytes: usize) -> (ConstraintSet, Solver) {
    let mut m = SymbolManager::new();
    let syms = m.fresh_bytes("pkt", bytes);
    let mut pc = ConstraintSet::new();
    for (i, s) in syms.iter().enumerate() {
        let e = Expr::sym(*s, Width::W8);
        if i % 2 == 0 {
            pc.push(Expr::ult(e, Expr::const_(64 + i as u64, Width::W8)));
        } else {
            pc.push(Expr::ne(e, Expr::const_(0, Width::W8)));
        }
    }
    (pc, Solver::new())
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(20);

    group.bench_function("check_sat_8_bytes", |b| {
        let (pc, solver) = parser_constraints(8);
        b.iter(|| {
            solver.clear_caches();
            assert!(solver.check_sat(&pc).is_sat());
        });
    });

    group.bench_function("check_sat_cached", |b| {
        let (pc, solver) = parser_constraints(8);
        assert!(solver.check_sat(&pc).is_sat());
        b.iter(|| assert!(solver.check_sat(&pc).is_sat()));
    });

    group.bench_function("check_sat_no_caches", |b| {
        let (pc, _) = parser_constraints(8);
        let solver = Solver::with_config(SolverConfig {
            enable_query_cache: false,
            ..SolverConfig::default()
        });
        b.iter(|| assert!(solver.check_sat(&pc).is_sat()));
    });

    group.bench_function("may_be_true_branch_query", |b| {
        let (pc, solver) = parser_constraints(12);
        let mut m = SymbolManager::new();
        let extra = m.fresh("q", Width::W8);
        let q = Expr::eq(Expr::sym(extra, Width::W8), Expr::const_(42, Width::W8));
        b.iter(|| assert!(solver.may_be_true(&pc, q.clone())));
    });

    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
