//! Cross-crate integration tests: the case studies of §7.3 run end to end
//! through the facade crate.

use cloud9::core::{Cluster, ClusterConfig};
use cloud9::posix::PosixEnvironment;
use cloud9::prelude::*;
use cloud9::targets::{bandicoot, curl, memcached};
use cloud9::vm::BugKind;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn curl_glob_bug_found_end_to_end() {
    let mut engine = Engine::new(
        Arc::new(curl::program(5)),
        Arc::new(PosixEnvironment::new()),
        Box::new(DfsSearcher::new()),
        EngineConfig::default(),
    );
    let summary = engine.run();
    assert!(summary.bugs.iter().any(|b| matches!(
        b.termination,
        TerminationReason::Bug(BugKind::OutOfBounds { .. })
    )));
}

#[test]
fn bandicoot_oob_read_found_end_to_end() {
    let mut engine = Engine::new(
        Arc::new(bandicoot::program()),
        Arc::new(PosixEnvironment::new()),
        Box::new(DfsSearcher::new()),
        EngineConfig::default(),
    );
    let summary = engine.run();
    assert!(summary.bugs.iter().any(|b| matches!(
        b.termination,
        TerminationReason::Bug(BugKind::OutOfBounds { .. })
    )));
}

/// Every search strategy explores the same tree on a balanced two-worker
/// cluster: dynamic partitioning keeps the frontiers disjoint however each
/// worker orders its exploration, so each strategy exhausts memcached-3x5
/// with exactly its 1 098 paths.
#[test]
fn every_strategy_exhausts_a_two_worker_cluster_exactly() {
    use cloud9::targets::named_workload;
    use cloud9::vm::StrategyKind;

    let program = Arc::new(named_workload("memcached-3x5").unwrap().program);
    for strategy in StrategyKind::ALL {
        let mut config = ClusterConfig {
            num_workers: 2,
            time_limit: Some(Duration::from_secs(300)),
            quantum: 2_000,
            status_interval: Duration::from_millis(2),
            balance_interval: Duration::from_millis(5),
            ..ClusterConfig::default()
        };
        config.worker.strategy = strategy;
        let env = Arc::new(PosixEnvironment::new());
        let result = Cluster::new(program.clone(), env, config).run();
        assert!(result.summary.exhausted, "{strategy} did not exhaust");
        assert_eq!(result.summary.paths_completed(), 1098, "{strategy}");
    }
}

#[test]
fn memcached_cluster_path_count_matches_single_node() {
    let program = memcached::program(&memcached::MemcachedConfig {
        packets: 1,
        packet_size: 5,
        ..memcached::MemcachedConfig::default()
    });

    // Single-node baseline.
    let mut engine = Engine::new(
        Arc::new(program.clone()),
        Arc::new(PosixEnvironment::new()),
        Box::new(DfsSearcher::new()),
        EngineConfig {
            generate_test_cases: false,
            ..EngineConfig::default()
        },
    );
    let single = engine.run();
    assert!(single.exhausted);

    // Two-worker cluster must find exactly the same number of paths.
    let cluster = Cluster::new(
        Arc::new(program),
        Arc::new(PosixEnvironment::new()),
        ClusterConfig {
            num_workers: 2,
            time_limit: Some(Duration::from_secs(120)),
            ..ClusterConfig::default()
        },
    );
    let parallel = cluster.run();
    assert!(parallel.summary.exhausted);
    assert_eq!(
        parallel.summary.paths_completed(),
        single.paths_completed as u64
    );
}

#[test]
fn prelude_exposes_the_solver_api() {
    use cloud9::expr::{Expr, SymbolManager, Width};
    let mut syms = SymbolManager::new();
    let x = syms.fresh("x", Width::W8);
    let mut pc = ConstraintSet::new();
    pc.push(Expr::eq(
        Expr::sym(x, Width::W8),
        Expr::const_(7, Width::W8),
    ));
    let solver = Solver::new();
    match solver.check_sat(&pc) {
        SatResult::Sat(model) => assert_eq!(model.get(x), Some(7)),
        other => panic!("expected sat, got {other:?}"),
    }
}

/// The partitioned solver's exactness contract on a real target: for every
/// one of memcached-3x5's paths, the test case assembled from per-group
/// canonical models is the one a single canonical search over the whole
/// path condition yields, so the sorted `(path, inputs)` sets are identical.
#[test]
fn memcached_3x5_test_cases_equal_a_whole_set_solve() {
    use cloud9::expr::{collect_symbols, ExprRef};
    use cloud9::solver::{search, SearchBudget, SearchOutcome};
    use cloud9::targets::named_workload;
    use cloud9::vm::{
        ExecutionState, Executor, ExecutorConfig, PathChoice, StateIdGen, StepResult,
    };

    let workload = named_workload("memcached-3x5").expect("registered target");
    let solver = Arc::new(Solver::new());
    let executor = Executor::new(
        Arc::new(workload.program),
        solver.clone(),
        Arc::new(PosixEnvironment::new()),
        ExecutorConfig::default(),
    );

    type Cases = Vec<(Vec<PathChoice>, Vec<u64>)>;
    let (mut partitioned, mut whole): (Cases, Cases) = (Vec::new(), Vec::new());
    let mut finish = |state: ExecutionState| {
        let case = TestCase::from_state(&state, &solver).expect("feasible path");
        let inputs = case.inputs.iter().map(|input| input.value).collect();
        partitioned.push((case.path, inputs));

        let constraints: Vec<ExprRef> = state.constraints.iter().cloned().collect();
        let mentioned: std::collections::BTreeSet<_> =
            constraints.iter().flat_map(collect_symbols).collect();
        let symbols = state.symbols.iter();
        let widths = symbols
            .filter(|info| mentioned.contains(&info.id))
            .map(|info| (info.id, info.width))
            .collect();
        let model = match search(&constraints, &widths, SearchBudget::default()) {
            SearchOutcome::Sat(model) => model,
            other => panic!("whole-set search of a feasible path: {other:?}"),
        };
        let symbols = state.symbols.iter();
        let inputs = symbols
            .map(|info| model.get(info.id).unwrap_or(0))
            .collect();
        whole.push((state.path.clone(), inputs));
    };

    let mut ids = StateIdGen::new();
    let mut stack = vec![executor.initial_state(ids.fresh())];
    while let Some(mut state) = stack.pop() {
        loop {
            match executor.step(&mut state, &mut ids) {
                StepResult::Continue => {}
                StepResult::Forked(siblings) => {
                    for sibling in siblings {
                        if sibling.is_terminated() {
                            finish(sibling);
                        } else {
                            stack.push(sibling);
                        }
                    }
                }
                StepResult::Terminated(_) => {
                    finish(state);
                    break;
                }
            }
        }
    }

    assert_eq!(partitioned.len(), 1098, "memcached-3x5 has 1098 paths");
    partitioned.sort();
    whole.sort();
    assert_eq!(partitioned, whole);
}
