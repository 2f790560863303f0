//! Fig. 7: time to exhaustively explore the four-symbolic-packet memcached
//! test as a function of the number of workers (the paper reports the time
//! roughly halving with every doubling of the cluster).

use c9_bench::{
    experiment_cluster_config, memcached_scaling_workload, print_table, scaling_worker_counts, secs,
};
use std::time::Duration;

fn main() {
    let mut rows = Vec::new();
    for workers in scaling_worker_counts() {
        let (program, env) = memcached_scaling_workload();
        let config = experiment_cluster_config(workers, Duration::from_secs(600));
        let result = c9_bench::run_cluster(program, env, config);
        rows.push(vec![
            workers.to_string(),
            secs(result.summary.elapsed),
            result.summary.paths_completed().to_string(),
            result.summary.exhausted.to_string(),
        ]);
    }
    print_table(
        "Fig. 7 — time to exhaustively complete the memcached symbolic test",
        &["workers", "time", "paths", "exhausted"],
        &rows,
    );
}
