//! Cluster-parallel symbolic execution — the Cloud9 EuroSys'11 contribution.
//!
//! This crate turns the single-node engine of [`c9_vm`] into a parallel
//! symbolic execution platform, following §3 of the paper:
//!
//! * [`Job`] / [`JobTree`] — exploration jobs encoded as the path of
//!   decisions from the root of the execution tree, aggregated into prefix
//!   trees for transfer (§3.2, "encode jobs as the path from the root").
//! * [`WorkerTree`] — the worker-local view of the execution tree with the
//!   materialized/virtual × candidate/fence/dead node life cycle of Fig. 3.
//! * [`Worker`] — an independent symbolic execution engine that explores its
//!   local frontier, exports candidates on request (they become fence nodes
//!   locally), and lazily materializes imported virtual jobs by path replay
//!   through `c9_vm`'s `ReplayEngine`, backed by an [`AnchorCache`] of
//!   prefix snapshots so a batch of jobs costs one walk of its shared
//!   prefix trie instead of one full root replay per job.
//! * [`LoadBalancer`] — classifies workers by queue length (mean ± δ·σ),
//!   issues ⟨source, destination, count⟩ transfer requests, and maintains the
//!   global coverage bit vector used by the distributed coverage-optimized
//!   strategy (§3.3).
//! * [`Cluster`] — the harness that runs workers on OS threads connected only
//!   by message channels (shared-nothing) and drives the coordinator: a
//!   sans-IO state machine (`coordinator.rs`: events in, commands out, no
//!   clock or transport inside) that makes every §3.3 decision — admission,
//!   balancing, crash recovery, stopping, checkpoints — and records the
//!   statistics the paper's evaluation reports (useful vs. replay work,
//!   states transferred per interval, coverage over time). [`RunService`]
//!   and [`SubCoordinator`] are two more drivers over the same machine.
//!
//! # Examples
//!
//! Exhaustively explore a small program on a 2-worker cluster:
//!
//! ```
//! use std::sync::Arc;
//! use c9_core::{Cluster, ClusterConfig};
//! use c9_ir::{BinaryOp, Operand, ProgramBuilder, Width};
//! use c9_vm::{sysno, NullEnvironment};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0, Some(Width::W32));
//! let buf = f.alloc(Operand::word(2));
//! f.syscall(sysno::MAKE_SYMBOLIC, vec![Operand::Reg(buf), Operand::word(2)]);
//! let b = f.load(Operand::Reg(buf), Width::W8);
//! let cond = f.binary(BinaryOp::Ult, Operand::Reg(b), Operand::byte(100));
//! let t = f.create_block();
//! let e = f.create_block();
//! f.branch(Operand::Reg(cond), t, e);
//! f.switch_to(t);
//! f.ret(Some(Operand::word(0)));
//! f.switch_to(e);
//! f.ret(Some(Operand::word(1)));
//! let main = f.finish();
//! pb.set_entry(main);
//!
//! let cluster = Cluster::new(
//!     Arc::new(pb.finish()),
//!     Arc::new(NullEnvironment),
//!     ClusterConfig { num_workers: 2, ..ClusterConfig::default() },
//! );
//! let result = cluster.run();
//! assert_eq!(result.summary.paths_completed(), 2);
//! ```

mod balancer;
mod cluster;
pub mod config;
mod coordinator;
mod federation;
pub mod frontdoor;
mod membership;
mod portfolio;
mod replay_cache;
mod report;
mod service;
mod stats;
mod tree;
mod worker;

pub use balancer::{BalancerConfig, LoadBalancer, TransferRequest};
pub use c9_net::{
    decode_jobs_flat, encode_jobs_flat, Control, CoordinatorEndpoint, EnvSpec, ExportOrder,
    FinalReport, InProcTransport, Job, JobBatch, JobTree, MemberEvent, PeerInfo, RunId, RunSpec,
    RunSpecBuilder, RunSpecError, StatusReport, TcpTransport, TransferEvent, Transport,
    TransportError, WorkerEndpoint, WorkerId, WorkerStats, COORDINATOR,
};
pub use c9_solver::{CacheSlice, SolverBackendKind};
pub use c9_vm::{ReplayCacheConfig, StrategyKind};
pub use cluster::{
    run_worker_from_spec, run_worker_from_spec_with, run_worker_loop, Cluster, ClusterConfig,
    ClusterRunResult, CoordinatorRunOpts, WorkerLoopOpts, WorkerService,
};
pub use federation::{FederatedCluster, FederationConfig, SubCoordinator, SubSummary};
pub use membership::{Checkpoint, MemberHealth, MemberState, Membership};
pub use portfolio::{derive_seed, Portfolio, PortfolioCheckpoint, PortfolioConfig, StrategyYield};
pub use replay_cache::AnchorCache;
pub use report::{
    run_report, timeline_csv, write_run_report, write_timeline_csv, RUN_REPORT_VERSION,
};
pub use service::{
    serve_inproc, RunInfo, RunService, RunServiceConfig, RunState, RunSubmission, ServiceHandle,
    ServiceSummary,
};
pub use stats::{ClusterSummary, IntervalSample};
pub use tree::{NodeId, NodeLife, NodeStatus, TreeNode, WorkerTree};
pub use worker::{default_threads, Worker, WorkerConfig};

#[cfg(test)]
mod tests;
