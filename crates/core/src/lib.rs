//! Cluster-parallel symbolic execution — the Cloud9 EuroSys'11 contribution.
//!
//! This crate turns the single-node engine of [`c9_vm`] into a parallel
//! symbolic execution platform, following §3 of the paper:
//!
//! * [`Job`] / [`JobTree`] — exploration jobs encoded as the path of
//!   decisions from the root of the execution tree, aggregated into prefix
//!   trees for transfer (§3.2, "encode jobs as the path from the root").
//! * [`Worker`] — an independent symbolic execution engine that explores its
//!   local frontier, exports candidates on request, and lazily materializes
//!   imported virtual jobs by path replay through `c9_vm`'s `ReplayEngine`,
//!   backed by an [`AnchorCache`] of prefix snapshots so a batch of jobs
//!   costs one walk of its shared prefix trie instead of one full root
//!   replay per job. The frontier is the paper's candidate nodes (Fig. 3)
//!   and nothing else: a materialized candidate is a boxed execution state,
//!   a virtual one a queued job. A fence (an exported candidate) lives on
//!   only as a job in the coordinator's ledger, and a dead node as a count
//!   in `paths_completed`, so a worker's memory follows its frontier, not
//!   the number of paths it has explored.
//! * [`LoadBalancer`] — classifies workers by queue length (mean ± δ·σ),
//!   issues ⟨source, destination, count⟩ transfer requests, and maintains the
//!   global coverage bit vector used by the distributed coverage-optimized
//!   strategy (§3.3).
//! * [`Cluster`] — the harness that runs workers on OS threads connected only
//!   by loopback TCP (shared-nothing), started exactly as `c9-worker`
//!   daemons are, and drives the coordinator: a
//!   sans-IO state machine (`coordinator.rs`: events in, commands out, no
//!   clock or transport inside) that makes every §3.3 decision — admission,
//!   balancing, crash recovery, stopping, checkpoints — and records the
//!   statistics the paper's evaluation reports (useful vs. replay work,
//!   states transferred per interval, coverage over time).
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
mod membership;
mod replay_cache;
mod report;
mod stats;
mod worker;

pub use balancer::{LoadBalancer, TransferRequest};
pub use c9_net::{
    Control, EnvSpec, Inbound, Job, JobBatch, JobTree, PeerInfo, RunSpec, RunSpecError,
    StatusReport, TcpTransport, TransferEvent, TransportError, WorkerId, WorkerStats, COORDINATOR,
};
pub use c9_vm::StrategyKind;
pub use cluster::{
    run_worker_from_spec_with, Cluster, ClusterConfig, ClusterRunResult, CoordinatorRunOpts,
};
pub use membership::{
    Checkpoint, MemberHealth, MemberState, Membership, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use replay_cache::AnchorCache;
pub use report::{digest_hex, run_report, write_run_report, RUN_REPORT_VERSION};
pub use stats::{ClusterSummary, IntervalSample};
pub use worker::{default_threads, derive_seed, Worker, WorkerConfig};

#[cfg(test)]
mod tests;
