//! Cloud9-RS: parallel symbolic execution for automated software testing.
//!
//! This is the facade crate of the Cloud9-RS workspace, a from-scratch Rust
//! reproduction of *"Parallel Symbolic Execution for Automated Real-World
//! Software Testing"* (Bucur, Ureche, Zamfir, Candea — EuroSys 2011). It
//! re-exports the public API of the underlying crates:
//!
//! * [`expr`] / [`solver`] — symbolic bit-vector expressions and the
//!   constraint solver,
//! * [`ir`] — the program representation and builder,
//! * [`vm`] — the single-node symbolic execution engine (the KLEE stand-in),
//! * [`posix`] — the symbolic POSIX environment model and testing API,
//! * [`net`] — the cluster runtime: wire messages, job encoding, and the
//!   TCP transport,
//! * [`core`] — the cluster-parallel engine (workers, job transfer, load
//!   balancing) that is the paper's main contribution,
//! * [`targets`] — the programs under test used by the evaluation,
//! * [`trace`] — the observability layer: leveled structured logging,
//!   spans, metrics histograms, and the machine-readable sinks behind
//!   `--trace-out` / `--trace-chrome` / `--report-out`.
//!
//! The `c9-worker` and `c9-coordinator` binaries of this crate run a
//! cluster as N OS processes over TCP — the paper's deployment; see
//! `README.md` ("Running a multi-process cluster").
//!
//! See `README.md` for a quickstart and `docs/ARCHITECTURE.md` for the
//! system inventory; the `fig*` / `table*` binaries of `crates/bench`
//! regenerate the paper's tables and figures. Runnable examples live in
//! `examples/`.

pub use c9_core as core;
pub use c9_expr as expr;
pub use c9_ir as ir;
pub use c9_net as net;
pub use c9_posix as posix;
pub use c9_solver as solver;
pub use c9_targets as targets;
pub use c9_trace as trace;
pub use c9_vm as vm;

/// Convenience prelude with the types most programs need.
pub mod prelude {
    pub use c9_core::{Cluster, ClusterConfig, ClusterRunResult, Worker, WorkerConfig, WorkerId};
    pub use c9_ir::{BinaryOp, Operand, Program, ProgramBuilder, Width};
    pub use c9_net::TcpTransport;
    pub use c9_posix::{nr, PosixConfig, PosixEnvironment};
    pub use c9_solver::{ConstraintSet, SatResult, Solver};
    pub use c9_vm::{
        sysno, DfsSearcher, Engine, EngineConfig, InterleavedSearcher, NullEnvironment,
        TerminationReason, TestCase,
    };
}
