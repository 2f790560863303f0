//! Worker and run identity.

use serde::{Deserialize, Serialize};

/// Identifier of a worker within a cluster.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct WorkerId(pub u32);

/// Identifier of one run. Every frame of the run protocol is stamped with
/// the run it belongs to, so a stale frame of an earlier run a worker
/// daemon served never leaks into the current one.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RunId(pub u64);

impl RunId {
    /// "No run started yet": the id a coordinator holds before its run
    /// begins. Real runs must use a non-zero id;
    /// [`RunSpec::validate`](crate::RunSpec::validate) rejects this value.
    pub const NONE: RunId = RunId(0);
}

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The reserved pseudo-worker identity of the coordinator itself, used as the
/// `source` of job batches the coordinator injects directly into a worker
/// (reclaimed work of a dead peer, or a resumed checkpoint frontier).
pub const COORDINATOR: WorkerId = WorkerId(u32::MAX);

impl WorkerId {
    /// The worker id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}
