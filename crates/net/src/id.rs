//! Worker identity.

use serde::{Deserialize, Serialize};

/// Identifier of a worker within a cluster.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct WorkerId(pub u32);

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
