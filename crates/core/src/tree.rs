//! The worker-local view of the execution tree.
//!
//! Each worker only sees the subtree it explores (§3.2, Fig. 2). Nodes carry
//! the two attributes of the paper: a *status* (materialized — the program
//! state is present — or virtual — an "empty shell" reachable by replaying
//! its path) and a *life-cycle stage* (candidate — ready to be explored,
//! fence — being explored by another worker, dead — already explored).
//! Program state is only kept for materialized candidate nodes. A node
//! itself records no path: a materialized candidate's path lives in its
//! execution state, a virtual candidate's in its queued job, and a fence or
//! dead node is never turned back into either.

use c9_vm::StateId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a node in a worker's local tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Materialized vs. virtual (Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeStatus {
    /// The corresponding program state lives on this worker.
    Materialized,
    /// Only the path is known; the state must be reconstructed by replay.
    Virtual,
}

/// Candidate / fence / dead (Fig. 2 and Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeLife {
    /// On the local exploration frontier.
    Candidate,
    /// Demarcates the boundary with work done elsewhere; never explored
    /// locally.
    Fence,
    /// Fully explored; its program state can be discarded.
    Dead,
}

/// One node of the worker-local execution tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TreeNode {
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Children, in creation order.
    pub children: Vec<NodeId>,
    /// Materialized or virtual.
    pub status: NodeStatus,
    /// Candidate, fence, or dead.
    pub life: NodeLife,
    /// The execution-state id currently materializing this node, if any.
    pub state: Option<StateId>,
}

/// The worker-local execution tree.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerTree {
    nodes: Vec<TreeNode>,
    by_state: BTreeMap<StateId, NodeId>,
}

impl WorkerTree {
    /// Creates a tree containing only the root node, materialized by
    /// `root_state` (the seed job of the first worker, or an imported job's
    /// replay state).
    pub fn new() -> WorkerTree {
        WorkerTree::default()
    }

    /// Adds the root node materialized by `state`.
    pub fn set_root(&mut self, state: StateId) -> NodeId {
        assert!(self.nodes.is_empty(), "root already set");
        let id = NodeId(0);
        self.nodes.push(TreeNode {
            parent: None,
            children: Vec::new(),
            status: NodeStatus::Materialized,
            life: NodeLife::Candidate,
            state: Some(state),
        });
        self.by_state.insert(state, id);
        id
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut TreeNode {
        &mut self.nodes[id.0 as usize]
    }

    /// The node currently materialized by `state`.
    pub fn node_of_state(&self, state: StateId) -> Option<NodeId> {
        self.by_state.get(&state).copied()
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes currently in each life-cycle stage:
    /// `(candidates, fences, dead)`.
    pub fn life_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for n in &self.nodes {
            match n.life {
                NodeLife::Candidate => counts.0 += 1,
                NodeLife::Fence => counts.1 += 1,
                NodeLife::Dead => counts.2 += 1,
            }
        }
        counts
    }

    fn add_node(&mut self, node: TreeNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if let Some(state) = node.state {
            self.by_state.insert(state, id);
        }
        if let Some(parent) = node.parent {
            self.nodes[parent.0 as usize].children.push(id);
        }
        self.nodes.push(node);
        id
    }

    /// Records that the state materializing `parent_state` forked: the parent
    /// node dies, and one materialized candidate child is created for the
    /// continuing state (which keeps its id) and for each new sibling.
    pub fn record_fork(
        &mut self,
        parent_state: StateId,
        siblings: impl IntoIterator<Item = StateId>,
    ) {
        let Some(parent_id) = self.by_state.remove(&parent_state) else {
            return;
        };
        self.node_mut(parent_id).life = NodeLife::Dead;
        self.node_mut(parent_id).state = None;
        for state in std::iter::once(parent_state).chain(siblings) {
            self.add_node(TreeNode {
                parent: Some(parent_id),
                children: Vec::new(),
                status: NodeStatus::Materialized,
                life: NodeLife::Candidate,
                state: Some(state),
            });
        }
    }

    /// Records that a state terminated: its node dies.
    pub fn record_termination(&mut self, state: StateId) {
        if let Some(id) = self.by_state.remove(&state) {
            self.node_mut(id).life = NodeLife::Dead;
            self.node_mut(id).state = None;
        }
    }

    /// Records that a candidate was exported to another worker: the node
    /// becomes a fence (§3.2: "it becomes a fence node at the sender") and
    /// its program state is dropped.
    pub fn record_export(&mut self, state: StateId) {
        if let Some(id) = self.by_state.remove(&state) {
            let node = self.node_mut(id);
            node.life = NodeLife::Fence;
            node.status = NodeStatus::Materialized;
            node.state = None;
        }
    }

    /// Records an imported job: a virtual candidate node attached under the
    /// root (the intermediate nodes of the job path are not expanded until
    /// the job is materialized).
    pub fn record_import(&mut self) -> NodeId {
        let parent = if self.nodes.is_empty() {
            None
        } else {
            Some(NodeId(0))
        };
        let id = self.add_node(TreeNode {
            parent,
            children: Vec::new(),
            status: NodeStatus::Virtual,
            life: NodeLife::Candidate,
            state: None,
        });
        if self.nodes.len() == 1 {
            // The import created the root itself (fresh worker).
            self.nodes[0].parent = None;
        }
        id
    }

    /// Records that a *virtual* candidate (an imported job that was never
    /// materialized here) was forwarded to another worker: its node becomes
    /// a fence without ever having held program state.
    pub fn record_virtual_export(&mut self, node: NodeId) {
        self.node_mut(node).life = NodeLife::Fence;
    }

    /// Records that a virtual node's materialization was abandoned (its
    /// replay diverged): the node dies without ever having been explored.
    pub fn record_abandoned(&mut self, node: NodeId) {
        let n = self.node_mut(node);
        n.life = NodeLife::Dead;
        n.state = None;
    }

    /// Records that a virtual node finished replaying and is now materialized
    /// by `state`.
    pub fn record_materialization(&mut self, node: NodeId, state: StateId) {
        let n = self.node_mut(node);
        n.status = NodeStatus::Materialized;
        n.life = NodeLife::Candidate;
        n.state = Some(state);
        self.by_state.insert(state, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_kills_parent_and_creates_candidates() {
        let mut tree = WorkerTree::new();
        tree.set_root(StateId(0));
        tree.record_fork(StateId(0), [StateId(1)]);
        let (candidates, fences, dead) = tree.life_counts();
        assert_eq!((candidates, fences, dead), (2, 0, 1));
        assert_eq!(tree.node(NodeId(0)).children.len(), 2);
    }

    #[test]
    fn export_turns_candidate_into_fence() {
        let mut tree = WorkerTree::new();
        tree.set_root(StateId(0));
        tree.record_fork(StateId(0), [StateId(1)]);
        tree.record_export(StateId(1));
        let (candidates, fences, dead) = tree.life_counts();
        assert_eq!((candidates, fences, dead), (1, 1, 1));
        // The exported state no longer maps to a node.
        assert!(tree.node_of_state(StateId(1)).is_none());
    }

    #[test]
    fn import_and_materialize_lifecycle() {
        let mut tree = WorkerTree::new();
        tree.set_root(StateId(0));
        let node = tree.record_import();
        assert_eq!(tree.node(node).status, NodeStatus::Virtual);
        assert_eq!(tree.node(node).life, NodeLife::Candidate);
        tree.record_materialization(node, StateId(7));
        assert_eq!(tree.node(node).status, NodeStatus::Materialized);
        assert_eq!(tree.node_of_state(StateId(7)), Some(node));
    }

    #[test]
    fn termination_makes_node_dead() {
        let mut tree = WorkerTree::new();
        tree.set_root(StateId(0));
        tree.record_termination(StateId(0));
        let (candidates, fences, dead) = tree.life_counts();
        assert_eq!((candidates, fences, dead), (0, 0, 1));
    }
}
