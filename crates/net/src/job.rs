//! Exploration jobs and their wire encoding.
//!
//! A *job* designates one unexplored node of the global execution tree. As in
//! the paper (§3.2), a job is encoded as the path of decisions from the root
//! to that node: the receiving worker reconstructs ("materializes") the node
//! by replaying the path. When several jobs are transferred together their
//! paths usually share long prefixes, so they are aggregated into a *job
//! tree* (a prefix trie) before serialization. This module is the wire
//! format all transports ship between workers.

use c9_vm::PathChoice;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One exploration job: the path from the root of the execution tree to the
/// candidate node to explore.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Job {
    /// The decisions from the root to the node.
    pub path: Vec<PathChoice>,
}

impl Job {
    /// Creates a job for the given path.
    pub fn new(path: Vec<PathChoice>) -> Job {
        Job { path }
    }

    /// Depth of the node this job designates.
    pub fn depth(&self) -> usize {
        self.path.len()
    }
}

/// A prefix trie over job paths, used to exploit common path prefixes when
/// encoding a batch of jobs for transfer.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobTree {
    children: BTreeMap<PathChoice, JobTree>,
    /// Whether a job ends exactly at this node.
    terminal: bool,
}

/// A visitor over a depth-first traversal of a [`JobTree`].
///
/// [`JobTree::walk`] descends every edge of the trie exactly once, in
/// lexicographic choice order, calling [`enter_edge`] on the way down and
/// [`leave_edge`] on the way back up. Because each shared prefix is entered
/// once — not once per job below it — a visitor can materialize or account a
/// whole batch in a single pass over the trie instead of decoding it to a
/// flat `Vec<Job>` first.
///
/// [`enter_edge`]: JobTreeVisitor::enter_edge
/// [`leave_edge`]: JobTreeVisitor::leave_edge
pub trait JobTreeVisitor {
    /// The walk descends the edge labelled `choice`. `terminal` is whether a
    /// job ends exactly at the node the edge leads to.
    fn enter_edge(&mut self, choice: PathChoice, terminal: bool);
    /// The walk returns back up over the most recently entered edge.
    fn leave_edge(&mut self);
}

impl JobTree {
    /// Creates an empty job tree.
    pub fn new() -> JobTree {
        JobTree::default()
    }

    /// Builds a job tree from a batch of jobs.
    pub fn from_jobs(jobs: &[Job]) -> JobTree {
        let mut tree = JobTree::new();
        for job in jobs {
            tree.insert(&job.path);
        }
        tree
    }

    /// Inserts one path.
    pub fn insert(&mut self, path: &[PathChoice]) {
        let mut node = self;
        for choice in path {
            node = node.children.entry(*choice).or_default();
        }
        node.terminal = true;
    }

    /// Expands the tree back into the list of jobs it encodes (in
    /// lexicographic path order).
    pub fn to_jobs(&self) -> Vec<Job> {
        // One DFS walk over the trie; pre-size the output and the shared
        // prefix scratch buffer from the trie's counts so the hot decode
        // path never reallocates them.
        struct Collector {
            prefix: Vec<PathChoice>,
            out: Vec<Job>,
        }
        impl JobTreeVisitor for Collector {
            fn enter_edge(&mut self, choice: PathChoice, terminal: bool) {
                self.prefix.push(choice);
                if terminal {
                    self.out.push(Job::new(self.prefix.clone()));
                }
            }
            fn leave_edge(&mut self) {
                self.prefix.pop();
            }
        }
        let mut collector = Collector {
            prefix: Vec::with_capacity(self.depth()),
            out: Vec::with_capacity(self.len()),
        };
        if self.terminal {
            collector.out.push(Job::new(Vec::new()));
        }
        self.walk(&mut collector);
        collector.out
    }

    /// Walks the trie depth-first, calling the visitor for every edge
    /// entered and left (lexicographic choice order, shared prefixes entered
    /// exactly once). The root node itself has no incoming edge; callers
    /// that care about an empty-path job check [`JobTree::is_terminal`] on
    /// the root before walking.
    pub fn walk<V: JobTreeVisitor>(&self, visitor: &mut V) {
        for (choice, child) in &self.children {
            visitor.enter_edge(*choice, child.terminal);
            child.walk(visitor);
            visitor.leave_edge();
        }
    }

    /// Whether a job ends exactly at this node.
    pub fn is_terminal(&self) -> bool {
        self.terminal
    }

    /// Number of outgoing edges of this node.
    pub fn branch_count(&self) -> usize {
        self.children.len()
    }

    /// The node one edge below this one, if the edge exists (incremental
    /// descent — callers walking a whole path avoid re-traversing from the
    /// root at every step).
    pub fn child(&self, choice: &PathChoice) -> Option<&JobTree> {
        self.children.get(choice)
    }

    /// The node reached by following `path` from this node, if every edge
    /// of the path exists.
    pub fn node(&self, path: &[PathChoice]) -> Option<&JobTree> {
        let mut node = self;
        for choice in path {
            node = node.children.get(choice)?;
        }
        Some(node)
    }

    /// Whether a job with exactly this path is encoded in the trie.
    pub fn contains(&self, path: &[PathChoice]) -> bool {
        self.node(path).is_some_and(|n| n.terminal)
    }

    /// Merges every job of `other` into this trie (set union; one walk of
    /// `other`, no intermediate `Vec<Job>`).
    pub fn merge(&mut self, other: &JobTree) {
        self.terminal |= other.terminal;
        for (choice, child) in &other.children {
            self.children.entry(*choice).or_default().merge(child);
        }
    }

    /// Removes the job with exactly this path, pruning trie nodes that no
    /// longer lead to any job. Returns whether the job was present.
    pub fn remove(&mut self, path: &[PathChoice]) -> bool {
        match path.split_first() {
            None => {
                let was = self.terminal;
                self.terminal = false;
                was
            }
            Some((choice, rest)) => {
                let Some(child) = self.children.get_mut(choice) else {
                    return false;
                };
                let removed = child.remove(rest);
                if removed && !child.terminal && child.children.is_empty() {
                    self.children.remove(choice);
                }
                removed
            }
        }
    }

    /// Number of jobs encoded.
    pub fn len(&self) -> usize {
        usize::from(self.terminal) + self.children.values().map(JobTree::len).sum::<usize>()
    }

    /// Whether the tree encodes no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the deepest path in the trie.
    pub fn depth(&self) -> usize {
        self.children
            .values()
            .map(|c| 1 + c.depth())
            .max()
            .unwrap_or(0)
    }

    /// Number of trie nodes (a measure of the shared-prefix compression).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .values()
            .map(JobTree::node_count)
            .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Wire encoding.
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

fn encode_choice(out: &mut Vec<u8>, choice: &PathChoice) {
    match choice {
        PathChoice::Branch(false) => out.push(0),
        PathChoice::Branch(true) => out.push(1),
        PathChoice::Alt { chosen, total } => {
            out.push(2);
            push_varint(out, u64::from(*chosen));
            push_varint(out, u64::from(*total));
        }
    }
}

fn decode_choice(data: &[u8], pos: &mut usize) -> Option<PathChoice> {
    let tag = *data.get(*pos)?;
    *pos += 1;
    match tag {
        0 => Some(PathChoice::Branch(false)),
        1 => Some(PathChoice::Branch(true)),
        2 => {
            let chosen = read_varint(data, pos)? as u32;
            let total = read_varint(data, pos)? as u32;
            Some(PathChoice::Alt { chosen, total })
        }
        _ => None,
    }
}

impl JobTree {
    /// Serializes the job tree into a compact byte string.
    ///
    /// The encoding is a pre-order walk; each node stores its terminal flag
    /// and its child edges (choice + subtree).
    pub fn encode(&self) -> Vec<u8> {
        // Every node contributes its terminal flag and child count; every
        // edge contributes its choice encoding. Pre-sizing from the node
        // count keeps the encoder allocation-free after this reservation for
        // the common all-`Branch` case.
        let mut out = Vec::with_capacity(self.node_count() * 3);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.terminal));
        push_varint(out, self.children.len() as u64);
        for (choice, child) in &self.children {
            encode_choice(out, choice);
            child.encode_into(out);
        }
    }

    /// Deserializes a job tree produced by [`JobTree::encode`].
    pub fn decode(data: &[u8]) -> Option<JobTree> {
        let mut pos = 0;
        let tree = JobTree::decode_from(data, &mut pos)?;
        if pos == data.len() {
            Some(tree)
        } else {
            None
        }
    }

    fn decode_from(data: &[u8], pos: &mut usize) -> Option<JobTree> {
        let terminal = *data.get(*pos)? != 0;
        *pos += 1;
        let n_children = read_varint(data, pos)? as usize;
        let mut children = BTreeMap::new();
        for _ in 0..n_children {
            let choice = decode_choice(data, pos)?;
            let child = JobTree::decode_from(data, pos)?;
            children.insert(choice, child);
        }
        Some(JobTree { children, terminal })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jobs() -> Vec<Job> {
        let b = PathChoice::Branch;
        vec![
            Job::new(vec![b(true), b(true), b(false)]),
            Job::new(vec![b(true), b(true), b(true)]),
            Job::new(vec![b(true), b(false)]),
            Job::new(vec![
                b(false),
                PathChoice::Alt {
                    chosen: 2,
                    total: 5,
                },
                b(true),
            ]),
        ]
    }

    #[test]
    fn job_tree_roundtrip_preserves_jobs() {
        let jobs = sample_jobs();
        let tree = JobTree::from_jobs(&jobs);
        assert_eq!(tree.len(), jobs.len());
        let mut recovered = tree.to_jobs();
        let mut expected = jobs.clone();
        recovered.sort_by(|a, b| a.path.cmp(&b.path));
        expected.sort_by(|a, b| a.path.cmp(&b.path));
        assert_eq!(recovered, expected);
    }

    #[test]
    fn job_tree_shares_prefixes() {
        let jobs = sample_jobs();
        let tree = JobTree::from_jobs(&jobs);
        let total_path_nodes: usize = jobs.iter().map(|j| j.path.len()).sum();
        assert!(tree.node_count() <= total_path_nodes + 1);
    }

    #[test]
    fn tree_depth_matches_longest_path() {
        let jobs = sample_jobs();
        let tree = JobTree::from_jobs(&jobs);
        assert_eq!(tree.depth(), 3);
        assert_eq!(JobTree::new().depth(), 0);
    }

    #[test]
    fn walk_enters_every_edge_once_in_lexicographic_order() {
        let jobs = sample_jobs();
        let tree = JobTree::from_jobs(&jobs);
        struct Tracer {
            prefix: Vec<PathChoice>,
            entered: Vec<Vec<PathChoice>>,
            terminals: Vec<Vec<PathChoice>>,
        }
        impl JobTreeVisitor for Tracer {
            fn enter_edge(&mut self, choice: PathChoice, terminal: bool) {
                self.prefix.push(choice);
                self.entered.push(self.prefix.clone());
                if terminal {
                    self.terminals.push(self.prefix.clone());
                }
            }
            fn leave_edge(&mut self) {
                self.prefix.pop();
            }
        }
        let mut tracer = Tracer {
            prefix: Vec::new(),
            entered: Vec::new(),
            terminals: Vec::new(),
        };
        tree.walk(&mut tracer);
        // Balanced enter/leave: the walk ended back at the root.
        assert!(tracer.prefix.is_empty());
        // One enter per trie edge (= every node except the root).
        assert_eq!(tracer.entered.len(), tree.node_count() - 1);
        let mut unique = tracer.entered.clone();
        unique.dedup();
        assert_eq!(unique, tracer.entered, "an edge was entered twice");
        assert!(tracer.entered.windows(2).all(|w| w[0] < w[1]));
        // Terminal notifications are exactly the encoded jobs.
        let mut expected: Vec<Vec<PathChoice>> =
            sample_jobs().into_iter().map(|j| j.path).collect();
        expected.sort();
        assert_eq!(tracer.terminals, expected);
    }

    #[test]
    fn node_lookup_and_contains() {
        let jobs = sample_jobs();
        let tree = JobTree::from_jobs(&jobs);
        let b = PathChoice::Branch;
        assert!(tree.contains(&[b(true), b(false)]));
        assert!(!tree.contains(&[b(true)]), "interior node is not a job");
        let shared = tree.node(&[b(true), b(true)]).expect("shared prefix");
        assert_eq!(shared.branch_count(), 2);
        assert!(!shared.is_terminal());
        assert!(tree.node(&[b(false), b(false)]).is_none());
    }

    #[test]
    fn merge_is_set_union() {
        let jobs = sample_jobs();
        let (left, right) = jobs.split_at(2);
        let mut tree = JobTree::from_jobs(left);
        tree.merge(&JobTree::from_jobs(right));
        // Overlapping merge adds nothing.
        tree.merge(&JobTree::from_jobs(&jobs));
        assert_eq!(tree, JobTree::from_jobs(&jobs));
    }

    #[test]
    fn remove_prunes_empty_branches() {
        let jobs = sample_jobs();
        let mut tree = JobTree::from_jobs(&jobs);
        for job in &jobs {
            assert!(tree.remove(&job.path));
            assert!(!tree.contains(&job.path));
            // Removing again is a no-op.
            assert!(!tree.remove(&job.path));
        }
        assert!(tree.is_empty());
        assert_eq!(
            tree.node_count(),
            1,
            "dangling interior nodes were not pruned"
        );
    }

    #[test]
    fn remove_keeps_shared_prefixes_alive() {
        let b = PathChoice::Branch;
        let jobs = vec![
            Job::new(vec![b(true), b(true)]),
            Job::new(vec![b(true), b(false)]),
        ];
        let mut tree = JobTree::from_jobs(&jobs);
        assert!(tree.remove(&jobs[0].path));
        assert!(tree.contains(&jobs[1].path));
        assert!(tree.node(&[b(true)]).is_some());
    }

    #[test]
    fn empty_path_job_roundtrips_through_walk() {
        let jobs = vec![
            Job::new(Vec::new()),
            Job::new(vec![PathChoice::Branch(true)]),
        ];
        let tree = JobTree::from_jobs(&jobs);
        assert!(tree.is_terminal());
        assert_eq!(tree.to_jobs(), jobs);
    }

    #[test]
    fn wire_encoding_roundtrip() {
        let jobs = sample_jobs();
        let tree = JobTree::from_jobs(&jobs);
        let bytes = tree.encode();
        let decoded = JobTree::decode(&bytes).expect("decode");
        assert_eq!(decoded, tree);
    }

    #[test]
    fn tree_encoding_is_smaller_for_shared_prefixes() {
        // Many deep paths sharing one long prefix compress well.
        let mut prefix: Vec<PathChoice> = (0..50).map(|i| PathChoice::Branch(i % 2 == 0)).collect();
        let mut jobs = Vec::new();
        for i in 0..20 {
            let mut p = prefix.clone();
            p.push(PathChoice::Alt {
                chosen: i,
                total: 20,
            });
            jobs.push(Job::new(p));
        }
        prefix.clear();
        let tree_bytes = JobTree::from_jobs(&jobs).encode();
        // The same choices written out once per job, with no sharing.
        let mut flat_bytes = Vec::new();
        for choice in jobs.iter().flat_map(|job| &job.path) {
            encode_choice(&mut flat_bytes, choice);
        }
        assert!(
            tree_bytes.len() < flat_bytes.len() / 3,
            "tree {} vs flat {}",
            tree_bytes.len(),
            flat_bytes.len()
        );
    }

    #[test]
    fn corrupted_encodings_are_rejected() {
        let jobs = sample_jobs();
        let mut bytes = JobTree::from_jobs(&jobs).encode();
        bytes.push(0xff);
        assert!(JobTree::decode(&bytes).is_none());
        assert!(JobTree::decode(&[2]).is_none());
    }
}
