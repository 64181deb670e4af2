//! Compact array-form tree representation for million-leaf scale.
//!
//! [`TreeIndex`](crate::TreeIndex) is the full-featured index (LCA
//! lifting tables, label lookup, rank maps) and costs hundreds of
//! bytes per node. At the million-leaf scale the query engine's hot
//! path only needs three questions answered — *who is my parent*, *is
//! a an ancestor of b*, and *what leaf interval does this subtree
//! cover* — all of which flat arrays answer in O(1):
//!
//! * `parent[v]` — parent id (`u32::MAX` sentinel for the root),
//! * `enter[v]`/`exit[v]` — preorder timestamps delimiting `v`'s
//!   subtree (`exit` is one past the last descendant),
//! * `leaves_before[t]` — leaves among the first `t` preorder nodes,
//!   turning timestamps into Euler-tour leaf intervals.
//!
//! Sixteen bytes per node, append-only vectors, no per-node
//! allocation: a 1M-leaf binary tree (~2M nodes) fits in ~32 MB.
//! Leaf ranks coincide with [`TreeIndex`](crate::TreeIndex)'s ranks
//! because both assign them in preorder.

use crate::index::LeafInterval;
use crate::tree::{NodeId, Tree};
use crate::{PhyloError, Result};

/// Sentinel parent for the root node.
const NO_PARENT: u32 = u32::MAX;

/// Flat-array tree: parent/enter/exit plus a leaf-count prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuccinctTree {
    parent: Vec<u32>,
    enter: Vec<u32>,
    exit: Vec<u32>,
    /// `leaves_before[t]` = number of leaves among the first `t`
    /// preorder nodes; length `node_count() + 1`.
    leaves_before: Vec<u32>,
}

impl SuccinctTree {
    /// Build the arrays from a tree in `O(n)`.
    pub fn from_tree(tree: &Tree) -> Result<SuccinctTree> {
        let n = tree.len();
        if n == 0 {
            return Err(PhyloError::InvalidValue(
                "cannot index an empty tree".to_string(),
            ));
        }
        if n as u64 >= NO_PARENT as u64 {
            return Err(PhyloError::InvalidValue(format!(
                "tree has {n} nodes; succinct arrays index with u32"
            )));
        }
        let preorder = tree.preorder();
        let mut parent = vec![NO_PARENT; n];
        let mut enter = vec![0u32; n];
        let mut leaves_before = Vec::with_capacity(n + 1);
        leaves_before.push(0);
        for (pos, &id) in preorder.iter().enumerate() {
            enter[id.index()] = pos as u32;
            let node = tree.node_unchecked(id);
            if let Some(p) = node.parent {
                parent[id.index()] = p.0;
            }
            let so_far = *leaves_before.last().unwrap_or(&0);
            leaves_before.push(so_far + u32::from(node.is_leaf()));
        }
        // Subtree sizes accumulate bottom-up; exit = enter + size.
        let mut size = vec![1u32; n];
        let mut exit = vec![0u32; n];
        for &id in &tree.postorder() {
            let node = tree.node_unchecked(id);
            for &c in &node.children {
                size[id.index()] += size[c.index()];
            }
            exit[id.index()] = enter[id.index()] + size[id.index()];
        }
        Ok(SuccinctTree {
            parent,
            enter,
            exit,
            leaves_before,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        *self.leaves_before.last().unwrap_or(&0) as usize
    }

    /// Parent of a node, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        match self.parent[id.index()] {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// True when the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.exit[id.index()] == self.enter[id.index()] + 1
    }

    /// True when `ancestor` is `node` or one of its ancestors
    /// (self-inclusive, matching [`TreeIndex`](crate::TreeIndex)).
    #[inline]
    pub fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.enter[ancestor.index()] <= self.enter[node.index()]
            && self.exit[node.index()] <= self.exit[ancestor.index()]
    }

    /// Half-open Euler-tour leaf interval of a node's subtree.
    #[inline]
    pub fn interval(&self, id: NodeId) -> LeafInterval {
        LeafInterval {
            lo: self.leaves_before[self.enter[id.index()] as usize],
            hi: self.leaves_before[self.exit[id.index()] as usize],
        }
    }

    /// Leaf rank of a leaf node, `None` for internal nodes.
    #[inline]
    pub fn rank_of(&self, id: NodeId) -> Option<u32> {
        self.is_leaf(id)
            .then(|| self.leaves_before[self.enter[id.index()] as usize])
    }

    /// Bytes held by the four arrays (the whole structure).
    pub fn memory_bytes(&self) -> usize {
        4 * (self.parent.len() + self.enter.len() + self.exit.len() + self.leaves_before.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TreeIndex;

    /// A mixed-shape tree: a caterpillar spine with balanced tufts and
    /// the occasional unary internal node (the case where leaf
    /// intervals alone cannot decide ancestry).
    fn gnarly_tree() -> Tree {
        let mut t = Tree::with_root(Some("root".to_string()));
        let mut spine = t.root();
        for i in 0..12 {
            let next = t.add_child(spine, Some(format!("s{i}")), 1.0).unwrap();
            // Tuft of two leaves under every other spine node.
            if i % 2 == 0 {
                let tuft = t.add_child(spine, None, 0.5).unwrap();
                t.add_child(tuft, Some(format!("a{i}")), 0.1).unwrap();
                t.add_child(tuft, Some(format!("b{i}")), 0.1).unwrap();
            } else {
                // Unary chain: internal node with a single child.
                let mid = t.add_child(spine, None, 0.2).unwrap();
                t.add_child(mid, Some(format!("c{i}")), 0.1).unwrap();
            }
            spine = next;
        }
        t.add_child(spine, Some("tip".to_string()), 1.0).unwrap();
        t
    }

    #[test]
    fn agrees_with_tree_index() {
        let tree = gnarly_tree();
        let full = TreeIndex::build(&tree);
        let compact = SuccinctTree::from_tree(&tree).unwrap();
        assert_eq!(compact.node_count(), tree.len());
        assert_eq!(compact.leaf_count(), full.leaf_count());
        let n = tree.len() as u32;
        for v in 0..n {
            let v = NodeId(v);
            assert_eq!(compact.interval(v), full.interval(v), "interval of {v}");
            assert_eq!(compact.rank_of(v), full.rank_of(v), "rank of {v}");
            assert_eq!(
                compact.parent(v),
                tree.node_unchecked(v).parent,
                "parent of {v}"
            );
            assert_eq!(
                compact.is_leaf(v),
                tree.node_unchecked(v).is_leaf(),
                "leafness of {v}"
            );
            for u in 0..n {
                let u = NodeId(u);
                assert_eq!(
                    compact.is_ancestor(v, u),
                    full.is_ancestor(v, u),
                    "is_ancestor({v}, {u})"
                );
            }
        }
    }

    #[test]
    fn sixteen_bytes_per_node() {
        let tree = gnarly_tree();
        let compact = SuccinctTree::from_tree(&tree).unwrap();
        let n = tree.len();
        assert_eq!(compact.memory_bytes(), 4 * (3 * n + n + 1));
        // Well under 20 bytes per node even with the prefix array.
        assert!(compact.memory_bytes() <= 20 * n);
    }

    #[test]
    fn single_node_tree() {
        let tree = Tree::with_root(Some("only".to_string()));
        let compact = SuccinctTree::from_tree(&tree).unwrap();
        assert_eq!(compact.node_count(), 1);
        assert_eq!(compact.leaf_count(), 1);
        let root = tree.root();
        assert!(compact.is_leaf(root));
        assert_eq!(compact.parent(root), None);
        assert!(compact.is_ancestor(root, root));
        assert_eq!(compact.interval(root), LeafInterval { lo: 0, hi: 1 });
    }
}
