//! Merkle hash trees over fixed-size pages.
//!
//! §IX of the paper: "To support CVM snapshot, save, and restore, EMS
//! ensures the confidentiality and integrity of CVM memory by encrypting it
//! using AES algorithm and creating a Merkle tree. The encryption key and
//! the root hash value are stored in the private memory of EMS."
//!
//! (For *enclave* memory the paper deliberately prefers the flat 28-bit MAC
//! of [`crate::mac`] — "more suitable for large-size enclave memory than
//! Merkle Trees" — so this tree is used only on the CVM snapshot path.)

use crate::sha256::Sha256;

/// A Merkle tree over equally sized leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<[u8; 32]>>,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes from leaf level upward, with the side flag
    /// (`true` = sibling is on the right).
    pub(crate) siblings: Vec<([u8; 32], bool)>,
}

fn hash_leaf(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"leaf");
    h.update(data);
    h.finalize()
}

fn hash_node(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"node");
    h.update(left);
    h.update(right);
    h.finalize()
}

impl MerkleTree {
    /// Builds a tree over `leaves` (page contents). Odd nodes are paired
    /// with themselves.
    ///
    /// # Panics
    ///
    /// Panics on an empty leaf set.
    pub fn build<D: AsRef<[u8]>>(leaves: &[D]) -> MerkleTree {
        assert!(!leaves.is_empty(), "merkle tree needs at least one leaf");
        let mut levels = vec![leaves
            .iter()
            .map(|d| hash_leaf(d.as_ref()))
            .collect::<Vec<_>>()];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let right = pair.get(1).unwrap_or(&pair[0]);
                next.push(hash_node(&pair[0], right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub(crate) fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push((sibling, sibling_idx > idx));
            idx /= 2;
        }
        MerkleProof { index, siblings }
    }

    /// Verifies that `data` is the leaf at `proof.index` under `root`.
    pub fn verify(root: &[u8; 32], data: &[u8], proof: &MerkleProof) -> bool {
        let mut acc = hash_leaf(data);
        for (sibling, on_right) in &proof.siblings {
            acc = if *on_right {
                hash_node(&acc, sibling)
            } else {
                hash_node(sibling, &acc)
            };
        }
        &acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 64]).collect()
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let leaves = pages(n);
            let tree = MerkleTree::build(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(
                    MerkleTree::verify(&tree.root(), leaf, &proof),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn wrong_data_rejected() {
        let leaves = pages(8);
        let tree = MerkleTree::build(&leaves);
        let proof = tree.prove(3);
        assert!(!MerkleTree::verify(&tree.root(), b"tampered page", &proof));
        // A valid leaf under the wrong index also fails.
        let wrong_index = tree.prove(4);
        assert!(!MerkleTree::verify(&tree.root(), &leaves[3], &wrong_index));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let leaves = pages(6);
        let base = MerkleTree::build(&leaves).root();
        for i in 0..6 {
            let mut modified = leaves.clone();
            modified[i][0] ^= 1;
            assert_ne!(MerkleTree::build(&modified).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::build(&[b"only page"]);
        assert_eq!(tree.leaf_count(), 1);
        assert!(MerkleTree::verify(
            &tree.root(),
            b"only page",
            &tree.prove(0)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        MerkleTree::build::<&[u8]>(&[]);
    }
}
