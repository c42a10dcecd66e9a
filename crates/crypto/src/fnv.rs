//! FNV-1a-64: the one non-cryptographic fold of the workspace.
//!
//! It backs the mailbox response checksum, the per-site fault-stream
//! labels, and every replayable trace hash (chaos campaigns, shard merges,
//! bench digests). None of these needs collision resistance against an
//! adversary; all of them need the exact same bits on every host, so the
//! constants live here once.
//!
//! Two granularities share the prime: [`fold_bytes`] is standard FNV-1a
//! (one octet per step), [`fold`] xors a whole 64-bit word per step — the
//! form the committed trace hashes were recorded with.
//!
//! # Example
//!
//! ```
//! use hypertee_crypto::fnv;
//!
//! assert_eq!(fnv::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
//! let mut h = fnv::OFFSET_BASIS;
//! fnv::fold(&mut h, &[1, 2, 3]);
//! assert_ne!(h, fnv::OFFSET_BASIS);
//! ```

/// The FNV-1a-64 offset basis (the hash of the empty input).
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds each 64-bit word of `words` into `hash` (xor the word, multiply by
/// the prime).
#[inline]
pub fn fold(hash: &mut u64, words: &[u64]) {
    for w in words {
        *hash = (*hash ^ w).wrapping_mul(PRIME);
    }
}

/// Folds each byte of `bytes` into `hash` (standard FNV-1a).
#[inline]
pub fn fold_bytes(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ u64::from(*b)).wrapping_mul(PRIME);
    }
}

/// FNV-1a-64 of `bytes`.
#[inline]
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = OFFSET_BASIS;
    fold_bytes(&mut h, bytes);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fnv1a_64_vectors() {
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_fold_vector_matches_recorded_campaign_fold() {
        // Recorded from the chaos campaign's event fold before it moved
        // here; the committed trace hashes depend on these exact bits.
        let mut h = OFFSET_BASIS;
        fold(&mut h, &[9, 1, 0xdead_beef, u64::MAX]);
        assert_eq!(h, 0x1c64_6ae4_f9c8_007d);
    }

    #[test]
    fn folds_compose_across_calls() {
        let mut split = OFFSET_BASIS;
        fold_bytes(&mut split, b"foo");
        fold_bytes(&mut split, b"bar");
        assert_eq!(split, hash_bytes(b"foobar"));
        let mut words = OFFSET_BASIS;
        fold(&mut words, &[1]);
        fold(&mut words, &[2]);
        let mut once = OFFSET_BASIS;
        fold(&mut once, &[1, 2]);
        assert_eq!(words, once);
    }
}
