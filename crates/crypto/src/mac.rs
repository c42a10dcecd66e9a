//! The 28-bit truncated SHA-3 MAC used for enclave memory integrity.
//!
//! §IV-C: "HyperTEE employs SHA-3 based MAC (28-bit) employed by commercial
//! TEEs, which is more suitable for large-size enclave memory than Merkle
//! Trees. In case of an integrity violation, an exception is triggered."
//!
//! Each protected memory line stores a [`MacTag`] computed over
//! `key ‖ address ‖ data`; a mismatch on read models the hardware integrity
//! exception.

use crate::sha3::{keccakf_single_block, Sha3_256, Sha3_256Ref, RATE};

/// A 28-bit MAC tag, stored in the low bits of a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacTag(pub u32);

/// Width of the tag in bits, matching the paper.
pub(crate) const TAG_BITS: u32 = 28;

const TAG_MASK: u32 = (1 << TAG_BITS) - 1;

/// Computes the 28-bit integrity tag for a memory line.
///
/// # Example
///
/// ```
/// use hypertee_crypto::mac::mac28;
/// let tag = mac28(&[1u8; 32], 0x8000_0000, b"line data");
/// assert_eq!(mac28(&[1u8; 32], 0x8000_0000, b"line data"), tag);
/// assert_ne!(mac28(&[1u8; 32], 0x8000_0000, b"line dat!"), tag);
/// ```
pub fn mac28(key: &[u8; 32], address: u64, data: &[u8]) -> MacTag {
    // Fast path for the hot case: the whole `key ‖ addr ‖ len ‖ data`
    // message plus SHA-3 padding fits a single rate block, so the tag is
    // one padded block of 17 lanes and one permutation — no state array,
    // no incremental-hasher machinery. The 64-byte memory line (the only
    // caller on the data plane) assembles its lanes directly without even
    // a byte buffer.
    let msg_len = 48 + data.len();
    if data.len() == 64 {
        let lane = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let lanes: [u64; RATE / 8] = [
            lane(&key[..8]),
            lane(&key[8..16]),
            lane(&key[16..24]),
            lane(&key[24..32]),
            address,
            64, // the length lane
            lane(&data[..8]),
            lane(&data[8..16]),
            lane(&data[16..24]),
            lane(&data[24..32]),
            lane(&data[32..40]),
            lane(&data[40..48]),
            lane(&data[48..56]),
            lane(&data[56..64]),
            0x06, // padding start at byte 112 = lane 14 byte 0
            0,
            0x80u64 << 56, // padding end at byte 135 = lane 16 byte 7
        ];
        return MacTag((keccakf_single_block(&lanes) as u32) & TAG_MASK);
    }
    if msg_len < RATE {
        let mut block = [0u8; RATE];
        block[..32].copy_from_slice(key);
        block[32..40].copy_from_slice(&address.to_le_bytes());
        block[40..48].copy_from_slice(&(data.len() as u64).to_le_bytes());
        block[48..msg_len].copy_from_slice(data);
        block[msg_len] ^= 0x06;
        block[RATE - 1] ^= 0x80;
        let mut lanes = [0u64; RATE / 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        }
        return MacTag((keccakf_single_block(&lanes) as u32) & TAG_MASK);
    }
    let mut h = Sha3_256::new();
    h.update(key);
    h.update(&address.to_le_bytes());
    h.update(&(data.len() as u64).to_le_bytes());
    h.update(data);
    let digest = h.finalize();
    let word = u32::from_le_bytes(digest[..4].try_into().expect("4 bytes"));
    MacTag(word & TAG_MASK)
}

/// Number of consecutive memory lines a [`mac28_lines`] batch covers.
pub const MAC_BATCH_LINES: usize = 8;

/// Computes [`mac28`] for eight consecutive 64-byte lines at once: line `i`
/// starts at `data[64*i]` with address `first_addr + 64*i`. Returns exactly
/// what eight [`mac28`] calls would.
///
/// Line MACs are independent, so on AVX-512 hosts the batch runs eight
/// lane-sliced Keccak sponges in one pass — the permutation's ops are shared
/// eight ways, which a one-line-at-a-time MAC can never approach. This is
/// the shape the memory engine's span paths feed: a 4 KiB page is eight
/// such batches.
///
/// # Example
///
/// ```
/// use hypertee_crypto::mac::{mac28, mac28_lines};
/// let key = [9u8; 32];
/// let data = [0x5au8; 512];
/// let tags = mac28_lines(&key, 0x8000, &data);
/// for i in 0..8 {
///     assert_eq!(tags[i], mac28(&key, 0x8000 + 64 * i as u64, &data[64 * i..64 * i + 64]));
/// }
/// ```
pub fn mac28_lines(key: &[u8; 32], first_addr: u64, data: &[u8; 512]) -> [MacTag; MAC_BATCH_LINES] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        let lane = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let key_lanes = [
            lane(&key[..8]),
            lane(&key[8..16]),
            lane(&key[16..24]),
            lane(&key[24..32]),
        ];
        // SAFETY: the required CPU feature was verified just above.
        #[allow(unsafe_code)]
        let words = unsafe { crate::keccak_avx512::mac28_lines8(&key_lanes, first_addr, data) };
        return words.map(|w| MacTag((w as u32) & TAG_MASK));
    }
    core::array::from_fn(|i| {
        let line: &[u8; 64] = data[64 * i..64 * i + 64].try_into().expect("64 bytes");
        mac28(key, first_addr + 64 * i as u64, line)
    })
}

/// The pre-optimization tag path, reproduced verbatim over the reference
/// hasher (`Sha3_256Ref`: byte-at-a-time absorption, loop-based
/// permutation): the differential oracle and the honest "before"
/// measurement for [`mac28`]. Always equal to [`mac28`].
pub fn mac28_ref(key: &[u8; 32], address: u64, data: &[u8]) -> MacTag {
    let mut h = Sha3_256Ref::new();
    h.update(key);
    h.update(&address.to_le_bytes());
    h.update(&(data.len() as u64).to_le_bytes());
    h.update(data);
    let digest = h.finalize();
    let word = u32::from_le_bytes(digest[..4].try_into().expect("4 bytes"));
    MacTag(word & TAG_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_fits_in_28_bits() {
        for i in 0..64u64 {
            let tag = mac28(&[3u8; 32], i, &[i as u8; 64]);
            assert!(tag.0 <= TAG_MASK);
        }
    }

    #[test]
    fn tag_depends_on_address() {
        let key = [5u8; 32];
        let t1 = mac28(&key, 0x1000, b"data");
        let t2 = mac28(&key, 0x2000, b"data");
        assert_ne!(t1, t2, "address must be bound into the tag");
    }

    #[test]
    fn tag_depends_on_key() {
        let t1 = mac28(&[1u8; 32], 0x1000, b"data");
        let t2 = mac28(&[2u8; 32], 0x1000, b"data");
        assert_ne!(t1, t2);
    }

    #[test]
    fn tamper_detection() {
        let key = [9u8; 32];
        let data = vec![0x5au8; 64];
        let tag = mac28(&key, 0x4000, &data);
        let mut tampered = data.clone();
        tampered[17] ^= 0x01;
        assert_eq!(mac28(&key, 0x4000, &data), tag);
        assert_ne!(mac28(&key, 0x4000, &tampered), tag);
    }

    #[test]
    fn reference_mac_matches_optimized() {
        for i in 0..32u64 {
            let key = [i as u8; 32];
            let data = vec![(i * 7) as u8; 64];
            assert_eq!(mac28(&key, i * 64, &data), mac28_ref(&key, i * 64, &data));
        }
        // Non-line-sized payloads, straddling the single-block fast-path
        // boundary (48-byte header + data vs the 136-byte rate): 87 is the
        // last single-block length, 88 the first two-block one.
        for len in [0usize, 1, 3, 86, 87, 88, 100, 200] {
            let data = vec![0x5au8; len];
            assert_eq!(
                mac28(&[1; 32], 0x9000, &data),
                mac28_ref(&[1; 32], 0x9000, &data),
                "len {len}"
            );
        }
    }

    #[test]
    fn batched_lines_match_single_line_macs() {
        // Pins the lane-sliced batch (AVX-512 when present, scalar loop
        // otherwise) against both the single-line path and the seed
        // reference, across varied data and addresses.
        for seed in 0..8u64 {
            let key = [(seed as u8).wrapping_mul(29); 32];
            let mut data = [0u8; 512];
            for (i, b) in data.iter_mut().enumerate() {
                *b = (i as u64).wrapping_mul(seed | 1).wrapping_add(seed) as u8;
            }
            let first = 0x4000 + seed * 512;
            let tags = mac28_lines(&key, first, &data);
            for (i, &tag) in tags.iter().enumerate() {
                let line = &data[64 * i..64 * i + 64];
                let addr = first + 64 * i as u64;
                assert_eq!(tag, mac28(&key, addr, line), "seed {seed} line {i}");
                assert_eq!(tag, mac28_ref(&key, addr, line), "seed {seed} line {i} ref");
            }
        }
    }

    #[test]
    fn replay_to_other_address_detected() {
        // Moving a valid (data, tag) pair to a different address must fail,
        // modelling relocation attacks.
        let key = [11u8; 32];
        let tag = mac28(&key, 0x1000, b"secret line");
        assert_ne!(mac28(&key, 0x3000, b"secret line"), tag);
    }
}
