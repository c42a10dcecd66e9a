//! MemStream (§VII-A, Fig. 8(b)): a dependent-load latency benchmark with a
//! high cache-miss rate, used to expose the worst-case cost of memory
//! encryption + integrity.

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_sim::latency::stream_access;

/// LLC size assumed by the sweep (CS core, Table III: 1 MiB L2; the paper
/// requires working sets ≥ 4× the last-level cache).
pub const LLC_BYTES: u64 = 1 << 20;

/// Analytic model: average latency (CS cycles) of one MemStream access for
/// a given working-set size, with or without encryption+integrity.
///
/// Accesses that miss the LLC pay the DRAM latency (plus the engine extras
/// when enabled); the rest hit in cache.
pub fn access_latency(working_set: u64, encrypted: bool) -> f64 {
    let llc_hit_latency = 20.0;
    let miss_fraction = if working_set <= LLC_BYTES {
        0.05
    } else {
        1.0 - (LLC_BYTES as f64 / working_set as f64)
    };
    let miss_cost = stream_access(encrypted);
    miss_fraction * miss_cost + (1.0 - miss_fraction) * llc_hit_latency
}

/// Fig. 8(b) row: relative latency overhead of `Enclave-M_encrypt` over
/// `Host-Native` at one working-set size.
pub fn overhead(working_set: u64) -> f64 {
    let native = access_latency(working_set, false);
    let enc = access_latency(working_set, true);
    (enc - native) / native
}

/// The paper's sweep sizes: 4–64 MiB (≥ 4× LLC as MemStream recommends).
pub fn sweep_sizes() -> Vec<u64> {
    vec![4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20]
}

/// A functional pointer-chase: builds a random cyclic permutation of
/// `slots` and chases it for `steps`, returning the visit checksum. This is
/// the memory-access *pattern* of MemStream, runnable against real enclave
/// memory through the SDK.
pub fn build_chain(slots: usize, seed: u64) -> Vec<u32> {
    assert!(slots >= 2, "a chain needs at least two slots");
    let mut order: Vec<u32> = (0..slots as u32).collect();
    let mut rng = ChaChaRng::from_u64(seed);
    rng.shuffle(&mut order);
    // next[order[i]] = order[i+1] forms one full cycle.
    let mut next = vec![0u32; slots];
    for i in 0..slots {
        next[order[i] as usize] = order[(i + 1) % slots];
    }
    next
}

/// Chases `chain` for `steps` starting at slot 0.
pub fn chase(chain: &[u32], steps: usize) -> u64 {
    let mut cur = 0u32;
    let mut acc = 0u64;
    for _ in 0..steps {
        cur = chain[cur as usize];
        acc = acc.wrapping_add(cur as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8b_average_overhead() {
        let sizes = sweep_sizes();
        let avg = sizes.iter().map(|&s| overhead(s)).sum::<f64>() / sizes.len() as f64;
        assert!(
            (avg - 0.031).abs() < 0.005,
            "average {avg:.4} vs paper 3.1%"
        );
    }

    #[test]
    fn overhead_grows_with_miss_rate() {
        assert!(overhead(64 << 20) > overhead(4 << 20));
    }

    #[test]
    fn chain_is_a_single_cycle() {
        let chain = build_chain(256, 9);
        let mut seen = vec![false; 256];
        let mut cur = 0u32;
        for _ in 0..256 {
            assert!(!seen[cur as usize], "revisit before covering all slots");
            seen[cur as usize] = true;
            cur = chain[cur as usize];
        }
        assert_eq!(cur, 0, "chain must return to the start");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chase_is_deterministic() {
        let chain = build_chain(128, 4);
        assert_eq!(chase(&chain, 1000), chase(&chain, 1000));
    }
}
