//! The RV8 benchmark suite (§VII-A): profiles calibrated to Table IV plus
//! functional kernels for the computable benchmarks.

use hypertee_sim::perf::WorkloadProfile;

/// Builds one RV8 profile. `image_bytes` values are calibrated so that
/// software measurement at 29 EMS-cycles/byte over a 2×10⁹-cycle run
/// reproduces the paper's Table IV EMEAS column (e.g. norx: 1.61 MB → 7.8%).
fn profile(
    name: &str,
    image_bytes: f64,
    mem_refs_per_kinst: f64,
    llc_miss_rate: f64,
    touched_pages: f64,
) -> WorkloadProfile {
    WorkloadProfile {
        name: name.to_string(),
        host_cycles: 2.0e9,
        instructions: 2.0e9,
        mem_refs_per_kinst,
        tlb_miss_rate: 0.0015,
        llc_miss_rate,
        image_bytes,
        ealloc_calls: 4.0,
        ealloc_bytes: 256.0 * 1024.0,
        touched_pages,
    }
}

/// The seven RV8 benchmarks of Table IV (wolfSSL lives in
/// [`crate::wolfssl`]).
pub fn suite() -> Vec<WorkloadProfile> {
    vec![
        profile("aes", 1.0527e6, 180.0, 0.0010, 700.0),
        profile("dhrystone", 2.9516e6, 250.0, 0.0002, 500.0),
        profile("miniz", 1.2590e6, 300.0, 0.0040, 2800.0),
        profile("norx", 1.6099e6, 200.0, 0.0012, 800.0),
        profile("primes", 0.8050e6, 150.0, 0.0025, 1500.0),
        profile("qsort", 0.4334e6, 320.0, 0.0040, 2000.0),
        profile("sha512", 1.6718e6, 190.0, 0.0008, 600.0),
    ]
}

/// The miniz profile at a given working-set size (Fig. 11's TLB-flush
/// sweep uses 2–32 MiB). The paper's 1.81% anchor at 32 MiB / 400 Hz
/// corresponds to ~34.5% of the working set being touched between
/// switches.
pub fn miniz_with_memory(bytes: u64) -> WorkloadProfile {
    let pages = bytes as f64 / 4096.0;
    let mut p = profile("miniz", 1.2590e6, 300.0, 0.0040, pages * 0.345);
    p.name = format!("miniz-{}M", bytes >> 20);
    p
}

/// Functional kernels: small, real computations standing in for the RV8
/// binaries. Each returns a checksum so tests can verify in-enclave
/// execution produced correct results.
pub mod kernels {
    use hypertee_crypto::aes::Aes128;
    use hypertee_crypto::chacha::ChaChaRng;
    use hypertee_crypto::sha3::sha3_256;

    /// `aes`: encrypt-decrypt roundtrips over a buffer; returns a checksum
    /// of the final plaintext (must equal the input checksum).
    pub fn aes(data: &mut [u8], rounds: usize) -> u64 {
        let cipher = Aes128::new(&[0x2b; 16]);
        let iv = hypertee_crypto::aes::ctr_iv(0x1234, 1);
        for _ in 0..rounds {
            cipher.ctr_apply(&iv, data);
            cipher.ctr_apply(&iv, data);
        }
        checksum(data)
    }

    /// `dhrystone`: the classic integer mix, reduced to its arithmetic
    /// skeleton.
    pub fn dhrystone(iterations: u64) -> u64 {
        let mut a: u64 = 1;
        let mut b: u64 = 2;
        for i in 0..iterations {
            a = a.wrapping_mul(1664525).wrapping_add(1013904223);
            b ^= a.rotate_left((i % 63) as u32);
            if b & 1 == 1 {
                b = b.wrapping_add(a / 3);
            }
        }
        a ^ b
    }

    /// `miniz`: run-length compression + decompression; returns the original
    /// checksum (verifying losslessness) xor the compressed length.
    pub fn miniz(data: &[u8]) -> u64 {
        let compressed = rle_compress(data);
        let restored = rle_decompress(&compressed);
        assert_eq!(restored, data, "lossless roundtrip");
        checksum(data) ^ compressed.len() as u64
    }

    /// `norx`: an AEAD-style pass — keystream + authentication tag.
    pub fn norx(data: &mut [u8]) -> u64 {
        let mut rng = ChaChaRng::from_seed([0x6e; 32]);
        for b in data.iter_mut() {
            *b ^= (rng.next_u32() & 0xff) as u8;
        }
        let tag = sha3_256(data);
        u64::from_le_bytes(tag[..8].try_into().expect("8 bytes"))
    }

    /// `primes`: sieve of Eratosthenes; returns the count of primes < n.
    pub fn primes(n: usize) -> u64 {
        let mut sieve = vec![true; n];
        if n > 0 {
            sieve[0] = false;
        }
        if n > 1 {
            sieve[1] = false;
        }
        let mut i = 2usize;
        while i * i < n {
            if sieve[i] {
                let mut j = i * i;
                while j < n {
                    sieve[j] = false;
                    j += i;
                }
            }
            i += 1;
        }
        sieve.iter().filter(|&&p| p).count() as u64
    }

    /// `qsort`: sorts a pseudo-random buffer; returns a checksum of the
    /// sorted order.
    pub fn qsort(n: usize, seed: u64) -> u64 {
        let mut rng = ChaChaRng::from_u64(seed);
        let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        v.sort_unstable();
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        v.iter()
            .enumerate()
            .fold(0u64, |acc, (i, x)| acc ^ x.rotate_left((i % 63) as u32))
    }

    /// `sha512`: a hashing stream (SHA3-256 stands in for SHA-512, which
    /// the crypto crate does not carry; the workload shape — bulk hashing —
    /// is identical).
    pub fn sha512(data: &[u8], passes: usize) -> u64 {
        let mut digest = sha3_256(data);
        for _ in 1..passes {
            digest = sha3_256(&digest);
        }
        u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
    }

    fn checksum(data: &[u8]) -> u64 {
        data.iter()
            .fold(0u64, |acc, &b| acc.wrapping_mul(131).wrapping_add(b as u64))
    }

    fn rle_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == b && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    fn rle_decompress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for pair in data.chunks(2) {
            if pair.len() == 2 {
                out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_sim::latency::measure_cost;

    #[test]
    fn table4_emeas_shares_reproduce() {
        // Paper Table IV, Enclave-Noncrypto EMEAS column.
        let expected = [
            ("aes", 0.051),
            ("dhrystone", 0.143),
            ("miniz", 0.061),
            ("norx", 0.078),
            ("primes", 0.039),
            ("qsort", 0.021),
            ("sha512", 0.081),
        ];
        for (p, (name, share)) in suite().iter().zip(expected) {
            assert_eq!(p.name, name);
            let measured = measure_cost(p.image_bytes as u64, false) / p.host_cycles;
            assert!(
                (measured - share).abs() < 0.004,
                "{name}: emeas share {measured:.4} vs paper {share}"
            );
        }
    }

    #[test]
    fn table4_engine_reduces_emeas_to_noise() {
        for p in suite() {
            let share = measure_cost(p.image_bytes as u64, true) / p.host_cycles;
            assert!(share < 0.002, "{}: engine EMEAS share {share:.5}", p.name);
        }
    }

    #[test]
    fn kernels_are_deterministic_and_correct() {
        let mut data = vec![7u8; 4096];
        let c1 = kernels::aes(&mut data, 2);
        let mut data2 = vec![7u8; 4096];
        let c2 = kernels::aes(&mut data2, 2);
        assert_eq!(c1, c2);
        assert_eq!(data, data2);
        assert_eq!(kernels::primes(100), 25);
        assert_eq!(kernels::primes(2), 0);
        let q1 = kernels::qsort(1000, 5);
        assert_eq!(q1, kernels::qsort(1000, 5));
        assert_ne!(q1, kernels::qsort(1000, 6));
        assert_eq!(kernels::dhrystone(1000), kernels::dhrystone(1000));
    }

    #[test]
    fn miniz_kernel_roundtrips() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i / 37) as u8).collect();
        let c = kernels::miniz(&data);
        assert_eq!(c, kernels::miniz(&data));
    }

    #[test]
    fn miniz_memory_sweep_touch_scaling() {
        let small = miniz_with_memory(2 << 20);
        let large = miniz_with_memory(32 << 20);
        assert!((large.touched_pages / small.touched_pages - 16.0).abs() < 1e-9);
    }
}
