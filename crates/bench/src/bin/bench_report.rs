//! Tracked perf pipeline: runs the crypto/curve/MKTME/PTW microbenches plus
//! memstream + wolfSSL workload passes and emits the schema-stable
//! `BENCH_perf.json` (see `hypertee_bench::report`).
//!
//! Every kernel with a pre-optimization reference path (`*_ref`) is
//! measured against it in the same run, its two arms interleaved by
//! `microbench::pair`, so the recorded `speedup` is a like-for-like
//! before/after delta on the same host.
//!
//! ```text
//! bench_report [--smoke] [--out PATH]   # run + emit
//! bench_report --check PATH             # validate a report
//! ```
//!
//! The **simulated-clock scaling** rows (`threads_simclock_*_x4`) time
//! nothing: they carry deterministic cycle counts from four independent
//! shard machines. `ns_per_op` is the makespan (max shard clock) and
//! `baseline_ns_per_op` the sequential schedule (sum of shard clocks), both
//! in *simulated cycles*, so `speedup` is the architectural scaling of the
//! shard composition and is identical on any host. No row times the
//! worker pool on the wall clock: that reads how many cores the host lends
//! at the moment, not the code. `hypertee::shard`'s tests check instead
//! that `par_run` runs items at once.

use std::hint::black_box;
use std::process::ExitCode;

use hypertee::exec::{InterpMode, RunOutcome};
use hypertee::machine::Machine;
use hypertee::manifest::EnclaveManifest;
use hypertee::shard::par_run;
use hypertee_bench::microbench::{pair, warm_up};
use hypertee_bench::report::{check_report, validate, HostFacts, PerfBench, PerfReport};
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::ed::Point;
use hypertee_crypto::fnv;
use hypertee_crypto::mac::{mac28_lines, mac28_ref};
use hypertee_crypto::scalar::Scalar;
use hypertee_crypto::sha256::{sha256, sha256_ref};
use hypertee_crypto::sha3::{keccakf, keccakf_ref, sha3_256_ref, Sha3_256};
use hypertee_crypto::sig::Keypair;
use hypertee_fabric::message::Primitive;
use hypertee_mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::mktme::MktmeEngine;
use hypertee_mem::pagetable::{PageTable, Perms};
use hypertee_mem::phys::{FrameAllocator, PhysMemory};
use hypertee_mem::system::{CoreMmu, MemorySystem};
use hypertee_sim::config::SocConfig;
use hypertee_sim::rng::derive_stream;
use hypertee_workloads::{memstream, programs, wolfssl};

/// KeyID used for the encrypted benchmark regions.
const BENCH_KEY: KeyId = KeyId(2);

struct Config {
    smoke: bool,
    out: String,
}

fn iters(cfg: &Config, full: u32, smoke: u32) -> u32 {
    if cfg.smoke {
        smoke
    } else {
        full
    }
}

fn crypto_benches(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Keccak-f[1600]: the unrolled permutation vs the scalar loop nest.
    // It is the run's first row and a thin one (~1.3x), so both arms run
    // for `WARM_UP` first, and smoke batches are as long as full ones
    // (~3 ms): a cold host and shorter batches swung its ratio below 1.
    let n = 8_000;
    let mut st = [0x5a5a_5a5a_u64.wrapping_mul(7); 25];
    let mut st_ref = [0x5a5a_5a5a_u64.wrapping_mul(7); 25];
    warm_up(|| {
        keccakf(black_box(&mut st));
        keccakf_ref(black_box(&mut st_ref));
    });
    rows.push(pair(
        "keccak_f1600",
        n,
        200,
        1,
        || {
            keccakf(black_box(&mut st));
        },
        || {
            keccakf_ref(black_box(&mut st_ref));
        },
    ));

    // SHA3-256 over 1 KiB.
    let n = iters(cfg, 2_000, 100);
    let data = vec![0xabu8; 1024];
    rows.push(pair(
        "sha3_256_1k",
        n,
        1024,
        1,
        || {
            let mut h = Sha3_256::new();
            h.update(black_box(&data));
            black_box(h.finalize());
        },
        || {
            black_box(sha3_256_ref(black_box(&data)));
        },
    ));

    // The 28-bit line MAC of §IV-C, measured as the data plane consumes
    // it: eight consecutive 64-byte lines per operation (a 4 KiB page is
    // eight such batches). The optimized side is one lane-sliced
    // `mac28_lines` call; the reference side computes the same eight tags
    // sequentially with the seed hasher. Reported per line (ns ÷ 8).
    let n = iters(cfg, 2_000, 150);
    let key = [7u8; 32];
    let mut lines = [0u8; 512];
    for (i, b) in lines.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(0x3c);
    }
    rows.push(pair(
        "sha3_mac28_line",
        n,
        64,
        8,
        || {
            black_box(mac28_lines(black_box(&key), 0x8000, black_box(&lines)));
        },
        || {
            for i in 0..8u64 {
                let line: &[u8; 64] = lines[64 * i as usize..64 * i as usize + 64]
                    .try_into()
                    .expect("64 bytes");
                black_box(mac28_ref(black_box(&key), 0x8000 + 64 * i, black_box(line)));
            }
        },
    ));

    // AES-128 CTR over 4 KiB: AES-NI (T-table fallback) vs the scalar seed,
    // each arm on its own buffer.
    let n = iters(cfg, 500, 50);
    let cipher = Aes128::new(&[0x42; 16]);
    let iv = ctr_iv(0x1000, 0xdead_beef);
    let mut buf = vec![0x11u8; 4096];
    let mut buf_ref = buf.clone();
    rows.push(pair(
        "aes128_ctr_4k",
        n,
        4096,
        1,
        || {
            cipher.ctr_apply(black_box(&iv), black_box(&mut buf));
        },
        || {
            cipher.ctr_apply_ref(black_box(&iv), black_box(&mut buf_ref));
        },
    ));

    // SHA-256 over 4 KiB, the page EADD measures: the SHA-NI kernel vs the
    // portable scalar compression. Without SHA-NI both arms run the same
    // code and the ratio is a coin flip, so the row is only emitted when
    // the kernel is dispatched.
    let sha_ni = hypertee_crypto::dispatched_kernels()
        .iter()
        .any(|&(name, on)| name == "sha" && on);
    if sha_ni {
        let n = iters(cfg, 500, 50);
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 13 + 7) as u8).collect();
        assert_eq!(sha256(&page), sha256_ref(&page), "SHA-256 paths must agree");
        rows.push(pair(
            "sha256_4k",
            n,
            4096,
            1,
            || {
                black_box(sha256(black_box(&page)));
            },
            || {
                black_box(sha256_ref(black_box(&page)));
            },
        ));
    }
}

fn curve_benches(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Curve25519 attestation arithmetic (§VI): the fixed-base table and the
    // windowed variable-base multiply against the seed double-and-add, and
    // a whole Schnorr verification against the same verification on the
    // seed arithmetic. Outputs are asserted identical before timing.
    let mut rng = ChaChaRng::from_u64(0xC0_25519);
    let k = Scalar::random(&mut rng);
    let p = Point::mul_base(&Scalar::random(&mut rng));
    let kp = Keypair::from_key_material(&rng.gen_bytes32());
    let msg = b"bench_report schnorr_verify";
    let sig = kp.sign(msg);
    assert_eq!(
        Point::mul_base(&k).encode(),
        Point::base().mul_ref(&k).encode_ref(),
        "fixed-base multiply must match the seed"
    );
    assert_eq!(
        p.mul(&k).encode(),
        p.mul_ref(&k).encode_ref(),
        "variable-base multiply must match the seed"
    );
    assert!(kp.public.verify(msg, &sig) && kp.public.verify_ref(msg, &sig));

    let n = iters(cfg, 40, 8);
    let base_point = Point::base();
    rows.push(pair(
        "ed_base_mul",
        n,
        0,
        1,
        || {
            black_box(Point::mul_base(black_box(&k)));
        },
        || {
            black_box(black_box(&base_point).mul_ref(black_box(&k)));
        },
    ));
    // A thin row (~1.4x): smoke batches as long as full ones (~2 ms).
    rows.push(pair(
        "ed_var_mul",
        40,
        0,
        1,
        || {
            black_box(black_box(&p).mul(black_box(&k)));
        },
        || {
            black_box(black_box(&p).mul_ref(black_box(&k)));
        },
    ));

    // One key verified over and over, as a client verifies its pinned EK
    // and a platform's AK: from the key's second verify on, `verify` walks
    // the key's memoized radix-16 table, so this row times the warm,
    // prepared path.
    let n = iters(cfg, 20, 4);
    rows.push(pair(
        "schnorr_verify",
        n,
        0,
        1,
        || {
            assert!(kp.public.verify(black_box(msg), black_box(&sig)));
        },
        || {
            assert!(kp.public.verify_ref(black_box(msg), black_box(&sig)));
        },
    ));

    // Keys verified round-robin over a ring of more keys than the
    // per-thread memo holds (4), so every verify misses it: the plain
    // variable-base path plus the memo lookup.
    let ring: Vec<_> = (0..8)
        .map(|_| {
            let kp = Keypair::from_key_material(&rng.gen_bytes32());
            let sig = kp.sign(msg);
            (kp.public, sig)
        })
        .collect();
    let (mut next, mut next_ref) = (0, 0);
    rows.push(pair(
        "schnorr_verify_cold",
        n,
        0,
        1,
        || {
            let (key, sig) = &ring[next % ring.len()];
            next += 1;
            assert!(key.verify(black_box(msg), black_box(sig)));
        },
        || {
            let (key, sig) = &ring[next_ref % ring.len()];
            next_ref += 1;
            assert!(key.verify_ref(black_box(msg), black_box(sig)));
        },
    ));
}

fn mktme_bench(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Encrypted + MAC-verified 4 KiB write/read roundtrip through the
    // engine, against the seed's per-line scalar path. Each arm owns its
    // engine, memory and read-back buffer.
    let n = iters(cfg, 50, 10);
    let data = vec![0x77u8; 4096];
    let pa = PhysAddr(0x10_000);
    let setup = || {
        let mut engine = MktmeEngine::new(true);
        engine.program_key(BENCH_KEY, &[1; 16], &[2; 32]);
        (engine, PhysMemory::new(16 << 20), vec![0u8; 4096])
    };
    let (mut engine, mut mem, mut back) = setup();
    let (mut engine_ref, mut mem_ref, mut back_ref) = setup();
    let mut roundtrip = |back: &mut [u8]| {
        engine
            .write(&mut mem, pa, BENCH_KEY, black_box(&data))
            .expect("bench write");
        engine
            .read(&mut mem, pa, BENCH_KEY, black_box(back))
            .expect("bench read");
    };
    let mut roundtrip_ref = |back: &mut [u8]| {
        engine_ref
            .write_ref(&mut mem_ref, pa, BENCH_KEY, black_box(&data))
            .expect("bench write_ref");
        engine_ref
            .read_ref(&mut mem_ref, pa, BENCH_KEY, black_box(back))
            .expect("bench read_ref");
    };
    roundtrip(&mut back);
    roundtrip_ref(&mut back_ref);
    assert_eq!(back, data, "roundtrip must return the plaintext");
    assert_eq!(back_ref, data, "seed roundtrip must return the plaintext");
    rows.push(pair(
        "mktme_roundtrip_4k",
        n,
        8192,
        1,
        || roundtrip(&mut back),
        || roundtrip_ref(&mut back_ref),
    ));

    // The guest read-modify-write shape: an 8-byte store, then a load of
    // the same line, once in each line of the page written above.
    let n = iters(cfg, 400, 80);
    let lines = PAGE_SIZE / 64;
    let at = |i: u64| PhysAddr(pa.0 + (i % lines) * 64 + 8);
    let mut store_load = |mem: &mut PhysMemory, i: u64| {
        engine
            .write(mem, at(i), BENCH_KEY, black_box(&i.to_le_bytes()))
            .expect("bench store");
        let mut word = [0u8; 8];
        engine
            .read(mem, at(i), BENCH_KEY, black_box(&mut word))
            .expect("bench load");
        u64::from_le_bytes(word)
    };
    let mut store_load_ref = |mem: &mut PhysMemory, i: u64| {
        engine_ref
            .write_ref(mem, at(i), BENCH_KEY, black_box(&i.to_le_bytes()))
            .expect("bench store_ref");
        let mut word = [0u8; 8];
        engine_ref
            .read_ref(mem, at(i), BENCH_KEY, black_box(&mut word))
            .expect("bench load_ref");
        u64::from_le_bytes(word)
    };
    for i in 0..lines {
        assert_eq!(
            store_load(&mut mem, i),
            i,
            "a load must return the stored word"
        );
        let seed = store_load_ref(&mut mem_ref, i);
        assert_eq!(seed, i, "seed load must return the stored word");
    }
    let raw = |mem: &mut PhysMemory| {
        let mut raw = vec![0u8; PAGE_SIZE as usize];
        mem.read(pa, &mut raw).expect("raw page");
        raw
    };
    assert!(
        raw(&mut mem) == raw(&mut mem_ref),
        "both paths must leave the same ciphertext"
    );
    rows.push(pair(
        "mktme_store_load_u64",
        n,
        16,
        lines,
        || {
            for i in 0..lines {
                black_box(store_load(&mut mem, i));
            }
        },
        || {
            for i in 0..lines {
                black_box(store_load_ref(&mut mem_ref, i));
            }
        },
    ));
}

fn ptw_bench(rows: &mut Vec<PerfBench>) {
    // Translate 8 pages with the TLB flushed per pass: warm walk cache vs
    // fully cold walks (the pre-walk-cache behaviour, where every walk read
    // all three levels). A thin row (~1.3x), so smoke batches are as long
    // as full ones (~2 ms).
    let n = 2_000;
    let pages = 8u64;
    let base_va = VirtAddr(0x40_0000);
    // One identical (memory system, MMU) pair per arm so the batches can
    // interleave: the warm arm keeps its walk cache, the cold arm runs the
    // pre-walk-cache trajectory via the bypass flag.
    let setup = || {
        let mut sys = MemorySystem::new(64 << 20, PhysAddr(0x4000));
        let mut alloc = FrameAllocator::new(Ppn(64), Ppn(16000));
        let pt = PageTable::new(&mut alloc, &mut sys.phys);
        for i in 0..pages {
            let frame = alloc.alloc().expect("bench frame");
            pt.map(
                VirtAddr(base_va.0 + i * PAGE_SIZE),
                frame,
                Perms::RW,
                KeyId::HOST,
                &mut alloc,
                &mut sys.phys,
            )
            .expect("bench map");
        }
        let mut mmu = CoreMmu::new(32);
        mmu.switch_table(Some(pt), false);
        (sys, mmu)
    };
    let (mut sys, mut mmu) = setup();
    let (mut sys_cold, mut mmu_cold) = setup();
    mmu_cold.walk_cache.bypass = true; // pre-walk-cache trajectory

    rows.push(pair(
        "ptw_translate_walk",
        n,
        0,
        pages,
        || {
            mmu.tlb.flush_all(); // force walks, keep the walk cache warm
            for i in 0..pages {
                black_box(
                    mmu.load_u64(&mut sys, VirtAddr(base_va.0 + i * PAGE_SIZE))
                        .expect("bench walk"),
                );
            }
        },
        || {
            mmu_cold.flush_translations();
            for i in 0..pages {
                black_box(
                    mmu_cold
                        .load_u64(&mut sys_cold, VirtAddr(base_va.0 + i * PAGE_SIZE))
                        .expect("bench walk"),
                );
            }
        },
    ));
}

fn memstream_pass(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Pointer-chase through encrypted enclave memory: the full
    // TLB → PTW → MKTME data plane per step. The reference arm rides the
    // same translations but the byte-for-byte MKTME spec data plane. One
    // identical (memory system, MMU) pair per arm, as in `ptw_bench`.
    let slots = 4096usize; // 32 KiB of u64 slots = 8 pages
    let steps = 2048usize;
    let n = iters(cfg, 10, 3);
    let chain = memstream::build_chain(slots, 0xfeed_5eed);
    let base_va = VirtAddr(0x80_0000);
    let setup = || {
        let mut sys = MemorySystem::new(64 << 20, PhysAddr(0x4000));
        sys.engine.program_key(BENCH_KEY, &[3; 16], &[4; 32]);
        let mut alloc = FrameAllocator::new(Ppn(64), Ppn(16000));
        let pt = PageTable::new(&mut alloc, &mut sys.phys);
        for i in 0..(slots as u64 * 8 / PAGE_SIZE) {
            let frame = alloc.alloc().expect("bench frame");
            sys.bitmap.set(frame, true, &mut sys.phys).expect("bitmap");
            pt.map(
                VirtAddr(base_va.0 + i * PAGE_SIZE),
                frame,
                Perms::RW,
                BENCH_KEY,
                &mut alloc,
                &mut sys.phys,
            )
            .expect("bench map");
        }
        let mut mmu = CoreMmu::new(32);
        mmu.switch_table(Some(pt), true);
        for (i, &next) in chain.iter().enumerate() {
            mmu.store_u64(
                &mut sys,
                VirtAddr(base_va.0 + i as u64 * 8),
                u64::from(next),
            )
            .expect("seed chain");
        }
        (sys, mmu)
    };
    let (mut sys, mut mmu) = setup();
    let (mut sys_ref, mut mmu_ref) = setup();
    mmu_ref.data_path_ref = true;

    let chase = |mmu: &mut CoreMmu, sys: &mut MemorySystem| {
        let mut idx = 0u64;
        for _ in 0..steps {
            idx = mmu
                .load_u64(sys, VirtAddr(base_va.0 + idx * 8))
                .expect("chase");
        }
        idx
    };
    assert_eq!(
        chase(&mut mmu, &mut sys),
        chase(&mut mmu_ref, &mut sys_ref),
        "data planes must agree"
    );
    rows.push(pair(
        "memstream_pass",
        n,
        steps as u64 * 8,
        1,
        || {
            black_box(chase(&mut mmu, &mut sys));
        },
        || {
            black_box(chase(&mut mmu_ref, &mut sys_ref));
        },
    ));
}

fn wolfssl_pass(rows: &mut Vec<PerfBench>) {
    // Full TLS-style session: handshake + 4 encrypted 1 KiB records. The
    // AES-CTR record path rides the optimized kernels; the reference arm
    // runs the same session on the spec CTR baseline (bit-identical
    // transcript, asserted below). A thin row (~1.3x), so smoke batches
    // are as long as full ones (~8 ms).
    let records = 4usize;
    let record_len = 1024usize;
    let n = 10;
    assert_eq!(
        wolfssl::run_session(0x5e55_10eb, records, record_len),
        wolfssl::run_session_ref(0x5e55_10eb, records, record_len),
        "CTR kernels must agree"
    );
    rows.push(pair(
        "wolfssl_pass",
        n,
        (records * record_len) as u64,
        1,
        || {
            let s = wolfssl::run_session(0x5e55_10eb, records, record_len);
            assert!(s.cert_ok, "handshake must verify");
            black_box(s.transcript);
        },
        || {
            let s = wolfssl::run_session_ref(0x5e55_10eb, records, record_len);
            assert!(s.cert_ok, "handshake must verify");
            black_box(s.transcript);
        },
    ));
}

/// CS harts driven by the pump benchmark rows (SocConfig default).
const PUMP_HARTS: usize = 4;

/// Bytes each pump-row EALLOC asks for.
const PUMP_ALLOC: u64 = PAGE_SIZE;

/// Boots a machine with one enclave per CS hart for the pump rows and
/// enters each hart into its enclave. The storms run in-enclave
/// EALLOC/EFREE pairs, and every pair returns its page, so one machine can
/// be reused across timed iterations. EALLOC never reuses heap VA (it
/// bumps a cursor), so the heaps are sized for every iteration of a row.
fn pump_tenants() -> (Machine, Vec<u64>) {
    let mut m = Machine::boot_default();
    let manifest =
        EnclaveManifest::parse("heap = 256M\nstack = 32K\nhost_shared = 16K").expect("manifest");
    let eids = (0..PUMP_HARTS)
        .map(|h| {
            let image = format!("pump tenant {h}");
            let e = m
                .create_enclave(h, &manifest, image.as_bytes())
                .expect("bench create");
            m.enter(h, e).expect("bench enter");
            e.0
        })
        .collect();
    (m, eids)
}

/// Submits one EALLOC from hart `h`'s enclave.
fn pump_alloc(m: &mut Machine, eids: &[u64], h: usize) {
    m.submit(h, Primitive::Ealloc, vec![eids[h], PUMP_ALLOC], vec![])
        .expect("bench submit");
}

/// Drains every collectable completion into `digest` (id, hart, latency,
/// attempts — the fields the differential suite compares) and answers
/// each EALLOC with the EFREE of its page.
///
/// # Panics
///
/// On a failed completion: a row times work the EMS does, not a refusal.
fn pump_drain(m: &mut Machine, eids: &[u64], digest: &mut u64) {
    for done in m.drain_completions() {
        let h = done.hart_id;
        let response = done
            .result
            .unwrap_or_else(|e| panic!("pump bench call {} failed: {e:?}", done.call.id));
        fnv::fold(
            digest,
            &[done.call.id, h as u64, done.latency.0, done.attempts as u64],
        );
        if let Some(va) = response.mapped_va() {
            m.submit(h, Primitive::Efree, vec![eids[h], va, PUMP_ALLOC], vec![])
                .expect("bench submit");
        }
    }
}

/// Pumps until the pipeline is idle, folding completions as they land.
fn pump_to_idle(m: &mut Machine, eids: &[u64], digest: &mut u64) {
    for _ in 0..500_000u32 {
        if m.pipeline_stats().in_flight == 0 {
            return;
        }
        m.pump();
        pump_drain(m, eids, digest);
    }
    panic!("pump bench failed to drain: {:?}", m.pipeline_stats());
}

/// One churn batch: `pairs` EALLOCs round-robined across the harts up
/// front, each freed as its page comes back, then pump to drain. With the
/// batch in flight and asleep on its loss timers, the scan oracle walks
/// every call each round while the event pump touches only the handful the
/// EMS woke.
fn pump_churn_batch(m: &mut Machine, eids: &[u64], pairs: usize) -> u64 {
    let mut digest = fnv::OFFSET_BASIS;
    for i in 0..pairs {
        pump_alloc(m, eids, i % PUMP_HARTS);
    }
    pump_to_idle(m, eids, &mut digest);
    digest
}

/// One fleet round-trip: an open-loop storm that tops the pipeline back up
/// to `live` in-flight calls with new EALLOCs every round for `rounds`
/// rounds, then drains the tail.
fn pump_fleet_storm(m: &mut Machine, eids: &[u64], rounds: u64, live: usize) -> u64 {
    let mut digest = fnv::OFFSET_BASIS;
    let mut next_hart = 0usize;
    for _ in 0..rounds {
        while m.pipeline_stats().in_flight < live {
            pump_alloc(m, eids, next_hart % PUMP_HARTS);
            next_hart += 1;
        }
        m.pump();
        pump_drain(m, eids, &mut digest);
    }
    pump_to_idle(m, eids, &mut digest);
    digest
}

fn pump_benches(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Control-plane scheduler rows (DESIGN.md §15): the event-driven pump
    // (a per-round work set) against the retained O(n) scan oracle.
    // Both arms run the identical storm; the traces are proven equal on
    // fresh machines before any clock starts, so the timed delta is pure
    // scheduler overhead.
    let churn_pairs = iters(cfg, 1_024, 128) as usize;
    let fleet_live = iters(cfg, 1_200, 256) as usize;
    let fleet_rounds = iters(cfg, 400, 60) as u64;

    // pump_churn: a full batch of EALLOCs submitted up front, each freed as
    // it returns, pumped to drain. Timed per call (two per pair).
    {
        let (mut fresh_evt, eids) = pump_tenants();
        let (mut fresh_scan, scan_eids) = pump_tenants();
        fresh_scan.set_scan_scheduler(true);
        assert_eq!(
            pump_churn_batch(&mut fresh_evt, &eids, churn_pairs),
            pump_churn_batch(&mut fresh_scan, &scan_eids, churn_pairs),
            "pump flavours diverged on the churn batch"
        );

        let n = iters(cfg, 6, 2);
        let (mut evt, eids) = pump_tenants();
        let (mut scan, scan_eids) = pump_tenants();
        scan.set_scan_scheduler(true);
        rows.push(pair(
            "pump_churn_1k",
            n,
            0,
            2 * churn_pairs as u64,
            || {
                black_box(pump_churn_batch(&mut evt, &eids, churn_pairs));
            },
            || {
                black_box(pump_churn_batch(&mut scan, &scan_eids, churn_pairs));
            },
        ));
    }

    // fleet_wallclock: sustained open-loop load at 1,000+ live sessions
    // (≥3x). Fault-free: the row times completed pairs, and at this depth
    // a faulted storm cannot finish every call `Ok`. Retries run out
    // (`Timeout`), and a retried EFREE whose response has left the EMS's
    // response cache runs again and fails.
    {
        let (mut fresh_evt, eids) = pump_tenants();
        let (mut fresh_scan, scan_eids) = pump_tenants();
        fresh_scan.set_scan_scheduler(true);
        assert_eq!(
            pump_fleet_storm(&mut fresh_evt, &eids, fleet_rounds, fleet_live),
            pump_fleet_storm(&mut fresh_scan, &scan_eids, fleet_rounds, fleet_live),
            "pump flavours diverged on the fleet storm"
        );

        let n = iters(cfg, 3, 1);
        let (mut evt, eids) = pump_tenants();
        let (mut scan, scan_eids) = pump_tenants();
        scan.set_scan_scheduler(true);
        rows.push(pair(
            "fleet_wallclock_1200",
            n,
            0,
            fleet_rounds,
            || {
                black_box(pump_fleet_storm(&mut evt, &eids, fleet_rounds, fleet_live));
            },
            || {
                black_box(pump_fleet_storm(
                    &mut scan,
                    &scan_eids,
                    fleet_rounds,
                    fleet_live,
                ));
            },
        ));
    }
}

/// Boots a fresh machine, runs `image` as an enclave program under `mode`,
/// and returns `(exit_code, hart_clock_cycles)`.
fn run_interp(image: &[u8], mode: InterpMode, max_steps: u64) -> (u64, u64) {
    let mut m = Machine::boot_default();
    m.interp = mode;
    let manifest =
        EnclaveManifest::parse("heap = 2M\nstack = 64K\nhost_shared = 16K").expect("manifest");
    let e = m.create_enclave(0, &manifest, image).expect("bench create");
    m.enter(0, e).expect("bench enter");
    let code = match m.run_enclave_program(0, max_steps).expect("bench run") {
        RunOutcome::Exited { code, .. } => code,
        other => panic!("interp bench did not exit: {other:?}"),
    };
    (code, m.hart_clock(0).0)
}

fn interp_benches(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Decoded-block interpreter vs the seed fetch-decode-execute oracle
    // (`Cpu::step_ref`), over the two workload-pass shapes the report
    // already tracks: a memstream-style pointer chase and a wolfSSL-style
    // record-XOR pipeline, assembled as real enclave programs. Both modes
    // run in the same process on the same host; before timing, exit codes
    // and simulated hart clocks are asserted bit-identical — the fast path
    // must change wall-clock only, never architecture or charges.
    let max_steps = 10_000_000;
    let (nodes, hops) = if cfg.smoke { (64, 256) } else { (256, 8192) };
    let (records, passes) = if cfg.smoke { (1, 1) } else { (4, 16) };
    let specs: [(&str, Vec<u8>, u64, u64); 2] = [
        (
            "interp_memstream_pass",
            programs::chase(nodes, hops),
            hops as u64 * 8,
            programs::chase_reference(nodes, hops),
        ),
        (
            "interp_wolfssl_pass",
            programs::record_xor(records, passes),
            records as u64 * 1024 * passes as u64,
            programs::record_xor_reference(records, passes),
        ),
    ];
    let n = iters(cfg, 8, 2);
    for (name, image, bytes, expected) in specs {
        let (fast_code, fast_clock) = run_interp(&image, InterpMode::Fast, max_steps);
        let (ref_code, ref_clock) = run_interp(&image, InterpMode::Reference, max_steps);
        assert_eq!(
            fast_code, expected,
            "{name}: fast path computed wrong result"
        );
        assert_eq!(
            ref_code, expected,
            "{name}: reference path computed wrong result"
        );
        assert_eq!(
            fast_clock, ref_clock,
            "{name}: cycle charges diverge between interpreter modes"
        );
        rows.push(pair(
            name,
            n,
            bytes,
            1,
            || {
                black_box(run_interp(black_box(&image), InterpMode::Fast, max_steps));
            },
            || {
                black_box(run_interp(
                    black_box(&image),
                    InterpMode::Reference,
                    max_steps,
                ));
            },
        ));
    }
}

/// Shards per simulated-clock scaling row, and the width of the pool that
/// runs them.
const FANOUT: usize = 4;

/// Seed for the scaling rows; per-shard streams derive from it.
const THREADS_SEED: u64 = 0xBE4C_5EED;

/// Runs `f(shard, machine)` on `FANOUT` independent machines, each booted
/// from its own derived seed and audited afterwards, and returns `(sum,
/// max)` of the per-shard simulated clocks: the sequential-schedule cost
/// and the parallel-composition makespan, in cycles.
fn sharded_simclock<F>(salt: u64, f: F) -> (u64, u64)
where
    F: Fn(usize, &mut Machine) + Sync,
{
    let shards: Vec<usize> = (0..FANOUT).collect();
    let clocks = par_run(shards, FANOUT, |_, i| {
        let seed = derive_stream(THREADS_SEED ^ salt, i as u64);
        let mut m = Machine::boot(SocConfig::default(), seed).expect("shard boot");
        f(i, &mut m);
        m.audit().expect("post-workload shard audit");
        m.clock.0
    });
    let max = clocks.iter().copied().max().unwrap_or(0);
    (clocks.iter().sum(), max)
}

fn threads_simclock_benches(cfg: &Config, rows: &mut Vec<PerfBench>) {
    // Deterministic simulated-clock scaling rows: both numbers are cycle
    // counts from the shard machines (not nanoseconds), so the recorded
    // speedup — sequential schedule over parallel makespan — is a property
    // of the shard composition, identical on any host. Shards carry
    // deliberately unequal session counts so the makespan is set by the
    // heaviest shard, not by a trivially balanced split.
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").expect("manifest");
    let sessions = iters(cfg, 6, 2) as usize;
    let (sum, max) = sharded_simclock(0x51, |shard, m| {
        for s in 0..sessions + (shard & 1) {
            let image = [shard as u8, s as u8, 0x5a];
            let e = m
                .create_enclave(0, &manifest, &image)
                .expect("shard create");
            m.enter(0, e).expect("shard enter");
            let quote = m.attest(0, e, b"threads-bench").expect("shard attest");
            black_box(quote);
            m.exit(0).expect("shard exit");
            m.destroy(0, e).expect("shard destroy");
        }
    });
    rows.push(PerfBench::from_timings(
        "threads_simclock_enclave_x4",
        max as f64,
        0,
        Some(sum as f64),
    ));

    // Same shape over the paging path: each shard grows one enclave's heap,
    // writes enclave memory through the encrypted data plane, and evicts
    // pages with EWB.
    let pages = iters(cfg, 24, 8) as u64;
    let (sum, max) = sharded_simclock(0x52, |shard, m| {
        let image = [shard as u8, 0xe1];
        let e = m
            .create_enclave(0, &manifest, &image)
            .expect("shard create");
        m.enter(0, e).expect("shard enter");
        let extra = (shard & 1) as u64 * 4;
        let va = m.ealloc(0, (pages + extra) * 4096).expect("shard ealloc");
        for p in 0..pages + extra {
            let word = (0x5eed_u64 ^ p).to_le_bytes();
            m.enclave_store(0, VirtAddr(va.0 + p * PAGE_SIZE), &word)
                .expect("shard store");
        }
        let evicted = m.ewb(0, 4).expect("shard ewb");
        black_box(evicted);
        m.exit(0).expect("shard exit");
    });
    rows.push(PerfBench::from_timings(
        "threads_simclock_paging_x4",
        max as f64,
        0,
        Some(sum as f64),
    ));
}

fn run(cfg: &Config) -> Result<(), String> {
    let mut rows = Vec::new();
    crypto_benches(cfg, &mut rows);
    curve_benches(cfg, &mut rows);
    mktme_bench(cfg, &mut rows);
    ptw_bench(&mut rows);
    memstream_pass(cfg, &mut rows);
    wolfssl_pass(&mut rows);
    pump_benches(cfg, &mut rows);
    interp_benches(cfg, &mut rows);
    threads_simclock_benches(cfg, &mut rows);

    let report = PerfReport {
        mode: if cfg.smoke { "smoke" } else { "full" }.to_string(),
        host: HostFacts::detect(),
        benches: rows,
    };
    let json = report.to_json();
    validate(&json).map_err(|e| format!("emitted report failed validation: {e}"))?;
    std::fs::write(&cfg.out, &json).map_err(|e| format!("writing {}: {e}", cfg.out))?;

    println!("\nwrote {} ({} benches)", cfg.out, report.benches.len());
    for b in &report.benches {
        if let Some(s) = b.speedup {
            println!("  {:24} {s:>6.2}x vs reference", b.name);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        smoke: false,
        out: "BENCH_perf.json".to_string(),
    };
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" if i + 1 < args.len() => {
                i += 1;
                cfg.out = args[i].clone();
            }
            "--check" if i + 1 < args.len() => {
                i += 1;
                check = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: bench_report [--smoke] [--out PATH] | --check PATH");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if let Some(path) = check {
        return check_report(&path, validate);
    }

    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_report failed: {e}");
            ExitCode::FAILURE
        }
    }
}
