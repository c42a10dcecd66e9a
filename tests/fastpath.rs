//! Differential tests pinning the optimized data plane to the seed's
//! scalar reference paths.
//!
//! The memory engine's span/full-line fast paths and the batched line MAC
//! ([`mac28_lines`]) only change host wall-clock, never behaviour: every
//! byte stored, every counter trajectory, and every fault must match what
//! the verbatim seed code ([`MktmeEngine::write_ref`]/[`read_ref`])
//! produces. These tests drive both planes through identical operation
//! mixes — aligned, unaligned, and line-straddling — plus the wrong-key and
//! tamper fault paths, and check the walk-cache flush discipline at the
//! EFREE/EDESTROY teardown sites.
//!
//! Zeroing a frame takes a third path: [`MktmeEngine::zero_page`] records
//! it as "zeros under this key", materialized on first touch. A seeded mix
//! pins that path to both the oracle and the span path that `write` of a
//! page of zeros takes.
//!
//! The engine keeps the lines it last wrote or verified decrypted, and
//! makes ciphertext and MAC tags only where they are observed. A second
//! seeded mix, with tampering, zeroed and whole pages, re-keying, resumed
//! keys, wrong-KeyID reads and a second engine over the same memory, pins
//! that to the oracle, which works on ciphertext and checks every line
//! every time, down to the raw bytes after every operation.

use hypertee_repro::ems::control::layout;
use hypertee_repro::hypertee::exec::{InterpMode, RunOutcome};
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::hypertee::shard::par_run;
use hypertee_repro::hypertee_cpu::asm::Asm;
use hypertee_repro::mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_repro::mem::mktme::MktmeEngine;
use hypertee_repro::mem::phys::PhysMemory;
use hypertee_repro::mem::MemFault;
use hypertee_repro::sim::config::SocConfig;
use hypertee_repro::sim::rng::derive_stream;
use hypertee_repro::workloads::programs;
use std::collections::HashSet;

/// A deterministic xorshift so the operation mix is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn range(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn pair() -> (PhysMemory, MktmeEngine, PhysMemory, MktmeEngine) {
    let opt_mem = PhysMemory::new(4 << 20);
    let ref_mem = PhysMemory::new(4 << 20);
    let mut opt = MktmeEngine::new(true);
    let mut re = MktmeEngine::new(true);
    for e in [&mut opt, &mut re] {
        e.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        e.program_key(KeyId(2), &[0x22; 16], &[0xa2; 32]);
    }
    (opt_mem, opt, ref_mem, re)
}

/// The optimized write/read paths must be byte-, counter-, and
/// fault-equivalent to the seed's scalar paths over a randomized mix of
/// aligned, unaligned, and line-straddling accesses of many sizes —
/// including spans long enough to exercise the eight-line batched MAC and
/// its remainder handling.
#[test]
fn optimized_and_reference_data_planes_agree() {
    let (mut opt_mem, mut opt, mut ref_mem, mut re) = pair();
    let mut rng = Rng(0x5eed_cafe);
    // Sizes chosen to hit: sub-line, exactly one line, a few lines (below
    // the 8-line batch), exactly one batch, batch + remainder, a full 4 KiB
    // page (8 batches), and page + remainder.
    let sizes = [1, 7, 63, 64, 65, 192, 448, 512, 520, 4096, 4160];
    for round in 0..200 {
        let size = sizes[(round as usize) % sizes.len()];
        // A line-aligned base plus a random in-line offset, so accesses
        // land aligned, unaligned, and straddling line boundaries.
        let pa = PhysAddr(0x10_000 + (rng.range(0x8_000) & !63) + rng.range(64));
        let key = KeyId(1);
        let mut data = vec![0u8; size];
        for b in data.iter_mut() {
            *b = rng.next() as u8;
        }
        let wa = opt.write(&mut opt_mem, pa, key, &data);
        let wb = re.write_ref(&mut ref_mem, pa, key, &data);
        assert_eq!(wa, wb, "write result diverged at round {round}");
        let mut got_a = vec![0u8; size];
        let mut got_b = vec![0u8; size];
        let ra = opt.read(&mut opt_mem, pa, key, &mut got_a);
        let rb = re.read_ref(&mut ref_mem, pa, key, &mut got_b);
        assert_eq!(ra, rb, "read result diverged at round {round}");
        assert_eq!(got_a, got_b, "read data diverged at round {round}");
        assert_eq!(got_a, data, "roundtrip corrupted at round {round}");
    }
    // The modelled charges — raw accesses, byte counters, MAC checks — must
    // ride the same trajectory on both planes.
    assert_eq!(opt_mem.access_count, ref_mem.access_count);
    assert_eq!(opt.stats.bytes_encrypted, re.stats.bytes_encrypted);
    assert_eq!(opt.stats.bytes_decrypted, re.stats.bytes_decrypted);
    assert_eq!(opt.stats.mac_checks, re.stats.mac_checks);
    assert_eq!(opt.stats.mac_failures, re.stats.mac_failures);
    // And the ciphertext itself is identical: interleaving the planes over
    // the same state would be sound.
    let mut raw_a = vec![0u8; 0x20_000];
    let mut raw_b = vec![0u8; 0x20_000];
    opt_mem.read(PhysAddr(0x10_000), &mut raw_a).unwrap();
    ref_mem.read(PhysAddr(0x10_000), &mut raw_b).unwrap();
    assert_eq!(raw_a, raw_b, "physical ciphertext diverged");
}

/// Wrong-KeyID reads fault identically on both planes: same fault, same
/// faulting line, same access and MAC-check counts after the early return.
#[test]
fn wrong_key_fault_parity() {
    let (mut opt_mem, mut opt, mut ref_mem, mut re) = pair();
    let pa = PhysAddr(0x40_000);
    opt.write(&mut opt_mem, pa, KeyId(1), &[0x5a; 4096])
        .unwrap();
    re.write_ref(&mut ref_mem, pa, KeyId(1), &[0x5a; 4096])
        .unwrap();
    let mut buf = [0u8; 4096];
    let fa = opt.read(&mut opt_mem, pa, KeyId(2), &mut buf);
    let fb = re.read_ref(&mut ref_mem, pa, KeyId(2), &mut buf);
    assert!(matches!(fa, Err(MemFault::IntegrityViolation { pa: p }) if p == pa.0));
    assert_eq!(fa, fb, "fault diverged");
    assert_eq!(opt_mem.access_count, ref_mem.access_count);
    assert_eq!(opt.stats.mac_checks, re.stats.mac_checks);
    assert_eq!(opt.stats.mac_failures, re.stats.mac_failures);
}

/// Ciphertext tampering in the middle of a span faults at exactly the
/// tampered line on both planes, with the per-line access-count trajectory
/// (k+1 line reads for a failure at line k) preserved by the span fast path.
#[test]
fn tamper_fault_parity_mid_span() {
    let (mut opt_mem, mut opt, mut ref_mem, mut re) = pair();
    let pa = PhysAddr(0x50_000);
    opt.write(&mut opt_mem, pa, KeyId(1), &[7u8; 4096]).unwrap();
    re.write_ref(&mut ref_mem, pa, KeyId(1), &[7u8; 4096])
        .unwrap();
    // Flip one ciphertext bit in line 13 of the page, on both memories.
    let victim = PhysAddr(pa.0 + 13 * 64 + 5);
    for mem in [&mut opt_mem, &mut ref_mem] {
        let mut raw = [0u8; 1];
        mem.read(victim, &mut raw).unwrap();
        raw[0] ^= 0x40;
        mem.write(victim, &raw).unwrap();
    }
    let opt_base = opt_mem.access_count;
    let ref_base = ref_mem.access_count;
    let mut buf = [0u8; 4096];
    let fa = opt.read(&mut opt_mem, pa, KeyId(1), &mut buf);
    let fb = re.read_ref(&mut ref_mem, pa, KeyId(1), &mut buf);
    assert!(
        matches!(fa, Err(MemFault::IntegrityViolation { pa: p }) if p == pa.0 + 13 * 64),
        "must fault at the first tampered line, got {fa:?}"
    );
    assert_eq!(fa, fb, "fault diverged");
    // 14 line reads each (lines 0..=13), despite the span round trip.
    assert_eq!(opt_mem.access_count - opt_base, 14);
    assert_eq!(ref_mem.access_count - ref_base, 14);
    assert_eq!(opt.stats.mac_checks, re.stats.mac_checks);
    assert_eq!(opt.stats.mac_failures, re.stats.mac_failures);
}

/// One data plane of the zero-page differential.
struct Plane {
    mem: PhysMemory,
    engine: MktmeEngine,
}

/// How a plane stores a write.
#[derive(Clone, Copy, PartialEq)]
enum WritePath {
    /// `zero_page` for a zeroed frame, recorded lazily; `write` otherwise.
    Lazy,
    /// `write` throughout: a zeroed frame takes the span path.
    Span,
    /// `write_ref`, the seed oracle.
    Oracle,
}

impl Plane {
    fn write(
        &mut self,
        path: WritePath,
        pa: PhysAddr,
        key: KeyId,
        data: &[u8],
    ) -> Result<(), MemFault> {
        match path {
            WritePath::Oracle => self.engine.write_ref(&mut self.mem, pa, key, data),
            _ => self.engine.write(&mut self.mem, pa, key, data),
        }
    }

    fn zero_page(&mut self, path: WritePath, ppn: Ppn, key: KeyId) -> Result<(), MemFault> {
        match path {
            WritePath::Lazy => self.engine.zero_page(&mut self.mem, ppn, key),
            _ => self.write(path, ppn.base(), key, &[0u8; PAGE_SIZE as usize]),
        }
    }

    fn read(
        &mut self,
        path: WritePath,
        pa: PhysAddr,
        key: KeyId,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        match path {
            WritePath::Oracle => self.engine.read_ref(&mut self.mem, pa, key, buf),
            _ => self.engine.read(&mut self.mem, pa, key, buf),
        }
    }
}

/// Runs a seeded mix of zeroed frames, partial and full-line writes, reads
/// under the right and the wrong KeyID, raw ciphertext tampering,
/// `zero_frame`, and key revocation and re-programming on the lazy plane,
/// the span plane and the oracle plane. Results, read data, raw frame
/// bytes, every line's verdict through both KeyIDs (so its MAC tag) and
/// raw access counts must agree on all three; every
/// [`MktmeStats`](hypertee_repro::mem::mktme::MktmeStats) field must agree
/// between the lazy and the span plane, and the modelled ones with the
/// oracle. Returns how many zeroed frames stayed unmaterialized.
fn zero_page_mix(integrity: bool, seed: u64) -> usize {
    const PATHS: [WritePath; 3] = [WritePath::Lazy, WritePath::Span, WritePath::Oracle];
    const WINDOW: u64 = 16; // frames [16, 32) plus the last installed frame
    let mut planes: Vec<Plane> = PATHS
        .iter()
        .map(|_| {
            let mut engine = MktmeEngine::new(integrity);
            engine.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
            engine.program_key(KeyId(2), &[0x22; 16], &[0xa2; 32]);
            Plane {
                mem: PhysMemory::new(4 << 20),
                engine,
            }
        })
        .collect();
    let last = planes[0].mem.total_frames() - 1;
    let mut rng = Rng(seed);
    let mut lazy_pages = 0;
    let sizes = [1, 7, 63, 64, 65, 520, 4096, 4160];
    for round in 0..300 {
        let key = KeyId(1 + rng.range(2) as u16);
        let window_pa = |rng: &mut Rng, len: u64| {
            PhysAddr(WINDOW * PAGE_SIZE + rng.range(WINDOW * PAGE_SIZE - len))
        };
        let results: Vec<Result<Vec<u8>, MemFault>> = match rng.range(100) {
            0..=29 => {
                let ppn = match rng.range(8) {
                    0 => last,
                    1 => last + 1, // beyond installed memory
                    _ => WINDOW + rng.range(WINDOW),
                };
                let results: Vec<_> = PATHS
                    .iter()
                    .zip(&mut planes)
                    .map(|(&path, p)| p.zero_page(path, Ppn(ppn), key).map(|()| Vec::new()))
                    .collect();
                if results[0].is_ok() && !planes[0].mem.materialized_frames().any(|f| f.0 == ppn) {
                    lazy_pages += 1;
                }
                results
            }
            30..=54 => {
                let size = sizes[rng.range(sizes.len() as u64) as usize];
                let pa = window_pa(&mut rng, size);
                let mut data = vec![0u8; size as usize];
                if rng.range(4) != 0 {
                    data.iter_mut().for_each(|b| *b = rng.next() as u8);
                }
                PATHS
                    .iter()
                    .zip(&mut planes)
                    .map(|(&path, p)| p.write(path, pa, key, &data).map(|()| Vec::new()))
                    .collect()
            }
            55..=64 => {
                let lines = 1 + rng.range(8);
                let pa = PhysAddr(window_pa(&mut rng, lines * 64).0 & !63);
                let data: Vec<u8> = (0..lines * 64).map(|_| rng.next() as u8).collect();
                PATHS
                    .iter()
                    .zip(&mut planes)
                    .map(|(&path, p)| p.write(path, pa, key, &data).map(|()| Vec::new()))
                    .collect()
            }
            65..=84 => {
                let size = sizes[rng.range(sizes.len() as u64) as usize];
                let pa = window_pa(&mut rng, size);
                PATHS
                    .iter()
                    .zip(&mut planes)
                    .map(|(&path, p)| {
                        let mut buf = vec![0u8; size as usize];
                        p.read(path, pa, key, &mut buf).map(|()| buf)
                    })
                    .collect()
            }
            85..=90 => {
                let pa = window_pa(&mut rng, 1);
                let flip = 1u8 << rng.range(8);
                planes
                    .iter_mut()
                    .map(|p| {
                        let mut raw = [0u8; 1];
                        p.mem.read(pa, &mut raw)?;
                        raw[0] ^= flip;
                        p.mem.write(pa, &raw).map(|()| raw.to_vec())
                    })
                    .collect()
            }
            91..=94 => {
                let ppn = Ppn(WINDOW + rng.range(WINDOW));
                planes
                    .iter_mut()
                    .map(|p| p.mem.zero_frame(ppn).map(|()| Vec::new()))
                    .collect()
            }
            95..=97 => {
                for p in &mut planes {
                    p.engine.revoke_key(key);
                }
                vec![Ok(Vec::new()); 3]
            }
            _ => {
                // Re-program the KeyID with a key it has never held.
                let aes = [rng.next() as u8; 16];
                let mac = [rng.next() as u8; 32];
                for p in &mut planes {
                    p.engine.program_key(key, &aes, &mac);
                }
                vec![Ok(Vec::new()); 3]
            }
        };
        assert_eq!(
            results[0], results[1],
            "lazy vs span diverged at round {round}"
        );
        assert_eq!(
            results[0], results[2],
            "lazy vs oracle diverged at round {round}"
        );
        let (lazy, span, oracle) = (&planes[0], &planes[1], &planes[2]);
        assert_eq!(
            lazy.engine.stats, span.engine.stats,
            "stats diverged at round {round}"
        );
        let modelled = |p: &Plane| {
            let s = p.engine.stats;
            (
                s.bytes_encrypted,
                s.bytes_decrypted,
                s.mac_checks,
                s.mac_failures,
            )
        };
        assert_eq!(
            modelled(lazy),
            modelled(oracle),
            "charges diverged at round {round}"
        );
        assert_eq!(lazy.mem.access_count, span.mem.access_count);
        assert_eq!(lazy.mem.access_count, oracle.mem.access_count);
        if round % 50 == 49 {
            let raw: Vec<Vec<u8>> = planes
                .iter_mut()
                .map(|p| {
                    let mut raw = vec![0u8; (WINDOW * PAGE_SIZE) as usize + 4096];
                    let (window, tail) = raw.split_at_mut((WINDOW * PAGE_SIZE) as usize);
                    p.mem.read(Ppn(WINDOW).base(), window).unwrap();
                    p.mem.read(Ppn(last).base(), tail).unwrap();
                    raw
                })
                .collect();
            assert!(
                raw[0] == raw[1],
                "raw bytes lazy vs span diverged at round {round}"
            );
            assert!(
                raw[0] == raw[2],
                "raw bytes lazy vs oracle diverged at round {round}"
            );
            // Line by line through both KeyIDs: a line whose MAC tag
            // differs between planes verifies on one and faults on another.
            for line in (WINDOW * PAGE_SIZE..2 * WINDOW * PAGE_SIZE).step_by(64) {
                for key in [KeyId(1), KeyId(2)] {
                    let verdicts: Vec<_> = PATHS
                        .iter()
                        .zip(&mut planes)
                        .map(|(&path, p)| {
                            let mut buf = [0u8; 64];
                            p.read(path, PhysAddr(line), key, &mut buf).map(|()| buf)
                        })
                        .collect();
                    assert_eq!(verdicts[0], verdicts[1], "line {line:#x} at round {round}");
                    assert_eq!(verdicts[0], verdicts[2], "line {line:#x} at round {round}");
                }
            }
        }
    }
    lazy_pages
}

/// Frames zeroed by `zero_page` are byte-, fault- and counter-identical
/// to `write` of a page of zeros (the span path) and to the seed oracle,
/// with integrity on and off.
#[test]
fn zero_pages_match_span_path_and_oracle() {
    for integrity in [true, false] {
        for seed in [0x2e20_9a6e, 0x1a2b_3c4d] {
            let lazy = zero_page_mix(integrity, seed);
            assert!(
                lazy > 0,
                "integrity={integrity}: the mix recorded no lazy page"
            );
        }
    }
}

/// One side of the held-line wall: a memory and two engines over it,
/// which program the same KeyIDs with different keys.
struct Twin {
    mem: PhysMemory,
    engines: [MktmeEngine; 2],
}

/// The key material each engine holds for KeyIDs 1..=3 (index 0 unused).
type Keys = [[([u8; 16], [u8; 32]); 4]; 2];

impl Twin {
    fn new(keys: &Keys) -> Twin {
        let engines = [0, 1].map(|e| {
            let mut engine = MktmeEngine::new(true);
            for (k, (aes, mac)) in keys[e].iter().enumerate().skip(1) {
                engine.program_key(KeyId(k as u16), aes, mac);
            }
            engine
        });
        Twin {
            mem: PhysMemory::new(1 << 20),
            engines,
        }
    }

    /// The raw bytes of `[base, base + len)`.
    fn raw(&mut self, base: u64, len: u64) -> Vec<u8> {
        let mut raw = vec![0u8; len as usize];
        self.mem.read(PhysAddr(base), &mut raw).unwrap();
        raw
    }
}

/// Runs `ops` seeded operations on a twin driven through `write`/`read`
/// and `zero_page` and one driven through `write_ref`/`read_ref`, and
/// compares after every operation: the result (data, or the fault and its
/// line), both engines' modelled counters, the raw access count and the
/// raw bytes of the whole four-frame window. The operations: stores
/// (whole pages among them) and loads through either engine and any KeyID
/// (so wrong-KeyID reads), zeroed pages, raw bit flips, raw replays of a
/// frame's saved bytes, `write_u64` and `zero_frame` on the memory, revoking a KeyID and programming it with a
/// key it never held, and programming a KeyID's key under another KeyID
/// (the resume path). Returns the number of single-line loads that passed,
/// the ones a held line may answer.
fn checked_line_mix(seed: u64, ops: u32) -> u64 {
    const BASE: u64 = 0x8000;
    const WINDOW: u64 = 0x4000; // four frames at BASE
    let mut keys: Keys = [0x10u8, 0x20].map(|salt| {
        let mut k = [([0; 16], [0; 32]); 4];
        for (i, key) in k.iter_mut().enumerate() {
            *key = ([salt + i as u8; 16], [salt ^ i as u8; 32]);
        }
        k
    });
    let mut twins = [Twin::new(&keys), Twin::new(&keys)];
    let mut rng = Rng(seed);
    let mut passed_loads = 0;
    // Recent stores (engine, KeyID, line): most accesses revisit one, so
    // loads pass, and pass again, often enough for lines to stay held.
    // Some revisit it through the other engine or another KeyID.
    let mut recent: Vec<(usize, KeyId, u64)> = Vec::new();
    let mut saved: Option<(PhysAddr, Vec<u8>)> = None;
    for op in 0..ops {
        let (mut e, mut key) = (rng.range(2) as usize, KeyId(1 + rng.range(3) as u16));
        let (pa, len) = if rng.range(4) == 0 {
            let len = [65u64, 130, 520, 4096][rng.range(4) as usize];
            if len == PAGE_SIZE {
                (BASE + rng.range(WINDOW / PAGE_SIZE) * PAGE_SIZE, len)
            } else {
                (BASE + rng.range(WINDOW - len), len)
            }
        } else if !recent.is_empty() && rng.range(4) != 0 {
            let line;
            (e, key, line) = recent[rng.range(recent.len() as u64) as usize];
            match rng.range(8) {
                0 => e ^= 1,
                1 => key = KeyId(1 + (key.0 + rng.range(2) as u16) % 3),
                _ => {}
            }
            (line + rng.range(8) * 8, 8)
        } else {
            (BASE + rng.range(WINDOW / 8) * 8, 8)
        };
        let pa = PhysAddr(pa);
        let results: Vec<Result<Vec<u8>, MemFault>> = match rng.range(100) {
            0..=27 => {
                if recent.len() == 16 {
                    recent.remove(0);
                }
                recent.push((e, key, pa.0 & !63));
                let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let (fast, oracle) = twins.split_at_mut(1);
                vec![
                    fast[0].engines[e].write(&mut fast[0].mem, pa, key, &data),
                    oracle[0].engines[e].write_ref(&mut oracle[0].mem, pa, key, &data),
                ]
                .into_iter()
                .map(|r| r.map(|()| Vec::new()))
                .collect()
            }
            28..=29 => {
                let (fast, oracle) = twins.split_at_mut(1);
                let zeros = [0u8; PAGE_SIZE as usize];
                vec![
                    fast[0].engines[e].zero_page(&mut fast[0].mem, pa.ppn(), key),
                    oracle[0].engines[e].write_ref(
                        &mut oracle[0].mem,
                        pa.ppn().base(),
                        key,
                        &zeros,
                    ),
                ]
                .into_iter()
                .map(|r| r.map(|()| Vec::new()))
                .collect()
            }
            30..=84 => {
                let (fast, oracle) = twins.split_at_mut(1);
                let mut a = vec![0u8; len as usize];
                let mut b = vec![0u8; len as usize];
                let ra = fast[0].engines[e].read(&mut fast[0].mem, pa, key, &mut a);
                let rb = oracle[0].engines[e].read_ref(&mut oracle[0].mem, pa, key, &mut b);
                if len == 8 && ra.is_ok() {
                    passed_loads += 1;
                }
                vec![ra.map(|()| a), rb.map(|()| b)]
            }
            85..=88 => {
                let flip = 1u8 << rng.range(8);
                twins
                    .iter_mut()
                    .map(|t| {
                        let mut raw = [0u8; 1];
                        t.mem.read(pa, &mut raw)?;
                        t.mem.write(pa, &[raw[0] ^ flip]).map(|()| Vec::new())
                    })
                    .collect()
            }
            89..=90 => {
                // Save a frame's raw bytes, or write the saved ones back: a
                // replayed line verifies exactly when its tag still matches.
                match saved.take() {
                    Some((at, bytes)) if rng.range(2) == 0 => twins
                        .iter_mut()
                        .map(|t| t.mem.write(at, &bytes).map(|()| Vec::new()))
                        .collect(),
                    _ => {
                        let at = pa.ppn().base();
                        let [fast, oracle] = twins.each_mut().map(|t| t.raw(at.0, PAGE_SIZE));
                        saved = Some((at, fast.clone()));
                        vec![Ok(fast), Ok(oracle)]
                    }
                }
            }
            91..=92 => {
                let v = rng.next();
                twins
                    .iter_mut()
                    .map(|t| t.mem.write_u64(pa, v).map(|()| Vec::new()))
                    .collect()
            }
            93..=94 => twins
                .iter_mut()
                .map(|t| t.mem.zero_frame(pa.ppn()).map(|()| Vec::new()))
                .collect(),
            95..=97 => {
                // Suspend and resume: KeyID `key`'s key is programmed under
                // another KeyID, and `key` is revoked half the time.
                let to = KeyId(1 + (key.0 + rng.range(2) as u16) % 3);
                let revoke = rng.range(2) == 0;
                let (aes, mac) = keys[e][key.0 as usize];
                keys[e][to.0 as usize] = (aes, mac);
                for t in &mut twins {
                    if revoke {
                        t.engines[e].revoke_key(key);
                    }
                    t.engines[e].program_key(to, &aes, &mac);
                }
                // Later revisits read those lines back through `to`.
                for r in recent.iter_mut().filter(|r| r.0 == e && r.1 == key) {
                    r.1 = to;
                }
                vec![Ok(Vec::new()); 2]
            }
            _ => {
                let aes = [rng.next() as u8; 16];
                let mac = [rng.next() as u8; 32];
                keys[e][key.0 as usize] = (aes, mac);
                for t in &mut twins {
                    t.engines[e].revoke_key(key);
                    t.engines[e].program_key(key, &aes, &mac);
                }
                vec![Ok(Vec::new()); 2]
            }
        };
        assert_eq!(results[0], results[1], "seed {seed:#x}: op {op} diverged");
        for e in 0..2 {
            let modelled = |t: &Twin| {
                let s = t.engines[e].stats;
                (
                    s.bytes_encrypted,
                    s.bytes_decrypted,
                    s.mac_checks,
                    s.mac_failures,
                )
            };
            assert_eq!(
                modelled(&twins[0]),
                modelled(&twins[1]),
                "seed {seed:#x}: engine {e} counters diverged at op {op}"
            );
        }
        assert_eq!(
            twins[0].mem.access_count, twins[1].mem.access_count,
            "seed {seed:#x}: access count diverged at op {op}"
        );
        let raw = twins.each_mut().map(|t| t.raw(BASE, WINDOW));
        assert!(
            raw[0] == raw[1],
            "seed {seed:#x}: raw window bytes diverged at op {op}"
        );
    }
    passed_loads
}

/// Lines held decrypted are invisible: every result, fault, charge and
/// raw byte matches the oracle across tampering, zeroed and whole pages,
/// re-keying, resumed keys, wrong-KeyID reads and a second engine over the
/// same memory.
#[test]
fn checked_lines_match_the_oracle() {
    for seed in [0x0c4e_c4ed, 0x5eed_0001, 0x7777_2024] {
        let passed = checked_line_mix(seed, 2000);
        assert!(passed > 200, "seed {seed:#x}: only {passed} loads passed");
    }
}

/// A 2 MiB EALLOC records its 512 zero pages without allocating them: a
/// guest store materializes exactly the stored frame, loads return zeros,
/// the consistency audit stays green, and after EFREE none of the frames
/// holds allocated bytes.
#[test]
fn ealloc_zero_pages_materialize_on_first_store() {
    let manifest = EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").unwrap();
    let mut m = Machine::boot_default();
    let e = m.create_enclave(0, &manifest, b"lazy zero pages").unwrap();
    m.enter(0, e).unwrap();
    let bytes = 2 << 20;
    let va = m.ealloc(0, bytes).unwrap();
    let table = m.harts[0].mmu.table.expect("inside the enclave");
    let frames: Vec<Ppn> = (0..bytes / PAGE_SIZE)
        .map(|i| {
            table
                .inspect(VirtAddr(va.0 + i * PAGE_SIZE), &mut m.sys.phys)
                .unwrap()
                .ppn()
        })
        .collect();
    let heap: HashSet<Ppn> = frames.iter().copied().collect();
    assert_eq!(heap.len(), 512);
    let materialized = |m: &Machine| -> Vec<Ppn> {
        m.sys
            .phys
            .materialized_frames()
            .filter(|f| heap.contains(f))
            .collect()
    };
    assert!(
        materialized(&m).is_empty(),
        "EALLOC materialized its zero pages"
    );

    let store_va = VirtAddr(va.0 + 7 * PAGE_SIZE + 40);
    m.enclave_store(0, store_va, &[0xab; 16]).unwrap();
    assert_eq!(materialized(&m), [frames[7]]);
    let mut page = vec![0xffu8; PAGE_SIZE as usize];
    m.enclave_load(0, VirtAddr(va.0 + 300 * PAGE_SIZE), &mut page)
        .unwrap();
    assert!(
        page.iter().all(|&b| b == 0),
        "an untouched page reads zeros"
    );
    m.enclave_load(0, VirtAddr(va.0 + 7 * PAGE_SIZE), &mut page)
        .unwrap();
    assert_eq!(&page[40..56], &[0xab; 16]);
    assert!(page[..40].iter().chain(&page[56..]).all(|&b| b == 0));
    assert_eq!(materialized(&m), [frames[7]], "loads materialize nothing");
    m.audit().expect("audit must stay green over lazy frames");

    m.efree(0, va, bytes).unwrap();
    assert!(
        materialized(&m).is_empty(),
        "EFREE left a frame materialized"
    );
    m.audit().expect("audit must stay green after EFREE");
    m.exit(0).unwrap();
    m.destroy(0, e).unwrap();
}

/// EFREE must drop the freeing hart's walk-cache pointers along with its
/// TLB entries: the freed page-table frames return to the pool, and a stale
/// intermediate-level pointer would let the walker interpret reused frames
/// as PTEs.
#[test]
fn efree_flushes_walk_cache() {
    let manifest = EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap();
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(0, &manifest, b"walk cache victim")
        .unwrap();
    m.enter(0, e).unwrap();
    let va = m.ealloc(0, 64 * 1024).unwrap();
    // Touch several pages so the walker populates its cache.
    for page in 0..8u64 {
        m.enclave_store(0, VirtAddr(va.0 + page * 4096), &[page as u8; 32])
            .unwrap();
    }
    assert!(
        !m.harts[0].mmu.walk_cache.is_empty(),
        "test premise: walking populated the cache"
    );
    let flushes_before = m.harts[0].mmu.walk_cache.stats.flushes;
    m.efree(0, va, 64 * 1024).unwrap();
    assert!(
        m.harts[0].mmu.walk_cache.is_empty(),
        "EFREE left stale walk-cache pointers"
    );
    assert!(m.harts[0].mmu.walk_cache.stats.flushes > flushes_before);
    m.exit(0).unwrap();
    m.destroy(0, e).unwrap();
}

/// Self-modifying code through the full machine data plane: a spin loop
/// runs long enough for the decoded-block cache to go hot, then the host
/// rewrites the loop's back-edge *through MKTME* (`vm_store` into the RWX
/// code page), and the resumed run must execute the new bytes — falling
/// through to the exit sequence instead of spinning. The whole interleaving
/// repeats under `InterpMode::Reference`, and exit code, hart clock, and
/// machine clock must be bit-identical: the cache may only change
/// wall-clock, never architecture or charges.
#[test]
fn host_store_over_cached_block_reexecutes_new_bytes_with_identical_charges() {
    // 0x00: addi x10, x10, 1
    // 0x04: jal  x0, -4        <- rewritten to nop mid-run
    // 0x08: addi x17, x0, 93
    // 0x0c: ecall              (exit with x10)
    let mut a = Asm::new();
    let top = a.label();
    a.bind(top);
    a.addi(10, 10, 1);
    a.jal(0, top);
    a.addi(17, 0, 93);
    a.ecall();
    let image = a.assemble();

    let run = |mode: InterpMode| {
        let manifest = EnclaveManifest::parse("heap = 2M\nstack = 64K\nhost_shared = 16K").unwrap();
        let mut m = Machine::boot_default();
        m.interp = mode;
        let e = m.create_enclave(0, &manifest, &image).unwrap();
        m.enter(0, e).unwrap();
        // Slice 1: five loop iterations; the block is now hot in the cache.
        let first = m.run_enclave_program(0, 10).unwrap();
        assert_eq!(first, RunOutcome::StepLimit, "{mode:?}: loop must spin");
        // Rewrite the back-edge to `addi x0, x0, 0` through the data plane.
        m.vm_store(
            0,
            VirtAddr(layout::CODE_BASE.0 + 4),
            &0x0000_0013u32.to_le_bytes(),
        )
        .unwrap();
        // Slice 2: one more increment, then fall through and exit. A stale
        // decoded line would keep spinning into the step limit instead.
        let code = match m.run_enclave_program(0, 1_000).unwrap() {
            RunOutcome::Exited { code, .. } => code,
            other => panic!("{mode:?}: patched program must exit, got {other:?}"),
        };
        let inval = m.icache_stats(0).invalidations;
        (code, m.hart_clock(0).0, m.clock.0, inval)
    };

    let (fast_code, fast_hart, fast_clock, fast_inval) = run(InterpMode::Fast);
    let (ref_code, ref_hart, ref_clock, _) = run(InterpMode::Reference);
    assert_eq!(fast_code, 6, "five spins + one post-patch increment");
    assert_eq!(fast_code, ref_code, "exit codes diverged");
    assert_eq!(fast_hart, ref_hart, "hart-clock charges diverged");
    assert_eq!(fast_clock, ref_clock, "machine clocks diverged");
    assert!(
        fast_inval > 0,
        "the code store must have invalidated cached lines"
    );
}

/// The decoded-block interpreter must be invisible across shards: the
/// per-shard simulated clocks and pipeline stats of a 4-shard
/// enclave-program workload are identical at every (thread width,
/// interpreter mode) combination — the same invariance `tests/sharding.rs`
/// pins for thread width alone.
#[test]
fn interpreter_mode_is_invisible_in_sharded_merged_reports() {
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").expect("manifest");
    let run = |threads: usize, mode: InterpMode| {
        par_run((0..4u64).collect(), threads, |_, shard| {
            let seed = derive_stream(0x1f7e_0006, shard);
            let mut m = Machine::boot(SocConfig::default(), seed).expect("boot");
            m.interp = mode;
            let image = programs::fib(30);
            let e = m.create_enclave(0, &manifest, &image).expect("create");
            m.enter(0, e).expect("enter");
            match m.run_enclave_program(0, 1_000_000).expect("run") {
                RunOutcome::Exited { code, .. } => assert_eq!(code, 832_040),
                other => panic!("fib must exit, got {other:?}"),
            }
            m.exit(0).expect("exit");
            m.audit().expect("audit must stay green");
            (m.clock, m.pipeline_stats())
        })
    };
    let reference = run(1, InterpMode::Reference);
    for (threads, mode) in [
        (1, InterpMode::Fast),
        (2, InterpMode::Fast),
        (4, InterpMode::Fast),
        (8, InterpMode::Fast),
        (4, InterpMode::Reference),
    ] {
        assert_eq!(
            run(threads, mode),
            reference,
            "per-shard reports must be identical at threads={threads}, mode={mode:?}"
        );
    }
}

/// EDESTROY must drop walk-cache pointers on *every* hart, not just the
/// caller's: another hart that previously ran the enclave may still hold
/// intermediate pointers into the now-recycled page-table frames.
#[test]
fn edestroy_flushes_walk_caches_on_all_harts() {
    let manifest = EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap();
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(1, &manifest, b"multi-hart teardown")
        .unwrap();
    m.enter(1, e).unwrap();
    let va = m.ealloc(1, 32 * 1024).unwrap();
    m.enclave_store(1, va, b"resident data").unwrap();
    m.exit(1).unwrap();
    m.destroy(1, e).unwrap();
    for (i, hart) in m.harts.iter().enumerate() {
        assert!(
            hart.mmu.walk_cache.is_empty(),
            "hart {i} kept stale walk-cache pointers across EDESTROY"
        );
    }
}
