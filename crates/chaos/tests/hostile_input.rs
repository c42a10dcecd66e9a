//! Hostile-input sweep over the report and manifest parsers, the EMS's
//! unsealing of sealed blobs, and the submit/pump request path.
//!
//! The committed `BENCH_*.json` reports, a few valid enclave manifests and
//! blobs sealed by a live EMS are bit-flipped, truncated and extended by a
//! seeded [`SplitMix64`] campaign. Every mutant goes through the parser or
//! validator an untrusted input reaches: `parse_json`, the three report
//! validators (the `--check` paths of `bench_report`, `chaos_campaign` and
//! `serving_bench`), `EnclaveManifest::parse` and `Ems::unseal`. None may
//! panic. Each mutant is either rejected with `Err` or parses; a mutated
//! blob that unseals must give back exactly the sealed plaintext.
//!
//! The request path gets seeded arbitrary primitive + argument vectors from
//! both privileges on two harts, one of them inside an enclave: every
//! accepted call must complete, the consistency audit must stay green, and a
//! hart's enclave context may change only on an Ok EENTER, ERESUME or EEXIT.
//!
//! The service facade gets forged session tokens, off-sequence numbers,
//! flipped request MACs and op bodies changed after signing, and its
//! replies get bit flips, truncations and extensions: only genuine calls
//! are served, no mutated reply verifies, and the session survives.
//!
//! The HostApp side of an enclave's shared window gets offsets near
//! `u64::MAX` and around the window's edges: a read or write succeeds
//! exactly when the range fits the window without wrapping, and the pages
//! on either side of the window keep their bytes.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hypertee::machine::Machine;
use hypertee::manifest::EnclaveManifest;
use hypertee_bench::report::{parse_json, validate as validate_perf};
use hypertee_chaos::report::{validate as validate_chaos, validate_serving};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_ems::attest::SigmaInitiator;
use hypertee_ems::control::{layout, EnclaveState};
use hypertee_fabric::message::{Primitive, Privilege};
use hypertee_mem::addr::{PhysAddr, PAGE_SIZE};
use hypertee_service::{request_mac, ServiceConfig, ServiceFacade, ServiceOp, ServiceReply};
use hypertee_sim::rng::SplitMix64;

const PERF: &str = include_str!("../../../BENCH_perf.json");
const CHAOS: &str = include_str!("../../../BENCH_chaos.json");
const SERVING: &str = include_str!("../../../BENCH_serving.json");

const MANIFESTS: [&str; 3] = [
    "heap = 256M\nstack = 32K\nhost_shared = 16K",
    "name = demo\nheap = 8M\nstack = 128K # trailing comment\n",
    "\n# defaults, then overrides\nhost_shared=64k\nheap=1G\n",
];

const MUTANTS_PER_SEED: u64 = 1500;

/// One seeded mutant of `genuine`: one to four bit flips, a truncation,
/// random bytes inserted at a random offset, or a short slice repeated up
/// to 4096 times in place (deep nesting, huge numbers, long keys).
fn mutate(genuine: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut v = genuine.to_vec();
    let len = v.len() as u64;
    match rng.gen_range(4) {
        0 => {
            for _ in 0..1 + rng.gen_range(4) {
                let bit = rng.gen_range(len * 8) as usize;
                v[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => v.truncate(rng.gen_range(len) as usize),
        2 => {
            let at = rng.gen_range(len + 1) as usize;
            let junk: Vec<u8> = (0..1 + rng.gen_range(64))
                .map(|_| rng.next_u64() as u8)
                .collect();
            v.splice(at..at, junk);
        }
        _ => {
            let at = rng.gen_range(len) as usize;
            let run = 1 + rng.gen_range((len - at as u64).min(8)) as usize;
            let slice = v[at..at + run].to_vec();
            v.splice(at..at, slice.repeat(rng.gen_range(4096) as usize));
        }
    }
    v
}

/// Feeds `MUTANTS_PER_SEED` mutants of `genuine` to `accepts`, which must
/// accept the genuine input, never panic, and refuse at least one mutant.
/// Returns how many mutants were accepted.
fn sweep(what: &str, seed: u64, genuine: &str, accepts: impl Fn(&str) -> bool) -> u64 {
    assert!(accepts(genuine), "{what}: the genuine input is refused");
    let mut rng = SplitMix64::new(seed);
    let mut accepted = 0;
    for i in 0..MUTANTS_PER_SEED {
        let bytes = mutate(genuine.as_bytes(), &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        let ok = catch_unwind(AssertUnwindSafe(|| accepts(&text)))
            .unwrap_or_else(|_| panic!("{what}: mutant {i} of seed {seed:#x} panicked"));
        accepted += u64::from(ok);
    }
    assert!(
        accepted < MUTANTS_PER_SEED,
        "{what}: degenerate sweep, every mutant accepted"
    );
    accepted
}

#[test]
fn parse_json_is_total_on_mutated_reports() {
    let mut accepted = 0;
    for (i, doc) in [PERF, CHAOS, SERVING].into_iter().enumerate() {
        accepted += sweep("parse_json", 0x4a53_4f4e + i as u64, doc, |t| {
            parse_json(t).is_ok()
        });
    }
    assert!(accepted > 0, "no mutant parsed: the sweep only hits syntax");
}

#[test]
fn report_validators_are_total_on_mutated_reports() {
    sweep("bench::report::validate", 0x5045_5246, PERF, |t| {
        validate_perf(t).is_ok()
    });
    sweep("chaos::report::validate", 0x4348_414f, CHAOS, |t| {
        validate_chaos(t).is_ok()
    });
    sweep("validate_serving", 0x5345_5256, SERVING, |t| {
        validate_serving(t).is_ok()
    });
    // Each validator also refuses the other suites' reports.
    for (doc, own) in [(PERF, 0), (CHAOS, 1), (SERVING, 2)] {
        let verdicts = [
            validate_perf(doc).is_ok(),
            validate_chaos(doc).is_ok(),
            validate_serving(doc).is_ok(),
        ];
        for (i, ok) in verdicts.into_iter().enumerate() {
            assert_eq!(ok, i == own, "validator {i} on report {own}");
        }
    }
}

#[test]
fn manifest_parse_is_total_on_mutated_manifests() {
    let mut accepted = 0;
    for (i, text) in MANIFESTS.into_iter().enumerate() {
        accepted += sweep(
            "EnclaveManifest::parse",
            0x4d41_4e49 + i as u64,
            text,
            |t| EnclaveManifest::parse(t).is_ok(),
        );
    }
    assert!(accepted > 0, "no mutant parsed: the sweep only hits syntax");
}

/// Sealed blobs are at least 48 bytes: a 16-byte nonce, the ciphertext and
/// a 32-byte MAC. Mutants cross that bound both ways.
#[test]
fn unseal_is_total_on_mutated_blobs() {
    let mut m = Machine::boot_default();
    let manifest = EnclaveManifest::parse(MANIFESTS[0]).expect("manifest");
    let owner = m.create_enclave(0, &manifest, b"sealer").expect("owner").0;
    let other = m
        .create_enclave(1, &manifest, b"bystander")
        .expect("bystander")
        .0;
    let mut rng = SplitMix64::new(0x5345_414c);
    let mut refused = 0u64;
    for len in [0usize, 1, 31, 32, 200] {
        let plaintext: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let blob = m.ems.seal(owner, &plaintext).expect("seal");
        assert_eq!(blob.len(), 48 + len);
        assert_eq!(m.ems.unseal(owner, &blob).as_deref(), Ok(&plaintext[..]));
        assert!(
            m.ems.unseal(other, &blob).is_err(),
            "another enclave unsealed"
        );
        let truncations = (0..blob.len()).map(|n| blob[..n].to_vec());
        let extensions = (1..=64).map(|n| {
            let mut v = blob.clone();
            v.extend((0..n).map(|_| rng.next_u64() as u8));
            v
        });
        let mutants: Vec<Vec<u8>> = truncations
            .chain(extensions.collect::<Vec<_>>())
            .chain((0..MUTANTS_PER_SEED).map(|_| mutate(&blob, &mut rng)))
            .collect();
        for (i, mutant) in mutants.iter().enumerate() {
            let verdict = catch_unwind(AssertUnwindSafe(|| m.ems.unseal(owner, mutant)))
                .unwrap_or_else(|_| panic!("unseal: mutant {i} of a {len}-byte seal panicked"));
            match verdict {
                Ok(pt) => assert_eq!(pt, plaintext, "unseal: mutant {i} forged a plaintext"),
                Err(_) => refused += 1,
            }
        }
    }
    assert!(refused > 0, "degenerate sweep, every mutant unsealed");
    m.audit().expect("consistent after the sweep");
}

#[test]
fn host_window_access_is_bounded_on_hostile_offsets() {
    let mut m = Machine::boot_default();
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 16K\nhost_shared = 16K").expect("manifest");
    m.create_enclave(0, &manifest, b"first").expect("first");
    let handle = m.create_enclave(1, &manifest, b"second").expect("second");
    let info = m.enclave_info(handle).expect("info");
    let (base, size) = (info.host_window_pa.0, info.host_window_bytes);
    let guards = [base - PAGE_SIZE, base + size];
    let snapshot = |m: &mut Machine| -> Vec<Vec<u8>> {
        guards
            .iter()
            .map(|&pa| {
                let mut page = vec![0u8; PAGE_SIZE as usize];
                m.sys
                    .phys
                    .read(PhysAddr(pa), &mut page)
                    .expect("guard page");
                page
            })
            .collect()
    };
    let before = snapshot(&mut m);
    let mut offsets = vec![0, 1, size - 32, size - 1, size, size + 1, size + PAGE_SIZE];
    for back in [0, 1, 15, 31, 32, size - 1, size, size + 1] {
        offsets.push(u64::MAX - back);
    }
    let mut fits = 0;
    for &offset in &offsets {
        for len in [0, 1, 32, size as usize] {
            let expect_ok = offset
                .checked_add(len as u64)
                .is_some_and(|end| end <= size);
            fits += usize::from(expect_ok);
            let data = vec![0xAA; len];
            let wrote = catch_unwind(AssertUnwindSafe(|| {
                m.host_window_write(handle, offset, &data)
            }))
            .unwrap_or_else(|_| panic!("write of {len} bytes at {offset:#x} panicked"));
            assert_eq!(wrote.is_ok(), expect_ok, "write of {len} at {offset:#x}");
            let mut buf = vec![0u8; len];
            let read = catch_unwind(AssertUnwindSafe(|| {
                m.host_window_read(handle, offset, &mut buf)
            }))
            .unwrap_or_else(|_| panic!("read of {len} bytes at {offset:#x} panicked"));
            assert_eq!(read.is_ok(), expect_ok, "read of {len} at {offset:#x}");
        }
    }
    assert!(fits > 0, "degenerate sweep, no range fits the window");
    assert_eq!(snapshot(&mut m), before, "bytes outside the window changed");
    m.audit().expect("consistent after the sweep");
}

/// One hostile argument: a live, dead or foreign enclave id, a plausible
/// or unaligned VA, a huge length, a value near `u64::MAX`, or noise.
fn hostile_arg(rng: &mut SplitMix64, live: &[u64], dead: &[u64], stage_pa: u64) -> u64 {
    let pick = |rng: &mut SplitMix64, ids: &[u64]| ids[rng.gen_range(ids.len() as u64) as usize];
    match rng.gen_range(12) {
        0 if !live.is_empty() => pick(rng, live),
        0 | 1 => pick(rng, dead),
        2 => layout::HEAP_BASE.0 + PAGE_SIZE * rng.gen_range(8),
        3 => layout::HEAP_BASE.0 + 1 + rng.gen_range(PAGE_SIZE - 1),
        4 => PAGE_SIZE * (1 + rng.gen_range(16)),
        5 => 1 << (32 + rng.gen_range(32)),
        6 => u64::MAX - rng.gen_range(2 * PAGE_SIZE),
        7 => u64::MAX - PAGE_SIZE * (1 + rng.gen_range(4)) + 1,
        8 => stage_pa,
        9 => rng.gen_range(4),
        10 => [
            layout::CODE_BASE.0,
            layout::SHM_BASE.0,
            layout::HOST_SHARED_BASE.0,
        ][rng.gen_range(3) as usize],
        _ => rng.next_u64(),
    }
}

/// How many arguments the EMS decodes for `primitive`.
fn arity(primitive: Primitive) -> u64 {
    match primitive {
        Primitive::Eenter
        | Primitive::Eresume
        | Primitive::Eexit
        | Primitive::Edestroy
        | Primitive::Ewb
        | Primitive::Emeas
        | Primitive::Eattest => 1,
        Primitive::Ealloc | Primitive::Eshmdt | Primitive::Eshmdes => 2,
        Primitive::Efree | Primitive::Eshmat => 3,
        Primitive::Ecreate | Primitive::Eshmget | Primitive::Eshmshr => 4,
        Primitive::Eadd => 5,
    }
}

/// Arbitrary primitive + argument vectors through `submit`/`pump`, from
/// both privileges on hart 0 and hart 1. Between batches the driver keeps
/// hart 1 inside a live enclave and one enclave measured, so hostile calls
/// keep meeting every lifecycle state.
#[test]
fn submit_and_pump_are_total_on_hostile_arg_vectors() {
    let mut m = Machine::boot_default();
    let manifest =
        EnclaveManifest::parse("heap = 16M\nstack = 16K\nhost_shared = 8K").expect("manifest");
    let dead = m.create_enclave(0, &manifest, b"dead").expect("create");
    m.destroy(0, dead).expect("destroy");
    let (stage, _) = m
        .stage_host_frames(2 * PAGE_SIZE, b"hostile source bytes")
        .expect("stage");
    let dead = [dead.0, 0, u64::MAX, 1 << 40];
    let primitives = Primitive::all();
    let mut rng = SplitMix64::new(0x4e05_7113);
    let (mut accepted, mut ok, mut switches) = (0usize, 0usize, 0u64);
    for batch in 0..1200 {
        // Re-provision: a hart 1 outside any live enclave enters a fresh
        // one, and a fresh enclave waits measured whenever none does.
        let alive = |m: &Machine, eid: u64| m.ems.enclave_view(eid).is_some();
        if m.current_enclave(1).is_none_or(|e| !alive(&m, e)) {
            if m.current_enclave(1).is_some() {
                m.emcall.exit_enclave(&mut m.harts[1]);
            }
            if let Ok(e) = m.create_enclave(1, &manifest, b"inside") {
                let _ = m.enter(1, e);
            }
        }
        let measured = m
            .enclave_views()
            .iter()
            .any(|v| v.state == EnclaveState::Measured);
        if !measured {
            let _ = m.create_enclave(0, &manifest, b"measured");
        }
        let live: Vec<u64> = m.enclave_views().iter().map(|v| v.eid).collect();
        let before: Vec<_> = m
            .harts
            .iter()
            .map(|h| (h.current_enclave, h.mmu.table))
            .collect();
        let mut batch_accepted = 0;
        for _ in 0..1 + rng.gen_range(4) {
            let hart = rng.gen_range(2) as usize;
            let privilege = if rng.gen_range(2) == 0 {
                Privilege::Os
            } else {
                Privilege::User
            };
            let primitive = primitives[rng.gen_range(16) as usize];
            // Mostly the arity the EMS decodes, often with the hart's own
            // (or a live) enclave first, so calls get past the sanity checks.
            let own = m.current_enclave(hart).or(live.first().copied());
            let len = match rng.gen_range(4) {
                0 => rng.gen_range(7),
                _ => arity(primitive),
            };
            let args: Vec<u64> = (0..len)
                .map(|i| match (i, own, rng.gen_range(2)) {
                    (0, Some(eid), 0) => eid,
                    _ => hostile_arg(&mut rng, &live, &dead, stage.base().0),
                })
                .collect();
            let payload: Vec<u8> = (0..rng.gen_range(96))
                .map(|_| rng.next_u64() as u8)
                .collect();
            if m.submit_as(hart, privilege, primitive, args, payload)
                .is_ok()
            {
                batch_accepted += 1;
            }
        }
        let mut rounds = 0;
        while m.pipeline_stats().in_flight > 0 {
            m.pump();
            rounds += 1;
            assert!(
                rounds < 10_000,
                "batch {batch}: an accepted call never completed"
            );
        }
        let done = m.drain_completions();
        assert_eq!(done.len(), batch_accepted, "batch {batch}: a call was lost");
        accepted += batch_accepted;
        for (h, was) in before.iter().enumerate() {
            let now = (m.harts[h].current_enclave, m.harts[h].mmu.table);
            let switched = done.iter().any(|c| {
                c.hart_id == h
                    && c.result.is_ok()
                    && matches!(
                        c.primitive,
                        Primitive::Eenter | Primitive::Eresume | Primitive::Eexit
                    )
            });
            assert!(
                now == *was || switched,
                "batch {batch}: hart {h} changed enclave context without an Ok EENTER, ERESUME or EEXIT"
            );
            switches += u64::from(now != *was);
        }
        ok += done.iter().filter(|c| c.result.is_ok()).count();
        if batch % 16 == 15 {
            m.audit()
                .unwrap_or_else(|e| panic!("batch {batch}: audit failed: {e:?}"));
        }
    }
    m.audit().expect("consistent after the campaign");
    assert!(
        ok > 60 && switches > 10,
        "degenerate campaign: {accepted} accepted, {ok} Ok, {switches} context switches"
    );
}

/// Flips one to `max_bits` distinct bits of `bytes`, so the result always
/// differs from the input.
fn flip_bits(bytes: &mut [u8], max_bits: u64, rng: &mut SplitMix64) {
    let want = 1 + rng.gen_range(max_bits) as usize;
    let mut bits = BTreeSet::new();
    while bits.len() < want {
        bits.insert(rng.gen_range(bytes.len() as u64 * 8) as usize);
    }
    for bit in bits {
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Eight mutants of a genuine reply: bit flips in its seq, payload or MAC,
/// or its payload truncated or extended. None may verify.
fn assert_reply_mutants_refused(reply: &ServiceReply, key: &[u8; 32], rng: &mut SplitMix64) {
    for j in 0..8 {
        let mut r = reply.clone();
        match rng.gen_range(5) {
            0 => {
                let mut seq = r.seq.to_le_bytes();
                flip_bits(&mut seq, 4, rng);
                r.seq = u64::from_le_bytes(seq);
            }
            1 => flip_bits(&mut r.payload, 4, rng),
            2 => r
                .payload
                .truncate(rng.gen_range(r.payload.len() as u64) as usize),
            3 => r
                .payload
                .extend((0..1 + rng.gen_range(32)).map(|_| rng.next_u64() as u8)),
            _ => flip_bits(&mut r.mac, 4, rng),
        }
        let ok = catch_unwind(AssertUnwindSafe(|| r.verify(key)))
            .unwrap_or_else(|_| panic!("verify: reply mutant {j} of seq {} panicked", reply.seq));
        assert!(
            !ok,
            "verify: reply mutant {j} of seq {} verified",
            reply.seq
        );
    }
}

/// Requests through `ServiceFacade::call` on one attested session, each
/// with one part mutated: a token field (`id`, `tenant`, `epoch`,
/// `expires_at`) or one to four token-MAC bits, the sequence number (off
/// by ±k, 0 or `u64::MAX`, its MAC sometimes recomputed as a replayed
/// request would carry), one to four request-MAC bits, or the op changed
/// after its MAC was computed. Every eighth request is genuine, and its
/// reply is mutated too. A request is served exactly when it is genuine.
#[test]
fn facade_call_and_reply_verify_are_total_on_forged_requests() {
    let mut m = Machine::boot_default();
    let mut f = ServiceFacade::new(ServiceConfig::production(0xfa5e)).expect("facade");
    f.probe(&mut m, 0).expect("probe");
    let (cid, nonce) = f.issue_challenge(7, 1).expect("challenge");
    let (init, msg1) = SigmaInitiator::start_with_nonce(&mut ChaChaRng::from_u64(0x5167), nonce);
    let (msg2, token) = f.attest(&mut m, cid, &msg1, 1).expect("attest");
    let key = init
        .finish(
            &msg2,
            &m.ek_public(),
            &f.service_measurement().expect("probed"),
        )
        .expect("facade quote verifies");
    let now = 2;
    let mut rng = SplitMix64::new(0x544f_4b4e);
    let (mut next_seq, mut served, mut refused) = (0u64, 0u64, 0u64);
    for i in 0..MUTANTS_PER_SEED {
        let body: Vec<u8> = (0..1 + rng.gen_range(48))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let op = if rng.gen_range(2) == 0 {
            ServiceOp::Ping(body)
        } else {
            ServiceOp::Seal(body)
        };
        let (mut tok, mut seq, mut req_op) = (token.clone(), next_seq, op.clone());
        let mut mac = request_mac(&key, seq, &op);
        match (i % 8 == 7, rng.gen_range(5)) {
            (true, _) => {}
            (false, 0) => {
                let field = match rng.gen_range(4) {
                    0 => &mut tok.id,
                    1 => &mut tok.tenant,
                    2 => &mut tok.epoch,
                    _ => &mut tok.expires_at,
                };
                *field ^= match rng.gen_range(2) {
                    0 => 1 + rng.gen_range(4),
                    _ => 1 + rng.gen_range(u64::MAX),
                };
            }
            (false, 1) => flip_bits(&mut tok.mac, 4, &mut rng),
            (false, 2) => {
                seq = match rng.gen_range(4) {
                    0 => next_seq.wrapping_add(1 + rng.gen_range(8)),
                    1 => next_seq.wrapping_sub(1 + rng.gen_range(8)),
                    2 => 0,
                    _ => u64::MAX,
                };
                if rng.gen_range(2) == 0 {
                    mac = request_mac(&key, seq, &op);
                }
            }
            (false, 3) => flip_bits(&mut mac, 4, &mut rng),
            (false, _) => {
                req_op = match (&op, rng.gen_range(4)) {
                    (ServiceOp::Ping(b), 0) => ServiceOp::Seal(b.clone()),
                    (ServiceOp::Seal(b), 0) => ServiceOp::Ping(b.clone()),
                    (ServiceOp::Ping(b), _) => ServiceOp::Ping(mutate(b, &mut rng)),
                    (ServiceOp::Seal(b), _) => ServiceOp::Seal(mutate(b, &mut rng)),
                    _ => unreachable!("only Ping and Seal are sent"),
                };
            }
        }
        let genuine =
            tok == token && seq == next_seq && req_op == op && mac == request_mac(&key, seq, &op);
        let calls_ok = f.stats.calls_ok;
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            f.call(&mut m, &tok, seq, &req_op, &mac, now)
        }))
        .unwrap_or_else(|_| panic!("call: request {i} panicked"));
        assert_eq!(
            f.stats.calls_ok,
            calls_ok + u64::from(genuine),
            "call: request {i} moved calls_ok wrongly"
        );
        match verdict {
            Ok(reply) => {
                assert!(genuine, "call: mutated request {i} was served");
                assert!(reply.seq == seq && reply.verify(&key), "call: reply {i}");
                assert_reply_mutants_refused(&reply, &key, &mut rng);
                next_seq += 1;
                served += 1;
            }
            Err(e) => {
                assert!(!genuine, "call: genuine request {i} refused: {e:?}");
                refused += 1;
            }
        }
    }
    let op = ServiceOp::Ping(b"after the sweep".to_vec());
    let reply = f
        .call(
            &mut m,
            &token,
            next_seq,
            &op,
            &request_mac(&key, next_seq, &op),
            now,
        )
        .expect("the session survives the sweep");
    assert!(reply.verify(&key));
    assert_eq!(reply.payload, b"after the sweep");
    assert_eq!(f.stats.calls_ok, served + 1);
    assert!(
        served >= MUTANTS_PER_SEED / 8 && refused > MUTANTS_PER_SEED / 2,
        "degenerate sweep: {served} served, {refused} refused"
    );
    m.audit().expect("consistent after the sweep");
}
