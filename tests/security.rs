//! Workspace-level security tests: the paper's threat model (§II-B)
//! exercised across crate boundaries.

use hypertee_repro::fabric::message::Primitive;
use hypertee_repro::faults::{FaultConfig, FaultPlan};
use hypertee_repro::hypertee::attacks;
use hypertee_repro::hypertee::machine::{Machine, MachineError};
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::hypertee::sdk::ShmPerm;
use hypertee_repro::mem::addr::{KeyId, VirtAddr, PAGE_SIZE};
use hypertee_repro::mem::pagetable::{PageTable, Perms};
use hypertee_repro::mem::snapshot::stale_tlb_entries;
use hypertee_repro::mem::MemFault;

fn manifest() -> EnclaveManifest {
    EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap()
}

#[test]
fn full_attack_battery_blocked() {
    let mut m = Machine::boot_default();
    for report in attacks::run_all(&mut m) {
        assert!(!report.leaked, "attack succeeded: {report:?}");
    }
}

#[test]
fn insecure_baselines_actually_leak() {
    // The contrast cells of Table VI: the same channels recover the secret
    // when management state lives with the untrusted OS.
    let secret = attacks::test_secret(32, 7);
    let mut m = Machine::boot_default();
    assert!(attacks::allocation_channel_insecure(&mut m, &secret).leaked);
    let mut m = Machine::boot_default();
    let r = attacks::page_table_channel_insecure(&mut m, &secret);
    assert!(r.leaked && (r.accuracy - 1.0).abs() < 1e-9);
}

#[test]
fn compromised_os_cannot_forge_enclave_identity() {
    // A malicious OS invokes EALLOC claiming to be enclave 1. EMCall stamps
    // the *actual* hart identity (no enclave), so EMS rejects the forgery.
    let mut m = Machine::boot_default();
    let _e = m.create_enclave(0, &manifest(), b"victim").unwrap();
    let err = m
        .invoke(
            1,
            hypertee_repro::fabric::message::Primitive::Ealloc,
            vec![1, 4096],
            vec![],
        )
        .unwrap_err();
    // Blocked either at the gate (hart 1 is host user mode with no enclave
    // identity → EMS denies) — not silently executed.
    match err {
        hypertee_repro::hypertee::machine::MachineError::Primitive(s) => {
            assert_eq!(s, hypertee_repro::fabric::message::Status::AccessDenied);
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn malicious_enclave_cannot_touch_other_enclaves() {
    // §II-B "Malicious enclaves": enclave B maps nothing of enclave A; its
    // own page table simply has no entries for A's memory, and it cannot
    // create any (the table is EMS-owned).
    let mut m = Machine::boot_default();
    let a = m.create_enclave(0, &manifest(), b"victim A").unwrap();
    let b = m.create_enclave(1, &manifest(), b"attacker B").unwrap();
    m.enter(0, a).unwrap();
    let a_va = m.ealloc(0, 4096).unwrap();
    m.enclave_store(0, a_va, b"A's secret").unwrap();
    m.exit(0).unwrap();

    m.enter(1, b).unwrap();
    // B probes A's heap address in its own address space: page fault (no
    // mapping), never A's data.
    let mut buf = [0u8; 10];
    let err = m.enclave_load(1, a_va, &mut buf).unwrap_err();
    assert!(matches!(
        err,
        hypertee_repro::hypertee::machine::MachineError::Mem(MemFault::PageFault { .. })
    ));
}

#[test]
fn os_mapping_of_enclave_frame_defeated_by_bitmap_and_mktme() {
    // Even a page-table-forging OS that maps an enclave frame host-side is
    // stopped twice: the bitmap check faults the access, and even the raw
    // bytes below the engine are ciphertext.
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(0, &manifest(), b"layered defence victim")
        .unwrap();
    m.enter(0, e).unwrap();
    let va = m.ealloc(0, 4096).unwrap();
    m.enclave_store(0, va, b"defense in depth").unwrap();
    m.exit(0).unwrap();

    // Find the victim frame (white-box; a real attacker would scan).
    let root = {
        m.resume(0, e).unwrap();
        let root = m.harts[0].mmu.table.unwrap().root;
        m.exit(0).unwrap();
        root
    };
    let maps = PageTable { root }.mappings(&mut m.sys.phys).unwrap();
    let frame = maps
        .iter()
        .find(|(v, _)| *v == VirtAddr(0x2000_0000))
        .map(|(_, pte)| pte.ppn())
        .unwrap();

    // Layer 1: host mapping + access → bitmap violation.
    let attacker_va = VirtAddr(0x6100_0000);
    m.host_table
        .map(
            attacker_va,
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut m.os,
            &mut m.sys.phys,
        )
        .unwrap();
    let mut buf = [0u8; 16];
    let err = m.harts[1]
        .mmu
        .load(&mut m.sys, attacker_va, &mut buf)
        .unwrap_err();
    assert!(matches!(err, MemFault::BitmapViolation { .. }));

    // Layer 2: raw physical bytes are ciphertext.
    let mut raw = [0u8; 16];
    m.sys.phys.read(frame.base(), &mut raw).unwrap();
    assert_ne!(&raw, b"defense in depth");
}

#[test]
fn tlb_shootdown_on_bitmap_change_prevents_stale_bypass() {
    let mut m = Machine::boot_default();
    // Host maps and touches a fresh frame (cached in its TLB).
    let (va, ppn) = m.map_host_region(1).unwrap();
    m.vm_store(0, va, b"host page").unwrap();
    // The frame becomes enclave memory (e.g. absorbed into the pool).
    m.sys.bitmap.set(ppn, true, &mut m.sys.phys).unwrap();
    // EMCall performs the shootdown the paper requires on bitmap changes.
    let (mut emcall, mut harts) = (std::mem::take(&mut m.emcall), std::mem::take(&mut m.harts));
    emcall.flush_for_bitmap_change(&mut harts, ppn);
    m.emcall = emcall;
    m.harts = harts;
    // The host access now faults instead of riding the stale entry.
    let mut buf = [0u8; 4];
    let err = m.vm_load(0, va, &mut buf).unwrap_err();
    assert!(matches!(
        err,
        hypertee_repro::hypertee::machine::MachineError::Mem(MemFault::BitmapViolation { .. })
    ));
}

#[test]
fn shm_keys_isolate_unrelated_enclaves() {
    // An enclave that is legally attached to one region learns nothing
    // about another region's contents even with the same ShmID-guessing
    // access: keys are derived per (creator, ShmID).
    let mut m = Machine::boot_default();
    let s1 = m.create_enclave(0, &manifest(), b"creator 1").unwrap();
    let s2 = m.create_enclave(1, &manifest(), b"creator 2").unwrap();
    m.enter(0, s1).unwrap();
    let shm1 = m.shmget(0, 4096, ShmPerm::ReadWrite, false).unwrap();
    let va1 = m.shmat(0, shm1, s1).unwrap();
    m.enclave_store(0, va1, b"region one secret").unwrap();
    m.exit(0).unwrap();
    m.enter(1, s2).unwrap();
    let shm2 = m.shmget(1, 4096, ShmPerm::ReadWrite, false).unwrap();
    let _va2 = m.shmat(1, shm2, s2).unwrap();
    // s2 cannot attach to shm1 (not registered) …
    assert!(m.shmat(1, shm1, s1).is_err());
    // … and the raw frames of shm1 are ciphertext under a key s2 never gets.
    let f = m.ems.shm(shm1).unwrap().frames[0];
    let mut raw = [0u8; 17];
    m.sys.phys.read(f.base(), &mut raw).unwrap();
    assert_ne!(&raw, b"region one secret");
}

#[test]
fn privilege_matrix_enforced_for_every_primitive() {
    use hypertee_repro::fabric::message::{Primitive, Privilege};
    let mut m = Machine::boot_default();
    for prim in Primitive::all() {
        let wrong = match prim.required_privilege() {
            Privilege::User => Privilege::Os,
            _ => Privilege::User,
        };
        m.harts[0].privilege = wrong;
        let err = m.invoke(0, prim, vec![0; 5], vec![]).unwrap_err();
        assert!(
            matches!(
                err,
                hypertee_repro::hypertee::machine::MachineError::Gate(_)
            ),
            "{prim:?} was not gated"
        );
        m.harts[0].privilege = Privilege::User;
    }
    assert_eq!(m.emcall.stats.blocked, 16);
}

/// Enters an enclave on hart 0, EALLOCs four pages and touches each one,
/// warming the hart's TLB and walk cache. Returns the enclave id and VA.
fn warm_four_pages(m: &mut Machine) -> (u64, VirtAddr) {
    let e = m.create_enclave(0, &manifest(), b"efree target").unwrap();
    m.enter(0, e).unwrap();
    let va = m.ealloc(0, 4 * PAGE_SIZE).unwrap();
    for i in 0..4 {
        m.enclave_store(0, VirtAddr(va.0 + i * PAGE_SIZE), b"warm")
            .unwrap();
    }
    assert!(
        m.harts[0].mmu.tlb.len() >= 4,
        "the touches must fill the TLB"
    );
    (e.0, va)
}

/// TLB entries on hart 0 that disagree with its current page table.
fn stale_on_hart0(m: &mut Machine) -> usize {
    let table = m.harts[0].mmu.table.expect("hart 0 has a page table");
    stale_tlb_entries(&m.harts[0].mmu.tlb, &table, &mut m.sys.phys)
        .unwrap()
        .len()
}

#[test]
fn raw_pipeline_efree_leaves_no_stale_translations() {
    // A raw submit/pump client gets the same post-EFREE flush as the SDK:
    // the completion lands it, not the caller.
    let mut m = Machine::boot_default();
    let (eid, va) = warm_four_pages(&mut m);
    m.submit(0, Primitive::Efree, vec![eid, va.0, 4 * PAGE_SIZE], vec![])
        .unwrap();
    while m.pipeline_stats().in_flight > 0 {
        m.pump();
    }
    let done = m.drain_completions();
    assert_eq!(done.len(), 1);
    assert!(done[0].result.is_ok(), "EFREE failed: {:?}", done[0].result);
    assert_eq!(stale_on_hart0(&mut m), 0, "stale TLB entries after EFREE");
    assert!(
        m.harts[0].mmu.walk_cache.is_empty(),
        "walk cache survived EFREE"
    );
}

#[test]
fn efree_with_lost_responses_still_flushes() {
    // Every response is dropped: the EMS executes the EFREE but the call
    // ends in Timeout. Its outcome is unknown, so the hart must still drop
    // its translations to the maybe-freed frames.
    let mut m = Machine::boot_default();
    let (_, va) = warm_four_pages(&mut m);
    let drops = FaultConfig {
        drop_response_pm: 1000,
        ..FaultConfig::disabled()
    };
    m.arm_faults(&FaultPlan::new(0x10_57, drops));
    assert_eq!(m.efree(0, va, 4 * PAGE_SIZE), Err(MachineError::Timeout));
    assert_eq!(stale_on_hart0(&mut m), 0, "stale TLB entries after EFREE");
    assert!(
        m.harts[0].mmu.walk_cache.is_empty(),
        "walk cache survived EFREE"
    );
}
