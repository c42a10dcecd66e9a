//! Controlled-channel and management-attack harnesses (§I attack types,
//! §VIII security analysis).
//!
//! Every attack here is executed *for real* against the simulated machine:
//! the attacker is the CS OS (or a malicious enclave / rogue DMA device)
//! with exactly the observation surface the paper grants it. For the
//! insecure baselines of Table VI, the same attacks run against small
//! models of the conventional placement (management state in OS memory) to
//! show the channel actually leaks there.

use crate::machine::Machine;
use crate::manifest::EnclaveManifest;
use crate::sdk::ShmPerm;
use hypertee_fabric::dma::DeviceId;
use hypertee_fabric::ihub::DmaOp;
use hypertee_mem::addr::{Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::MemFault;

/// Outcome of one attack run.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Attack name.
    pub name: &'static str,
    /// True when the attacker extracted the secret (attack succeeded).
    pub leaked: bool,
    /// Bit-recovery accuracy where applicable (0.5 = chance for balanced
    /// secrets).
    pub accuracy: f64,
    /// Human-readable notes.
    pub notes: String,
}

fn small_manifest() -> EnclaveManifest {
    EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 16K").unwrap()
}

/// **Attack ①: allocation-based controlled channel** (§IV-A).
///
/// The victim enclave performs one step per secret bit: bit 1 allocates a
/// chunk, bit 0 idles. The attacker (CS OS) samples the only allocation
/// state it can see — its own frame-allocator counter — after every step
/// and guesses the bit from the delta.
///
/// Against HyperTEE the enclave memory pool absorbs the allocations, so the
/// OS sees only rare batched growth; accuracy collapses toward chance.
pub fn allocation_channel(machine: &mut Machine, secret: &[bool]) -> AttackReport {
    let victim = machine
        .create_enclave(0, &small_manifest(), b"allocation victim")
        .expect("victim creation");
    machine.enter(0, victim).expect("enter victim");
    let mut guesses = Vec::with_capacity(secret.len());
    for &bit in secret {
        let before = machine.os.allocated;
        if bit {
            machine.ealloc(0, 16 * 1024).expect("victim allocation");
        }
        let after = machine.os.allocated;
        guesses.push(after > before);
    }
    machine.exit(0).expect("exit victim");
    machine.destroy(0, victim).expect("destroy victim");
    score("allocation-based controlled channel", secret, &guesses)
}

/// The same allocation channel against a conventional (SGX-like) placement
/// where every enclave allocation is an OS request. Modelled by observing
/// the per-request pool service counter the OS *would* see if it performed
/// the allocation itself.
pub fn allocation_channel_insecure(machine: &mut Machine, secret: &[bool]) -> AttackReport {
    let victim = machine
        .create_enclave(0, &small_manifest(), b"allocation victim (baseline)")
        .expect("victim creation");
    machine.enter(0, victim).expect("enter victim");
    let mut guesses = Vec::with_capacity(secret.len());
    for &bit in secret {
        let before = machine.ems.pool().stats.pages_served;
        if bit {
            machine.ealloc(0, 16 * 1024).expect("victim allocation");
        }
        let after = machine.ems.pool().stats.pages_served;
        guesses.push(after > before);
    }
    machine.exit(0).expect("exit victim");
    machine.destroy(0, victim).expect("destroy victim");
    score(
        "allocation channel vs OS-performed allocation (SGX-like)",
        secret,
        &guesses,
    )
}

/// **Attack ②: page-table-management controlled channel** (§IV-A).
///
/// The attacker OS tries to reach the victim's page-table and data frames
/// to read/clear accessed bits. In HyperTEE the enclave page table lives in
/// enclave memory: every probe ends in a bitmap violation, and zero PTE
/// bytes are recovered.
pub(crate) fn page_table_channel(machine: &mut Machine) -> AttackReport {
    let victim = machine
        .create_enclave(0, &small_manifest(), b"page-table victim with secrets")
        .expect("victim creation");
    machine.enter(0, victim).expect("enter victim");
    // Victim touches its memory (creating A/D state in its own table).
    let va = machine.ealloc(0, 64 * 1024).expect("victim allocation");
    machine
        .enclave_store(0, va, b"secret access pattern")
        .expect("victim store");
    machine.exit(0).expect("exit victim");

    // The attacker sweeps physical memory, mapping frames into its own
    // address space and trying to read them — hunting for PTE-looking data.
    let mut bytes_recovered = 0u64;
    let mut violations = 0u64;
    let probe_va = VirtAddr(0x6000_0000);
    let total = machine.sys.phys.total_frames().min(4096);
    for frame in 64..total {
        let va = VirtAddr(probe_va.0 + (frame - 64) * PAGE_SIZE);
        // Map may fail (already mapped elsewhere is fine for the sweep).
        if machine
            .host_table
            .map(
                va,
                Ppn(frame),
                hypertee_mem::pagetable::Perms::RW,
                hypertee_mem::addr::KeyId::HOST,
                &mut machine.os,
                &mut machine.sys.phys,
            )
            .is_err()
        {
            continue;
        }
        let mut buf = [0u8; 8];
        match machine.harts[1].mmu.load(&mut machine.sys, va, &mut buf) {
            Ok(()) => {
                // Readable frame: host memory — no enclave PTEs here by
                // construction; count recovered bytes that look like PTEs
                // (valid bit set) as "leak candidates".
                if buf[0] & 1 == 1 && u64::from_le_bytes(buf) >> 48 != 0 {
                    bytes_recovered += 8;
                }
            }
            Err(MemFault::BitmapViolation { .. }) => violations += 1,
            Err(_) => {}
        }
    }
    machine.destroy(0, victim).expect("destroy victim");
    AttackReport {
        name: "page-table-management controlled channel",
        leaked: bytes_recovered > 0,
        accuracy: 0.0,
        notes: format!(
            "{violations} bitmap violations during sweep, {bytes_recovered} candidate PTE bytes recovered"
        ),
    }
}

/// The page-table channel against the conventional placement: the enclave
/// page table lives in OS memory, so the attacker reads and clears A/D bits
/// at will and recovers the victim's page-access trace exactly.
///
/// Modelled with a host-managed address space standing in for an SGX-style
/// enclave whose translations the OS controls.
pub fn page_table_channel_insecure(machine: &mut Machine, secret: &[bool]) -> AttackReport {
    // "Victim" pages mapped through the OS-owned table: one page per bit.
    let n = secret.len() as u64;
    let (base_va, _) = machine.map_host_region(n).expect("victim pages");
    // Victim execution: touch page i iff bit i is set.
    for (i, &bit) in secret.iter().enumerate() {
        // Attacker pre-clears the A bit (it owns the table).
        machine
            .host_table
            .clear_ad(
                VirtAddr(base_va.0 + i as u64 * PAGE_SIZE),
                &mut machine.sys.phys,
            )
            .expect("attacker clears A/D");
        // Also flush the victim's cached translations (the OS can shoot
        // down the TLB; the walk cache goes with it).
        machine.harts[0].mmu.flush_translations();
        if bit {
            machine
                .vm_store(0, VirtAddr(base_va.0 + i as u64 * PAGE_SIZE), &[1])
                .expect("victim touch");
        }
    }
    // Attacker reads the A bits back.
    let mut guesses = Vec::with_capacity(secret.len());
    for i in 0..secret.len() {
        let pte = machine
            .host_table
            .inspect(
                VirtAddr(base_va.0 + i as u64 * PAGE_SIZE),
                &mut machine.sys.phys,
            )
            .expect("attacker reads PTE");
        guesses.push(pte.accessed());
    }
    score(
        "page-table channel vs OS-owned tables (SGX-like)",
        secret,
        &guesses,
    )
}

/// **Attack ③: swapping-based controlled channel** (§IV-A).
///
/// The attacker OS triggers EWB hoping to evict the victim's hot pages and
/// observe secret-correlated swap-ins. HyperTEE returns a *randomized
/// number of unused pool pages*, never live victim pages, so the victim's
/// working set is untouched and continues running fault-free.
pub(crate) fn swap_channel(machine: &mut Machine) -> AttackReport {
    let victim = machine
        .create_enclave(0, &small_manifest(), b"swap victim")
        .expect("victim creation");
    machine.enter(0, victim).expect("enter victim");
    let va = machine.ealloc(0, 256 * 1024).expect("victim working set");
    machine
        .enclave_store(0, va, &[0xAAu8; 32])
        .expect("warm up");
    machine.exit(0).expect("park victim");

    // Attacker: repeated swap requests while recording what comes back.
    let mut counts = std::collections::BTreeSet::new();
    let mut victim_page_evicted = false;
    for _ in 0..5 {
        let evicted = machine.ewb(1, 8).expect("EWB");
        counts.insert(evicted.len());
        for pa in &evicted {
            // White-box check (the attacker could not even do this): was
            // any evicted frame part of the victim's live working set? Live
            // victim frames stay enclave-marked; evicted ones are cleared.
            if machine
                .sys
                .bitmap
                .is_enclave(pa.ppn(), &mut machine.sys.phys)
                .unwrap_or(false)
            {
                victim_page_evicted = true;
            }
        }
    }
    // Victim resumes and touches its working set without a single fault —
    // no swap-in event for the attacker to observe.
    machine.resume(0, victim).expect("resume victim");
    let mut buf = [0u8; 32];
    let fault_free = machine.enclave_load(0, va, &mut buf).is_ok();
    machine.exit(0).expect("exit victim");
    machine.destroy(0, victim).expect("destroy victim");
    AttackReport {
        name: "swapping-based controlled channel",
        leaked: victim_page_evicted || !fault_free,
        accuracy: 0.0,
        notes: format!(
            "eviction counts observed {counts:?} (randomized), victim ran fault-free: {fault_free}"
        ),
    }
}

/// **Attack on communication management: ShmID brute force** (§V-A).
///
/// A malicious enclave guesses ShmIDs and tries to attach without being on
/// the legal connection list.
pub(crate) fn shm_bruteforce(machine: &mut Machine) -> AttackReport {
    let sender = machine
        .create_enclave(0, &small_manifest(), b"shm sender")
        .expect("sender");
    let attacker = machine
        .create_enclave(1, &small_manifest(), b"malicious enclave")
        .expect("attacker");
    machine.enter(0, sender).expect("enter sender");
    let shmid = machine
        .shmget(0, 16 * 1024, ShmPerm::ReadWrite, false)
        .expect("shmget");
    let s_va = machine.shmat(0, shmid, sender).expect("sender attach");
    machine
        .enclave_store(0, s_va, b"confidential broadcast")
        .expect("sender write");
    machine.exit(0).expect("exit sender");

    machine.enter(1, attacker).expect("enter attacker");
    let mut attached = 0u32;
    for guess in 0..64u64 {
        if machine.shmat(1, guess, sender).is_ok() {
            attached += 1;
        }
    }
    machine.exit(1).expect("exit attacker");
    AttackReport {
        name: "shared-memory ShmID brute force",
        leaked: attached > 0,
        accuracy: 0.0,
        notes: format!("{attached}/64 guessed attachments succeeded"),
    }
}

/// **Attack: rogue DMA** (§V-C).
///
/// A device outside any whitelist window attempts to read enclave memory
/// directly, bypassing the CS MMU.
pub(crate) fn dma_attack(machine: &mut Machine) -> AttackReport {
    let victim = machine
        .create_enclave(0, &small_manifest(), b"dma victim")
        .expect("victim");
    machine.enter(0, victim).expect("enter");
    let va = machine.ealloc(0, 4096).expect("alloc");
    machine
        .enclave_store(0, va, b"enclave secret")
        .expect("store");
    machine.exit(0).expect("exit");

    // The attacker knows (worst case) the physical frame and points a rogue
    // DMA engine at it.
    let rogue = DeviceId(0xDEAD);
    let mut leaked_any = false;
    let total = machine.sys.phys.total_frames().min(4096);
    for frame in 64..total {
        let mut buf = [0u8; 64];
        let ok = machine.hub.dma_access(
            rogue,
            &mut machine.sys.phys,
            Ppn(frame).base(),
            DmaOp::Read(&mut buf),
        );
        if ok && buf.windows(14).any(|w| w == b"enclave secret") {
            leaked_any = true;
        }
    }
    let discarded = machine.hub.dma_discarded();
    machine.destroy(0, victim).expect("destroy");
    AttackReport {
        name: "rogue DMA read of enclave memory",
        leaked: leaked_any,
        accuracy: 0.0,
        notes: format!("{discarded} DMA accesses discarded by the whitelist"),
    }
}

/// **Attack: cold-boot / physical read** (§II-B threat model).
///
/// Dump raw DRAM and search for enclave plaintext.
pub(crate) fn cold_boot(machine: &mut Machine) -> AttackReport {
    let victim = machine
        .create_enclave(0, &small_manifest(), b"cold boot victim")
        .expect("victim");
    machine.enter(0, victim).expect("enter");
    let va = machine.ealloc(0, 4096).expect("alloc");
    let needle = b"AES keys live here in plaintext?";
    machine.enclave_store(0, va, needle).expect("store");
    machine.exit(0).expect("exit");

    let mut found = false;
    let total = machine.sys.phys.total_frames();
    let mut page = vec![0u8; PAGE_SIZE as usize];
    for frame in 0..total {
        if machine.sys.phys.read(Ppn(frame).base(), &mut page).is_err() {
            continue;
        }
        if page.windows(needle.len()).any(|w| w == needle) {
            found = true;
        }
    }
    machine.destroy(0, victim).expect("destroy");
    AttackReport {
        name: "cold-boot DRAM dump",
        leaked: found,
        accuracy: 0.0,
        notes: "searched all physical frames for enclave plaintext".to_string(),
    }
}

/// Digest of everything a CS-resident attacker can observe without
/// faulting: host-accessible physical memory (non-enclave frames), the OS
/// allocator counters, and device-side counters. This is the §VIII-C attack
/// surface: "updates to these data occur only when CS applications
/// proactively invoke primitive requests… and do not reveal sensitive
/// information about EMS tasks."
pub(crate) fn attacker_view_digest(machine: &mut Machine) -> [u8; 32] {
    let mut h = hypertee_repro_digest_hasher();
    h.update(&machine.os.allocated.to_le_bytes());
    h.update(&machine.os.available().to_le_bytes());
    h.update(&machine.hub.dma_discarded().to_le_bytes());
    let total = machine.sys.phys.total_frames();
    let mut page = vec![0u8; PAGE_SIZE as usize];
    for frame in 0..total {
        let marked = machine
            .sys
            .bitmap
            .is_enclave(Ppn(frame), &mut machine.sys.phys)
            .unwrap_or(true);
        if marked {
            // The attacker's probe of this frame faults; it observes only
            // *that* it faulted, which we encode as membership.
            h.update(&[1]);
            continue;
        }
        h.update(&[0]);
        machine
            .sys
            .phys
            .read(Ppn(frame).base(), &mut page)
            .expect("in range");
        h.update(&page);
    }
    h.finalize()
}

fn hypertee_repro_digest_hasher() -> hypertee_crypto::sha256::Sha256 {
    hypertee_crypto::sha256::Sha256::new()
}

/// **Noninterference experiment (§VIII-C)**: two victims execute
/// *different* secret-dependent management-activity patterns with the same
/// totals; the attacker's complete observable view must end identical.
/// (Totals themselves are coarsely visible through batched pool growth —
/// the bounded disclosure the paper accepts.)
pub(crate) fn management_noninterference() -> AttackReport {
    let run = |pattern: &[usize]| -> [u8; 32] {
        let mut m = Machine::boot_default();
        let victim = m
            .create_enclave(0, &small_manifest(), b"noninterference victim")
            .expect("victim");
        m.enter(0, victim).expect("enter");
        for &chunk_pages in pattern {
            let va = m.ealloc(0, chunk_pages as u64 * PAGE_SIZE).expect("alloc");
            m.enclave_store(0, va, &[0x42; 8]).expect("store");
        }
        let _sealed = m.seal(0, b"pattern-independent").expect("seal");
        m.exit(0).expect("exit");
        attacker_view_digest(&mut m)
    };
    // Same total (24 pages), different secret-dependent shapes.
    let view_a = run(&[1, 2, 3, 4, 5, 9]);
    let view_b = run(&[9, 5, 4, 3, 2, 1]);
    let leaked = view_a != view_b;
    AttackReport {
        name: "management-activity pattern via the attacker-visible view",
        leaked,
        accuracy: 0.0,
        notes: if leaked {
            "attacker view diverged between allocation patterns".to_string()
        } else {
            "attacker view identical across secret-dependent patterns".to_string()
        },
    }
}

fn score(name: &'static str, secret: &[bool], guesses: &[bool]) -> AttackReport {
    let correct = secret.iter().zip(guesses).filter(|(s, g)| s == g).count();
    let accuracy = correct as f64 / secret.len().max(1) as f64;
    // A channel "leaks" when recovery is meaningfully better than chance.
    let leaked = accuracy >= 0.75;
    AttackReport {
        name,
        leaked,
        accuracy,
        notes: format!("{correct}/{} bits recovered", secret.len()),
    }
}

/// A balanced pseudo-random secret for channel experiments.
pub fn test_secret(bits: usize, seed: u64) -> Vec<bool> {
    let mut rng = hypertee_crypto::chacha::ChaChaRng::from_u64(seed);
    let mut v: Vec<bool> = (0..bits / 2)
        .map(|_| true)
        .chain((0..bits - bits / 2).map(|_| false))
        .collect();
    rng.shuffle(&mut v);
    v
}

/// Runs the full HyperTEE attack battery on a fresh machine.
pub fn run_all(machine: &mut Machine) -> Vec<AttackReport> {
    let secret = test_secret(32, 0xa77ac);
    vec![
        allocation_channel(machine, &secret),
        page_table_channel(machine),
        swap_channel(machine),
        shm_bruteforce(machine),
        dma_attack(machine),
        cold_boot(machine),
        management_noninterference(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypertee_defeats_allocation_channel() {
        let mut m = Machine::boot_default();
        let secret = test_secret(32, 1);
        let report = allocation_channel(&mut m, &secret);
        assert!(!report.leaked, "{report:?}");
        assert!(report.accuracy < 0.75, "{report:?}");
    }

    #[test]
    fn sgx_like_placement_leaks_allocation() {
        let mut m = Machine::boot_default();
        let secret = test_secret(32, 2);
        let report = allocation_channel_insecure(&mut m, &secret);
        assert!(report.leaked, "{report:?}");
        assert!(report.accuracy > 0.95, "{report:?}");
    }

    #[test]
    fn hypertee_defeats_page_table_channel() {
        let mut m = Machine::boot_default();
        let report = page_table_channel(&mut m);
        assert!(!report.leaked, "{report:?}");
    }

    #[test]
    fn sgx_like_placement_leaks_page_accesses() {
        let mut m = Machine::boot_default();
        let secret = test_secret(16, 3);
        let report = page_table_channel_insecure(&mut m, &secret);
        assert!(report.leaked, "{report:?}");
        assert!((report.accuracy - 1.0).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn hypertee_defeats_swap_channel() {
        let mut m = Machine::boot_default();
        let report = swap_channel(&mut m);
        assert!(!report.leaked, "{report:?}");
    }

    #[test]
    fn hypertee_defeats_shm_bruteforce() {
        let mut m = Machine::boot_default();
        let report = shm_bruteforce(&mut m);
        assert!(!report.leaked, "{report:?}");
    }

    #[test]
    fn hypertee_defeats_rogue_dma() {
        let mut m = Machine::boot_default();
        let report = dma_attack(&mut m);
        assert!(!report.leaked, "{report:?}");
    }

    #[test]
    fn hypertee_defeats_cold_boot() {
        let mut m = Machine::boot_default();
        let report = cold_boot(&mut m);
        assert!(!report.leaked, "{report:?}");
    }

    #[test]
    fn management_activity_is_noninterfering() {
        let report = management_noninterference();
        assert!(!report.leaked, "{report:?}");
    }
}
