//! Thread-safety tests: the paper's EMS "creates multiple threads to
//! perform the management tasks" (§III-C). The functional simulator
//! serialises machine state behind a lock, but every type must be `Send`
//! (and the shared ones `Sync`) so multi-threaded drivers are sound, and a
//! concurrent stress run must preserve all bookkeeping invariants.

use hypertee_repro::fabric::message::Primitive;
use hypertee_repro::faults::{FaultConfig, FaultPlan};
use hypertee_repro::hypertee::machine::{Machine, MachineError};
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::sim::config::{EmsCluster, SocConfig};
use std::sync::Arc;
use std::sync::Mutex;

/// Boots a machine and puts `harts` tenants each inside their own enclave,
/// returning the per-hart enclave ids.
fn entered_tenants(m: &mut Machine, harts: usize, manifest: &EnclaveManifest) -> Vec<u64> {
    (0..harts)
        .map(|h| {
            let image = format!("tenant {h} image");
            let e = m.create_enclave(h, manifest, image.as_bytes()).unwrap();
            m.enter(h, e).unwrap();
            e.0
        })
        .collect()
}

#[test]
fn core_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<hypertee_repro::ems::runtime::Ems>();
    assert_send::<hypertee_repro::mem::system::MemorySystem>();
    assert_send::<hypertee_repro::fabric::ihub::IHub>();
    assert_send::<hypertee_repro::emcall::EmCall>();
    assert_send::<hypertee_repro::crypto::chacha::ChaChaRng>();
}

#[test]
fn shared_read_types_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<hypertee_repro::sim::config::SocConfig>();
    assert_sync::<hypertee_repro::hypertee::manifest::EnclaveManifest>();
    assert_sync::<hypertee_repro::crypto::sig::PublicKey>();
}

#[test]
fn concurrent_tenants_stress() {
    // Four OS threads, each driving its own hart/enclave through a shared
    // machine — the shape of a real multi-tenant host. The lock serialises
    // primitives (as the mailbox does); the point is that nothing corrupts
    // cross-tenant state under interleaving.
    let machine = Arc::new(Mutex::new(Machine::boot_default()));
    let manifest = EnclaveManifest::parse("heap = 8M\nstack = 64K\nhost_shared = 16K").unwrap();

    let mut handles = Vec::new();
    for tenant in 0usize..4 {
        let machine = Arc::clone(&machine);
        let manifest = manifest.clone();
        handles.push(std::thread::spawn(move || {
            let image = format!("tenant {tenant} image");
            let enclave = {
                let mut m = machine.lock().unwrap();
                m.create_enclave(tenant, &manifest, image.as_bytes())
                    .unwrap()
            };
            for round in 0..5u64 {
                let mut m = machine.lock().unwrap();
                m.enter(tenant, enclave).unwrap();
                let va = m.ealloc(tenant, 8 * 1024).unwrap();
                let marker = (tenant as u64) << 32 | round;
                m.enclave_store(tenant, va, &marker.to_le_bytes()).unwrap();
                let mut buf = [0u8; 8];
                m.enclave_load(tenant, va, &mut buf).unwrap();
                assert_eq!(u64::from_le_bytes(buf), marker, "tenant isolation broken");
                m.exit(tenant).unwrap();
            }
            let mut m = machine.lock().unwrap();
            m.enter(tenant, enclave).unwrap();
            let quote = m.attest(tenant, enclave, image.as_bytes()).unwrap();
            assert!(quote.verify(&m.ek_public()));
            m.exit(tenant).unwrap();
            m.destroy(tenant, enclave).unwrap();
        }));
    }
    for h in handles {
        h.join().expect("tenant thread panicked");
    }
    let m = machine.lock().unwrap();
    assert_eq!(m.ems.enclave_count(), 0, "all tenants cleaned up");
    assert_eq!(m.emcall.stats.blocked, 0);
}

/// Tentpole acceptance: four distinct harts hold outstanding tickets
/// simultaneously, the responses are delivered under interleaved completion,
/// and each hart collects exactly its own result (distinct page counts prove
/// no cross-delivery).
#[test]
fn four_harts_hold_outstanding_requests_simultaneously() {
    let mut m = Machine::boot_default();
    let manifest = EnclaveManifest::parse("heap = 8M\nstack = 32K\nhost_shared = 16K").unwrap();
    let eids = entered_tenants(&mut m, 4, &manifest);

    // All four submit before a single pump round runs.
    let calls: Vec<_> = (0..4)
        .map(|h| {
            m.submit(
                h,
                Primitive::Ealloc,
                vec![eids[h], (h as u64 + 1) * 4096],
                vec![],
            )
            .unwrap()
        })
        .collect();
    let stats = m.pipeline_stats();
    assert_eq!(stats.in_flight, 4, "{stats:?}");
    assert!(stats.in_flight_hwm >= 4, "{stats:?}");

    let mut delivered = 0;
    for _ in 0..64 {
        delivered += m.pump();
        if delivered == 4 {
            break;
        }
    }
    assert_eq!(delivered, 4, "all four calls must complete");
    for (h, call) in calls.into_iter().enumerate() {
        let done = m
            .take_completion(call)
            .expect("completion parked for its caller");
        assert_eq!(done.hart_id, h);
        let resp = done.result.expect("fault-free EALLOC succeeds");
        assert_eq!(
            resp.pages_mapped(),
            Some(h as u64 + 1),
            "hart {h} collected a foreign response"
        );
    }
    let stats = m.pipeline_stats();
    assert_eq!(
        stats.retries, 0,
        "fault-free overlap must not retry: {stats:?}"
    );
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.in_flight, 0);
}

/// Per-caller FIFO through the randomized scheduler: each hart keeps two
/// EALLOCs in flight; whatever the cross-caller interleaving, each enclave's
/// first allocation must land below its second on the bump-cursor heap.
#[test]
fn per_caller_fifo_survives_concurrent_scheduling() {
    let mut m = Machine::boot_default();
    let manifest = EnclaveManifest::parse("heap = 8M\nstack = 32K\nhost_shared = 16K").unwrap();
    let eids = entered_tenants(&mut m, 4, &manifest);

    let pairs: Vec<_> = (0..4)
        .map(|h| {
            let first = m
                .submit(h, Primitive::Ealloc, vec![eids[h], 4096], vec![])
                .unwrap();
            let second = m
                .submit(h, Primitive::Ealloc, vec![eids[h], 4096], vec![])
                .unwrap();
            (first, second)
        })
        .collect();
    assert_eq!(m.pipeline_stats().in_flight, 8);

    let mut delivered = 0;
    for _ in 0..128 {
        delivered += m.pump();
        if delivered == 8 {
            break;
        }
    }
    assert_eq!(delivered, 8);
    for (h, (first, second)) in pairs.into_iter().enumerate() {
        let va1 = m
            .take_completion(first)
            .unwrap()
            .result
            .unwrap()
            .mapped_va()
            .unwrap();
        let va2 = m
            .take_completion(second)
            .unwrap()
            .result
            .unwrap()
            .mapped_va()
            .unwrap();
        assert!(
            va1 < va2,
            "hart {h}: submission order inverted ({va1:#x} vs {va2:#x})"
        );
    }
}

/// Satellite (f): with a quad-core EMS cluster and eight harts keeping the
/// mailbox full, the pipeline statistics show the scheduler actually
/// spreading work across every core and a real request backlog forming.
#[test]
fn quad_core_ems_spreads_servicing_across_cores() {
    let config = SocConfig {
        cs_cores: 8,
        ems: EmsCluster::quad_ooo(),
        ..SocConfig::default()
    };
    let mut m = Machine::boot(config, 0x4859_5045).unwrap();
    let manifest = EnclaveManifest::parse("heap = 8M\nstack = 32K\nhost_shared = 16K").unwrap();
    let eids = entered_tenants(&mut m, 8, &manifest);

    for _wave in 0..3 {
        let calls: Vec<_> = (0..8)
            .map(|h| {
                m.submit(h, Primitive::Ealloc, vec![eids[h], 4096], vec![])
                    .unwrap()
            })
            .collect();
        let mut delivered = 0;
        for _ in 0..64 {
            delivered += m.pump();
            if delivered == calls.len() {
                break;
            }
        }
        assert_eq!(delivered, calls.len());
        for call in calls {
            m.take_completion(call).unwrap().result.unwrap();
        }
    }

    let stats = m.pipeline_stats();
    assert!(
        stats.serviced_per_core.iter().all(|&c| c > 0),
        "every EMS core must service requests: {stats:?}"
    );
    assert!(
        stats.queue_depth_hwm >= 4,
        "backlog never formed: {stats:?}"
    );
    assert!(stats.in_flight_hwm >= 8, "{stats:?}");
    assert_eq!(stats.timeouts, 0);
}

/// Satellite (c): a seeded drop/duplicate/delay campaign over four
/// concurrently in-flight requests per round. Every round ends with the
/// cross-structure consistency audit clean, every failure is a clean typed
/// error, every success carries its own hart's response (each hart asks
/// for a distinct size, so a cross-delivered response maps the wrong page
/// count), and the recovery machinery demonstrably fired.
#[test]
fn concurrent_fault_campaign_preserves_consistency() {
    let config = FaultConfig {
        drop_request_pm: 100,
        drop_response_pm: 100,
        duplicate_response_pm: 80,
        delay_response_pm: 80,
        delay_polls_max: 6,
        ..FaultConfig::disabled()
    };
    let plan = FaultPlan::new(0xc0c0_fa11, config);
    let mut m = Machine::boot_default();
    let manifest = EnclaveManifest::parse("heap = 16M\nstack = 32K\nhost_shared = 16K").unwrap();
    let eids = entered_tenants(&mut m, 4, &manifest);
    m.arm_faults(&plan);

    let bytes = |h: usize| (h as u64 + 1) * 16 * 1024;
    let mut ok = 0u32;
    for round in 0..24u32 {
        let calls: Vec<_> = (0..4)
            .map(|h| {
                m.submit(h, Primitive::Ealloc, vec![eids[h], bytes(h)], vec![])
                    .unwrap()
            })
            .collect();
        assert!(m.pipeline_stats().in_flight >= 4, "round {round}");
        let mut pending: Vec<_> = calls.into_iter().collect();
        let mut spins = 0u32;
        while !pending.is_empty() {
            spins += 1;
            assert!(spins < 50_000, "round {round}: pipeline wedged");
            m.pump();
            for done in m.drain_completions() {
                pending.retain(|c| *c != done.call);
                match done.result {
                    Ok(resp) => {
                        assert_eq!(
                            resp.pages_mapped(),
                            Some(bytes(done.hart_id) / 4096),
                            "round {round}: hart {} got a foreign response",
                            done.hart_id
                        );
                        ok += 1;
                    }
                    Err(e) => assert!(
                        !matches!(e, MachineError::Gate(_) | MachineError::Boot(_)),
                        "round {round}: unclean failure {e}"
                    ),
                }
            }
        }
        // The audit must hold with faults still armed, after every round.
        m.audit()
            .unwrap_or_else(|e| panic!("round {round}: audit violated: {e}"));
    }

    let stats = m.pipeline_stats();
    assert!(
        stats.retries > 0,
        "campaign too tame to exercise recovery: {stats:?}"
    );
    assert!(m.fault_stats().total() > 0, "no faults fired");
    assert!(
        ok >= 60,
        "recovery too weak: only {ok}/96 allocations completed"
    );
    m.audit().expect("final audit");
}
