//! Differential regression: the synchronous [`Machine::invoke_as`] path and
//! the asynchronous `submit`/`pump`/`take_completion` pipeline must be
//! observationally equivalent — identical responses and cycle charges
//! within 1% — over randomized primitive sequences.
//!
//! This pins the decoupled request path against the blocking one: any
//! drift in retry accounting, response routing, or EMS servicing order
//! between the two front ends shows up here.

use hypertee_repro::fabric::message::{Primitive, Privilege, Response, Status};
use hypertee_repro::hypertee::machine::{Machine, MachineResult};
use hypertee_repro::sim::config::SocConfig;

/// Minimal deterministic RNG (xorshift64*), independent of the machine's.
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

/// One randomized primitive call: everything needed to replay it on both
/// machines identically.
struct Call {
    primitive: Primitive,
    args: Vec<u64>,
    payload: Vec<u8>,
}

/// Builds a randomized but always-gate-clean lifecycle schedule from
/// OS-privilege primitives only (identity-gated calls would need real
/// context switches, which sit outside the request path under test).
///
/// The schedule stages EADD images through `machine`'s OS allocator; run
/// against two machines booted from the same seed, the allocation replay
/// is identical, so the frame numbers baked into the args match too.
fn schedule(seed: u64, machine: &mut Machine, rounds: usize) -> Vec<Call> {
    let mut rng = Rng(seed | 1);
    let mut calls = Vec::new();
    for round in 0..rounds {
        let heap = (1 + rng.range(8)) * 64 * 1024;
        let stack = (2 + rng.range(6)) * 4096;
        let shared = (1 + rng.range(3)) * 4096;
        let image_len = 1 + rng.range(6000);
        let image: Vec<u8> = (0..image_len).map(|i| (i % 251) as u8).collect();
        let window = machine
            .os
            .alloc_contiguous(shared.div_ceil(4096))
            .expect("window frames");
        let stage = machine
            .os
            .alloc_contiguous(image_len.div_ceil(4096))
            .expect("staging frames");
        machine
            .sys
            .phys
            .write(stage.base(), &image)
            .expect("stage image");
        calls.push(Call {
            primitive: Primitive::Ecreate,
            args: vec![heap, stack, shared, window.base().0],
            payload: vec![],
        });
        // ECREATE answers ids counting up from one on both machines.
        let eid = round as u64 + 1;
        calls.push(Call {
            primitive: Primitive::Eadd,
            args: vec![eid, 0x1000_0000, stage.base().0, image_len, 0b111],
            payload: vec![],
        });
        calls.push(Call {
            primitive: Primitive::Emeas,
            args: vec![eid],
            payload: vec![],
        });
        if rng.range(2) == 0 {
            calls.push(Call {
                primitive: Primitive::Eenter,
                args: vec![eid],
                payload: vec![],
            });
        }
        if rng.range(3) == 0 {
            calls.push(Call {
                primitive: Primitive::Ewb,
                args: vec![1 + rng.range(3)],
                payload: vec![],
            });
        }
        calls.push(Call {
            primitive: Primitive::Edestroy,
            args: vec![eid],
            payload: vec![],
        });
    }
    calls
}

#[test]
fn invoke_and_pipeline_agree() {
    for seed in [11u64, 0xd1f_f001, 0xfeed_beef] {
        let mut ma = Machine::boot(SocConfig::default(), seed).expect("boot");
        let calls_a = schedule(seed, &mut ma, 24);
        let results_a: Vec<MachineResult<Response>> = calls_a
            .iter()
            .map(|c| {
                ma.invoke_as(
                    0,
                    Privilege::Os,
                    c.primitive,
                    c.args.clone(),
                    c.payload.clone(),
                )
            })
            .collect();
        let cycles_a = ma.hart_clock(0).0;

        let mut mb = Machine::boot(SocConfig::default(), seed).expect("boot");
        let calls_b = schedule(seed, &mut mb, 24);
        assert_eq!(
            calls_a.len(),
            calls_b.len(),
            "schedules must replay identically"
        );
        let results_b: Vec<MachineResult<Response>> = calls_b
            .iter()
            .map(|c| {
                let call = mb
                    .submit_as(
                        0,
                        Privilege::Os,
                        c.primitive,
                        c.args.clone(),
                        c.payload.clone(),
                    )
                    .expect("gate accepts OS submission");
                loop {
                    mb.pump();
                    if let Some(done) = mb.take_completion(call) {
                        return done.result;
                    }
                }
            })
            .collect();
        let cycles_b = mb.hart_clock(0).0;

        let mut ok = 0;
        for (i, (a, b)) in results_a.iter().zip(&results_b).enumerate() {
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        (ra.status, &ra.vals, &ra.payload),
                        (rb.status, &rb.vals, &rb.payload),
                        "seed {seed:#x}: call {i} ({:?}) answered differently",
                        calls_a[i].primitive
                    );
                    if ra.status == Status::Ok {
                        ok += 1;
                    }
                }
                (Err(ea), Err(eb)) => assert_eq!(
                    format!("{ea:?}"),
                    format!("{eb:?}"),
                    "seed {seed:#x}: call {i} failed differently"
                ),
                _ => panic!(
                    "seed {seed:#x}: call {i} ({:?}): invoke answered {a:?}, pipeline {b:?}",
                    calls_a[i].primitive
                ),
            }
        }
        assert!(
            ok > 50,
            "seed {seed:#x}: schedule too trivial ({ok} Ok calls)"
        );

        // Cycle charges must agree within 1% — same polls, same retries,
        // same mailbox round trips on both front ends.
        let (lo, hi) = (cycles_a.min(cycles_b) as f64, cycles_a.max(cycles_b) as f64);
        assert!(
            hi <= lo * 1.01,
            "seed {seed:#x}: cycle charges drifted: invoke {cycles_a} vs pipeline {cycles_b}"
        );
    }
}
