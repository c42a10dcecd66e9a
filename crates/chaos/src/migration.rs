//! Live CVM migration under load, with measured blackout windows.
//!
//! The campaign machine doubles as the *source* node: a CVM is deployed on
//! its EMS (taking frames from the same pool the enclave fleet competes
//! for), loaded with recognizable state, and exported with
//! [`Ems::migrate_out`] while the open-loop traffic keeps pumping. After a
//! transfer dwell the bundle is installed on a separate *destination* node
//! with [`Ems::migrate_in`] and the state is read back and verified. The
//! blackout window is the source machine's clock advance between export
//! and verified install — i.e. how much fleet time passed while the CVM
//! was in neither place — which the campaign reports as p50/p99.
//!
//! [`Ems::migrate_out`]: hypertee_ems::runtime::Ems
//! [`Ems::migrate_in`]: hypertee_ems::runtime::Ems

use hypertee::machine::Machine;
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_ems::cvm::{MigrationBundle, MigrationOfferPriv};
use hypertee_ems::keys::EFuse;
use hypertee_ems::runtime::{Ems, EmsContext};
use hypertee_fabric::ihub::IHub;
use hypertee_mem::addr::{PhysAddr, Ppn, PAGE_SIZE};
use hypertee_mem::phys::FrameAllocator;
use hypertee_mem::system::MemorySystem;

/// Guest pages per migrated CVM.
const GUEST_PAGES: u64 = 8;
/// Offset of the verification state inside guest memory.
const STATE_OFFSET: u64 = 2 * PAGE_SIZE;
/// The image key the VM owner negotiated with the EMS out of band.
const IMAGE_KEY: [u8; 16] = *b"chaos-vm-img-key";

/// A standalone destination node (EMS + memory), standing in for a second
/// HyperTEE server.
struct DestNode {
    sys: MemorySystem,
    hub: IHub,
    os: FrameAllocator,
    ems: Ems,
}

impl DestNode {
    fn boot(seed: u64) -> DestNode {
        let sys = MemorySystem::new(64 << 20, PhysAddr(0x10_000));
        let (hub, cap) = IHub::new();
        let os = FrameAllocator::new(Ppn(256), Ppn(15_000));
        let mut rng = ChaChaRng::from_u64(seed);
        let efuse = EFuse::burn(&mut rng);
        DestNode {
            sys,
            hub,
            os,
            ems: Ems::new(cap, efuse, [0xDD; 32], seed),
        }
    }

    fn with<R>(&mut self, f: impl FnOnce(&mut Ems, &mut EmsContext<'_>) -> R) -> R {
        let mut ctx = EmsContext {
            sys: &mut self.sys,
            hub: &mut self.hub,
            os_frames: &mut self.os,
        };
        f(&mut self.ems, &mut ctx)
    }
}

/// A CVM exported from the source and awaiting install: the wire bundle,
/// the destination's channel secret, and the state bytes that must be
/// intact after the move.
pub(crate) struct PendingMigration {
    bundle: MigrationBundle,
    offer_priv: MigrationOfferPriv,
    expect: Vec<u8>,
}

/// Runs the campaign's migrations and accumulates their measurements.
pub(crate) struct MigrationEngine {
    dest: DestNode,
    /// Blackout windows (source-clock cycles) of completed migrations.
    pub(crate) blackouts: Vec<u64>,
    /// Migrations whose state arrived verified and intact.
    pub(crate) completed: u32,
    /// Migrations that failed at any step.
    pub(crate) failed: u32,
}

impl MigrationEngine {
    /// Boots the destination node from `seed`.
    pub(crate) fn new(seed: u64) -> MigrationEngine {
        MigrationEngine {
            dest: DestNode::boot(seed),
            blackouts: Vec::new(),
            completed: 0,
            failed: 0,
        }
    }

    /// Source-side half: deploy a CVM on the (busy) campaign machine,
    /// write recognizable state, attest the destination, and export the
    /// bundle. Returns `None` (and counts a failure) if any step refuses —
    /// e.g. pool pressure from the enclave fleet.
    pub(crate) fn start(&mut self, m: &mut Machine, tag: u64) -> Option<PendingMigration> {
        let plain: Vec<u8> = (0..1024u64)
            .map(|i| (i.wrapping_mul(13) ^ tag.wrapping_mul(101) ^ 0x3c) as u8)
            .collect();
        let mut encrypted = plain;
        Aes128::new(&IMAGE_KEY).ctr_apply(&ctr_iv(0x4356_4d49, 0), &mut encrypted);
        let state = format!("chaos migration #{tag:04}: fleet state intact").into_bytes();

        let mut ctx = EmsContext {
            sys: &mut m.sys,
            hub: &mut m.hub,
            os_frames: &mut m.os,
        };
        let cvm = match m
            .ems
            .cvm_create(&mut ctx, &encrypted, &IMAGE_KEY, GUEST_PAGES)
        {
            Ok(id) => id,
            Err(_) => {
                self.failed += 1;
                return None;
            }
        };
        if m.ems
            .cvm_write(&mut ctx, cvm, STATE_OFFSET, &state)
            .is_err()
        {
            let _ = m.ems.cvm_destroy(&mut ctx, cvm);
            self.failed += 1;
            return None;
        }
        let (offer, offer_priv) = self.dest.ems.migration_offer();
        let dest_ek = self.dest.ems.ek_public();
        let bundle = match m.ems.migrate_out(&mut ctx, cvm, &offer, &dest_ek) {
            Ok(b) => b,
            Err(_) => {
                let _ = m.ems.cvm_destroy(&mut ctx, cvm);
                self.failed += 1;
                return None;
            }
        };
        // The local control structure is a migrated-out husk (its frames
        // and KeyID were already released by the snapshot): drop it so the
        // fleet gets the id space back.
        let _ = m.ems.cvm_destroy(&mut ctx, cvm);
        Some(PendingMigration {
            bundle,
            offer_priv,
            expect: state,
        })
    }

    /// Destination-side half: install the bundle, read the state back, and
    /// record the blackout window measured by the campaign.
    pub(crate) fn finish(&mut self, p: PendingMigration, blackout: u64) {
        let installed = self
            .dest
            .with(|ems, ctx| ems.migrate_in(ctx, &p.bundle, &p.offer_priv));
        let id = match installed {
            Ok(id) => id,
            Err(_) => {
                self.failed += 1;
                return;
            }
        };
        let mut got = vec![0u8; p.expect.len()];
        let read = self
            .dest
            .with(|ems, ctx| ems.cvm_read(ctx, id, STATE_OFFSET, &mut got));
        if read.is_ok() && got == p.expect {
            self.completed += 1;
            self.blackouts.push(blackout);
        } else {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_round_trip_preserves_state() {
        let mut m = Machine::boot_default();
        let mut engine = MigrationEngine::new(0x9999);
        let p = engine.start(&mut m, 1).expect("export succeeds");
        engine.finish(p, 1234);
        assert_eq!(engine.completed, 1);
        assert_eq!(engine.failed, 0);
        assert_eq!(engine.blackouts, vec![1234]);
    }

    #[test]
    fn migrations_are_deterministic_per_seed() {
        let run = |seed| {
            let mut m = Machine::boot(hypertee_sim::config::SocConfig::default(), seed).unwrap();
            let mut engine = MigrationEngine::new(seed ^ 1);
            let p = engine.start(&mut m, 7).expect("export succeeds");
            engine.finish(p, 0);
            (engine.completed, engine.failed)
        };
        assert_eq!(run(5), run(5));
    }
}
