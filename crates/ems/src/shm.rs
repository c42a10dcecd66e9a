//! Enclave communication management: shared enclave memory (§V).
//!
//! Covers the paper's three challenges: ① key assignment (keys derived from
//! the initial sender's EnclaveID and the EMS-assigned ShmID, with
//! registration through the *legal connection list* to stop brute-force
//! ShmID guessing), ② page sharing through the ownership table without
//! weakening isolation, and ③ access control (per-receiver permissions,
//! identity + active-connection checks on release, DMA whitelist windows
//! for peripherals).

use crate::control::EnclaveState;
use crate::error::{EmsError, EmsResult};
use crate::lifecycle::perms_from_bits;
use crate::runtime::{Ems, EmsContext};
use crate::txn::{Fill, Leaf, UndoOp};
use hypertee_fabric::dma::{DeviceId, DmaPerm, DmaWindow};
use hypertee_mem::addr::{KeyId, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::ownership::{EnclaveId, PageOwner, ShmId};
use hypertee_mem::pagetable::Perms;
use std::collections::BTreeMap;

/// The *shm control structure* (§V-C): everything EMS records about one
/// shared region.
#[derive(Debug)]
pub struct ShmControl {
    /// EMS-assigned identifier.
    pub(crate) id: ShmId,
    /// The initial sender (creator); the only identity allowed to destroy
    /// the region or change permissions.
    pub(crate) creator: EnclaveId,
    /// Physical frames of the region.
    pub frames: Vec<Ppn>,
    /// The dedicated encryption KeyID (KeyID 0 for device-shared plaintext
    /// regions protected by bitmap + whitelist instead).
    pub(crate) key: KeyId,
    /// Maximum permission any receiver may be granted.
    pub(crate) max_perm: Perms,
    /// The legal connection list: enclaveID → granted permission.
    pub(crate) legal: BTreeMap<u64, Perms>,
    /// Currently attached enclaves and their mapping base VA.
    pub(crate) attached: BTreeMap<u64, VirtAddr>,
    /// Active connection count (gates ESHMDES).
    pub(crate) active_connections: u64,
}

impl Ems {
    /// ESHMGET: creates a shared region of `bytes`, owned by `creator`.
    /// `max_perm_bits` bounds what receivers may ever be granted
    /// (bit 0 = R, bit 1 = W). `device_shared` selects a plaintext region
    /// for enclave↔peripheral communication (protected by the bitmap and
    /// the DMA whitelist; devices cannot decrypt MKTME traffic).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for zero/oversized regions, `Exhausted` when
    /// frames or KeyIDs run out.
    pub fn eshmget(
        &mut self,
        ctx: &mut EmsContext<'_>,
        creator: u64,
        bytes: u64,
        max_perm_bits: u8,
        device_shared: bool,
    ) -> EmsResult<u64> {
        self.enclave(creator)?;
        if bytes == 0 || bytes > 64 * 1024 * 1024 {
            return Err(EmsError::InvalidArgument);
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        let shmid = ShmId(self.fresh_shmid());
        // Key assignment: derived from the initial sender's EnclaveID and
        // the ShmID (§V-A), programmed straight into the engine via iHub.
        let owner = PageOwner::Shared(shmid);
        let (key, frames) = self.transact(ctx, None, |ems, ctx, txn| {
            let key = if device_shared {
                KeyId::HOST
            } else {
                let key = ems.alloc_keyid(ctx)?;
                txn.record(UndoOp::ReleaseKey(key));
                let (aes, mac) = ems.vault.shm_keys(creator, shmid.0);
                ctx.hub
                    .ems_program_key(&ems.cap, &mut ctx.sys.engine, key, &aes, &mac);
                key
            };
            // Initialise through the region key so integrity MACs exist.
            let mut frames = Vec::with_capacity(pages as usize);
            for _ in 0..pages {
                frames.push(ems.take_page(ctx, txn, owner, key, Fill::Zero, None)?);
            }
            Ok((key, frames))
        })?;
        let max_perm = perms_from_bits(max_perm_bits & 0b011);
        let mut legal = BTreeMap::new();
        legal.insert(creator, max_perm);
        self.shms.insert(
            shmid.0,
            ShmControl {
                id: shmid,
                creator: EnclaveId(creator),
                frames,
                key,
                max_perm,
                legal,
                attached: BTreeMap::new(),
                active_connections: 0,
            },
        );
        Ok(shmid.0)
    }

    /// ESHMSHR: the creator registers (or updates) a receiver on the legal
    /// connection list with permission `perm_bits` ≤ the region maximum.
    /// Registration-before-attach is the §V-A defence against brute-force
    /// ShmID guessing. If the receiver is already attached, its page-table
    /// permissions are updated in place (§V-C permission management).
    ///
    /// # Errors
    ///
    /// `AccessDenied` unless called by the creator or when `perm` exceeds
    /// the maximum; `NotFound` for unknown regions/enclaves.
    pub fn eshmshr(
        &mut self,
        ctx: &mut EmsContext<'_>,
        sender: u64,
        shmid: u64,
        receiver: u64,
        perm_bits: u8,
    ) -> EmsResult<()> {
        self.enclave(receiver)?;
        let receiver_table = self.enclave(receiver)?.page_table;
        let shm = self.shms.get_mut(&shmid).ok_or(EmsError::NotFound)?;
        if shm.creator != EnclaveId(sender) {
            return Err(EmsError::AccessDenied);
        }
        let perm = perms_from_bits(perm_bits & 0b011);
        if (perm.w && !shm.max_perm.w) || (perm.r && !shm.max_perm.r) {
            return Err(EmsError::AccessDenied);
        }
        shm.legal.insert(receiver, perm);
        // Propagate to live mappings.
        if let Some(&base) = shm.attached.get(&receiver) {
            for i in 0..shm.frames.len() as u64 {
                receiver_table.protect(
                    VirtAddr(base.0 + i * PAGE_SIZE),
                    perm,
                    &mut ctx.sys.phys,
                )?;
            }
        }
        Ok(())
    }

    /// ESHMAT: attaches a registered enclave to a shared region. The caller
    /// supplies the initial sender's EnclaveID alongside the ShmID (the two
    /// identifiers exchanged during local attestation, §V-A); both must
    /// match EMS records.
    ///
    /// # Errors
    ///
    /// `AccessDenied` for unregistered receivers or a wrong sender ID;
    /// `BadState` when already attached.
    pub fn eshmat(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
        shmid: u64,
        sender: u64,
    ) -> EmsResult<(VirtAddr, u64)> {
        let enclave = self.enclave(eid)?;
        if enclave.state == EnclaveState::Suspended {
            return Err(EmsError::BadState);
        }
        let table = enclave.page_table;
        let base = enclave.shm_cursor;
        let (frames, key, perm) = {
            let shm = self.shms.get(&shmid).ok_or(EmsError::NotFound)?;
            if shm.creator != EnclaveId(sender) {
                return Err(EmsError::AccessDenied);
            }
            let perm = *shm.legal.get(&eid).ok_or(EmsError::AccessDenied)?;
            if shm.attached.contains_key(&eid) {
                return Err(EmsError::BadState);
            }
            (shm.frames.clone(), shm.key, perm)
        };
        let pages = frames.len() as u64;
        let pt_budget = 2 + pages.div_ceil(512);
        self.transact(ctx, Some(eid), |ems, ctx, txn| {
            ems.with_staged(ctx, txn, pt_budget, Some(eid), |_, ctx, txn, staged| {
                for (i, &frame) in frames.iter().enumerate() {
                    let leaf = Leaf {
                        table,
                        va: VirtAddr(base.0 + i as u64 * PAGE_SIZE),
                        perms: perm,
                    };
                    staged.map(ctx, txn, leaf, frame, key)?;
                }
                Ok(())
            })
        })?;
        let enclave = self.enclave_mut(eid)?;
        enclave.shm_cursor = VirtAddr(base.0 + pages * PAGE_SIZE);
        let shm = self.shms.get_mut(&shmid).expect("checked above");
        shm.attached.insert(eid, base);
        shm.active_connections += 1;
        Ok((base, pages))
    }

    /// ESHMDT: detaches an enclave from a region, unmapping its pages and
    /// decrementing the active-connection count.
    ///
    /// # Errors
    ///
    /// `NotFound` when the enclave is not attached.
    pub fn eshmdt(&mut self, ctx: &mut EmsContext<'_>, eid: u64, shmid: u64) -> EmsResult<()> {
        let table = self.enclave(eid)?.page_table;
        let shm = self.shms.get_mut(&shmid).ok_or(EmsError::NotFound)?;
        let base = shm.attached.remove(&eid).ok_or(EmsError::NotFound)?;
        shm.active_connections = shm.active_connections.saturating_sub(1);
        let pages = shm.frames.len() as u64;
        for i in 0..pages {
            table.unmap(VirtAddr(base.0 + i * PAGE_SIZE), &mut ctx.sys.phys)?;
        }
        Ok(())
    }

    /// ESHMDES: destroys a region. Only the *initial sender* may do so, and
    /// only when no active connections remain (§V-C, "Identity and active
    /// connection check to prevent malicious release").
    ///
    /// # Errors
    ///
    /// `AccessDenied` for non-creators, `BadState` while attached.
    pub fn eshmdes(&mut self, ctx: &mut EmsContext<'_>, eid: u64, shmid: u64) -> EmsResult<()> {
        {
            let shm = self.shms.get(&shmid).ok_or(EmsError::NotFound)?;
            if shm.creator != EnclaveId(eid) {
                return Err(EmsError::AccessDenied);
            }
            if shm.active_connections > 0 {
                return Err(EmsError::BadState);
            }
        }
        self.destroy_shm_internal(ctx, shmid)
    }

    pub(crate) fn destroy_shm_internal(
        &mut self,
        ctx: &mut EmsContext<'_>,
        shmid: u64,
    ) -> EmsResult<()> {
        let shm = self.shms.remove(&shmid).ok_or(EmsError::NotFound)?;
        for frame in shm.frames {
            self.ownership
                .release(frame, PageOwner::Shared(shm.id))
                .map_err(|_| EmsError::AccessDenied)?;
            self.pool.give_back(frame, ctx.sys)?;
        }
        if shm.key.is_encrypted() {
            ctx.hub
                .ems_revoke_key(&self.cap, &mut ctx.sys.engine, shm.key);
            self.free_keyid(shm.key);
        }
        Ok(())
    }

    /// Grants a peripheral DMA access to a *device-shared* region
    /// (enclave↔peripheral communication, §V-B). Only the driver enclave —
    /// which must be on the region's legal connection list — may configure
    /// this, and the whitelist windows cover exactly the region's frames.
    ///
    /// # Errors
    ///
    /// `AccessDenied` for non-participants or encrypted regions (a device
    /// cannot decrypt MKTME traffic — create the region with
    /// `device_shared`), `NotFound` for unknown regions.
    pub fn eshm_grant_device(
        &mut self,
        ctx: &mut EmsContext<'_>,
        driver: u64,
        shmid: u64,
        dev: DeviceId,
        writeable: bool,
    ) -> EmsResult<()> {
        let shm = self.shms.get(&shmid).ok_or(EmsError::NotFound)?;
        if !shm.legal.contains_key(&driver) {
            return Err(EmsError::AccessDenied);
        }
        if shm.key.is_encrypted() {
            return Err(EmsError::AccessDenied);
        }
        let perm = if writeable {
            DmaPerm::ReadWrite
        } else {
            DmaPerm::ReadOnly
        };
        for frame in &shm.frames {
            ctx.hub.ems_grant_dma(
                &self.cap,
                dev,
                DmaWindow {
                    base: frame.base(),
                    size: PAGE_SIZE,
                    perm,
                },
            );
        }
        Ok(())
    }

    /// Revokes all DMA windows of a device (driver teardown).
    pub fn eshm_revoke_device(&mut self, ctx: &mut EmsContext<'_>, dev: DeviceId) {
        ctx.hub.ems_revoke_dma(&self.cap, dev);
    }

    /// Attaches an *IOMMU-translated* device (e.g. a GPU, §IX) to a
    /// device-shared region: EMS installs one IOMMU mapping per frame at
    /// consecutive I/O virtual pages starting at `iova_base`, and returns
    /// the number of pages mapped. The device then addresses the region
    /// through I/O virtual addresses; everything outside faults in the
    /// IOMMU.
    ///
    /// # Errors
    ///
    /// Same access rules as [`Ems::eshm_grant_device`].
    pub fn eshm_attach_iommu_device(
        &mut self,
        ctx: &mut EmsContext<'_>,
        driver: u64,
        shmid: u64,
        dev: DeviceId,
        iova_base: hypertee_fabric::iommu::IoVpn,
        writeable: bool,
    ) -> EmsResult<u64> {
        let shm = self.shms.get(&shmid).ok_or(EmsError::NotFound)?;
        if !shm.legal.contains_key(&driver) {
            return Err(EmsError::AccessDenied);
        }
        if shm.key.is_encrypted() {
            return Err(EmsError::AccessDenied);
        }
        let perm = if writeable {
            DmaPerm::ReadWrite
        } else {
            DmaPerm::ReadOnly
        };
        for (i, frame) in shm.frames.iter().enumerate() {
            ctx.hub.ems_iommu_map(
                &self.cap,
                dev,
                hypertee_fabric::iommu::IoVpn(iova_base.0 + i as u64),
                hypertee_fabric::iommu::IommuEntry { ppn: *frame, perm },
            );
        }
        Ok(shm.frames.len() as u64)
    }

    /// Detaches an IOMMU device entirely (all its mappings + IOTLB state).
    pub fn eshm_detach_iommu_device(&mut self, ctx: &mut EmsContext<'_>, dev: DeviceId) {
        ctx.hub.ems_iommu_detach(&self.cap, dev);
    }

    /// Read access to a region's control data for tests and the SDK layer.
    pub fn shm(&self, shmid: u64) -> Option<&ShmControl> {
        self.shms.get(&shmid)
    }
}
