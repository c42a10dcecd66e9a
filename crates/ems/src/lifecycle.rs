//! Enclave life-cycle primitives: ECREATE, EADD, EMEAS, EENTER, ERESUME,
//! EEXIT, EDESTROY (Table II, §IV-A).

use crate::control::{layout, EnclaveConfig, EnclaveControl, EnclaveState};
use crate::error::{EmsError, EmsResult};
use crate::runtime::{Ems, EmsContext};
use crate::txn::{Fill, Leaf, Txn, UndoOp};
use hypertee_mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::ownership::{EnclaveId, PageOwner};
use hypertee_mem::pagetable::{PageTable, Perms};

/// Decodes the perm-bits argument of EADD and the SHM primitives
/// (bit 0 = R, bit 1 = W, bit 2 = X; always user-accessible).
pub(crate) fn perms_from_bits(bits: u8) -> Perms {
    Perms {
        r: bits & 1 != 0,
        w: bits & 2 != 0,
        x: bits & 4 != 0,
        u: true,
    }
}

impl Ems {
    /// ECREATE: builds a new enclave — dedicated page table in enclave
    /// memory, fresh KeyID and derived keys, statically allocated stack, and
    /// the HostApp shared window (§IV-A "Data movement between HostApp and
    /// Enclave").
    ///
    /// `host_shared_pa` is the page-aligned base of the OS-provided frames
    /// backing the shared window (plaintext, *not* enclave memory).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unaligned/oversized configs, `Exhausted` when
    /// frames or KeyIDs run out, `AccessDenied` when the proposed host
    /// window overlaps enclave memory.
    pub fn ecreate(
        &mut self,
        ctx: &mut EmsContext<'_>,
        config: EnclaveConfig,
        host_shared_pa: u64,
    ) -> EmsResult<EnclaveId> {
        // Sanity checks (§III-B ③).
        if !host_shared_pa.is_multiple_of(PAGE_SIZE)
            || config.heap_max > (layout::HOST_SHARED_BASE.0 - layout::HEAP_BASE.0)
            || config.stack_bytes > (layout::HEAP_BASE.0 - layout::STACK_BASE.0)
            || config.host_shared_bytes > (layout::SHM_BASE.0 - layout::HOST_SHARED_BASE.0)
        {
            return Err(EmsError::InvalidArgument);
        }
        let stack_pages = config.stack_bytes.div_ceil(PAGE_SIZE);
        let host_pages = config.host_shared_bytes.div_ceil(PAGE_SIZE);
        // The host window must not point at enclave memory.
        for i in 0..host_pages {
            let ppn = Ppn(host_shared_pa / PAGE_SIZE + i);
            if self.pool_bitmap_is_enclave(ctx, ppn)? {
                return Err(EmsError::AccessDenied);
            }
        }

        let eid = self.fresh_eid();
        self.transact(ctx, None, |ems, ctx, txn| {
            txn.arm(&mut ems.injector);
            let key = ems.alloc_keyid(ctx)?;
            // The brand-new table is discarded wholesale on failure, so —
            // unlike EALLOC/EADD on a live table — *everything* here rolls
            // back, the KeyID included. (A victim suspended by `alloc_keyid`
            // stays suspended; ERESUME revives it.)
            txn.record(UndoOp::ReleaseKey(key));
            let nonce = ems.rng.gen_bytes32();
            let (aes, mac) = ems.vault.enclave_memory_keys(eid.0, &nonce);
            ctx.hub
                .ems_program_key(&ems.cap, &mut ctx.sys.engine, key, &aes, &mac);

            // Stage frames for the page-table skeleton plus per-region leaves.
            let pt_budget = 6 + stack_pages.div_ceil(512) + host_pages.div_ceil(512);
            let ((table, data_frames), pt_frames) =
                ems.with_staged(ctx, txn, pt_budget, None, |ems, ctx, txn, staged| {
                    let table = PageTable::try_new(staged, &mut ctx.sys.phys)?;
                    // Statically allocate and map the stack (enclave-encrypted).
                    let mut data_frames = Vec::with_capacity(stack_pages as usize);
                    for i in 0..stack_pages {
                        let leaf = Leaf {
                            table,
                            va: VirtAddr(layout::STACK_BASE.0 + i * PAGE_SIZE),
                            perms: Perms::RW,
                        };
                        let owner = PageOwner::Enclave(eid);
                        let stage = Some((&mut *staged, leaf));
                        data_frames.push(ems.take_page(ctx, txn, owner, key, Fill::Zero, stage)?);
                    }
                    // Map the HostApp shared window (plaintext KeyID 0). The
                    // frames are the OS's, so nothing to undo beyond
                    // discarding the table.
                    for i in 0..host_pages {
                        txn.step()?;
                        let leaf = Leaf {
                            table,
                            va: VirtAddr(layout::HOST_SHARED_BASE.0 + i * PAGE_SIZE),
                            perms: Perms::RW,
                        };
                        let ppn = Ppn(host_shared_pa / PAGE_SIZE + i);
                        staged.map(ctx, txn, leaf, ppn, KeyId::HOST)?;
                    }
                    Ok((table, data_frames))
                })?;
            let mut control = EnclaveControl::new(eid, table, pt_frames, key, nonce, config);
            control.data_frames = data_frames;
            ems.enclaves.insert(eid.0, control);
            Ok(eid)
        })
    }

    fn pool_bitmap_is_enclave(&mut self, ctx: &mut EmsContext<'_>, ppn: Ppn) -> EmsResult<bool> {
        Ok(ctx.sys.bitmap.is_enclave(ppn, &mut ctx.sys.phys)?)
    }

    /// EADD: copies `len` bytes from CS memory at `src_pa` into the enclave
    /// at `dest_va`, mapping fresh enclave pages with `perm_bits`
    /// (bit 0 = R, 1 = W, 2 = X), and extends the measurement.
    ///
    /// # Errors
    ///
    /// `BadState` after measurement, `InvalidArgument` for bad ranges.
    pub fn eadd(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
        dest_va: u64,
        src_pa: u64,
        len: u64,
        perm_bits: u8,
    ) -> EmsResult<()> {
        let enclave = self.enclave(eid)?;
        if enclave.state != EnclaveState::Building {
            return Err(EmsError::BadState);
        }
        if !dest_va.is_multiple_of(PAGE_SIZE)
            || len == 0
            || dest_va < layout::CODE_BASE.0
            || dest_va
                .checked_add(len)
                .is_none_or(|end| end > layout::STACK_BASE.0)
        {
            return Err(EmsError::InvalidArgument);
        }
        let key = enclave.key.ok_or(EmsError::BadState)?;
        let table = enclave.page_table;
        let pages = len.div_ceil(PAGE_SIZE);
        let perms = perms_from_bits(perm_bits);
        let pt_budget = 2 + pages.div_ceil(512);
        let owner = PageOwner::Enclave(EnclaveId(eid));
        let (added, _) = self.transact(ctx, Some(eid), |ems, ctx, txn| {
            ems.with_staged(ctx, txn, pt_budget, Some(eid), |ems, ctx, txn, staged| {
                txn.arm(&mut ems.injector);
                let mut added = Vec::with_capacity(pages as usize);
                for i in 0..pages {
                    let va = VirtAddr(dest_va + i * PAGE_SIZE);
                    let mut page = vec![0u8; PAGE_SIZE as usize];
                    let fill = Fill::FromCs {
                        src: PhysAddr(src_pa + i * PAGE_SIZE),
                        len: (len - i * PAGE_SIZE).min(PAGE_SIZE) as usize,
                        page: &mut page,
                    };
                    let leaf = Leaf { table, va, perms };
                    let frame =
                        ems.take_page(ctx, txn, owner, key, fill, Some((&mut *staged, leaf)))?;
                    added.push((va, frame, page));
                }
                Ok(added)
            })
        })?;
        // The measurement extends only after every page landed — a
        // rolled-back EADD must leave the measurement untouched so the
        // retried request reproduces the same digest.
        let enclave = self.enclave_mut(eid)?;
        for (va, frame, data) in added {
            enclave.extend_measurement(va, perm_bits, &data);
            enclave.data_frames.push(frame);
        }
        Ok(())
    }

    /// EMEAS: finalises the measurement and moves the enclave to `Measured`.
    ///
    /// # Errors
    ///
    /// `BadState` unless the enclave is still building.
    pub fn emeas(&mut self, eid: u64) -> EmsResult<[u8; 32]> {
        let enclave = self.enclave_mut(eid)?;
        if enclave.state != EnclaveState::Building {
            return Err(EmsError::BadState);
        }
        let digest = enclave.finalize_measurement();
        enclave.state = EnclaveState::Measured;
        Ok(digest)
    }

    /// EENTER: transitions to `Running` and returns what EMCall needs for
    /// the atomic context switch: page-table root, entry PC, KeyID.
    ///
    /// # Errors
    ///
    /// `BadState` unless the enclave is `Measured` or `Stopped`.
    pub fn eenter(
        &mut self,
        _ctx: &mut EmsContext<'_>,
        eid: u64,
    ) -> EmsResult<(Ppn, VirtAddr, KeyId)> {
        let enclave = self.enclave_mut(eid)?;
        match enclave.state {
            EnclaveState::Measured | EnclaveState::Stopped => {}
            _ => return Err(EmsError::BadState),
        }
        let key = enclave.key.ok_or(EmsError::BadState)?;
        enclave.state = EnclaveState::Running;
        enclave.switches += 1;
        Ok((enclave.page_table.root, enclave.entry, key))
    }

    /// ERESUME: like EENTER but also revives `Suspended` enclaves by
    /// re-deriving and re-programming their memory key under a fresh KeyID
    /// (§IV-C KeyID exhaustion recovery).
    ///
    /// # Errors
    ///
    /// `BadState` unless `Stopped` or `Suspended`.
    pub fn eresume(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
    ) -> EmsResult<(Ppn, VirtAddr, KeyId)> {
        let state = self.enclave(eid)?.state;
        match state {
            EnclaveState::Stopped => self.eenter(ctx, eid),
            EnclaveState::Suspended => {
                let key = self.alloc_keyid(ctx)?;
                let (nonce, table_root, prev_key) = {
                    let e = self.enclave(eid)?;
                    (
                        e.key_nonce,
                        e.page_table,
                        e.prev_key.ok_or(EmsError::BadState)?,
                    )
                };
                let (aes, mac) = self.vault.enclave_memory_keys(eid, &nonce);
                ctx.hub
                    .ems_program_key(&self.cap, &mut ctx.sys.engine, key, &aes, &mac);
                // Rewrite the fresh KeyID into the enclave's own leaf PTEs.
                // Host-window (KeyID 0) and shared-memory PTEs keep theirs.
                let mappings = table_root.mappings(&mut ctx.sys.phys)?;
                for (va, pte) in mappings {
                    if pte.key() == prev_key {
                        table_root.unmap(va, &mut ctx.sys.phys)?;
                        table_root.map_raw(va, pte.ppn(), pte.perms(), key, &mut ctx.sys.phys)?;
                    }
                }
                let enclave = self.enclave_mut(eid)?;
                enclave.key = Some(key);
                enclave.prev_key = None;
                enclave.state = EnclaveState::Running;
                enclave.switches += 1;
                Ok((enclave.page_table.root, enclave.entry, key))
            }
            _ => Err(EmsError::BadState),
        }
    }

    /// EEXIT: transitions `Running` → `Stopped`.
    ///
    /// # Errors
    ///
    /// `BadState` unless running.
    pub fn eexit(&mut self, eid: u64) -> EmsResult<()> {
        let enclave = self.enclave_mut(eid)?;
        if enclave.state != EnclaveState::Running {
            return Err(EmsError::BadState);
        }
        enclave.state = EnclaveState::Stopped;
        enclave.switches += 1;
        Ok(())
    }

    /// EDESTROY: reclaims every page (zeroed back into the pool), releases
    /// ownership, revokes the key, and removes the control structure. Shared
    /// regions the enclave was attached to are detached; regions it created
    /// are destroyed once no connections remain.
    ///
    /// Destruction is *resumable* rather than transactional: there is no
    /// useful state to roll back to (the enclave is going away either way),
    /// so a mid-destroy abort marks the enclave poisoned and a retried
    /// EDESTROY simply continues from the first unreclaimed frame. The
    /// control structure — and the poison mark — go away only at the end.
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown enclaves; `Aborted` on an injected
    /// mid-destroy fault (retry to finish the teardown).
    pub fn edestroy(&mut self, ctx: &mut EmsContext<'_>, eid: u64) -> EmsResult<()> {
        // Deliberately NOT `self.enclave()`: EDESTROY is the one primitive a
        // poisoned enclave still accepts.
        if !self.enclaves.contains_key(&eid) {
            return Err(EmsError::NotFound);
        }
        // A poisoned enclave's structures may already disagree; reclaim what
        // can be reclaimed instead of erroring out of the teardown.
        let tolerant = self.is_poisoned(eid);
        let mut txn = Txn::default();
        txn.arm(&mut self.injector);
        // Detach from any shared regions (idempotent: a resumed destroy
        // finds the attachments already gone).
        let shm_ids: Vec<u64> = self.shms.keys().copied().collect();
        for sid in shm_ids {
            let Some(shm) = self.shms.get_mut(&sid) else {
                continue;
            };
            if shm.attached.remove(&eid).is_some() {
                shm.active_connections = shm.active_connections.saturating_sub(1);
            }
            let (creator, active) = (shm.creator, shm.active_connections);
            if creator == EnclaveId(eid) && active == 0 {
                self.destroy_shm_internal(ctx, sid)?;
            }
        }
        // Reclaim data pages, popping each frame only once it is fully
        // reclaimed so a resumed destroy continues exactly where it stopped.
        self.reclaim_frames(ctx, &mut txn, eid, false, tolerant)?;
        // Reclaim page-table pages the same way.
        self.reclaim_frames(ctx, &mut txn, eid, true, tolerant)?;
        let Some(enclave) = self.enclaves.remove(&eid) else {
            return Err(EmsError::NotFound);
        };
        if let Some(key) = enclave.key {
            ctx.hub.ems_revoke_key(&self.cap, &mut ctx.sys.engine, key);
            self.free_keyid(key);
        }
        self.unpoison(eid);
        Ok(())
    }

    /// Incrementally reclaims one of an enclave's frame lists (`pt` selects
    /// page-table frames over data frames). On an injected abort the enclave
    /// is poisoned and the list keeps its unreclaimed tail for the retry.
    fn reclaim_frames(
        &mut self,
        ctx: &mut EmsContext<'_>,
        txn: &mut Txn,
        eid: u64,
        pt: bool,
        tolerant: bool,
    ) -> EmsResult<()> {
        let owner = if pt {
            PageOwner::EmsPrivate
        } else {
            PageOwner::Enclave(EnclaveId(eid))
        };
        loop {
            let frame = {
                let Some(e) = self.enclaves.get(&eid) else {
                    return Err(EmsError::NotFound);
                };
                let list = if pt { &e.pt_frames } else { &e.data_frames };
                match list.last() {
                    Some(f) => *f,
                    None => return Ok(()),
                }
            };
            if txn.step().is_err() {
                self.poison(eid);
                return Err(EmsError::Aborted);
            }
            match self.ownership.release(frame, owner) {
                Ok(()) => self.pool.give_back(frame, ctx.sys)?,
                Err(_) if tolerant => {} // structures disagree; skip the frame
                Err(_) => return Err(EmsError::AccessDenied),
            }
            if let Some(e) = self.enclaves.get_mut(&eid) {
                let list = if pt {
                    &mut e.pt_frames
                } else {
                    &mut e.data_frames
                };
                list.pop();
            }
        }
    }
}
