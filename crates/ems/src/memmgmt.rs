//! Enclave memory-management primitives: EALLOC, EFREE, EWB (§IV-A).
//!
//! All three walk several structures per page (pool, ownership table,
//! bitmap, page table), so each threads a [`Txn`]: an injected abort between
//! any two mutations rolls the completed pages back and leaves the enclave
//! exactly as before the call — the caller simply retries.

use crate::control::{layout, EnclaveState};
use crate::error::{EmsError, EmsResult};
use crate::runtime::{range_end, Ems, EmsContext, StagedFrames};
use crate::txn::{Txn, UndoOp};
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_mem::addr::{KeyId, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::framehash::FrameSet;
use hypertee_mem::ownership::{EnclaveId, PageOwner};
use hypertee_mem::pagetable::{PageTable, Perms};

impl Ems {
    /// The enclave's heap cursor (next unmapped VA) and heap limit in
    /// bytes — what EMCall needs to service demand-paging faults (§IV-A).
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown enclaves.
    pub fn enclave_heap_info(&self, eid: u64) -> EmsResult<(u64, u64)> {
        let e = self.enclave(eid)?;
        Ok((e.heap_cursor.0, e.config.heap_max))
    }

    /// EALLOC: maps `bytes` of fresh, zeroed enclave heap memory from the
    /// pool. Pages come out of the pool without notifying the CS OS — the
    /// §IV-A defence against allocation-based controlled channels.
    ///
    /// Returns the base virtual address and the number of pages mapped.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for zero size or heap-limit overflow, `Exhausted`
    /// when the pool and OS are drained, `BadState` while suspended,
    /// `Aborted` (after rollback) on an injected mid-primitive fault.
    pub fn ealloc(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
        bytes: u64,
    ) -> EmsResult<(VirtAddr, u64)> {
        let enclave = self.enclave(eid)?;
        if enclave.state == EnclaveState::Suspended {
            return Err(EmsError::BadState);
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        if bytes == 0 {
            return Err(EmsError::InvalidArgument);
        }
        let base = enclave.heap_cursor;
        let heap_end = layout::HEAP_BASE.0 + enclave.config.heap_max;
        if range_end(base.0, pages).is_none_or(|end| end > heap_end) {
            return Err(EmsError::InvalidArgument);
        }
        let key = enclave.key.ok_or(EmsError::BadState)?;
        let table = enclave.page_table;

        let mut staged = StagedFrames::stage(2 + pages.div_ceil(512), &mut self.pool, ctx)?;
        let mut txn = Txn::begin(self.injector.abort_step());
        let mut frames = Vec::with_capacity(pages as usize);
        let mut err: Option<EmsError> = None;
        for i in 0..pages {
            let va = VirtAddr(base.0 + i * PAGE_SIZE);
            match self.ealloc_one(ctx, &mut staged, &mut txn, eid, va, key, table) {
                Ok(frame) => frames.push(frame),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        // Page-table branch frames woven into the live table are kept on
        // BOTH paths — success and abort alike. Reclaiming one would leave
        // an interior PTE dangling at a pool frame, corrupting whatever that
        // frame is reused for. Only leaf mappings and data frames roll back.
        let pt_frames = staged.unstage(&mut self.pool, ctx);
        for f in &pt_frames {
            if self.ownership.claim(*f, PageOwner::EmsPrivate).is_err() {
                err.get_or_insert(EmsError::AccessDenied);
            }
        }
        let enclave = self.enclave_mut(eid)?;
        enclave.pt_frames.extend(pt_frames);
        match err {
            None => {
                let enclave = self.enclave_mut(eid)?;
                enclave.data_frames.extend(frames);
                enclave.heap_cursor = VirtAddr(base.0 + pages * PAGE_SIZE);
                Ok((base, pages))
            }
            Some(e) => {
                if self.rollback(ctx, txn).is_err() {
                    self.poison(eid);
                    return Err(EmsError::BadState);
                }
                Err(e)
            }
        }
    }

    /// One EALLOC page: take → claim → zero-through-key → map, each undo
    /// logged so the reverse replay runs unmap → release → return-to-pool.
    #[allow(clippy::too_many_arguments)]
    fn ealloc_one(
        &mut self,
        ctx: &mut EmsContext<'_>,
        staged: &mut StagedFrames,
        txn: &mut Txn,
        eid: u64,
        va: VirtAddr,
        key: KeyId,
        table: PageTable,
    ) -> EmsResult<Ppn> {
        txn.step()?;
        let frame = self.pool.take(ctx.os_frames, ctx.sys)?;
        txn.record(UndoOp::ReturnToPool(frame));
        let owner = PageOwner::Enclave(EnclaveId(eid));
        self.ownership
            .claim(frame, owner)
            .map_err(|_| EmsError::AccessDenied)?;
        txn.record(UndoOp::ReleaseOwnership(frame, owner));
        // Zero through the enclave key so integrity MACs exist (§IV-A:
        // "Before being mapped, corresponding pages will be zeroed").
        let sys = &mut *ctx.sys;
        sys.engine.zero_page(&mut sys.phys, frame, key)?;
        table.map(va, frame, Perms::RW, key, staged, &mut ctx.sys.phys)?;
        txn.record(UndoOp::UnmapLeaf(table, va));
        Ok(frame)
    }

    /// EFREE: unmaps `bytes` of heap starting at `va`, zeroes the pages, and
    /// returns them to the pool (they stay enclave-marked while pooled).
    ///
    /// Runs in two phases: first every page is detached from the table and
    /// the ownership table *without touching its content*, so an abort in
    /// the middle rolls back losslessly; only then are the detached frames
    /// zeroed and pooled (the commit — past the last abort point).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unaligned or out-of-heap ranges, `AccessDenied`
    /// when a page is not owned by the enclave, `Aborted` (after rollback)
    /// on an injected mid-primitive fault.
    pub fn efree(
        &mut self,
        ctx: &mut EmsContext<'_>,
        eid: u64,
        va: u64,
        bytes: u64,
    ) -> EmsResult<()> {
        let enclave = self.enclave(eid)?;
        if !va.is_multiple_of(PAGE_SIZE) || bytes == 0 {
            return Err(EmsError::InvalidArgument);
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        if va < layout::HEAP_BASE.0
            || range_end(va, pages).is_none_or(|end| end > enclave.heap_cursor.0)
        {
            return Err(EmsError::InvalidArgument);
        }
        let table = enclave.page_table;
        let owner = PageOwner::Enclave(EnclaveId(eid));
        let mut txn = Txn::begin(self.injector.abort_step());

        // Phase ① (abortable): detach pages; content untouched.
        let mut detached = Vec::with_capacity(pages as usize);
        let mut err: Option<EmsError> = None;
        for i in 0..pages {
            let page_va = VirtAddr(va + i * PAGE_SIZE);
            if let Err(e) = txn.step() {
                err = Some(e);
                break;
            }
            let pte = match table.unmap(page_va, &mut ctx.sys.phys) {
                Ok(p) => p,
                Err(f) => {
                    err = Some(f.into());
                    break;
                }
            };
            txn.record(UndoOp::RemapLeaf(
                table,
                page_va,
                pte.ppn(),
                pte.perms(),
                pte.key(),
            ));
            if self.ownership.release(pte.ppn(), owner).is_err() {
                err = Some(EmsError::AccessDenied);
                break;
            }
            txn.record(UndoOp::RestoreOwnership(pte.ppn(), owner));
            detached.push(pte.ppn());
        }
        if let Some(e) = err {
            if self.rollback(ctx, txn).is_err() {
                self.poison(eid);
                return Err(EmsError::BadState);
            }
            return Err(e);
        }

        // Phase ② (commit): zero and pool the detached frames.
        for frame in &detached {
            self.pool.give_back(*frame, ctx.sys)?;
        }
        // Order-preserving: EDESTROY walks `data_frames` from the back.
        let detached: FrameSet<Ppn> = detached.into_iter().collect();
        let enclave = self.enclave_mut(eid)?;
        enclave.data_frames.retain(|f| !detached.contains(f));
        Ok(())
    }

    /// EWB: the CS OS asks for enclave pages to swap out. EMS selects a
    /// *randomized* number of *unused pool pages* (never live enclave
    /// pages), fills them with ciphertext indistinguishable from used
    /// enclave memory, clears their bitmap bits, and returns their physical
    /// addresses for the OS to reclaim (§IV-A swapping defence).
    ///
    /// Eviction is per-frame and transactional: an injected abort between
    /// frames re-pools everything evicted so far (frames are zeroed, so
    /// unevicting is lossless).
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for a zero request, `Exhausted` when the pool
    /// cannot cover the randomized count, `Aborted` (after rollback) on an
    /// injected mid-primitive fault.
    pub fn ewb(&mut self, ctx: &mut EmsContext<'_>, requested: u64) -> EmsResult<Vec<Ppn>> {
        if requested == 0 || requested > 4096 {
            return Err(EmsError::InvalidArgument);
        }
        let count = self.pool.swap_jitter(requested);
        let mut txn = Txn::begin(self.injector.abort_step());
        let mut frames = Vec::with_capacity(count as usize);
        let mut err: Option<EmsError> = None;
        for _ in 0..count {
            if let Err(e) = txn.step() {
                err = Some(e);
                break;
            }
            match self.pool.evict_one(ctx.os_frames, ctx.sys) {
                Ok(frame) => {
                    txn.record(UndoOp::UnevictFrame(frame));
                    frames.push(frame);
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = err {
            // EWB touches no enclave, so there is nothing to poison; a
            // failed unevict is a pool-global inconsistency.
            if self.rollback(ctx, txn).is_err() {
                return Err(EmsError::BadState);
            }
            return Err(e);
        }
        // Fill each page with fresh keystream so the OS cannot tell swapped
        // "pages" from real encrypted enclave memory.
        let mut swap_key = [0u8; 16];
        self.rng.fill_bytes(&mut swap_key);
        let cipher = Aes128::new(&swap_key);
        for frame in &frames {
            let mut page = vec![0u8; PAGE_SIZE as usize];
            cipher.ctr_apply(&ctr_iv(frame.base().0, 0x5357_4150), &mut page);
            ctx.sys.phys.write(frame.base(), &page)?;
        }
        Ok(frames)
    }
}
