//! Enclave memory-management primitives: EALLOC, EFREE, EWB (§IV-A).
//!
//! All three walk several structures per page (pool, ownership table,
//! bitmap, page table), so each runs inside the transaction scope of `txn`:
//! an injected abort between any two mutations rolls the completed pages
//! back and leaves the enclave exactly as before the call — the caller
//! simply retries.

use crate::control::{layout, EnclaveState};
use crate::error::{EmsError, EmsResult};
use crate::runtime::{range_end, Ems, EmsContext};
use crate::txn::{Fill, Leaf, UndoOp};
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_mem::addr::{Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::framehash::FrameSet;
use hypertee_mem::ownership::{EnclaveId, PageOwner};
use hypertee_mem::pagetable::Perms;

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

        let pt_budget = 2 + pages.div_ceil(512);
        let owner = PageOwner::Enclave(EnclaveId(eid));
        let (frames, _) = self.transact(ctx, Some(eid), |ems, ctx, txn| {
            ems.with_staged(ctx, txn, pt_budget, Some(eid), |ems, ctx, txn, staged| {
                txn.arm(&mut ems.injector);
                let mut frames = Vec::with_capacity(pages as usize);
                for i in 0..pages {
                    let leaf = Leaf {
                        table,
                        va: VirtAddr(base.0 + i * PAGE_SIZE),
                        perms: Perms::RW,
                    };
                    let stage = Some((&mut *staged, leaf));
                    frames.push(ems.take_page(ctx, txn, owner, key, Fill::Zero, stage)?);
                }
                Ok(frames)
            })
        })?;
        let enclave = self.enclave_mut(eid)?;
        enclave.data_frames.extend(frames);
        enclave.heap_cursor = VirtAddr(base.0 + pages * PAGE_SIZE);
        Ok((base, pages))
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
        let detached = self.transact(ctx, Some(eid), |ems, ctx, txn| {
            txn.arm(&mut ems.injector);
            // Phase ① (abortable): detach pages; content untouched.
            let mut detached = Vec::with_capacity(pages as usize);
            for i in 0..pages {
                let page_va = VirtAddr(va + i * PAGE_SIZE);
                txn.step()?;
                let pte = table.unmap(page_va, &mut ctx.sys.phys)?;
                txn.record(UndoOp::RemapLeaf(
                    table,
                    page_va,
                    pte.ppn(),
                    pte.perms(),
                    pte.key(),
                ));
                ems.ownership
                    .release(pte.ppn(), owner)
                    .map_err(|_| EmsError::AccessDenied)?;
                txn.record(UndoOp::RestoreOwnership(pte.ppn(), owner));
                detached.push(pte.ppn());
            }
            Ok(detached)
        })?;

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
        // EWB touches no enclave, so a failed unevict poisons none: it is a
        // pool-global inconsistency.
        let frames = self.transact(ctx, None, |ems, ctx, txn| {
            txn.arm(&mut ems.injector);
            let mut frames = Vec::with_capacity(count as usize);
            for _ in 0..count {
                txn.step()?;
                let frame = ems.pool.evict_one(ctx.os_frames, ctx.sys)?;
                txn.record(UndoOp::UnevictFrame(frame));
                frames.push(frame);
            }
            Ok(frames)
        })?;
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
