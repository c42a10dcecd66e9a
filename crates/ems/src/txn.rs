//! Transactional execution of the frame-taking primitives.
//!
//! Every mutating EMS primitive walks several cross-cutting structures —
//! the memory pool, the ownership table, the enclave bitmap, a page table
//! and the KeyID space — and the untrusted CS OS decides when the pool runs
//! dry. So each of ECREATE, EADD, EALLOC, EFREE, EWB, ESHMGET, ESHMAT,
//! CVMCREATE and CVM restore runs inside the one scope [`Ems::transact`]: it
//! opens a [`Txn`] (a step counter, the injection point for mid-primitive
//! aborts, plus an undo log), runs the primitive's body, replays the log in
//! reverse when the body fails, and poisons the target enclave when that
//! replay itself fails.
//!
//! Two pieces every frame-taking body shares are written here once:
//! [`Ems::take_page`], the per-page take → claim → fill → map step, and
//! [`Ems::with_staged`], which stages page-table frames up front and
//! settles them afterwards.
//!
//! The undo log records *semantic inverses*, not byte snapshots: a frame
//! taken from the pool is given back, a claimed page is released, a mapped
//! leaf is unmapped. One deliberate asymmetry: page-table *branch* frames
//! woven into a live table are never rolled back (see [`Ems::with_staged`])
//! — a reclaimed branch frame would leave dangling interior PTEs pointing at
//! pool memory.

use crate::error::{EmsError, EmsResult};
use crate::mempool::MemPool;
use crate::runtime::{Ems, EmsContext};
use hypertee_faults::FaultInjector;
use hypertee_mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr};
use hypertee_mem::ownership::PageOwner;
use hypertee_mem::pagetable::{FrameSource, PageTable, Perms};

/// One inverse operation in a transaction's undo log.
///
/// A pool `give_back` has no inverse here: every one runs either after
/// the abortable phase (EFREE's commit loop) or inside a resumable
/// teardown that never rolls back (EDESTROY's `reclaim_frames`, CVM
/// save/destroy, SHM destroy).
#[derive(Debug, Clone, Copy)]
pub(crate) enum UndoOp {
    /// Undo of a pool `take`: give the frame back (zeroed) to the pool.
    ReturnToPool(Ppn),
    /// Undo of an ownership `claim`: release the frame from this owner.
    ReleaseOwnership(Ppn, PageOwner),
    /// Undo of an ownership `release`: re-claim the frame for this owner.
    RestoreOwnership(Ppn, PageOwner),
    /// Undo of a leaf `map`: unmap the virtual address.
    UnmapLeaf(PageTable, VirtAddr),
    /// Undo of a leaf `unmap`: re-install the old leaf (intermediate
    /// levels still exist, so `map_raw` suffices).
    RemapLeaf(PageTable, VirtAddr, Ppn, Perms, KeyId),
    /// Undo of an EWB `evict_one`: re-mark the frame enclave and re-pool it.
    UnevictFrame(Ppn),
    /// Undo of a KeyID allocation: revoke the (possibly unprogrammed) slot
    /// from the engine and return the ID to the free list.
    ReleaseKey(KeyId),
}

/// A primitive-scoped transaction: step counter plus undo log.
#[derive(Debug, Default)]
pub(crate) struct Txn {
    steps: u32,
    abort_at: Option<u32>,
    undo: Vec<UndoOp>,
    /// The frames of a fresh page table (ECREATE's). Nothing references an
    /// abandoned table, so a rollback discards it whole — released and
    /// pooled after the undo log has replayed.
    discard: Vec<Ppn>,
}

impl Txn {
    /// Draws the primitive's injected abort point: the chosen call to
    /// [`Txn::step`] fails with [`EmsError::Aborted`] (a disarmed injector
    /// never chooses one — the production configuration). Each primitive
    /// with an injection point arms once, where its fault draw has always
    /// been; ESHMGET, ESHMAT and the CVM paths never arm.
    pub(crate) fn arm(&mut self, injector: &mut FaultInjector) {
        self.abort_at = injector.abort_step();
    }

    /// Marks a step boundary inside the primitive. Returns the injected
    /// abort when this is the chosen step.
    ///
    /// # Errors
    ///
    /// [`EmsError::Aborted`] at the injected abort step.
    pub(crate) fn step(&mut self) -> EmsResult<()> {
        self.steps += 1;
        if self.abort_at == Some(self.steps) {
            return Err(EmsError::Aborted);
        }
        Ok(())
    }

    /// Appends an inverse operation to the undo log. Call *after* the
    /// forward mutation succeeds.
    pub(crate) fn record(&mut self, op: UndoOp) {
        self.undo.push(op);
    }
}

/// What [`Ems::take_page`] writes through the key into a fresh frame.
pub(crate) enum Fill<'a> {
    /// Zeroes, so the integrity MACs exist (§IV-A: "Before being mapped,
    /// corresponding pages will be zeroed").
    Zero,
    /// One full page of bytes.
    Page(&'a [u8]),
    /// EADD's copy: `len` bytes read from CS memory at `src` (EMS's
    /// unidirectional access) into the head of `page`, then all of `page`.
    FromCs {
        src: PhysAddr,
        len: usize,
        page: &'a mut [u8],
    },
}

/// Where a leaf goes: `va` in `table`, with `perms`.
#[derive(Clone, Copy)]
pub(crate) struct Leaf {
    pub(crate) table: PageTable,
    pub(crate) va: VirtAddr,
    pub(crate) perms: Perms,
}

/// Page-table frames staged from the pool for one primitive, implementing
/// [`FrameSource`] so the table can grow mid-walk without re-entering the
/// pool. Only [`Ems::with_staged`] stages and settles them.
pub(crate) struct StagedFrames {
    avail: Vec<Ppn>,
    /// Frames the table consumed.
    taken: Vec<Ppn>,
    /// The enclave whose live table the frames extend; `None` while ECREATE
    /// builds a fresh one.
    live: Option<u64>,
}

impl StagedFrames {
    /// Takes `n` frames from the pool; a failed take gives back the ones
    /// already taken.
    fn stage(
        n: u64,
        live: Option<u64>,
        pool: &mut MemPool,
        ctx: &mut EmsContext<'_>,
    ) -> EmsResult<StagedFrames> {
        let mut staged = StagedFrames {
            avail: Vec::with_capacity(n as usize),
            taken: Vec::new(),
            live,
        };
        for _ in 0..n {
            match pool.take(ctx.os_frames, ctx.sys) {
                Ok(f) => staged.avail.push(f),
                Err(e) => {
                    staged.unstage(pool, ctx);
                    return Err(e);
                }
            }
        }
        Ok(staged)
    }

    /// Returns unused frames to the pool and yields the consumed ones.
    fn unstage(mut self, pool: &mut MemPool, ctx: &mut EmsContext<'_>) -> Vec<Ppn> {
        while let Some(f) = self.avail.pop() {
            // Staged frames were never written; returning them is cheap.
            let _ = pool.give_back(f, ctx.sys);
        }
        self.taken
    }

    /// Maps `frame` at `leaf`, drawing branch frames from the stage. A
    /// leaf of a live table is undo-logged; a fresh table is discarded
    /// whole on failure, so its leaves need not be unpicked one by one.
    pub(crate) fn map(
        &mut self,
        ctx: &mut EmsContext<'_>,
        txn: &mut Txn,
        leaf: Leaf,
        frame: Ppn,
        key: KeyId,
    ) -> EmsResult<()> {
        let Leaf { table, va, perms } = leaf;
        table.map(va, frame, perms, key, self, &mut ctx.sys.phys)?;
        if self.live.is_some() {
            txn.record(UndoOp::UnmapLeaf(table, va));
        }
        Ok(())
    }
}

impl FrameSource for StagedFrames {
    fn alloc_frame(&mut self) -> Option<Ppn> {
        let f = self.avail.pop()?;
        self.taken.push(f);
        Some(f)
    }
}

impl Ems {
    /// The transaction scope of every mutating primitive: opens a [`Txn`],
    /// runs `body`, and when the body fails replays the undo log. When the
    /// replay itself fails the structures can no longer be trusted to
    /// agree: `target` (the enclave the primitive worked on) is poisoned
    /// and the answer is `BadState`.
    pub(crate) fn transact<T>(
        &mut self,
        ctx: &mut EmsContext<'_>,
        target: Option<u64>,
        body: impl FnOnce(&mut Ems, &mut EmsContext<'_>, &mut Txn) -> EmsResult<T>,
    ) -> EmsResult<T> {
        let mut txn = Txn::default();
        let err = match body(self, ctx, &mut txn) {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        if self.rollback(ctx, txn).is_err() {
            if let Some(eid) = target {
                self.poison(eid);
            }
            return Err(EmsError::BadState);
        }
        Err(err)
    }

    /// Replays a failed transaction's undo log in reverse, then discards a
    /// fresh table's frames in the order the table consumed them.
    ///
    /// # Errors
    ///
    /// If an undo operation itself fails, the remaining log is still
    /// replayed (best effort) and the first error is returned.
    fn rollback(&mut self, ctx: &mut EmsContext<'_>, txn: Txn) -> EmsResult<()> {
        let mut first_err = None;
        for op in txn.undo.into_iter().rev() {
            let r = match op {
                UndoOp::ReturnToPool(f) => self.pool.give_back(f, ctx.sys),
                UndoOp::ReleaseOwnership(f, o) => self
                    .ownership
                    .release(f, o)
                    .map_err(|_| EmsError::AccessDenied),
                UndoOp::RestoreOwnership(f, o) => self
                    .ownership
                    .claim(f, o)
                    .map_err(|_| EmsError::AccessDenied),
                UndoOp::UnmapLeaf(t, va) => t
                    .unmap(va, &mut ctx.sys.phys)
                    .map(|_| ())
                    .map_err(EmsError::from),
                UndoOp::RemapLeaf(t, va, ppn, perms, key) => t
                    .map_raw(va, ppn, perms, key, &mut ctx.sys.phys)
                    .map_err(EmsError::from),
                UndoOp::UnevictFrame(f) => self.pool.unevict(f, ctx.sys),
                UndoOp::ReleaseKey(k) => {
                    ctx.hub.ems_revoke_key(&self.cap, &mut ctx.sys.engine, k);
                    self.free_keyid(k);
                    Ok(())
                }
            };
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        for f in txn.discard {
            let released = self
                .ownership
                .release(f, PageOwner::EmsPrivate)
                .map_err(|_| EmsError::AccessDenied);
            let pooled = self.pool.give_back(f, ctx.sys);
            if let Err(e) = released.and(pooled) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The per-page step of every frame-taking primitive: take a frame from
    /// the pool, claim it for `owner`, fill it through `key`, and map it
    /// when `leaf` is given. Each mutation is undo-logged, so a rollback
    /// unmaps, releases and returns the frame to the pool.
    pub(crate) fn take_page(
        &mut self,
        ctx: &mut EmsContext<'_>,
        txn: &mut Txn,
        owner: PageOwner,
        key: KeyId,
        fill: Fill<'_>,
        leaf: Option<(&mut StagedFrames, Leaf)>,
    ) -> EmsResult<Ppn> {
        txn.step()?;
        let frame = self.pool.take(ctx.os_frames, ctx.sys)?;
        txn.record(UndoOp::ReturnToPool(frame));
        self.ownership
            .claim(frame, owner)
            .map_err(|_| EmsError::AccessDenied)?;
        txn.record(UndoOp::ReleaseOwnership(frame, owner));
        let sys = &mut *ctx.sys;
        match fill {
            Fill::Zero => sys.engine.zero_page(&mut sys.phys, frame, key)?,
            Fill::Page(page) => sys.engine.write(&mut sys.phys, frame.base(), key, page)?,
            Fill::FromCs { src, len, page } => {
                sys.phys.read(src, &mut page[..len])?;
                sys.engine.write(&mut sys.phys, frame.base(), key, page)?;
            }
        }
        if let Some((staged, leaf)) = leaf {
            staged.map(ctx, txn, leaf, frame, key)?;
        }
        Ok(frame)
    }

    /// Stages `budget` page-table frames, runs `body` over them, then
    /// settles the stage on success and failure alike: unused frames go
    /// back to the pool and consumed ones are claimed `EmsPrivate`.
    ///
    /// The consumed frames of a live table (`live` names its enclave) join
    /// the enclave's page-table frames on both paths: reclaiming one would
    /// leave an interior PTE dangling at a pool frame, corrupting whatever
    /// the pool reuses it for. A fresh table's frames are returned on
    /// success and discarded whole by a rollback.
    pub(crate) fn with_staged<T>(
        &mut self,
        ctx: &mut EmsContext<'_>,
        txn: &mut Txn,
        budget: u64,
        live: Option<u64>,
        body: impl FnOnce(&mut Ems, &mut EmsContext<'_>, &mut Txn, &mut StagedFrames) -> EmsResult<T>,
    ) -> EmsResult<(T, Vec<Ppn>)> {
        let mut staged = StagedFrames::stage(budget, live, &mut self.pool, ctx)?;
        let built = body(self, ctx, txn, &mut staged);
        let pt_frames = staged.unstage(&mut self.pool, ctx);
        let mut claimed = Ok(());
        for &f in &pt_frames {
            if self.ownership.claim(f, PageOwner::EmsPrivate).is_err() {
                claimed = Err(EmsError::AccessDenied);
            }
        }
        match live {
            Some(eid) => self
                .enclave_mut(eid)?
                .pt_frames
                .extend_from_slice(&pt_frames),
            None => txn.discard.clone_from(&pt_frames),
        }
        let value = built?;
        claimed?;
        Ok((value, pt_frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counter_aborts_at_chosen_step() {
        let mut txn = Txn {
            abort_at: Some(3),
            ..Txn::default()
        };
        assert!(txn.step().is_ok());
        assert!(txn.step().is_ok());
        assert_eq!(txn.step(), Err(EmsError::Aborted));
        // Past the abort point the transaction keeps stepping (the caller
        // never gets here in practice, but the counter stays well-defined).
        assert!(txn.step().is_ok());
    }

    #[test]
    fn disabled_txn_never_aborts() {
        let mut txn = Txn::default();
        txn.arm(&mut FaultInjector::disarmed());
        for _ in 0..10_000 {
            assert!(txn.step().is_ok());
        }
    }
}
