//! Transactional execution of multi-step primitives.
//!
//! Every mutating EMS primitive walks several cross-cutting structures —
//! the memory pool, the ownership table, the enclave bitmap, and a page
//! table. A fault injected between two of those mutations would leave them
//! disagreeing, so each primitive threads a [`Txn`]: a step counter (the
//! injection point for mid-primitive aborts) plus an undo log replayed in
//! reverse by `Ems::rollback` when the primitive cannot complete.
//!
//! The undo log records *semantic inverses*, not byte snapshots: a frame
//! taken from the pool is given back, a claimed page is released, a mapped
//! leaf is unmapped. One deliberate asymmetry: page-table *branch* frames
//! woven into a live table are never rolled back (see
//! `memmgmt::ealloc`) — a reclaimed branch frame would leave dangling
//! interior PTEs pointing at pool memory.

use crate::error::{EmsError, EmsResult};
use crate::runtime::{Ems, EmsContext};
use hypertee_mem::addr::{KeyId, Ppn, VirtAddr};
use hypertee_mem::ownership::PageOwner;
use hypertee_mem::pagetable::{PageTable, Perms};

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
}

impl Txn {
    /// Opens a transaction. `abort_at` is the injected abort point: the
    /// `abort_at`-th call to [`Txn::step`] fails with [`EmsError::Aborted`]
    /// (`None` disables injection — the production configuration).
    pub(crate) fn begin(abort_at: Option<u32>) -> Txn {
        Txn {
            steps: 0,
            abort_at,
            undo: Vec::new(),
        }
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

impl Ems {
    /// Rolls a failed transaction back: replays the undo log in reverse.
    ///
    /// # Errors
    ///
    /// If an undo operation itself fails, the remaining log is still
    /// replayed (best effort) and the first error is returned — the caller
    /// must then *poison* the affected enclave, because the structures can
    /// no longer be trusted to agree.
    pub(crate) fn rollback(&mut self, ctx: &mut EmsContext<'_>, txn: Txn) -> EmsResult<()> {
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
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counter_aborts_at_chosen_step() {
        let mut txn = Txn::begin(Some(3));
        assert!(txn.step().is_ok());
        assert!(txn.step().is_ok());
        assert_eq!(txn.step(), Err(EmsError::Aborted));
        // Past the abort point the transaction keeps stepping (the caller
        // never gets here in practice, but the counter stays well-defined).
        assert!(txn.step().is_ok());
    }

    #[test]
    fn disabled_txn_never_aborts() {
        let mut txn = Txn::begin(None);
        for _ in 0..10_000 {
            assert!(txn.step().is_ok());
        }
    }
}
