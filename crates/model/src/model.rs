//! The reference model proper: abstract lifecycle states, a measurement
//! mirror, and per-slot heap/frame bookkeeping — sets and maps only.
//!
//! The model is *observationally* driven: values the real machine is free
//! to choose (EMS-assigned enclave ids, write-back frame lists) are fed in
//! from real responses and only checked for plausibility (freshness,
//! counts); everything else — states, digests, cursors, page counts — is
//! predicted independently and diffed.

use hypertee_crypto::sha256::Sha256;
use hypertee_ems::control::layout;
use hypertee_mem::addr::PAGE_SIZE;
use std::collections::{BTreeMap, BTreeSet};

/// Abstract lifecycle state of a slot (mirrors
/// [`hypertee_ems::control::EnclaveState`] minus `Suspended`, which only
/// arises under an artificial KeyID limit the harness never sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Created; pages may still be added.
    Building,
    /// Measurement finalised; ready to enter.
    Measured,
    /// Entered on a CS hart.
    Running,
    /// Exited but resumable.
    Stopped,
}

/// Reference state of one enclave slot.
#[derive(Debug, Clone)]
pub(crate) struct SlotModel {
    /// EMS-assigned enclave id (fed in from the real ECREATE response).
    pub(crate) eid: u64,
    /// Abstract lifecycle state.
    pub(crate) state: SlotState,
    /// The hart currently inside the enclave, when `Running`.
    pub(crate) entered_on: Option<usize>,
    /// Set when a `Timeout` left the real state unknowable: per-slot strict
    /// checks are suspended until the slot is destroyed.
    pub(crate) tainted: bool,
    /// Statically allocated stack pages (from ECREATE).
    pub(crate) stack_pages: u64,
    /// Image pages added so far (EADD).
    pub(crate) image_pages: u64,
    /// Live heap pages (EALLOC minus EFREE).
    pub(crate) heap_pages: u64,
    /// Next heap VA to be mapped; never retreats (EFREE keeps the cursor).
    pub(crate) heap_cursor: u64,
    /// Manifest heap limit in bytes.
    pub(crate) heap_max: u64,
    /// Live heap allocations as `(va, pages)`, freed LIFO by the harness.
    pub(crate) allocs: Vec<(u64, u64)>,
    /// Context switches (EENTER/ERESUME/EEXIT each count one).
    pub(crate) switches: u64,
    /// Finalised measurement, `None` while building.
    pub(crate) digest: Option<[u8; 32]>,
    hasher: Sha256,
}

impl SlotModel {
    /// Data pages the real enclave must own: stack + image + live heap.
    pub(crate) fn data_pages(&self) -> u64 {
        self.stack_pages + self.image_pages + self.heap_pages
    }
}

/// The whole-machine reference model.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefModel {
    /// Live (or tainted) slots.
    pub(crate) slots: BTreeMap<usize, SlotModel>,
    /// Every enclave id ever returned by ECREATE — a repeat is a bug.
    pub(crate) eids_seen: BTreeSet<u64>,
    /// ECREATEs whose response timed out: the real machine may hold that
    /// many enclaves whose ids the model never learned.
    pub(crate) orphan_creates: usize,
}

impl RefModel {
    /// An empty model.
    pub(crate) fn new() -> RefModel {
        RefModel::default()
    }

    /// Commits a successful ECREATE: seeds the measurement mirror exactly
    /// as [`hypertee_ems::control::EnclaveControl::new`] does.
    pub(crate) fn create(
        &mut self,
        slot: usize,
        eid: u64,
        heap_max: u64,
        stack_bytes: u64,
        window_bytes: u64,
    ) {
        let mut hasher = Sha256::new();
        hasher.update(b"hypertee-ecreate");
        hasher.update(&heap_max.to_le_bytes());
        hasher.update(&stack_bytes.to_le_bytes());
        hasher.update(&window_bytes.to_le_bytes());
        self.eids_seen.insert(eid);
        self.slots.insert(
            slot,
            SlotModel {
                eid,
                state: SlotState::Building,
                entered_on: None,
                tainted: false,
                stack_pages: stack_bytes.div_ceil(PAGE_SIZE),
                image_pages: 0,
                heap_pages: 0,
                heap_cursor: layout::HEAP_BASE.0,
                heap_max,
                allocs: Vec::new(),
                switches: 0,
                digest: None,
                hasher,
            },
        );
    }

    /// Commits a successful EADD of `data` at `base_va`: extends the
    /// measurement mirror per page over the zero-padded page buffer, exactly
    /// as the EMS does. Returns the number of pages added.
    ///
    /// # Panics
    ///
    /// Panics if the slot is unknown (harness bug, not a divergence).
    pub(crate) fn extend_image(
        &mut self,
        slot: usize,
        base_va: u64,
        data: &[u8],
        perm_bits: u8,
    ) -> u64 {
        let s = self.slots.get_mut(&slot).expect("extend_image: live slot");
        let pages = (data.len() as u64).div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let va = base_va + i * PAGE_SIZE;
            let lo = (i * PAGE_SIZE) as usize;
            let hi = data.len().min(lo + PAGE_SIZE as usize);
            let mut page = vec![0u8; PAGE_SIZE as usize];
            page[..hi - lo].copy_from_slice(&data[lo..hi]);
            s.hasher.update(b"hypertee-eadd");
            s.hasher.update(&va.to_le_bytes());
            s.hasher.update(&[perm_bits]);
            s.hasher.update(&(page.len() as u64).to_le_bytes());
            s.hasher.update(&page);
        }
        s.image_pages += pages;
        pages
    }

    /// Commits a successful EMEAS: finalises the mirror and returns the
    /// digest the real response must carry.
    ///
    /// # Panics
    ///
    /// Panics if the slot is unknown.
    pub(crate) fn measure(&mut self, slot: usize) -> [u8; 32] {
        let s = self.slots.get_mut(&slot).expect("measure: live slot");
        let digest = s.hasher.clone().finalize();
        s.digest = Some(digest);
        s.state = SlotState::Measured;
        digest
    }

    /// Commits a successful EENTER/ERESUME on `hart`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is unknown.
    pub(crate) fn enter(&mut self, slot: usize, hart: usize) {
        let s = self.slots.get_mut(&slot).expect("enter: live slot");
        s.state = SlotState::Running;
        s.entered_on = Some(hart);
        s.switches += 1;
    }

    /// Commits a successful EEXIT.
    ///
    /// # Panics
    ///
    /// Panics if the slot is unknown.
    pub(crate) fn exit(&mut self, slot: usize) {
        let s = self.slots.get_mut(&slot).expect("exit: live slot");
        s.state = SlotState::Stopped;
        s.entered_on = None;
        s.switches += 1;
    }

    /// Commits a successful EALLOC of `pages` pages at the current cursor.
    ///
    /// # Panics
    ///
    /// Panics if the slot is unknown.
    pub(crate) fn alloc(&mut self, slot: usize, pages: u64) {
        let s = self.slots.get_mut(&slot).expect("alloc: live slot");
        s.allocs.push((s.heap_cursor, pages));
        s.heap_cursor += pages * PAGE_SIZE;
        s.heap_pages += pages;
    }

    /// Commits a successful EFREE of `pages` pages (cursor never retreats).
    ///
    /// # Panics
    ///
    /// Panics if the slot is unknown.
    pub(crate) fn free(&mut self, slot: usize, pages: u64) {
        let s = self.slots.get_mut(&slot).expect("free: live slot");
        s.heap_pages -= pages;
    }

    /// Commits a successful EDESTROY (also covers tainted slots).
    pub(crate) fn destroy(&mut self, slot: usize) {
        self.slots.remove(&slot);
    }

    /// Marks a slot tainted after a timed-out primitive (real state
    /// unknowable until the slot is destroyed).
    pub(crate) fn taint(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(&slot) {
            s.tainted = true;
        }
    }

    /// Enclave ids of every slot the model knows about.
    pub(crate) fn known_eids(&self) -> BTreeSet<u64> {
        self.slots.values().map(|s| s.eid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_ems::control::{EnclaveConfig, EnclaveControl};
    use hypertee_mem::addr::{KeyId, Ppn, VirtAddr};
    use hypertee_mem::ownership::EnclaveId;
    use hypertee_mem::pagetable::PageTable;

    /// The mirror must reproduce the real EnclaveControl measurement chain
    /// bit for bit — this pins the domain-separated hash layout.
    #[test]
    fn measurement_mirror_matches_enclave_control() {
        let config = EnclaveConfig {
            heap_max: 512 * 1024,
            stack_bytes: 16 * 1024,
            host_shared_bytes: 8 * 1024,
        };
        let mut real = EnclaveControl::new(
            EnclaveId(9),
            PageTable { root: Ppn(77) },
            vec![Ppn(77)],
            KeyId(3),
            [0u8; 32],
            config,
        );
        let data = vec![0xabu8; 5000]; // 2 pages, second partially filled
        let pages = (data.len() as u64).div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let lo = (i * PAGE_SIZE) as usize;
            let hi = data.len().min(lo + PAGE_SIZE as usize);
            let mut page = vec![0u8; PAGE_SIZE as usize];
            page[..hi - lo].copy_from_slice(&data[lo..hi]);
            real.extend_measurement(VirtAddr(layout::CODE_BASE.0 + i * PAGE_SIZE), 0b111, &page);
        }
        let real_digest = real.finalize_measurement();

        let mut model = RefModel::new();
        model.create(0, 9, 512 * 1024, 16 * 1024, 8 * 1024);
        model.extend_image(0, layout::CODE_BASE.0, &data, 0b111);
        assert_eq!(model.measure(0), real_digest);
    }

    #[test]
    fn cursor_never_retreats_across_free() {
        let mut m = RefModel::new();
        m.create(0, 1, 1024 * 1024, 8192, 4096);
        m.alloc(0, 4);
        let after_alloc = m.slots[&0].heap_cursor;
        m.free(0, 4);
        assert_eq!(m.slots[&0].heap_cursor, after_alloc);
        assert_eq!(m.slots[&0].heap_pages, 0);
        assert_eq!(m.slots[&0].data_pages(), 2); // stack pages remain
    }

    #[test]
    fn destroyed_eids_stay_seen() {
        let mut m = RefModel::new();
        m.create(0, 1, 4096, 4096, 4096);
        m.destroy(0);
        assert!(m.eids_seen.contains(&1));
        assert!(m.known_eids().is_empty());
    }
}
