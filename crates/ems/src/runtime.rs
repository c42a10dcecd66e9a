//! The EMS runtime: state, request dispatch, and sanity checking.
//!
//! [`Ems`] owns everything the paper keeps in EMS private memory — the key
//! vault, the ownership table, the enclave memory pool, control structures,
//! and shared-memory bookkeeping. CS software cannot reach any of it; the
//! only interface is primitive packets flowing through the iHub mailbox.

use crate::control::{EnclaveControl, EnclaveState};
use crate::error::{EmsError, EmsResult};
use crate::keys::{EFuse, KeyVault};
use crate::mempool::MemPool;
use crate::shm::ShmControl;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_fabric::ihub::{EmsCapability, IHub};
use hypertee_fabric::message::{Primitive, Request, Response, Status};
use hypertee_fabric::ring::Ring;
use hypertee_faults::{FaultInjector, FaultKind, FaultPlan, FaultStats};
use hypertee_mem::addr::{KeyId, Ppn};
use hypertee_mem::ownership::{EnclaveId, OwnershipTable};
use hypertee_mem::pagetable::{FrameSource, PageTable};
use hypertee_mem::phys::FrameAllocator;
use hypertee_mem::system::MemorySystem;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Completed Ok responses kept for idempotent resubmission (bounded FIFO).
const RESPONSE_CACHE_CAP: usize = 256;

/// Capacity of the EMS Rx task queue (§III-C).
const RX_RING_CAPACITY: usize = 64;

/// Mutable slices of machine state EMS operates on while serving a request.
///
/// In hardware these are the physical paths iHub gives EMS unidirectional
/// access to: CS memory, the encryption-engine registers, the DMA whitelist,
/// and the CS OS's frame allocator (for pool growth requests).
pub struct EmsContext<'a> {
    /// The SoC memory system (physical memory, bitmap, encryption engine).
    pub sys: &'a mut MemorySystem,
    /// The fabric hub.
    pub hub: &'a mut IHub,
    /// The CS OS frame allocator EMS requests pool pages from.
    pub os_frames: &'a mut FrameAllocator,
}

/// EMS service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmsStats {
    /// Primitives served successfully.
    pub served: u64,
    /// Requests rejected by the privilege check.
    pub privilege_rejects: u64,
    /// Requests rejected by the argument sanity check.
    pub sanity_rejects: u64,
    /// Enclaves suspended to free KeyIDs.
    pub keyid_suspensions: u64,
    /// EMS firmware crash-restart cycles survived.
    pub crash_restarts: u64,
}

/// A read-only snapshot of one enclave's control state, exposed for external
/// checkers (the `hypertee-model` lockstep harness) without handing out the
/// control structure itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveView {
    /// Enclave id.
    pub eid: u64,
    /// Lifecycle state.
    pub state: EnclaveState,
    /// Whether a memory-encryption KeyID is currently programmed.
    pub has_key: bool,
    /// Finalised measurement digest (`None` while still building).
    pub measurement: Option<[u8; 32]>,
    /// Heap bump-allocation cursor (virtual address).
    pub heap_cursor: u64,
    /// Private data frames currently owned (image + stack + live heap).
    pub data_frames: usize,
    /// Page-table frames currently owned.
    pub pt_frames: usize,
    /// Context-switch count.
    pub switches: u64,
    /// Whether the enclave is poisoned (only EDESTROY accepted).
    pub poisoned: bool,
}

/// A pre-staged batch of frames implementing [`FrameSource`], so page-table
/// construction can draw frames without re-entering the pool mid-walk.
pub(crate) struct StagedFrames {
    avail: Vec<Ppn>,
    /// Frames actually consumed by the mapping operation.
    pub taken: Vec<Ppn>,
}

impl StagedFrames {
    pub(crate) fn stage(
        n: u64,
        pool: &mut MemPool,
        ctx: &mut EmsContext<'_>,
    ) -> EmsResult<StagedFrames> {
        let mut avail = Vec::with_capacity(n as usize);
        for _ in 0..n {
            avail.push(pool.take(ctx.os_frames, ctx.sys)?);
        }
        Ok(StagedFrames {
            avail,
            taken: Vec::new(),
        })
    }

    /// Returns unused frames to the pool.
    pub(crate) fn unstage(mut self, pool: &mut MemPool, ctx: &mut EmsContext<'_>) -> Vec<Ppn> {
        while let Some(f) = self.avail.pop() {
            // Staged frames were never written; returning them is cheap.
            let _ = pool.give_back(f, ctx.sys);
        }
        self.taken
    }
}

impl FrameSource for StagedFrames {
    fn alloc_frame(&mut self) -> Option<Ppn> {
        let f = self.avail.pop()?;
        self.taken.push(f);
        Some(f)
    }
}

/// The Enclave Management Subsystem runtime.
pub struct Ems {
    pub(crate) cap: EmsCapability,
    pub(crate) vault: KeyVault,
    pub(crate) ownership: OwnershipTable,
    pub(crate) pool: MemPool,
    pub(crate) enclaves: BTreeMap<u64, EnclaveControl>,
    pub(crate) shms: BTreeMap<u64, ShmControl>,
    pub(crate) cvms: BTreeMap<u64, crate::cvm::CvmControl>,
    pub(crate) rng: ChaChaRng,
    next_eid: u64,
    next_shmid: u64,
    next_cvm_id: u64,
    next_keyid: u16,
    free_keyids: Vec<u16>,
    keyid_limit: u16,
    /// Platform measurement from secure boot (part of every quote).
    pub platform_measurement: [u8; 32],
    /// Counters.
    pub stats: EmsStats,
    /// EMS-site fault injector (disarmed in production).
    pub(crate) injector: FaultInjector,
    /// Enclaves whose structures can no longer be trusted (a rollback or a
    /// mid-destroy abort failed to restore consistency). Only EDESTROY is
    /// accepted for them.
    poisoned: BTreeSet<u64>,
    /// Completed Ok responses, keyed by req_id: a retry of a request whose
    /// response was lost on the fabric is answered from here instead of
    /// being re-executed.
    resp_cache: BTreeMap<u64, Response>,
    /// Insertion order of `resp_cache` (bounds it to a FIFO window).
    resp_order: VecDeque<u64>,
    /// Recently answered SIGMA `msg1` nonces: a bounded FIFO replay guard
    /// (persistent state — survives crash-restart like the ownership table).
    pub(crate) sigma_seen: VecDeque<[u8; 32]>,
    /// The Rx task queue requests are fetched into before dispatch.
    pub(crate) rx: Ring<Request>,
}

/// Capacity of the SIGMA `msg1` replay journal.
pub(crate) const SIGMA_SEEN_CAP: usize = 256;

impl core::fmt::Debug for Ems {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Ems {{ enclaves: {}, shms: {}, pool_free: {} }}",
            self.enclaves.len(),
            self.shms.len(),
            self.pool.free_frames()
        )
    }
}

impl Ems {
    /// Boots the EMS runtime. `cap` is the single iHub capability; `efuse`
    /// carries the manufacturing root keys; `platform_measurement` comes
    /// from the secure-boot report.
    pub fn new(cap: EmsCapability, efuse: EFuse, platform_measurement: [u8; 32], seed: u64) -> Ems {
        let mut rng = ChaChaRng::from_u64(seed);
        let vault = KeyVault::open(efuse, &mut rng);
        let pool_rng = ChaChaRng::from_u64(seed ^ 0x706f_6f6c);
        Ems {
            cap,
            vault,
            ownership: OwnershipTable::new(),
            pool: MemPool::new(64, pool_rng),
            enclaves: BTreeMap::new(),
            shms: BTreeMap::new(),
            cvms: BTreeMap::new(),
            rng,
            next_eid: 1,
            next_shmid: 1,
            next_cvm_id: 1,
            next_keyid: 1,
            free_keyids: Vec::new(),
            keyid_limit: u16::MAX,
            platform_measurement,
            stats: EmsStats::default(),
            injector: FaultInjector::disarmed(),
            poisoned: BTreeSet::new(),
            resp_cache: BTreeMap::new(),
            resp_order: VecDeque::new(),
            sigma_seen: VecDeque::new(),
            rx: Ring::new(RX_RING_CAPACITY),
        }
    }

    /// Arms the EMS-resident fault sites (primitive aborts, transient
    /// exhaustion, core/ring stalls) from one replayable plan.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.injector = plan.injector("ems");
    }

    /// Faults injected at the EMS sites so far.
    pub fn fault_stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// Requests staged in the Rx task queue but not yet serviced
    /// (observability for the machine's pipeline queue-depth tracking).
    pub fn rx_backlog(&self) -> usize {
        self.rx.len()
    }

    /// Marks an enclave's structures as untrustworthy. From here on every
    /// primitive except EDESTROY answers `BadState` for it.
    pub(crate) fn poison(&mut self, eid: u64) {
        self.poisoned.insert(eid);
    }

    /// Clears the poison mark (a completed EDESTROY retry).
    pub(crate) fn unpoison(&mut self, eid: u64) {
        self.poisoned.remove(&eid);
    }

    /// Whether an enclave is poisoned.
    pub fn is_poisoned(&self, eid: u64) -> bool {
        self.poisoned.contains(&eid)
    }

    /// The ownership table (read access for the consistency audit).
    pub fn ownership(&self) -> &OwnershipTable {
        &self.ownership
    }

    /// Page tables of all non-poisoned enclaves, for the consistency audit.
    /// Poisoned enclaves are mid-destruction wrecks whose tables are
    /// deliberately excluded — their only legal future is EDESTROY.
    pub fn audit_tables(&self) -> Vec<(EnclaveId, PageTable)> {
        self.enclaves
            .values()
            .filter(|e| !self.poisoned.contains(&e.id.0))
            .map(|e| (e.id, e.page_table))
            .collect()
    }

    /// Restricts the KeyID space (tests exercise exhaustion + suspension).
    pub fn set_keyid_limit(&mut self, limit: u16) {
        self.keyid_limit = limit;
    }

    /// Number of live enclaves.
    pub fn enclave_count(&self) -> usize {
        self.enclaves.len()
    }

    /// The memory pool (read access for benches/tests).
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Read-only snapshot of one enclave's control state, or `None` for
    /// unknown ids. This is the lifecycle-observability surface the lockstep
    /// reference model (`hypertee-model`) diffs against after every
    /// completion.
    pub fn enclave_view(&self, eid: u64) -> Option<EnclaveView> {
        self.enclaves.get(&eid).map(|e| EnclaveView {
            eid,
            state: e.state,
            has_key: e.key.is_some(),
            measurement: e.measurement.digest(),
            heap_cursor: e.heap_cursor.0,
            data_frames: e.data_frames.len(),
            pt_frames: e.pt_frames.len(),
            switches: e.switches,
            poisoned: self.poisoned.contains(&eid),
        })
    }

    /// Snapshots of every live enclave, in id order.
    pub fn enclave_views(&self) -> Vec<EnclaveView> {
        self.enclaves
            .keys()
            .filter_map(|&eid| self.enclave_view(eid))
            .collect()
    }

    pub(crate) fn fresh_eid(&mut self) -> EnclaveId {
        let id = EnclaveId(self.next_eid);
        self.next_eid += 1;
        id
    }

    pub(crate) fn fresh_shmid(&mut self) -> u64 {
        let id = self.next_shmid;
        self.next_shmid += 1;
        id
    }

    pub(crate) fn fresh_cvm_id(&mut self) -> u64 {
        let id = self.next_cvm_id;
        self.next_cvm_id += 1;
        id
    }

    /// Allocates a KeyID, suspending a stopped enclave if the space is
    /// exhausted (§IV-C: "In case of KeyID exhaustion, EMS can suspend an
    /// enclave to release a KeyID").
    pub(crate) fn alloc_keyid(&mut self, ctx: &mut EmsContext<'_>) -> EmsResult<KeyId> {
        if let Some(k) = self.free_keyids.pop() {
            return Ok(KeyId(k));
        }
        if self.next_keyid < self.keyid_limit {
            let k = self.next_keyid;
            self.next_keyid += 1;
            return Ok(KeyId(k));
        }
        // Exhausted: suspend a stopped enclave to reclaim its KeyID.
        let victim = self
            .enclaves
            .values()
            .find(|e| e.state == EnclaveState::Stopped && e.key.is_some())
            .map(|e| e.id.0);
        let Some(victim) = victim else {
            return Err(EmsError::Exhausted);
        };
        let key = self.suspend_enclave(ctx, victim)?;
        Ok(key)
    }

    /// Suspends an enclave: revokes its key from the engine and releases its
    /// KeyID. Its memory remains encrypted; ERESUME re-derives the key.
    /// Invoked internally on KeyID exhaustion, and available to platform
    /// management (e.g. tests or an administrative flow).
    pub fn suspend_enclave(&mut self, ctx: &mut EmsContext<'_>, eid: u64) -> EmsResult<KeyId> {
        let enclave = self.enclaves.get_mut(&eid).ok_or(EmsError::NotFound)?;
        let key = enclave.key.take().ok_or(EmsError::BadState)?;
        enclave.prev_key = Some(key);
        enclave.state = EnclaveState::Suspended;
        ctx.hub.ems_revoke_key(&self.cap, &mut ctx.sys.engine, key);
        self.stats.keyid_suspensions += 1;
        Ok(key)
    }

    pub(crate) fn free_keyid(&mut self, key: KeyId) {
        self.free_keyids.push(key.0);
    }

    pub(crate) fn enclave(&self, eid: u64) -> EmsResult<&EnclaveControl> {
        if self.poisoned.contains(&eid) {
            return Err(EmsError::BadState);
        }
        self.enclaves.get(&eid).ok_or(EmsError::NotFound)
    }

    pub(crate) fn enclave_mut(&mut self, eid: u64) -> EmsResult<&mut EnclaveControl> {
        if self.poisoned.contains(&eid) {
            return Err(EmsError::BadState);
        }
        self.enclaves.get_mut(&eid).ok_or(EmsError::NotFound)
    }

    /// Crashes and warm-restarts the EMS firmware, returning how many staged
    /// requests were lost.
    ///
    /// Volatile state — the Rx task queue — is dropped: staged requests were
    /// fetched from the mailbox but never executed, so the caller-side
    /// pipeline's loss detection resubmits them under the same req_id and
    /// nothing ever runs twice. Everything in EMS private memory survives a
    /// warm restart: the key vault, ownership table, memory pool, control
    /// structures, and the completion journal backing the response cache
    /// (which keeps post-crash resubmissions of *already completed* requests
    /// idempotent). The free-KeyID list is volatile bookkeeping, so it is
    /// reconstructed from the authoritative tables by scanning every keyed
    /// object — enclaves, encrypted shared regions, and CVMs.
    pub fn crash_restart(&mut self) -> usize {
        let dropped = self.rx.len();
        self.rx = Ring::new(RX_RING_CAPACITY);
        let mut in_use: BTreeSet<u16> = BTreeSet::new();
        for e in self.enclaves.values() {
            if let Some(k) = e.key {
                in_use.insert(k.0);
            }
        }
        for s in self.shms.values() {
            if s.key.is_encrypted() {
                in_use.insert(s.key.0);
            }
        }
        for c in self.cvms.values() {
            if let Some(k) = c.key {
                in_use.insert(k.0);
            }
        }
        self.free_keyids = (1..self.next_keyid)
            .filter(|k| !in_use.contains(k))
            .collect();
        self.stats.crash_restarts += 1;
        dropped
    }

    /// Executes one primitive request: privilege check, sanity check,
    /// dispatch.
    pub fn handle(&mut self, ctx: &mut EmsContext<'_>, req: Request) -> Response {
        // ⓪ Idempotent resubmission: a request that already completed but
        // whose response was lost on the fabric is answered from the cache,
        // never re-executed (re-running a completed EADD would double-map
        // and double-measure).
        if let Some(cached) = self.resp_cache.get(&req.req_id) {
            return cached.clone();
        }
        // ① Privilege check (defense in depth: EMCall already blocks
        // cross-privilege calls; EMS re-verifies).
        if req.caller.privilege != req.primitive.required_privilege() {
            self.stats.privilege_rejects += 1;
            return Response::err(req.req_id, Status::PrivilegeMismatch);
        }
        // Injected transient exhaustion: the pool claims to be empty before
        // dispatch. Surfaces as a clean `Exhausted` status — the caller
        // decides whether to try again later.
        if self.injector.roll(FaultKind::TransientExhausted) {
            return Response::err(req.req_id, Status::Exhausted);
        }
        let result = self.dispatch(ctx, &req);
        match result {
            Ok(resp) => {
                self.stats.served += 1;
                self.cache_response(resp.clone());
                resp
            }
            Err(e) => {
                if e == EmsError::InvalidArgument {
                    self.stats.sanity_rejects += 1;
                }
                Response::err(req.req_id, e.into())
            }
        }
    }

    /// Remembers a completed Ok response for replay on resubmission. Only
    /// successes are cached — failed primitives had no effects (rolled
    /// back), so re-executing them is safe and may well succeed.
    fn cache_response(&mut self, resp: Response) {
        if resp.req_id == 0 {
            return; // not a mailbox-assigned id (direct-call tests)
        }
        if self.resp_cache.insert(resp.req_id, resp.clone()).is_none() {
            self.resp_order.push_back(resp.req_id);
        }
        while self.resp_order.len() > RESPONSE_CACHE_CAP {
            if let Some(old) = self.resp_order.pop_front() {
                self.resp_cache.remove(&old);
            }
        }
    }

    fn dispatch(&mut self, ctx: &mut EmsContext<'_>, req: &Request) -> EmsResult<Response> {
        let id = req.req_id;
        match req.primitive {
            Primitive::Ecreate => {
                let [heap_max, stack_bytes, host_shared_bytes, host_shared_pa] =
                    fixed_args::<4>(&req.args)?;
                let eid = self.ecreate(
                    ctx,
                    crate::control::EnclaveConfig {
                        heap_max,
                        stack_bytes,
                        host_shared_bytes,
                    },
                    host_shared_pa,
                )?;
                Ok(Response::ok(id, vec![eid.0]))
            }
            Primitive::Eadd => {
                let [eid, dest_va, src_pa, len, perm_bits] = fixed_args::<5>(&req.args)?;
                self.eadd(ctx, eid, dest_va, src_pa, len, perm_bits as u8)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Emeas => {
                let [eid] = fixed_args::<1>(&req.args)?;
                let digest = self.emeas(eid)?;
                Ok(Response::ok_with_payload(id, vec![], digest.to_vec()))
            }
            Primitive::Eenter => {
                let [eid] = fixed_args::<1>(&req.args)?;
                let (root, entry, key) = self.eenter(ctx, eid)?;
                Ok(Response::ok(id, vec![root.0, entry.0, key.0 as u64]))
            }
            Primitive::Eresume => {
                let [eid] = fixed_args::<1>(&req.args)?;
                let (root, entry, key) = self.eresume(ctx, eid)?;
                Ok(Response::ok(id, vec![root.0, entry.0, key.0 as u64]))
            }
            Primitive::Eexit => {
                let [eid] = fixed_args::<1>(&req.args)?;
                // Only the enclave itself may exit itself.
                if req.caller.enclave != Some(EnclaveId(eid)) {
                    return Err(EmsError::AccessDenied);
                }
                self.eexit(eid)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Edestroy => {
                let [eid] = fixed_args::<1>(&req.args)?;
                self.edestroy(ctx, eid)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Ealloc => {
                let [eid, bytes] = fixed_args::<2>(&req.args)?;
                require_self(req, eid)?;
                let (va, pages) = self.ealloc(ctx, eid, bytes)?;
                Ok(Response::ok(id, vec![va.0, pages]))
            }
            Primitive::Efree => {
                let [eid, va, bytes] = fixed_args::<3>(&req.args)?;
                require_self(req, eid)?;
                self.efree(ctx, eid, va, bytes)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Ewb => {
                let [requested] = fixed_args::<1>(&req.args)?;
                let evicted = self.ewb(ctx, requested)?;
                let mut vals = vec![evicted.len() as u64];
                vals.extend(evicted.iter().map(|p| p.base().0));
                Ok(Response::ok(id, vals))
            }
            Primitive::Eshmget => {
                let [eid, bytes, max_perm, device_shared] = fixed_args::<4>(&req.args)?;
                require_self(req, eid)?;
                let shmid = self.eshmget(ctx, eid, bytes, max_perm as u8, device_shared != 0)?;
                Ok(Response::ok(id, vec![shmid]))
            }
            Primitive::Eshmshr => {
                let [sender, shmid, receiver, perm] = fixed_args::<4>(&req.args)?;
                require_self(req, sender)?;
                self.eshmshr(ctx, sender, shmid, receiver, perm as u8)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Eshmat => {
                let [eid, shmid, sender] = fixed_args::<3>(&req.args)?;
                require_self(req, eid)?;
                let (va, pages) = self.eshmat(ctx, eid, shmid, sender)?;
                Ok(Response::ok(id, vec![va.0, pages]))
            }
            Primitive::Eshmdt => {
                let [eid, shmid] = fixed_args::<2>(&req.args)?;
                require_self(req, eid)?;
                self.eshmdt(ctx, eid, shmid)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Eshmdes => {
                let [eid, shmid] = fixed_args::<2>(&req.args)?;
                require_self(req, eid)?;
                self.eshmdes(ctx, eid, shmid)?;
                Ok(Response::ok(id, vec![]))
            }
            Primitive::Eattest => {
                let [eid] = fixed_args::<1>(&req.args)?;
                require_self(req, eid)?;
                let quote = self.eattest(eid, &req.payload)?;
                Ok(Response::ok_with_payload(id, vec![], quote.to_bytes()))
            }
        }
    }
}

/// Decodes exactly `N` scalar arguments, rejecting short/long vectors — the
/// first line of the EMS sanity check.
fn fixed_args<const N: usize>(args: &[u64]) -> EmsResult<[u64; N]> {
    args.try_into().map_err(|_| EmsError::InvalidArgument)
}

/// Verifies the caller is the enclave it claims to operate on: the stamped
/// identity from EMCall must match the `eid` argument, preventing request
/// forgery (§III-B ②).
fn require_self(req: &Request, eid: u64) -> EmsResult<()> {
    if req.caller.enclave == Some(EnclaveId(eid)) {
        Ok(())
    } else {
        Err(EmsError::AccessDenied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_fabric::message::{CallerIdentity, Privilege};
    use hypertee_mem::addr::PhysAddr;

    fn machine() -> (MemorySystem, IHub, FrameAllocator, Ems) {
        let sys = MemorySystem::new(128 << 20, PhysAddr(0x8000));
        let (hub, cap) = IHub::new();
        let os = FrameAllocator::new(Ppn(64), Ppn(32000));
        let mut boot_rng = ChaChaRng::from_u64(11);
        let efuse = EFuse::burn(&mut boot_rng);
        let ems = Ems::new(cap, efuse, [0x50; 32], 42);
        (sys, hub, os, ems)
    }

    #[test]
    fn privilege_mismatch_rejected() {
        let (mut sys, mut hub, mut os, mut ems) = machine();
        let mut ctx = EmsContext {
            sys: &mut sys,
            hub: &mut hub,
            os_frames: &mut os,
        };
        // ECREATE requires OS privilege; a user-mode caller is rejected.
        let req = Request {
            req_id: 1,
            primitive: Primitive::Ecreate,
            caller: CallerIdentity {
                privilege: Privilege::User,
                enclave: None,
            },
            args: vec![0, 0, 0, 0],
            payload: vec![],
        };
        let resp = ems.handle(&mut ctx, req);
        assert_eq!(resp.status, Status::PrivilegeMismatch);
        assert_eq!(ems.stats.privilege_rejects, 1);
    }

    #[test]
    fn malformed_args_rejected() {
        let (mut sys, mut hub, mut os, mut ems) = machine();
        let mut ctx = EmsContext {
            sys: &mut sys,
            hub: &mut hub,
            os_frames: &mut os,
        };
        let req = Request {
            req_id: 2,
            primitive: Primitive::Ecreate,
            caller: CallerIdentity {
                privilege: Privilege::Os,
                enclave: None,
            },
            args: vec![1, 2], // ECREATE takes 4 args.
            payload: vec![],
        };
        let resp = ems.handle(&mut ctx, req);
        assert_eq!(resp.status, Status::InvalidArgument);
        assert_eq!(ems.stats.sanity_rejects, 1);
    }

    #[test]
    fn forged_identity_rejected() {
        let (mut sys, mut hub, mut os, mut ems) = machine();
        let mut ctx = EmsContext {
            sys: &mut sys,
            hub: &mut hub,
            os_frames: &mut os,
        };
        // A caller stamped as enclave 7 cannot EALLOC for enclave 9.
        let req = Request {
            req_id: 3,
            primitive: Primitive::Ealloc,
            caller: CallerIdentity {
                privilege: Privilege::User,
                enclave: Some(EnclaveId(7)),
            },
            args: vec![9, 4096],
            payload: vec![],
        };
        let resp = ems.handle(&mut ctx, req);
        assert_eq!(resp.status, Status::AccessDenied);
    }
}
