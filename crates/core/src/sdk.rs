//! The HyperTEE SDK: the HostApp/enclave programming model of §III-B.
//!
//! HostApps manage enclave environments through the HyperTEE APIs below;
//! each call is translated into the RPC-like EMCall and flows through the
//! mailbox to EMS, exactly as in Fig. 2/Fig. 3 of the paper.

use crate::machine::{EnclaveHandle, EnclaveInfo, Machine, MachineError, MachineResult};
use crate::manifest::EnclaveManifest;
use hypertee_ems::attest::Quote;
use hypertee_ems::control::layout;
use hypertee_fabric::message::{Primitive, Privilege};
use hypertee_mem::addr::{PhysAddr, VirtAddr, PAGE_SIZE};

/// Shared-memory permission requested for a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmPerm {
    /// Read-only attachment.
    ReadOnly,
    /// Read-write attachment.
    ReadWrite,
}

impl ShmPerm {
    fn bits(self) -> u64 {
        match self {
            ShmPerm::ReadOnly => 0b01,
            ShmPerm::ReadWrite => 0b11,
        }
    }
}

impl Machine {
    /// Creates, loads, and measures an enclave from a manifest and image —
    /// ECREATE + EADD + EMEAS, driven by the CS OS on `hart_id`.
    ///
    /// A failed call leaves nothing behind: the staging and host-window
    /// frames are zeroed and returned to the OS, and an enclave that ECREATE
    /// built but EADD or EMEAS rejected is destroyed again. The one
    /// exception is an ECREATE whose outcome is unknown (its retries ran
    /// out or its deadline expired): the EMS may then hold an enclave that
    /// maps the host window, so the window is kept from the OS.
    ///
    /// # Errors
    ///
    /// Propagates gate, primitive, and memory errors.
    pub fn create_enclave(
        &mut self,
        hart_id: usize,
        manifest: &EnclaveManifest,
        image: &[u8],
    ) -> MachineResult<EnclaveHandle> {
        let (window_base, window_pages) =
            self.stage_host_frames(manifest.host_shared_bytes, &[])?;
        // Stage the image in contiguous host frames for EADD to read.
        let (stage, image_pages) = match self.stage_host_frames(image.len() as u64, image) {
            Ok(stage) => stage,
            Err(e) => {
                self.release_host_frames(window_base, window_pages)?;
                return Err(e);
            }
        };
        let mut created = None;
        let ecreate = vec![
            manifest.heap_max,
            manifest.stack_bytes,
            manifest.host_shared_bytes,
            window_base.base().0,
        ];
        let resp = self.invoke_as(hart_id, Privilege::Os, Primitive::Ecreate, ecreate, vec![]);
        // Only a rejected, shed or gated ECREATE surely built nothing.
        let ecreate_unknown = resp.as_ref().is_err_and(|e| {
            !matches!(
                e,
                MachineError::Primitive(_) | MachineError::Backpressure | MachineError::Gate(_)
            )
        });
        let built = resp.and_then(|resp| {
            let eid = resp
                .new_enclave_id()
                .expect("ECREATE answers with the new enclave id");
            created = Some(eid);
            let len = image.len() as u64;
            let eadd = vec![eid, layout::CODE_BASE.0, stage.base().0, len, 0b111];
            self.invoke_as(hart_id, Privilege::Os, Primitive::Eadd, eadd, vec![])?;
            self.invoke_as(hart_id, Privilege::Os, Primitive::Emeas, vec![eid], vec![])?;
            MachineResult::Ok(eid)
        });
        // Release the staging frames back to the OS, built or not.
        self.release_host_frames(stage, image_pages)?;
        let eid = match built {
            Ok(eid) => eid,
            Err(e) => {
                // A half-built enclave still maps the host window: destroy
                // it first, and keep the window from the OS if that fails
                // or if ECREATE may have built an enclave we never heard of.
                let torn_down = match created {
                    None => !ecreate_unknown,
                    Some(eid) => self
                        .invoke_as(
                            hart_id,
                            Privilege::Os,
                            Primitive::Edestroy,
                            vec![eid],
                            vec![],
                        )
                        .is_ok(),
                };
                if torn_down {
                    self.release_host_frames(window_base, window_pages)?;
                }
                return Err(e);
            }
        };

        // Charge the size-dependent management time (EADD copy + EMEAS
        // measurement) that the generic primitive accounting skips.
        let engine = self.config.crypto_engine;
        let (eadd, emeas) = hypertee_sim::latency::image_load(image.len() as u64, engine);
        let image_cost = (eadd + emeas).round() as u64;
        self.charge_hart(hart_id, hypertee_sim::clock::Cycles(image_cost));
        self.enclaves.insert(
            eid,
            EnclaveInfo {
                eid,
                host_window_pa: window_base.base(),
                host_window_bytes: manifest.host_shared_bytes,
                image_bytes: image.len() as u64,
                stack_bytes: manifest.stack_bytes,
            },
        );
        Ok(EnclaveHandle(eid))
    }

    /// Enters an enclave on a hart: EENTER, whose completion lands EMCall's
    /// atomic context switch.
    ///
    /// # Errors
    ///
    /// Gate/primitive failures; `WrongMode` if the hart is already inside
    /// an enclave.
    pub fn enter(&mut self, hart_id: usize, handle: EnclaveHandle) -> MachineResult<()> {
        if self.harts[hart_id].current_enclave.is_some() {
            return Err(MachineError::WrongMode);
        }
        self.invoke_as(
            hart_id,
            Privilege::Os,
            Primitive::Eenter,
            vec![handle.0],
            vec![],
        )?;
        // ABI setup for fresh entries: stack pointer at the top of the
        // statically allocated stack (EMCall zeroed the bank).
        let info = self.enclave_info(handle)?;
        self.harts[hart_id].regs[2] =
            hypertee_ems::control::layout::STACK_BASE.0 + info.stack_bytes - 16;
        Ok(())
    }

    /// Resumes a stopped or suspended enclave on a hart.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::enter`].
    pub fn resume(&mut self, hart_id: usize, handle: EnclaveHandle) -> MachineResult<()> {
        if self.harts[hart_id].current_enclave.is_some() {
            return Err(MachineError::WrongMode);
        }
        self.invoke_as(
            hart_id,
            Privilege::Os,
            Primitive::Eresume,
            vec![handle.0],
            vec![],
        )?;
        Ok(())
    }

    /// Exits the enclave currently running on a hart (EEXIT, whose
    /// completion lands the context restore).
    ///
    /// # Errors
    ///
    /// `WrongMode` when the hart is not inside an enclave.
    pub fn exit(&mut self, hart_id: usize) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Eexit, vec![eid], vec![])?;
        Ok(())
    }

    /// Destroys an enclave (must not be running on any hart). Its host
    /// window is zeroed and returned to the OS.
    ///
    /// # Errors
    ///
    /// Gate/primitive failures.
    pub fn destroy(&mut self, hart_id: usize, handle: EnclaveHandle) -> MachineResult<()> {
        self.invoke_as(
            hart_id,
            Privilege::Os,
            Primitive::Edestroy,
            vec![handle.0],
            vec![],
        )?;
        if let Some(info) = self.enclaves.remove(&handle.0) {
            let pages = info.host_window_bytes.div_ceil(PAGE_SIZE).max(1);
            self.release_host_frames(info.host_window_pa.ppn(), pages)?;
        }
        Ok(())
    }

    fn current_eid(&self, hart_id: usize) -> MachineResult<u64> {
        self.current_enclave(hart_id).ok_or(MachineError::WrongMode)
    }

    /// EALLOC from inside the enclave on `hart_id`. Returns the mapped VA.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn ealloc(&mut self, hart_id: usize, bytes: u64) -> MachineResult<VirtAddr> {
        let eid = self.current_eid(hart_id)?;
        let resp = self.invoke(hart_id, Primitive::Ealloc, vec![eid, bytes], vec![])?;
        Ok(VirtAddr(
            resp.mapped_va().expect("EALLOC answers with the mapped VA"),
        ))
    }

    /// EFREE from inside the enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn efree(&mut self, hart_id: usize, va: VirtAddr, bytes: u64) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Efree, vec![eid, va.0, bytes], vec![])?;
        Ok(())
    }

    /// EWB from the CS OS: asks EMS for swappable pages; the returned frames
    /// are reclaimed into the OS allocator (as after a disk swap-out).
    ///
    /// # Errors
    ///
    /// Primitive failures.
    pub fn ewb(&mut self, hart_id: usize, requested: u64) -> MachineResult<Vec<PhysAddr>> {
        let resp = self.invoke_as(
            hart_id,
            Privilege::Os,
            Primitive::Ewb,
            vec![requested],
            vec![],
        )?;
        let pas: Vec<PhysAddr> = resp
            .written_back_frames()
            .iter()
            .map(|&p| PhysAddr(p))
            .collect();
        for pa in &pas {
            self.os.free(pa.ppn());
        }
        Ok(pas)
    }

    /// ESHMGET from inside the enclave: creates a shared region.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmget(
        &mut self,
        hart_id: usize,
        bytes: u64,
        max_perm: ShmPerm,
        device_shared: bool,
    ) -> MachineResult<u64> {
        let eid = self.current_eid(hart_id)?;
        let resp = self.invoke(
            hart_id,
            Primitive::Eshmget,
            vec![eid, bytes, max_perm.bits(), device_shared as u64],
            vec![],
        )?;
        Ok(resp.shm_id().expect("ESHMGET answers with the region id"))
    }

    /// ESHMSHR from the creator enclave: registers `receiver` with `perm`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmshr(
        &mut self,
        hart_id: usize,
        shmid: u64,
        receiver: EnclaveHandle,
        perm: ShmPerm,
    ) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(
            hart_id,
            Primitive::Eshmshr,
            vec![eid, shmid, receiver.0, perm.bits()],
            vec![],
        )?;
        Ok(())
    }

    /// ESHMAT from inside an enclave: attaches a region created by `sender`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmat(
        &mut self,
        hart_id: usize,
        shmid: u64,
        sender: EnclaveHandle,
    ) -> MachineResult<VirtAddr> {
        let eid = self.current_eid(hart_id)?;
        let resp = self.invoke(
            hart_id,
            Primitive::Eshmat,
            vec![eid, shmid, sender.0],
            vec![],
        )?;
        Ok(VirtAddr(
            resp.mapped_va().expect("ESHMAT answers with the mapped VA"),
        ))
    }

    /// ESHMDT from inside an enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmdt(&mut self, hart_id: usize, shmid: u64) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Eshmdt, vec![eid, shmid], vec![])?;
        Ok(())
    }

    /// ESHMDES from the creator enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn shmdes(&mut self, hart_id: usize, shmid: u64) -> MachineResult<()> {
        let eid = self.current_eid(hart_id)?;
        self.invoke(hart_id, Primitive::Eshmdes, vec![eid, shmid], vec![])?;
        Ok(())
    }

    /// EATTEST from inside the enclave: returns the parsed quote.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; primitive failures otherwise.
    pub fn attest(
        &mut self,
        hart_id: usize,
        handle: EnclaveHandle,
        challenge: &[u8],
    ) -> MachineResult<Quote> {
        let eid = self.current_eid(hart_id)?;
        if eid != handle.0 {
            return Err(MachineError::WrongMode);
        }
        let resp = self.invoke(hart_id, Primitive::Eattest, vec![eid], challenge.to_vec())?;
        Quote::from_bytes(&resp.payload)
            .map_err(|_| MachineError::Primitive(hypertee_fabric::message::Status::InvalidArgument))
    }

    /// Seals data under the enclave identity currently on `hart_id`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; EMS-side failures map to `Primitive`.
    pub fn seal(&mut self, hart_id: usize, data: &[u8]) -> MachineResult<Vec<u8>> {
        let eid = self.current_eid(hart_id)?;
        self.ems
            .seal(eid, data)
            .map_err(|e| MachineError::Primitive(e.into()))
    }

    /// Unseals a blob under the enclave identity currently on `hart_id`.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; EMS-side failures map to `Primitive`.
    pub fn unseal(&mut self, hart_id: usize, blob: &[u8]) -> MachineResult<Vec<u8>> {
        let eid = self.current_eid(hart_id)?;
        self.ems
            .unseal(eid, blob)
            .map_err(|e| MachineError::Primitive(e.into()))
    }

    /// Writes into the enclave's address space from inside the enclave
    /// (hart must be entered).
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; memory faults otherwise.
    pub fn enclave_store(
        &mut self,
        hart_id: usize,
        va: VirtAddr,
        data: &[u8],
    ) -> MachineResult<()> {
        self.current_eid(hart_id)?;
        self.vm_store(hart_id, va, data)
    }

    /// Reads from the enclave's address space from inside the enclave.
    ///
    /// # Errors
    ///
    /// `WrongMode` outside an enclave; memory faults otherwise.
    pub fn enclave_load(
        &mut self,
        hart_id: usize,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> MachineResult<()> {
        self.current_eid(hart_id)?;
        self.vm_load(hart_id, va, buf)
    }

    /// HostApp writes into the shared window (host side, physical path).
    ///
    /// # Errors
    ///
    /// Bounds and memory faults.
    pub fn host_window_write(
        &mut self,
        handle: EnclaveHandle,
        offset: u64,
        data: &[u8],
    ) -> MachineResult<()> {
        let pa = self.host_window_range(handle, offset, data.len())?;
        self.sys.phys.write(pa, data).map_err(MachineError::Mem)?;
        // A raw physical write bypasses the MMU store hooks; drop any
        // decoded lines it may have rewritten on every hart.
        for icache in &mut self.icaches {
            icache.invalidate_range(pa.0, data.len() as u64);
        }
        Ok(())
    }

    /// HostApp reads from the shared window (host side).
    ///
    /// # Errors
    ///
    /// Bounds and memory faults.
    pub fn host_window_read(
        &mut self,
        handle: EnclaveHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> MachineResult<()> {
        let pa = self.host_window_range(handle, offset, buf.len())?;
        self.sys.phys.read(pa, buf).map_err(MachineError::Mem)
    }

    /// Physical address of `len` bytes at `offset` into the enclave's host
    /// window. `offset` comes from the untrusted host side, so a range that
    /// wraps or leaves the window is a `BusError`.
    fn host_window_range(
        &self,
        handle: EnclaveHandle,
        offset: u64,
        len: usize,
    ) -> MachineResult<PhysAddr> {
        let info = self.enclave_info(handle)?;
        offset
            .checked_add(len as u64)
            .filter(|&end| end <= info.host_window_bytes)
            .and_then(|_| info.host_window_pa.0.checked_add(offset))
            .map(PhysAddr)
            .ok_or(MachineError::Mem(hypertee_mem::MemFault::BusError {
                pa: info.host_window_pa.0.wrapping_add(offset),
            }))
    }

    /// The enclave-side VA of the host shared window.
    pub fn host_window_va(&self) -> VirtAddr {
        layout::HOST_SHARED_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::EnclaveManifest;

    fn manifest() -> EnclaveManifest {
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").unwrap()
    }

    #[test]
    fn failed_creation_returns_every_host_frame() {
        // ECREATE rejects a stack larger than the enclave's stack window.
        let mut m = Machine::boot_default();
        let oversized = EnclaveManifest::parse("stack = 256M").unwrap();
        let free = m.os.available();
        for _ in 0..3 {
            assert!(m.create_enclave(0, &oversized, &[0x5a; 64 * 1024]).is_err());
            assert_eq!(m.os.available(), free, "staging or window frames leaked");
        }
        assert_eq!(m.ems.enclave_count(), 0);
    }

    #[test]
    fn destroy_returns_the_host_window() {
        let mut m = Machine::boot_default();
        // The first enclave fills the EMS pool from the OS, and the pool
        // keeps those frames; every later lifecycle must be frame-neutral.
        let mut free = None;
        for round in 0..4 {
            let e = m.create_enclave(0, &manifest(), b"window owner").unwrap();
            m.host_window_write(e, 0, b"left for the next owner")
                .unwrap();
            m.destroy(0, e).unwrap();
            m.audit().expect("consistent after destroy");
            let now = m.os.available();
            assert_eq!(
                *free.get_or_insert(now),
                now,
                "round {round}: host window leaked"
            );
        }
    }

    #[test]
    fn failed_load_destroys_the_half_built_enclave() {
        // ECREATE succeeds, then EADD rejects the empty image.
        let mut m = Machine::boot_default();
        assert!(m.create_enclave(0, &manifest(), b"").is_err());
        assert_eq!(m.ems.enclave_count(), 0, "half-built enclave left alive");
        m.audit().expect("consistent after a failed creation");
        let e = m.create_enclave(0, &manifest(), b"after").unwrap();
        m.enter(0, e).unwrap();
    }

    #[test]
    fn quickstart_flow() {
        let mut m = Machine::boot_default();
        let e = m
            .create_enclave(0, &manifest(), b"quickstart image")
            .unwrap();
        m.enter(0, e).unwrap();
        let va = m.ealloc(0, 64 * 1024).unwrap();
        m.enclave_store(0, va, b"working set").unwrap();
        let mut buf = [0u8; 11];
        m.enclave_load(0, va, &mut buf).unwrap();
        assert_eq!(&buf, b"working set");
        let quote = m.attest(0, e, b"nonce").unwrap();
        assert!(quote.verify(&m.ek_public()));
        m.exit(0).unwrap();
        m.destroy(0, e).unwrap();
    }

    #[test]
    fn host_window_transfers_data_both_ways() {
        let mut m = Machine::boot_default();
        let e = m.create_enclave(0, &manifest(), b"window image").unwrap();
        // Host puts encrypted user input in the window…
        m.host_window_write(e, 0, b"user ciphertext in").unwrap();
        m.enter(0, e).unwrap();
        // …the enclave reads it through its mapping…
        let win = m.host_window_va();
        let mut buf = [0u8; 18];
        m.enclave_load(0, win, &mut buf).unwrap();
        assert_eq!(&buf, b"user ciphertext in");
        // …and writes a reply the host can see.
        m.enclave_store(0, win, b"enclave answer out").unwrap();
        m.exit(0).unwrap();
        let mut reply = [0u8; 18];
        m.host_window_read(e, 0, &mut reply).unwrap();
        assert_eq!(&reply, b"enclave answer out");
    }

    #[test]
    fn two_enclaves_shared_memory_flow() {
        let mut m = Machine::boot_default();
        let sender = m.create_enclave(0, &manifest(), b"sender").unwrap();
        let receiver = m.create_enclave(1, &manifest(), b"receiver").unwrap();
        m.enter(0, sender).unwrap();
        let shmid = m.shmget(0, 16 * 1024, ShmPerm::ReadWrite, false).unwrap();
        m.shmshr(0, shmid, receiver, ShmPerm::ReadWrite).unwrap();
        let s_va = m.shmat(0, shmid, sender).unwrap();
        m.enclave_store(0, s_va, b"cross-enclave message").unwrap();

        m.enter(1, receiver).unwrap();
        let r_va = m.shmat(1, shmid, sender).unwrap();
        let mut buf = [0u8; 21];
        m.enclave_load(1, r_va, &mut buf).unwrap();
        assert_eq!(&buf, b"cross-enclave message");

        m.shmdt(1, shmid).unwrap();
        m.shmdt(0, shmid).unwrap();
        m.shmdes(0, shmid).unwrap();
    }

    #[test]
    fn sealing_through_sdk() {
        let mut m = Machine::boot_default();
        let e = m.create_enclave(0, &manifest(), b"sealer image").unwrap();
        m.enter(0, e).unwrap();
        let blob = m.seal(0, b"model weights").unwrap();
        assert_eq!(m.unseal(0, &blob).unwrap(), b"model weights");
    }

    #[test]
    fn user_mode_cannot_create_enclaves_directly() {
        let mut m = Machine::boot_default();
        // Bypassing the SDK's privilege handling: a user-mode invoke of
        // ECREATE is blocked by the gate.
        let err = m
            .invoke(0, Primitive::Ecreate, vec![0, 0, 0, 0], vec![])
            .unwrap_err();
        assert!(matches!(err, MachineError::Gate(_)));
    }

    #[test]
    fn ewb_reclaims_frames_to_os() {
        let mut m = Machine::boot_default();
        let _e = m.create_enclave(0, &manifest(), b"swap target").unwrap();
        let avail_before = m.os.available();
        let pas = m.ewb(0, 4).unwrap();
        assert!(pas.len() >= 4);
        assert!(m.os.available() > avail_before);
    }
}
