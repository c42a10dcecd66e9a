//! VM-level TEE support: confidential virtual machines (CVMs).
//!
//! §IX of the paper: "From the design perspective, HyperTEE can naturally
//! support the lifecycle management of CVMs and the deployment of encrypted
//! VM images by adding dedicated primitives in EMS… To support CVM
//! snapshot, save, and restore, EMS ensures the confidentiality and
//! integrity of CVM memory by encrypting it using AES algorithm and
//! creating a Merkle tree. The encryption key and the root hash value are
//! stored in the private memory of EMS. To support CVM migration, EMS can
//! perform remote attestation between the source and destination nodes to
//! establish an encrypted channel for transmitting the CVM encryption key
//! and root hash value, and then transfer the encrypted CVM."
//!
//! The paper leaves this as future work; this module builds it on the same
//! substrates the enclave path uses: pool-backed memory, per-CVM KeyIDs in
//! the MKTME engine, the Merkle tree from `hypertee-crypto`, and the
//! EK/quote machinery for cross-node attestation.

use crate::error::{EmsError, EmsResult};
use crate::runtime::{Ems, EmsContext};
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::ecdh::{EcdhPrivate, EcdhPublic};
use hypertee_crypto::hmac::{hmac_sha256, kdf, kdf_aes128};
use hypertee_crypto::merkle::{MerkleProof, MerkleTree};
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::sig::PublicKey;
use hypertee_crypto::util::ct_eq;
use hypertee_mem::addr::{KeyId, Ppn, PAGE_SIZE};
use hypertee_mem::ownership::PageOwner;

/// Identifier of a confidential VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CvmId(pub u64);

/// Life-cycle state of a CVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvmState {
    /// Deployed and runnable.
    Active,
    /// Saved to a snapshot; memory released.
    Saved,
    /// Migrated away; this node no longer owns it.
    MigratedOut,
}

/// EMS-private control structure for one CVM.
#[derive(Debug)]
pub(crate) struct CvmControl {
    /// State.
    pub(crate) state: CvmState,
    /// Guest memory frames (released while `Saved`).
    pub(crate) frames: Vec<Ppn>,
    /// Guest memory size in pages (stable across save/restore).
    pub(crate) pages: u64,
    /// MKTME KeyID while active.
    pub(crate) key: Option<KeyId>,
    /// Key-derivation nonce.
    pub(crate) key_nonce: [u8; 32],
    /// Measurement of the deployed image.
    pub(crate) measurement: [u8; 32],
    /// Snapshot root hash + sequence (EMS-private, §IX).
    snapshot_root: Option<([u8; 32], u64)>,
    /// Snapshot encryption key (EMS-private; transported over the attested
    /// channel during migration per §IX).
    snap_key: [u8; 16],
}

/// A saved snapshot as handed to the untrusted host for disk storage: only
/// ciphertext pages and proofs. The key and root stay inside EMS.
#[derive(Debug, Clone)]
pub struct CvmSnapshot {
    /// The CVM this snapshot belongs to.
    pub(crate) cvm: CvmId,
    /// Monotonic sequence number (blocks rollback to older snapshots).
    pub sequence: u64,
    /// Encrypted pages.
    pub pages: Vec<Vec<u8>>,
    /// Merkle inclusion proof per page.
    pub(crate) proofs: Vec<MerkleProof>,
}

/// Message 1 of CVM migration: the destination node's offer — its ephemeral
/// channel key bound to a platform quote.
#[derive(Debug, Clone)]
pub struct MigrationOffer {
    /// Destination ephemeral ECDH public key.
    pub(crate) channel_pub: EcdhPublic,
    /// Destination platform quote with `report_data` = H(channel_pub).
    pub(crate) quote: crate::attest::Quote,
}

/// The destination's private half of an offer.
pub struct MigrationOfferPriv {
    channel: EcdhPrivate,
}

impl core::fmt::Debug for MigrationOfferPriv {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "MigrationOfferPriv {{ <redacted> }}")
    }
}

/// The encrypted bundle shipped from source to destination: snapshot pages
/// plus the wrapped CVM secrets (key material, root hash, measurement).
#[derive(Debug, Clone)]
pub struct MigrationBundle {
    /// The snapshot (ciphertext pages + proofs).
    pub snapshot: CvmSnapshot,
    /// Source ephemeral ECDH public key.
    pub(crate) source_pub: EcdhPublic,
    /// Channel-encrypted secret block.
    pub wrapped_secrets: Vec<u8>,
    /// HMAC over the whole bundle under the channel key.
    pub(crate) mac: [u8; 32],
}

/// Per-CVM secrets carried in a migration (serialized form).
#[allow(clippy::too_many_arguments)]
fn pack_secrets(
    nonce: &[u8; 32],
    root: &[u8; 32],
    seq: u64,
    meas: &[u8; 32],
    pages: u64,
    snap_key: &[u8; 16],
) -> Vec<u8> {
    let mut v = Vec::with_capacity(128);
    v.extend_from_slice(nonce);
    v.extend_from_slice(root);
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(meas);
    v.extend_from_slice(&pages.to_le_bytes());
    v.extend_from_slice(snap_key);
    v
}

type Secrets = ([u8; 32], [u8; 32], u64, [u8; 32], u64, [u8; 16]);

fn unpack_secrets(v: &[u8]) -> Option<Secrets> {
    if v.len() != 128 {
        return None;
    }
    Some((
        v[0..32].try_into().ok()?,
        v[32..64].try_into().ok()?,
        u64::from_le_bytes(v[64..72].try_into().ok()?),
        v[72..104].try_into().ok()?,
        u64::from_le_bytes(v[104..112].try_into().ok()?),
        v[112..128].try_into().ok()?,
    ))
}

impl Ems {
    fn cvm(&self, id: CvmId) -> EmsResult<&CvmControl> {
        self.cvms.get(&id.0).ok_or(EmsError::NotFound)
    }

    fn cvm_mut(&mut self, id: CvmId) -> EmsResult<&mut CvmControl> {
        self.cvms.get_mut(&id.0).ok_or(EmsError::NotFound)
    }

    /// Derives the per-CVM MKTME keys from SK and the CVM nonce.
    fn cvm_memory_keys(&self, nonce: &[u8; 32]) -> ([u8; 16], [u8; 32]) {
        (
            kdf_aes128(&self.vault.sk(), b"cvm-memory", nonce),
            kdf(&self.vault.sk(), b"cvm-memory-mac", nonce),
        )
    }

    /// Derives the snapshot encryption key (EMS-private, §IX).
    fn cvm_snapshot_key(&self, nonce: &[u8; 32]) -> [u8; 16] {
        kdf_aes128(&self.vault.sk(), b"cvm-snapshot", nonce)
    }

    /// CVMCREATE: deploys an encrypted VM image. `image_ct` is the image
    /// encrypted under `image_key` (negotiated between the VM owner and EMS
    /// out of band, e.g. via remote attestation); EMS decrypts, measures,
    /// and loads it into pool-backed, MKTME-encrypted guest memory.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for empty/oversized images; `Exhausted` on frame
    /// or KeyID pressure.
    pub fn cvm_create(
        &mut self,
        ctx: &mut EmsContext<'_>,
        image_ct: &[u8],
        image_key: &[u8; 16],
        guest_pages: u64,
    ) -> EmsResult<CvmId> {
        if image_ct.is_empty() || image_ct.len() as u64 > guest_pages * PAGE_SIZE {
            return Err(EmsError::InvalidArgument);
        }
        if guest_pages == 0 || guest_pages > 65536 {
            return Err(EmsError::InvalidArgument);
        }
        // Decrypt the deployed image inside EMS.
        let mut image = image_ct.to_vec();
        Aes128::new(image_key).ctr_apply(&ctr_iv(0x4356_4d49, 0), &mut image);
        let measurement = sha256(&image);

        let id = CvmId(self.fresh_cvm_id());
        let key = self.alloc_keyid(ctx)?;
        let nonce = self.rng.gen_bytes32();
        let (aes, mac) = self.cvm_memory_keys(&nonce);
        let snap_key = self.cvm_snapshot_key(&nonce);
        ctx.hub
            .ems_program_key(&self.cap, &mut ctx.sys.engine, key, &aes, &mac);

        let mut frames = Vec::with_capacity(guest_pages as usize);
        for i in 0..guest_pages {
            let frame = self.pool.take(ctx.os_frames, ctx.sys)?;
            self.ownership
                .claim(frame, PageOwner::EmsPrivate)
                .map_err(|_| EmsError::AccessDenied)?;
            // Populate: image bytes for the head, zeros beyond.
            let mut page = vec![0u8; PAGE_SIZE as usize];
            let off = (i * PAGE_SIZE) as usize;
            if off < image.len() {
                let take = (image.len() - off).min(PAGE_SIZE as usize);
                page[..take].copy_from_slice(&image[off..off + take]);
            }
            let sys = &mut *ctx.sys;
            sys.engine.write(&mut sys.phys, frame.base(), key, &page)?;
            frames.push(frame);
        }
        self.cvms.insert(
            id.0,
            CvmControl {
                state: CvmState::Active,
                frames,
                pages: guest_pages,
                key: Some(key),
                key_nonce: nonce,
                measurement,
                snapshot_root: None,
                snap_key,
            },
        );
        Ok(id)
    }

    /// Reads guest memory through the CVM's key (the guest-visible view).
    ///
    /// # Errors
    ///
    /// `BadState` unless active; bounds and memory faults otherwise.
    pub fn cvm_read(
        &mut self,
        ctx: &mut EmsContext<'_>,
        id: CvmId,
        offset: u64,
        buf: &mut [u8],
    ) -> EmsResult<()> {
        let cvm = self.cvm(id)?;
        if cvm.state != CvmState::Active {
            return Err(EmsError::BadState);
        }
        let key = cvm.key.ok_or(EmsError::BadState)?;
        if offset + buf.len() as u64 > cvm.pages * PAGE_SIZE {
            return Err(EmsError::InvalidArgument);
        }
        let frames = cvm.frames.clone();
        let mut done = 0usize;
        let mut pos = offset;
        while done < buf.len() {
            let page = (pos / PAGE_SIZE) as usize;
            let off = pos % PAGE_SIZE;
            let take = ((PAGE_SIZE - off) as usize).min(buf.len() - done);
            let sys = &mut *ctx.sys;
            sys.engine.read(
                &mut sys.phys,
                hypertee_mem::addr::PhysAddr(frames[page].base().0 + off),
                key,
                &mut buf[done..done + take],
            )?;
            done += take;
            pos += take as u64;
        }
        Ok(())
    }

    /// Writes guest memory through the CVM's key.
    ///
    /// # Errors
    ///
    /// `BadState` unless active; bounds and memory faults otherwise.
    pub fn cvm_write(
        &mut self,
        ctx: &mut EmsContext<'_>,
        id: CvmId,
        offset: u64,
        data: &[u8],
    ) -> EmsResult<()> {
        let cvm = self.cvm(id)?;
        if cvm.state != CvmState::Active {
            return Err(EmsError::BadState);
        }
        let key = cvm.key.ok_or(EmsError::BadState)?;
        if offset + data.len() as u64 > cvm.pages * PAGE_SIZE {
            return Err(EmsError::InvalidArgument);
        }
        let frames = cvm.frames.clone();
        let mut done = 0usize;
        let mut pos = offset;
        while done < data.len() {
            let page = (pos / PAGE_SIZE) as usize;
            let off = pos % PAGE_SIZE;
            let take = ((PAGE_SIZE - off) as usize).min(data.len() - done);
            let sys = &mut *ctx.sys;
            sys.engine.write(
                &mut sys.phys,
                hypertee_mem::addr::PhysAddr(frames[page].base().0 + off),
                key,
                &data[done..done + take],
            )?;
            done += take;
            pos += take as u64;
        }
        Ok(())
    }

    /// CVM snapshot/save (§IX): encrypts every guest page under the
    /// EMS-private snapshot key, builds a Merkle tree over the ciphertext,
    /// stores (key, root, sequence) in EMS private memory, releases the
    /// guest frames, and returns the ciphertext pages for the host to park
    /// on disk.
    ///
    /// # Errors
    ///
    /// `BadState` unless active.
    pub fn cvm_save(&mut self, ctx: &mut EmsContext<'_>, id: CvmId) -> EmsResult<CvmSnapshot> {
        let (key, snap_key, frames, seq) = {
            let cvm = self.cvm(id)?;
            if cvm.state != CvmState::Active {
                return Err(EmsError::BadState);
            }
            let seq = cvm.snapshot_root.map(|(_, s)| s + 1).unwrap_or(0);
            (
                cvm.key.ok_or(EmsError::BadState)?,
                cvm.snap_key,
                cvm.frames.clone(),
                seq,
            )
        };
        let cipher = Aes128::new(&snap_key);
        let mut pages = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            // Read plaintext through the CVM key, then snapshot-encrypt.
            let mut page = vec![0u8; PAGE_SIZE as usize];
            let sys = &mut *ctx.sys;
            sys.engine
                .read(&mut sys.phys, frame.base(), key, &mut page)?;
            cipher.ctr_apply(&ctr_iv(i as u64, seq), &mut page);
            pages.push(page);
        }
        let tree = MerkleTree::build(&pages);
        let proofs = (0..pages.len()).map(|i| tree.prove(i)).collect();
        // Release guest memory and the KeyID.
        for frame in frames {
            self.ownership
                .release(frame, PageOwner::EmsPrivate)
                .map_err(|_| EmsError::AccessDenied)?;
            self.pool.give_back(frame, ctx.sys)?;
        }
        ctx.hub.ems_revoke_key(&self.cap, &mut ctx.sys.engine, key);
        self.free_keyid(key);
        let cvm = self.cvm_mut(id)?;
        cvm.frames = Vec::new();
        cvm.key = None;
        cvm.state = CvmState::Saved;
        cvm.snapshot_root = Some((tree.root(), seq));
        Ok(CvmSnapshot {
            cvm: id,
            sequence: seq,
            pages,
            proofs,
        })
    }

    /// CVM restore (§IX): verifies every ciphertext page against the
    /// EMS-held root hash (catching tampering *and* rollback to an older
    /// sequence), decrypts, and repopulates fresh guest memory under a new
    /// KeyID.
    ///
    /// # Errors
    ///
    /// `AccessDenied` on any integrity or rollback violation; `BadState`
    /// unless saved.
    pub fn cvm_restore(
        &mut self,
        ctx: &mut EmsContext<'_>,
        snapshot: &CvmSnapshot,
    ) -> EmsResult<()> {
        let (root, seq, nonce, pages_expected, snap_key) = {
            let cvm = self.cvm(snapshot.cvm)?;
            if cvm.state != CvmState::Saved {
                return Err(EmsError::BadState);
            }
            let (root, seq) = cvm.snapshot_root.ok_or(EmsError::BadState)?;
            (root, seq, cvm.key_nonce, cvm.pages, cvm.snap_key)
        };
        if snapshot.sequence != seq
            || snapshot.pages.len() as u64 != pages_expected
            || snapshot.proofs.len() != snapshot.pages.len()
        {
            return Err(EmsError::AccessDenied);
        }
        // Verify every page against the EMS-private root before any decrypt.
        for (i, (page, proof)) in snapshot.pages.iter().zip(&snapshot.proofs).enumerate() {
            if proof.index != i || !MerkleTree::verify(&root, page, proof) {
                return Err(EmsError::AccessDenied);
            }
        }
        let cipher = Aes128::new(&snap_key);
        let key = self.alloc_keyid(ctx)?;
        let (aes, mac) = self.cvm_memory_keys(&nonce);
        ctx.hub
            .ems_program_key(&self.cap, &mut ctx.sys.engine, key, &aes, &mac);
        let mut frames = Vec::with_capacity(snapshot.pages.len());
        for (i, ct) in snapshot.pages.iter().enumerate() {
            let mut page = ct.clone();
            cipher.ctr_apply(&ctr_iv(i as u64, seq), &mut page);
            let frame = self.pool.take(ctx.os_frames, ctx.sys)?;
            self.ownership
                .claim(frame, PageOwner::EmsPrivate)
                .map_err(|_| EmsError::AccessDenied)?;
            let sys = &mut *ctx.sys;
            sys.engine.write(&mut sys.phys, frame.base(), key, &page)?;
            frames.push(frame);
        }
        let cvm = self.cvm_mut(snapshot.cvm)?;
        cvm.frames = frames;
        cvm.key = Some(key);
        cvm.state = CvmState::Active;
        Ok(())
    }

    /// Destroys a CVM, zeroing and reclaiming its memory.
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown ids.
    pub fn cvm_destroy(&mut self, ctx: &mut EmsContext<'_>, id: CvmId) -> EmsResult<()> {
        let cvm = self.cvms.remove(&id.0).ok_or(EmsError::NotFound)?;
        for frame in cvm.frames {
            self.ownership
                .release(frame, PageOwner::EmsPrivate)
                .map_err(|_| EmsError::AccessDenied)?;
            self.pool.give_back(frame, ctx.sys)?;
        }
        if let Some(key) = cvm.key {
            ctx.hub.ems_revoke_key(&self.cap, &mut ctx.sys.engine, key);
            self.free_keyid(key);
        }
        Ok(())
    }

    /// Migration step ①, destination side: produce an offer — an ephemeral
    /// channel key bound to this platform's quote.
    pub fn migration_offer(&mut self) -> (MigrationOffer, MigrationOfferPriv) {
        let channel = EcdhPrivate::generate(&mut self.rng);
        let rd = sha256(&channel.public.to_bytes());
        let quote = self.platform_quote(rd);
        (
            MigrationOffer {
                channel_pub: channel.public,
                quote,
            },
            MigrationOfferPriv { channel },
        )
    }

    /// Migration step ②, source side: verify the destination's platform
    /// quote against the trusted manufacturer EK, snapshot the CVM, wrap its
    /// secrets under the ECDH channel key, and emit the bundle. The CVM is
    /// marked `MigratedOut` locally.
    ///
    /// # Errors
    ///
    /// `AccessDenied` when the destination quote fails verification.
    pub fn migrate_out(
        &mut self,
        ctx: &mut EmsContext<'_>,
        id: CvmId,
        offer: &MigrationOffer,
        trusted_ek: &PublicKey,
    ) -> EmsResult<MigrationBundle> {
        // Remote attestation of the destination node (§IX).
        if !offer.quote.verify(trusted_ek) {
            return Err(EmsError::AccessDenied);
        }
        let rd = sha256(&offer.channel_pub.to_bytes());
        if !ct_eq(&offer.quote.report_data, &rd) {
            return Err(EmsError::AccessDenied);
        }
        let snapshot = self.cvm_save(ctx, id)?;
        let (nonce, root_seq, measurement, pages, snap_key) = {
            let cvm = self.cvm(id)?;
            (
                cvm.key_nonce,
                cvm.snapshot_root.ok_or(EmsError::BadState)?,
                cvm.measurement,
                cvm.pages,
                cvm.snap_key,
            )
        };
        // Encrypted channel for the key material.
        let eph = EcdhPrivate::generate(&mut self.rng);
        let channel_key = eph
            .shared_key(&offer.channel_pub)
            .map_err(|_| EmsError::AccessDenied)?;
        let mut secrets = pack_secrets(
            &nonce,
            &root_seq.0,
            root_seq.1,
            &measurement,
            pages,
            &snap_key,
        );
        Aes128::new(channel_key[..16].try_into().expect("16"))
            .ctr_apply(&ctr_iv(0x4d49_4752, 0), &mut secrets);
        let mut mac_input = Vec::new();
        mac_input.extend_from_slice(&secrets);
        mac_input.extend_from_slice(&root_seq.0);
        for p in &snapshot.pages {
            mac_input.extend_from_slice(&sha256(p));
        }
        let mac = hmac_sha256(&channel_key, &mac_input);
        let cvm = self.cvm_mut(id)?;
        cvm.state = CvmState::MigratedOut;
        Ok(MigrationBundle {
            snapshot,
            source_pub: eph.public,
            wrapped_secrets: secrets,
            mac,
        })
    }

    /// Migration step ③, destination side: derive the channel key, verify
    /// the bundle MAC, unwrap the secrets, verify every page against the
    /// transported root, and install the CVM locally.
    ///
    /// # Errors
    ///
    /// `AccessDenied` on MAC, root, or proof failures.
    pub fn migrate_in(
        &mut self,
        ctx: &mut EmsContext<'_>,
        bundle: &MigrationBundle,
        offer_priv: &MigrationOfferPriv,
    ) -> EmsResult<CvmId> {
        let channel_key = offer_priv
            .channel
            .shared_key(&bundle.source_pub)
            .map_err(|_| EmsError::AccessDenied)?;
        let mut secrets = bundle.wrapped_secrets.clone();
        Aes128::new(channel_key[..16].try_into().expect("16"))
            .ctr_apply(&ctr_iv(0x4d49_4752, 0), &mut secrets);
        let (nonce, root, seq, measurement, pages, snap_key) =
            unpack_secrets(&secrets).ok_or(EmsError::AccessDenied)?;
        // Verify the bundle MAC (over the *wrapped* secrets + page digests).
        let mut mac_input = Vec::new();
        mac_input.extend_from_slice(&bundle.wrapped_secrets);
        mac_input.extend_from_slice(&root);
        for p in &bundle.snapshot.pages {
            mac_input.extend_from_slice(&sha256(p));
        }
        if !ct_eq(&hmac_sha256(&channel_key, &mac_input), &bundle.mac) {
            return Err(EmsError::AccessDenied);
        }
        if bundle.snapshot.pages.len() as u64 != pages || bundle.snapshot.sequence != seq {
            return Err(EmsError::AccessDenied);
        }
        // Install a control structure in Saved state, then restore.
        let id = CvmId(self.fresh_cvm_id());
        self.cvms.insert(
            id.0,
            CvmControl {
                state: CvmState::Saved,
                frames: Vec::new(),
                pages,
                key: None,
                key_nonce: nonce,
                measurement,
                snapshot_root: Some((root, seq)),
                snap_key,
            },
        );
        let relabelled = CvmSnapshot {
            cvm: id,
            sequence: seq,
            pages: bundle.snapshot.pages.clone(),
            proofs: bundle.snapshot.proofs.clone(),
        };
        self.cvm_restore(ctx, &relabelled)?;
        Ok(id)
    }

    /// The measurement of a CVM's deployed image.
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown ids.
    pub fn cvm_measurement(&self, id: CvmId) -> EmsResult<[u8; 32]> {
        Ok(self.cvm(id)?.measurement)
    }

    /// The state of a CVM.
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown ids.
    pub fn cvm_state(&self, id: CvmId) -> EmsResult<CvmState> {
        Ok(self.cvm(id)?.state)
    }
}
