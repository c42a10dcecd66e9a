//! Measurement, attestation, and sealing (§VI).
//!
//! * **EATTEST / quotes** — EMS signs the platform measurement with the EK
//!   and the enclave measurement with the AK, producing a [`Quote`] a remote
//!   verifier can check against the manufacturer's EK.
//! * **Remote attestation** — the SIGMA-style flow (§VI): ECDH key
//!   negotiation, certificates over the transcript, MAC binding.
//! * **Local attestation** — report-key MACs derived from the challenger's
//!   measurement and SK.
//! * **Data sealing** — encrypt-then-MAC under the measurement-bound
//!   sealing key.

use crate::error::{EmsError, EmsResult};
use crate::runtime::Ems;
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::ecdh::{EcdhPrivate, EcdhPublic};
use hypertee_crypto::hmac::hmac_sha256;
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::sig::{PublicKey, Signature};
use hypertee_crypto::util::ct_eq;

/// An attestation quote: the evidence package EATTEST returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Platform (software TCB) measurement from secure boot.
    pub platform_measurement: [u8; 32],
    /// Enclave measurement (EMEAS digest).
    pub enclave_measurement: [u8; 32],
    /// Hash of caller-supplied challenge data (freshness / binding).
    pub report_data: [u8; 32],
    /// Salt used to derive the AK from SK.
    pub ak_salt: [u8; 32],
    /// The attestation public key.
    pub ak_pub: PublicKey,
    /// EK signature over (ak_pub ‖ ak_salt ‖ platform_measurement):
    /// the platform certificate chaining the AK to the EK.
    pub(crate) platform_sig: Signature,
    /// AK signature over (enclave_measurement ‖ report_data ‖
    /// platform_measurement): the enclave certificate.
    pub(crate) enclave_sig: Signature,
}

impl Quote {
    fn platform_msg(ak_pub: &PublicKey, ak_salt: &[u8; 32], pm: &[u8; 32]) -> Vec<u8> {
        let mut m = Vec::with_capacity(128);
        m.extend_from_slice(&ak_pub.to_bytes());
        m.extend_from_slice(ak_salt);
        m.extend_from_slice(pm);
        m
    }

    fn enclave_msg(em: &[u8; 32], rd: &[u8; 32], pm: &[u8; 32]) -> Vec<u8> {
        let mut m = Vec::with_capacity(96);
        m.extend_from_slice(em);
        m.extend_from_slice(rd);
        m.extend_from_slice(pm);
        m
    }

    /// Verifies the full chain against a trusted EK public key, returning
    /// `true` only if both certificates check out.
    pub fn verify(&self, trusted_ek: &PublicKey) -> bool {
        let pm = Self::platform_msg(&self.ak_pub, &self.ak_salt, &self.platform_measurement);
        if !trusted_ek.verify(&pm, &self.platform_sig) {
            return false;
        }
        let em = Self::enclave_msg(
            &self.enclave_measurement,
            &self.report_data,
            &self.platform_measurement,
        );
        self.ak_pub.verify(&em, &self.enclave_sig)
    }

    /// Serializes to a fixed 384-byte wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(384);
        out.extend_from_slice(&self.platform_measurement);
        out.extend_from_slice(&self.enclave_measurement);
        out.extend_from_slice(&self.report_data);
        out.extend_from_slice(&self.ak_salt);
        out.extend_from_slice(&self.ak_pub.to_bytes());
        out.extend_from_slice(&self.platform_sig.to_bytes());
        out.extend_from_slice(&self.enclave_sig.to_bytes());
        out
    }

    /// Parses the wire format.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` on length or point-decoding failures.
    pub fn from_bytes(bytes: &[u8]) -> EmsResult<Quote> {
        if bytes.len() != 384 {
            return Err(EmsError::InvalidArgument);
        }
        let f32 = |o: usize| -> [u8; 32] { bytes[o..o + 32].try_into().expect("32") };
        let ak_pub = PublicKey::from_bytes(&bytes[128..192].try_into().expect("64"))
            .map_err(|_| EmsError::InvalidArgument)?;
        let platform_sig = Signature::from_bytes(&bytes[192..288].try_into().expect("96"))
            .map_err(|_| EmsError::InvalidArgument)?;
        let enclave_sig = Signature::from_bytes(&bytes[288..384].try_into().expect("96"))
            .map_err(|_| EmsError::InvalidArgument)?;
        Ok(Quote {
            platform_measurement: f32(0),
            enclave_measurement: f32(32),
            report_data: f32(64),
            ak_salt: f32(96),
            ak_pub,
            platform_sig,
            enclave_sig,
        })
    }
}

/// A local-attestation report: the verifier's measurement MAC'd under the
/// report key derived from the *challenger's* measurement and SK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalReport {
    /// The verifier enclave's measurement.
    pub(crate) verifier_measurement: [u8; 32],
    /// MAC under the challenger-bound report key.
    pub(crate) mac: [u8; 32],
}

/// Message 1 of the SIGMA remote-attestation flow: the remote user's
/// ephemeral public key and nonce.
#[derive(Debug, Clone)]
pub struct SigmaMsg1 {
    /// Remote user's ephemeral ECDH public key.
    pub(crate) user_pub: EcdhPublic,
    /// Freshness nonce.
    pub nonce: [u8; 32],
}

/// Message 2: the platform's reply — its ephemeral key, the quote binding
/// the transcript, and a MAC under the derived session key.
#[derive(Debug, Clone)]
pub struct SigmaMsg2 {
    /// Platform-side ephemeral ECDH public key.
    pub enclave_pub: EcdhPublic,
    /// Quote with `report_data` = H(transcript).
    pub quote: Quote,
    /// HMAC(session_key, transcript) — the "sign-and-mac" binding.
    pub mac: [u8; 32],
}

/// The remote user's half of the SIGMA exchange.
#[derive(Debug)]
pub struct SigmaInitiator {
    ecdh: EcdhPrivate,
    nonce: [u8; 32],
}

fn transcript_hash(user_pub: &EcdhPublic, nonce: &[u8; 32], enclave_pub: &EcdhPublic) -> [u8; 32] {
    let mut t = Vec::with_capacity(160);
    t.extend_from_slice(&user_pub.to_bytes());
    t.extend_from_slice(nonce);
    t.extend_from_slice(&enclave_pub.to_bytes());
    sha256(&t)
}

impl SigmaInitiator {
    /// Step ①: the remote user opens the exchange.
    pub fn start(rng: &mut ChaChaRng) -> (SigmaInitiator, SigmaMsg1) {
        let ecdh = EcdhPrivate::generate(rng);
        let nonce = rng.gen_bytes32();
        let msg = SigmaMsg1 {
            user_pub: ecdh.public,
            nonce,
        };
        (SigmaInitiator { ecdh, nonce }, msg)
    }

    /// Step ① with a caller-supplied nonce: used by challenge-response
    /// services that issue the freshness nonce server-side, so the quote in
    /// [`SigmaMsg2`] is bound to *that* challenge (the responder's replay
    /// guard and the service's challenge registry both key on it).
    pub fn start_with_nonce(rng: &mut ChaChaRng, nonce: [u8; 32]) -> (SigmaInitiator, SigmaMsg1) {
        let ecdh = EcdhPrivate::generate(rng);
        let msg = SigmaMsg1 {
            user_pub: ecdh.public,
            nonce,
        };
        (SigmaInitiator { ecdh, nonce }, msg)
    }

    /// Step ③: verifies the platform reply. On success returns the shared
    /// session key.
    ///
    /// # Errors
    ///
    /// `AccessDenied` when any certificate, binding, or measurement check
    /// fails — the platform is declared untrustworthy.
    pub fn finish(
        &self,
        msg2: &SigmaMsg2,
        trusted_ek: &PublicKey,
        expected_enclave_measurement: &[u8; 32],
    ) -> EmsResult<[u8; 32]> {
        if !msg2.quote.verify(trusted_ek) {
            return Err(EmsError::AccessDenied);
        }
        if !ct_eq(
            &msg2.quote.enclave_measurement,
            expected_enclave_measurement,
        ) {
            return Err(EmsError::AccessDenied);
        }
        let th = transcript_hash(&self.ecdh.public, &self.nonce, &msg2.enclave_pub);
        if !ct_eq(&msg2.quote.report_data, &th) {
            return Err(EmsError::AccessDenied);
        }
        let session = self
            .ecdh
            .shared_key(&msg2.enclave_pub)
            .map_err(|_| EmsError::AccessDenied)?;
        let mac = hmac_sha256(&session, &th);
        if !ct_eq(&mac, &msg2.mac) {
            return Err(EmsError::AccessDenied);
        }
        Ok(session)
    }
}

impl Ems {
    /// EATTEST: produces a [`Quote`] for a measured enclave over
    /// caller-supplied challenge data.
    ///
    /// # Errors
    ///
    /// `BadState` before EMEAS.
    pub fn eattest(&mut self, eid: u64, challenge: &[u8]) -> EmsResult<Quote> {
        let enclave_measurement = self
            .enclave(eid)?
            .measurement
            .digest()
            .ok_or(EmsError::BadState)?;
        let report_data = sha256(challenge);
        Ok(self.quote_for(enclave_measurement, report_data))
    }

    fn quote_for(&self, enclave_measurement: [u8; 32], report_data: [u8; 32]) -> Quote {
        let pm = self.platform_measurement;
        let platform_sig = *self.platform_cert.get_or_init(|| {
            let msg = Quote::platform_msg(&self.vault.ak.public, &self.vault.ak_salt, &pm);
            self.vault.ek.sign(&msg)
        });
        let enclave_msg = Quote::enclave_msg(&enclave_measurement, &report_data, &pm);
        let enclave_sig = self.vault.ak.sign(&enclave_msg);
        Quote {
            platform_measurement: pm,
            enclave_measurement,
            report_data,
            ak_salt: self.vault.ak_salt,
            ak_pub: self.vault.ak.public,
            platform_sig,
            enclave_sig,
        }
    }

    /// A platform-only quote (zero enclave measurement) over arbitrary
    /// report data — used by CVM migration to attest the destination node.
    pub(crate) fn platform_quote(&self, report_data: [u8; 32]) -> Quote {
        self.quote_for([0u8; 32], report_data)
    }

    /// The platform EK public key (published by the manufacturer; remote
    /// users pin this).
    pub fn ek_public(&self) -> PublicKey {
        self.vault.ek.public
    }

    /// Step ② of SIGMA remote attestation: EMS answers a remote user's
    /// [`SigmaMsg1`] on behalf of enclave `eid`.
    ///
    /// # Errors
    ///
    /// `BadState` before EMEAS; `AccessDenied` for a degenerate user key or
    /// a replayed `msg1` nonce.
    pub fn sigma_respond(&mut self, eid: u64, msg1: &SigmaMsg1) -> EmsResult<SigmaMsg2> {
        self.sigma_respond_keyed(eid, msg1).map(|(msg2, _)| msg2)
    }

    /// Step ② of SIGMA, returning the derived session key alongside the
    /// reply. The key never leaves the platform in the message — a service
    /// facade running *inside* the trust boundary uses it to MAC-bind
    /// session tokens and responses to this exact handshake.
    ///
    /// A bounded journal of recently seen `msg1` nonces rejects replays
    /// fail-closed: answering the same opening message twice would let an
    /// eavesdropper correlate quotes across sessions. The journal lives in
    /// EMS private memory and survives crash-restart (it is persistent
    /// state, like the ownership table).
    ///
    /// # Errors
    ///
    /// `BadState` before EMEAS; `AccessDenied` for a degenerate user key or
    /// a replayed `msg1` nonce.
    pub fn sigma_respond_keyed(
        &mut self,
        eid: u64,
        msg1: &SigmaMsg1,
    ) -> EmsResult<(SigmaMsg2, [u8; 32])> {
        let enclave_measurement = self
            .enclave(eid)?
            .measurement
            .digest()
            .ok_or(EmsError::BadState)?;
        if self.sigma_seen.contains(&msg1.nonce) {
            return Err(EmsError::AccessDenied);
        }
        if self.sigma_seen.len() >= crate::runtime::SIGMA_SEEN_CAP {
            self.sigma_seen.pop_front();
        }
        self.sigma_seen.push_back(msg1.nonce);
        let eph = EcdhPrivate::generate(&mut self.rng);
        let th = transcript_hash(&msg1.user_pub, &msg1.nonce, &eph.public);
        let quote = self.quote_for(enclave_measurement, th);
        let session = eph
            .shared_key(&msg1.user_pub)
            .map_err(|_| EmsError::AccessDenied)?;
        let mac = hmac_sha256(&session, &th);
        Ok((
            SigmaMsg2 {
                enclave_pub: eph.public,
                quote,
                mac,
            },
            session,
        ))
    }

    /// Local attestation, verifier side: EMS MACs the verifier's
    /// measurement under the report key derived from the *challenger's*
    /// measurement (§VI step ②).
    ///
    /// # Errors
    ///
    /// `BadState` before EMEAS.
    pub fn local_report(
        &self,
        verifier_eid: u64,
        challenger_measurement: &[u8; 32],
    ) -> EmsResult<LocalReport> {
        let vm = self
            .enclave(verifier_eid)?
            .measurement
            .digest()
            .ok_or(EmsError::BadState)?;
        let rk = self.vault.report_key(challenger_measurement);
        let mac = hmac_sha256(&rk, &vm);
        Ok(LocalReport {
            verifier_measurement: vm,
            mac,
        })
    }

    /// Local attestation, challenger side: EMS re-derives the report key
    /// from the *challenger's own* measurement and checks the MAC (§VI
    /// step ③). Only reports generated on the same platform (same SK) for
    /// this exact challenger verify.
    ///
    /// # Errors
    ///
    /// `BadState` before EMEAS.
    pub fn local_verify(&self, challenger_eid: u64, report: &LocalReport) -> EmsResult<bool> {
        let cm = self
            .enclave(challenger_eid)?
            .measurement
            .digest()
            .ok_or(EmsError::BadState)?;
        let rk = self.vault.report_key(&cm);
        let expect = hmac_sha256(&rk, &report.verifier_measurement);
        Ok(ct_eq(&expect, &report.mac))
    }

    /// Data sealing (§VI): encrypt-then-MAC `data` under the enclave's
    /// measurement-bound sealing key. The blob layout is
    /// `nonce(16) ‖ ciphertext ‖ hmac(32)`.
    ///
    /// # Errors
    ///
    /// `BadState` before EMEAS.
    pub fn seal(&mut self, eid: u64, data: &[u8]) -> EmsResult<Vec<u8>> {
        let m = self
            .enclave(eid)?
            .measurement
            .digest()
            .ok_or(EmsError::BadState)?;
        let key = self.vault.sealing_key(&m);
        let mut nonce = [0u8; 16];
        self.rng.fill_bytes(&mut nonce);
        let cipher = Aes128::new(key[..16].try_into().expect("16"));
        let mut ct = data.to_vec();
        let iv = ctr_iv(
            u64::from_le_bytes(nonce[..8].try_into().expect("8")),
            u64::from_le_bytes(nonce[8..].try_into().expect("8")),
        );
        cipher.ctr_apply(&iv, &mut ct);
        let mut blob = Vec::with_capacity(16 + ct.len() + 32);
        blob.extend_from_slice(&nonce);
        blob.extend_from_slice(&ct);
        let mac = hmac_sha256(&key, &blob);
        blob.extend_from_slice(&mac);
        Ok(blob)
    }

    /// Unseals a blob sealed by the *same enclave identity on the same
    /// platform*.
    ///
    /// # Errors
    ///
    /// `AccessDenied` on MAC failure (wrong enclave, wrong platform, or
    /// tampering); `InvalidArgument` for malformed blobs; `BadState`
    /// before EMEAS.
    pub fn unseal(&self, eid: u64, blob: &[u8]) -> EmsResult<Vec<u8>> {
        if blob.len() < 48 {
            return Err(EmsError::InvalidArgument);
        }
        let m = self
            .enclave(eid)?
            .measurement
            .digest()
            .ok_or(EmsError::BadState)?;
        let key = self.vault.sealing_key(&m);
        let (body, mac) = blob.split_at(blob.len() - 32);
        let expect = hmac_sha256(&key, body);
        if !ct_eq(&expect, mac) {
            return Err(EmsError::AccessDenied);
        }
        let nonce: [u8; 16] = body[..16].try_into().expect("16");
        let mut pt = body[16..].to_vec();
        let cipher = Aes128::new(key[..16].try_into().expect("16"));
        let iv = ctr_iv(
            u64::from_le_bytes(nonce[..8].try_into().expect("8")),
            u64::from_le_bytes(nonce[8..].try_into().expect("8")),
        );
        cipher.ctr_apply(&iv, &mut pt);
        Ok(pt)
    }
}
