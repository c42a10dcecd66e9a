//! Multi-key memory encryption engine with integrity (§IV-C).
//!
//! "HyperTEE leverages a commercial multi-key memory encryption engine,
//! similar to Intel MK-TME and AMD SME. Each enclave is assigned a unique
//! encryption key and identification (KeyID), configured only by EMS via
//! iHub… HyperTEE employs SHA-3 based MAC (28-bit)… In case of an integrity
//! violation, an exception is triggered."
//!
//! The engine sits between the cores and [`crate::phys::PhysMemory`], at
//! the memory interface: every raw access observes *ciphertext* for
//! encrypted KeyIDs. Reads through the wrong KeyID therefore really return
//! garbage and (when integrity is on) really fault — the behaviour the
//! paper's attack-surface analysis (§VIII-C, "PTW cannot decrypt enclave
//! data correctly") relies on. Lines the engine last wrote or verified are
//! kept decrypted, as the SoC's caches would hold them, and read and
//! written with no AES and no MAC; `PhysMemory` encrypts them and computes
//! their pending tags only where ciphertext or a tag is observed (see its
//! module docs). The charges are the eager engine's either way.

use crate::addr::{KeyId, PhysAddr, Ppn, PAGE_SIZE};
use crate::phys::{PhysMemory, FRAME_LINES};
use crate::MemFault;
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::mac::mac28_ref;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Memory-line granularity of encryption and MAC (bytes).
pub(crate) const LINE_SIZE: u64 = 64;

/// Serial of the next programmed [`KeySlot`]. Process-wide, so no two
/// slots share one: not a KeyID's old and new key, not two KeyIDs, not
/// two engines over the same memory. 0 is never issued.
static NEXT_SLOT_SERIAL: AtomicU64 = AtomicU64::new(1);

/// A programmed key. Shared by reference so the frames that hold lines
/// plain under it, or zeros written under it, keep it across revocation
/// and re-programming.
pub(crate) struct KeySlot {
    cipher: Aes128,
    pub(crate) mac_key: [u8; 32],
    /// Names this slot in [`PhysMemory`]'s frames.
    pub(crate) serial: u64,
}

impl KeySlot {
    /// XORs the MKTME keystream of the line at `line_base` into `line`.
    pub(crate) fn keystream(&self, line_base: u64, line: &mut [u8]) {
        let iv = ctr_iv(line_base, 0x4d4b_544d_4531_0001); // "MKTME1" domain tag
        self.cipher.ctr_apply(&iv, line);
    }
}

impl core::fmt::Debug for KeySlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeySlot {{ <redacted> }}")
    }
}

/// Engine event counters (timing-model input), plus host-speed fast-path
/// hit counters (observability only — they price nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MktmeStats {
    /// Bytes encrypted on writes.
    pub bytes_encrypted: u64,
    /// Bytes decrypted on reads.
    pub bytes_decrypted: u64,
    /// MAC verifications performed.
    pub mac_checks: u64,
    /// MAC failures raised.
    pub mac_failures: u64,
    /// Writes that covered a whole aligned line and skipped the
    /// read-decrypt-splice RMW (fast path).
    pub full_line_writes: u64,
    /// 16-byte keystream blocks processed through the multi-line span fast
    /// path (one physical-memory round trip for the whole request).
    pub(crate) keystream_blocks_batched: u64,
}

/// Lines covered by `len` bytes at `pa`, at least one; 0 when the range
/// wraps the address space, which sends the request down the per-line
/// path to fault at its first out-of-range line.
fn span_lines(pa: PhysAddr, len: usize) -> u64 {
    let span_base = pa.0 & !(LINE_SIZE - 1);
    pa.0.checked_add(len as u64)
        .and_then(|end| end.checked_next_multiple_of(LINE_SIZE))
        .map_or(0, |span_end| ((span_end - span_base) / LINE_SIZE).max(1))
}

/// Whole aligned lines inside `len` bytes at `pa`, a range that does not
/// wrap.
fn full_lines(pa: PhysAddr, len: usize) -> u64 {
    let first = pa.0.next_multiple_of(LINE_SIZE);
    let end = (pa.0 + len as u64) & !(LINE_SIZE - 1);
    end.saturating_sub(first) / LINE_SIZE
}

/// The multi-key engine.
#[derive(Debug)]
pub struct MktmeEngine {
    keys: HashMap<u16, Arc<KeySlot>>,
    integrity: bool,
    /// Counters.
    pub stats: MktmeStats,
}

impl MktmeEngine {
    /// Creates an engine; `integrity` enables the 28-bit MAC path.
    pub fn new(integrity: bool) -> Self {
        MktmeEngine {
            keys: HashMap::new(),
            integrity,
            stats: MktmeStats::default(),
        }
    }

    /// Programs a key slot. In the real SoC only EMS can reach this register
    /// interface (via iHub); the fabric layer enforces that restriction.
    ///
    /// # Panics
    ///
    /// Panics when programming KeyID 0, which is architecturally plaintext.
    pub fn program_key(&mut self, key: KeyId, aes_key: &[u8; 16], mac_key: &[u8; 32]) {
        assert!(key.is_encrypted(), "KeyID 0 is the plaintext domain");
        self.keys.insert(
            key.0,
            Arc::new(KeySlot {
                cipher: Aes128::new(aes_key),
                mac_key: *mac_key,
                serial: NEXT_SLOT_SERIAL.fetch_add(1, Ordering::Relaxed),
            }),
        );
    }

    /// Revokes a key slot (KeyID exhaustion handling, §IV-C). Lines written
    /// under the key keep their MACs, so stale reuse is detectable. The
    /// slot itself lives on in the frames that hold lines plain under it.
    pub fn revoke_key(&mut self, key: KeyId) {
        self.keys.remove(&key.0);
    }

    /// Whether a KeyID currently has a programmed key.
    pub fn key_programmed(&self, key: KeyId) -> bool {
        self.keys.contains_key(&key.0)
    }

    /// Number of programmed keys.
    pub fn keys_in_use(&self) -> usize {
        self.keys.len()
    }

    /// [`KeySlot::keystream`] over the pre-optimization scalar AES
    /// (reference data plane).
    fn keystream_ref(slot: &KeySlot, line_base: u64, line: &mut [u8]) {
        let iv = ctr_iv(line_base, 0x4d4b_544d_4531_0001);
        slot.cipher.ctr_apply_ref(&iv, line);
    }

    /// Writes `data` at `pa` through `key`.
    ///
    /// For encrypted KeyIDs the lines are stored in [`PhysMemory`] as
    /// plaintext under the key's slot, their tags pending, and charged as
    /// the scalar data plane charges encrypting them and refreshing each
    /// line's MAC (see the `phys` module docs for when the ciphertext and
    /// the tags are made). A request spanning several contiguous lines
    /// makes one range check for the whole span.
    ///
    /// Zeroing a whole frame is [`MktmeEngine::zero_page`].
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] for unprogrammed encrypted KeyIDs or
    /// out-of-range addresses.
    pub fn write(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        data: &[u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.write(pa, data);
        }
        let slot = self
            .keys
            .get(&key.0)
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_encrypted += data.len() as u64;
        let nlines = span_lines(pa, data.len());
        if nlines > 1
            && mem
                .check(PhysAddr(pa.0 & !(LINE_SIZE - 1)), nlines * LINE_SIZE)
                .is_ok()
        {
            // The raw-access counter stays on the per-line trajectory: one
            // read and one write per line.
            mem.access_count += 2 * nlines;
            self.stats.keystream_blocks_batched += nlines * LINE_SIZE / 16;
            self.stats.full_line_writes += full_lines(pa, data.len());
            mem.store_plain(pa, data, slot, self.integrity);
            return Ok(());
        }
        // A single line, or a span straddling the end of installed memory:
        // line by line, faulting at exactly the line the scalar data plane
        // would.
        let mut written = 0usize;
        let mut addr = pa.0;
        while written < data.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(data.len() - written);
            mem.check(PhysAddr(line_base), LINE_SIZE)?;
            mem.access_count += 2;
            if take == LINE_SIZE as usize {
                self.stats.full_line_writes += 1;
            }
            mem.store_plain(
                PhysAddr(addr),
                &data[written..written + take],
                slot,
                self.integrity,
            );
            written += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// Zeroes frame `ppn` through `key`: what [`MktmeEngine::write`] of a
    /// page of zeros at the frame's base stores, at the same charges and
    /// with the same faults (EMS zeroes every page before mapping it,
    /// §IV-A).
    ///
    /// The zeros are recorded, not computed. Under an encrypted KeyID the
    /// frame becomes "zeros under this key" in [`PhysMemory`] and its 64
    /// line tags become on-demand zero-line tags; under KeyID 0 it is a
    /// plain [`PhysMemory::zero_frame`].
    ///
    /// # Errors
    ///
    /// As [`MktmeEngine::write`].
    pub fn zero_page(
        &mut self,
        mem: &mut PhysMemory,
        ppn: Ppn,
        key: KeyId,
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.zero_frame(ppn);
        }
        let pa = ppn.base();
        let slot = self
            .keys
            .get(&key.0)
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_encrypted += PAGE_SIZE;
        if ppn.0 >= mem.total_frames() {
            // Where `write` faults: at the page's first line.
            return Err(MemFault::BusError { pa: pa.0 });
        }
        mem.zero_under_key(ppn, Arc::clone(slot), self.integrity);
        // The span path's charges: one read and one write per line, every
        // line full, the whole page through the keystream.
        mem.access_count += 2 * FRAME_LINES;
        self.stats.full_line_writes += FRAME_LINES;
        self.stats.keystream_blocks_batched += PAGE_SIZE / 16;
        Ok(())
    }

    /// Reads through `key` into `buf`.
    ///
    /// A line held plain under the key's slot is copied; any other line is
    /// decrypted and its MAC checked, and is then held plain. Every check
    /// is counted either way, and the fill order, the counter trajectories
    /// and every fault are the scalar data plane's. A request spanning
    /// several contiguous lines makes one range check for the whole span.
    ///
    /// # Errors
    ///
    /// [`MemFault::IntegrityViolation`] when a MAC check fails (tampering,
    /// wrong KeyID, or unauthenticated data); [`MemFault::BusError`] for
    /// unprogrammed encrypted KeyIDs or out-of-range addresses.
    pub fn read(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.read(pa, buf);
        }
        let slot = self
            .keys
            .get(&key.0)
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_decrypted += buf.len() as u64;
        let nlines = span_lines(pa, buf.len());
        let span = nlines > 1
            && mem
                .check(PhysAddr(pa.0 & !(LINE_SIZE - 1)), nlines * LINE_SIZE)
                .is_ok();
        if span {
            self.stats.keystream_blocks_batched += nlines * LINE_SIZE / 16;
        }
        let mut done = 0usize;
        let mut addr = pa.0;
        while done < buf.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(buf.len() - done);
            if !span {
                mem.check(PhysAddr(line_base), LINE_SIZE)?;
            }
            // One raw access per line, up to and including a failing one.
            mem.access_count += 1;
            let line = mem.load_plain(PhysAddr(line_base), slot, self.integrity);
            if self.integrity {
                self.stats.mac_checks += 1;
            }
            let Some(line) = line else {
                self.stats.mac_failures += 1;
                return Err(MemFault::IntegrityViolation { pa: line_base });
            };
            buf[done..done + take].copy_from_slice(&line[off..off + take]);
            done += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// The seed's scalar write path (per-line RMW over raw ciphertext,
    /// cloned key slot, scalar AES/Keccak), kept as the differential
    /// oracle and the "before" measurement of the tracked benchmark
    /// pipeline. Shares the key state and the memory's tags with the
    /// optimized path, so the two can be interleaved freely.
    ///
    /// # Errors
    ///
    /// As [`MktmeEngine::write`].
    pub fn write_ref(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        data: &[u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.write(pa, data);
        }
        let slot = self
            .keys
            .get(&key.0)
            .cloned()
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_encrypted += data.len() as u64;
        let mut written = 0usize;
        let mut addr = pa.0;
        while written < data.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(data.len() - written);
            let mut line = [0u8; LINE_SIZE as usize];
            mem.read(PhysAddr(line_base), &mut line)?;
            Self::keystream_ref(&slot, line_base, &mut line);
            line[off..off + take].copy_from_slice(&data[written..written + take]);
            if self.integrity {
                let tag = mac28_ref(&slot.mac_key, line_base, &line);
                mem.set_tag(PhysAddr(line_base), tag);
            }
            Self::keystream_ref(&slot, line_base, &mut line);
            mem.write(PhysAddr(line_base), &line)?;
            written += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// The seed's scalar read path — differential oracle and benchmark
    /// baseline for [`MktmeEngine::read`].
    ///
    /// # Errors
    ///
    /// As [`MktmeEngine::read`].
    pub fn read_ref(
        &mut self,
        mem: &mut PhysMemory,
        pa: PhysAddr,
        key: KeyId,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        if !key.is_encrypted() {
            return mem.read(pa, buf);
        }
        let slot = self
            .keys
            .get(&key.0)
            .cloned()
            .ok_or(MemFault::BusError { pa: pa.0 })?;
        self.stats.bytes_decrypted += buf.len() as u64;
        let mut done = 0usize;
        let mut addr = pa.0;
        while done < buf.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(buf.len() - done);
            let mut line = [0u8; LINE_SIZE as usize];
            mem.read(PhysAddr(line_base), &mut line)?;
            Self::keystream_ref(&slot, line_base, &mut line);
            if self.integrity {
                self.stats.mac_checks += 1;
                let valid = match mem.tag(PhysAddr(line_base)) {
                    Some(tag) => mac28_ref(&slot.mac_key, line_base, &line) == tag,
                    None => false,
                };
                if !valid {
                    self.stats.mac_failures += 1;
                    return Err(MemFault::IntegrityViolation { pa: line_base });
                }
            }
            buf[done..done + take].copy_from_slice(&line[off..off + take]);
            done += take;
            addr += take as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMemory, MktmeEngine) {
        let mem = PhysMemory::new(4 << 20);
        let mut engine = MktmeEngine::new(true);
        engine.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        engine.program_key(KeyId(2), &[0x22; 16], &[0xa2; 32]);
        (mem, engine)
    }

    #[test]
    fn encrypted_roundtrip() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x10_000);
        engine
            .write(&mut mem, pa, KeyId(1), b"enclave secret data")
            .unwrap();
        let mut buf = [0u8; 19];
        engine.read(&mut mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(&buf, b"enclave secret data");
    }

    #[test]
    fn memory_holds_ciphertext() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x10_000);
        engine
            .write(&mut mem, pa, KeyId(1), b"enclave secret data")
            .unwrap();
        // A raw (host KeyID 0) read sees ciphertext, not the plaintext.
        let mut raw = [0u8; 19];
        mem.read(pa, &mut raw).unwrap();
        assert_ne!(&raw, b"enclave secret data");
    }

    #[test]
    fn wrong_keyid_read_faults() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x20_000);
        engine.write(&mut mem, pa, KeyId(1), &[0x5a; 64]).unwrap();
        let mut buf = [0u8; 64];
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(2), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn physical_tampering_detected() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x30_000);
        engine.write(&mut mem, pa, KeyId(1), &[7u8; 64]).unwrap();
        // Attacker flips a ciphertext bit through the plaintext domain.
        let mut raw = [0u8; 1];
        mem.read(pa, &mut raw).unwrap();
        raw[0] ^= 0x80;
        mem.write(pa, &raw).unwrap();
        let mut buf = [0u8; 64];
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
        assert_eq!(engine.stats.mac_failures, 1);
    }

    /// A line held plain does not outlive a change to its ciphertext: a
    /// flipped byte faults at that line on the next read.
    #[test]
    fn tampering_after_a_held_read_is_detected() {
        let (mut mem, mut engine) = setup();
        let line = PhysAddr(0x30_040);
        engine.write(&mut mem, line, KeyId(1), &[3u8; 64]).unwrap();
        let mut buf = [0u8; 8];
        engine.read(&mut mem, line, KeyId(1), &mut buf).unwrap();
        engine.read(&mut mem, line, KeyId(1), &mut buf).unwrap();
        assert_eq!(buf, [3u8; 8]);
        let mut raw = [0u8; 1];
        let victim = PhysAddr(line.0 + 9);
        mem.read(victim, &mut raw).unwrap();
        mem.write(victim, &[raw[0] ^ 1]).unwrap();
        assert_eq!(
            engine.read(&mut mem, line, KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { pa: line.0 })
        );
        assert_eq!(engine.stats.mac_checks, 3);
        assert_eq!(engine.stats.mac_failures, 1);
    }

    #[test]
    fn unauthenticated_lines_rejected() {
        let (mut mem, mut engine) = setup();
        // Nothing was ever written with KeyID 1 at this line.
        let mut buf = [0u8; 16];
        assert!(matches!(
            engine.read(&mut mem, PhysAddr(0x40_000), KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn unprogrammed_key_is_bus_error() {
        let (mut mem, mut engine) = setup();
        let mut buf = [0u8; 8];
        assert!(matches!(
            engine.read(&mut mem, PhysAddr(0x1000), KeyId(9), &mut buf),
            Err(MemFault::BusError { .. })
        ));
        assert!(engine
            .write(&mut mem, PhysAddr(0x1000), KeyId(9), &[0; 8])
            .is_err());
    }

    #[test]
    fn partial_line_write_preserves_rest() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x50_000);
        engine.write(&mut mem, pa, KeyId(1), &[0xaa; 64]).unwrap();
        // Overwrite 8 bytes in the middle of the line.
        engine
            .write(&mut mem, PhysAddr(pa.0 + 20), KeyId(1), &[0xbb; 8])
            .unwrap();
        let mut buf = [0u8; 64];
        engine.read(&mut mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(&buf[..20], &[0xaa; 20]);
        assert_eq!(&buf[20..28], &[0xbb; 8]);
        assert_eq!(&buf[28..], &[0xaa; 36]);
    }

    #[test]
    fn key_revocation() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(0x60_000);
        engine.write(&mut mem, pa, KeyId(1), &[1u8; 64]).unwrap();
        engine.revoke_key(KeyId(1));
        assert!(!engine.key_programmed(KeyId(1)));
        let mut buf = [0u8; 64];
        assert!(engine.read(&mut mem, pa, KeyId(1), &mut buf).is_err());
        // Reprogramming with a different key does not resurrect plaintext.
        engine.program_key(KeyId(1), &[0x99; 16], &[0x88; 32]);
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(1), &mut buf),
            Err(MemFault::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn range_wrapping_the_address_space_is_bus_error() {
        let (mut mem, mut engine) = setup();
        let pa = PhysAddr(u64::MAX - 10);
        let mut buf = [0u8; 64];
        assert!(matches!(
            engine.write(&mut mem, pa, KeyId(1), &[1u8; 64]),
            Err(MemFault::BusError { .. })
        ));
        assert!(matches!(
            engine.read(&mut mem, pa, KeyId(1), &mut buf),
            Err(MemFault::BusError { .. })
        ));
        assert_eq!(mem.materialized_frames().count(), 0);
    }

    /// `zero_page` records its zeros instead of computing them, yet stores
    /// the bytes and MAC tags, and charges the counters, that `write` of a
    /// page of zeros does, and the seed oracle `write_ref` too; the frame
    /// then reads back as zeros.
    #[test]
    fn zero_page_is_lazy_and_charged_like_any_page() {
        let (mut lazy_mem, mut lazy) = setup();
        let (mut span_mem, mut span) = setup();
        let (mut oracle_mem, mut oracle) = setup();
        let pa = PhysAddr(0x70_000);
        lazy.zero_page(&mut lazy_mem, pa.ppn(), KeyId(1)).unwrap();
        span.write(&mut span_mem, pa, KeyId(1), &[0u8; 4096])
            .unwrap();
        oracle
            .write_ref(&mut oracle_mem, pa, KeyId(1), &[0u8; 4096])
            .unwrap();
        assert_eq!(lazy.stats, span.stats);
        let modelled = |s: MktmeStats| (s.bytes_encrypted, s.mac_checks, s.mac_failures);
        assert_eq!(modelled(lazy.stats), modelled(oracle.stats));
        assert_eq!(lazy_mem.access_count, span_mem.access_count);
        assert_eq!(lazy_mem.access_count, oracle_mem.access_count);
        let raw = |mem: &mut PhysMemory| {
            let mut raw = vec![0u8; 4096];
            mem.read(pa, &mut raw).unwrap();
            raw
        };
        let lazy_raw = raw(&mut lazy_mem);
        assert!(lazy_raw == raw(&mut span_mem), "bytes differ from write");
        assert!(
            lazy_raw == raw(&mut oracle_mem),
            "bytes differ from write_ref"
        );
        let tags = |mem: &mut PhysMemory| {
            (0..64)
                .map(|i| mem.tag(PhysAddr(pa.0 + i * LINE_SIZE)))
                .collect::<Vec<_>>()
        };
        let lazy_tags = tags(&mut lazy_mem);
        assert!(lazy_tags.iter().all(Option::is_some));
        assert_eq!(lazy_tags, tags(&mut span_mem));
        assert_eq!(lazy_tags, tags(&mut oracle_mem));
        assert_eq!(
            lazy_mem.tagged_lines(),
            64,
            "only the frame's lines carry tags"
        );
        assert_eq!(lazy_mem.materialized_frames().count(), 0);
        let mut buf = [0xffu8; 4096];
        lazy.read(&mut lazy_mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4096]);
        assert_eq!(lazy_mem.materialized_frames().count(), 0, "reads stay lazy");
        // A partial store materialises the frame and keeps the rest zero.
        lazy.write(&mut lazy_mem, PhysAddr(pa.0 + 100), KeyId(1), &[9; 4])
            .unwrap();
        assert_eq!(
            lazy_mem.materialized_frames().collect::<Vec<_>>(),
            [pa.ppn()]
        );
        lazy.read(&mut lazy_mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(&buf[100..104], &[9; 4]);
        assert!(buf[..100].iter().chain(&buf[104..]).all(|&b| b == 0));
    }

    /// Out of installed memory and under an unprogrammed KeyID,
    /// `zero_page` fails where `write` of a zero page does, after the same
    /// charges; under KeyID 0 it is a plain zeroed frame.
    #[test]
    fn zero_page_faults_like_write() {
        let (mut mem, mut engine) = setup();
        let (mut w_mem, mut w) = setup();
        let last = mem.total_frames();
        for (ppn, key) in [
            (Ppn(last), KeyId(1)),
            (Ppn(3), KeyId(9)),
            (Ppn(last), KeyId::HOST),
        ] {
            let zeroed = engine.zero_page(&mut mem, ppn, key);
            assert!(zeroed.is_err());
            assert_eq!(zeroed, w.write(&mut w_mem, ppn.base(), key, &[0u8; 4096]));
        }
        assert_eq!(engine.stats, w.stats);
        w_mem.write(PhysAddr(0x9000), &[7; 64]).unwrap();
        mem.write(PhysAddr(0x9000), &[7; 64]).unwrap();
        engine.zero_page(&mut mem, Ppn(9), KeyId::HOST).unwrap();
        w.write(&mut w_mem, PhysAddr(0x9000), KeyId::HOST, &[0u8; 4096])
            .unwrap();
        assert_eq!(mem.access_count, w_mem.access_count);
        let mut raw = [0xffu8; 4096];
        mem.read(PhysAddr(0x9000), &mut raw).unwrap();
        assert_eq!(raw, [0u8; 4096]);
    }

    #[test]
    fn host_keyid_bypasses_engine() {
        let (mut mem, mut engine) = setup();
        engine
            .write(&mut mem, PhysAddr(0x100), KeyId::HOST, b"plain")
            .unwrap();
        let mut raw = [0u8; 5];
        mem.read(PhysAddr(0x100), &mut raw).unwrap();
        assert_eq!(&raw, b"plain");
        assert_eq!(engine.stats.bytes_encrypted, 0);
    }

    #[test]
    fn distinct_keys_produce_distinct_ciphertexts() {
        let (mut mem, mut engine) = setup();
        engine
            .write(&mut mem, PhysAddr(0x1000), KeyId(1), &[0u8; 64])
            .unwrap();
        engine
            .write(&mut mem, PhysAddr(0x2000), KeyId(2), &[0u8; 64])
            .unwrap();
        let mut c1 = [0u8; 64];
        let mut c2 = [0u8; 64];
        mem.read(PhysAddr(0x1000), &mut c1).unwrap();
        mem.read(PhysAddr(0x2000), &mut c2).unwrap();
        assert_ne!(c1, c2);
        assert_ne!(c1, [0u8; 64]);
    }
}
