//! Multi-key memory encryption engine with integrity (§IV-C).
//!
//! "HyperTEE leverages a commercial multi-key memory encryption engine,
//! similar to Intel MK-TME and AMD SME. Each enclave is assigned a unique
//! encryption key and identification (KeyID), configured only by EMS via
//! iHub… HyperTEE employs SHA-3 based MAC (28-bit)… In case of an integrity
//! violation, an exception is triggered."
//!
//! The engine sits between the cores and [`crate::phys::PhysMemory`]:
//! physical memory holds *ciphertext* for encrypted KeyIDs. Reads through
//! the wrong KeyID therefore really return garbage and (when integrity is
//! on) really fault — the behaviour the paper's attack-surface analysis
//! (§VIII-C, "PTW cannot decrypt enclave data correctly") relies on.

use crate::addr::{KeyId, PhysAddr, Ppn, PAGE_SIZE};
use crate::phys::PhysMemory;
use crate::MemFault;
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::mac::{mac28, mac28_lines, mac28_ref, MacTag, MAC_BATCH_LINES};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Memory-line granularity of encryption and MAC (bytes).
pub(crate) const LINE_SIZE: u64 = 64;

/// Lines per 4 KiB frame.
const FRAME_LINES: u64 = PAGE_SIZE / LINE_SIZE;

/// Serial of the next programmed [`KeySlot`]. Process-wide, so no two
/// slots share one: not a KeyID's old and new key, not two KeyIDs, not
/// two engines over the same memory. 0 is never issued.
static NEXT_SLOT_SERIAL: AtomicU64 = AtomicU64::new(1);

/// A programmed key. Shared by reference so a lazily zeroed frame keeps
/// the key it was zeroed under across revocation and re-programming.
pub(crate) struct KeySlot {
    cipher: Aes128,
    mac_key: [u8; 32],
    /// Names this slot in [`PhysMemory`]'s checked lines.
    serial: u64,
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

/// Lines of MAC tags per [`MacTable`] page (each page covers 32 KiB of
/// protected memory; a tag page costs 2 KiB).
const MAC_PAGE_LINES: u64 = 512;

/// Sentinel for "no tag recorded": real tags are 28-bit, so `u32::MAX`
/// can never collide with one.
const MAC_EMPTY: u32 = u32::MAX;

/// Sentinel for "the tag of a zero line under the frame's zeroing MAC
/// key", computed on demand.
const MAC_ZERO: u32 = u32::MAX - 1;

/// Paged flat MAC store indexed by line number — replaces the previous
/// per-line `HashMap<u64, MacTag>`: one hash probe per 512-line page plus
/// an array index, instead of one probe per line.
#[derive(Debug, Default)]
pub(crate) struct MacTable {
    pages: HashMap<u64, Box<[u32]>>,
    /// MAC key each lazily zeroed frame was zeroed under, by PPN.
    zeroed: HashMap<u64, [u8; 32]>,
}

impl MacTable {
    /// Looks up the tag recorded for a line number (`pa / LINE_SIZE`). A
    /// line of a lazily zeroed frame gets its zero-line tag computed here.
    pub(crate) fn get(&self, line: u64) -> Option<MacTag> {
        let tag = *self
            .pages
            .get(&(line / MAC_PAGE_LINES))?
            .get((line % MAC_PAGE_LINES) as usize)?;
        match tag {
            MAC_EMPTY => None,
            MAC_ZERO => {
                let key = &self.zeroed[&(line / FRAME_LINES)];
                Some(mac28(key, line * LINE_SIZE, &[0u8; LINE_SIZE as usize]))
            }
            tag => Some(MacTag(tag)),
        }
    }

    fn page_mut(&mut self, line: u64) -> &mut [u32] {
        self.pages
            .entry(line / MAC_PAGE_LINES)
            .or_insert_with(|| vec![MAC_EMPTY; MAC_PAGE_LINES as usize].into_boxed_slice())
    }

    /// Records the tag for a line number.
    pub(crate) fn insert(&mut self, line: u64, tag: MacTag) {
        self.page_mut(line)[(line % MAC_PAGE_LINES) as usize] = tag.0;
    }

    /// Records every line of frame `ppn` as a zero line tagged under
    /// `mac_key`, exactly as 64 [`MacTable::insert`]s of
    /// `mac28(mac_key, line_base, zeros)` would, without computing them.
    fn insert_zero_frame(&mut self, ppn: Ppn, mac_key: &[u8; 32]) {
        let first = ppn.0 * FRAME_LINES;
        let at = (first % MAC_PAGE_LINES) as usize;
        self.page_mut(first)[at..at + FRAME_LINES as usize].fill(MAC_ZERO);
        self.zeroed.insert(ppn.0, *mac_key);
    }
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

/// Whether every byte of `data` is zero. The OR-fold per line vectorizes;
/// a byte-wise early-exit scan of a 4 KiB page does not.
fn is_zero(data: &[u8]) -> bool {
    data.chunks(64)
        .all(|chunk| chunk.iter().fold(0u8, |acc, &b| acc | b) == 0)
}

/// The multi-key engine.
#[derive(Debug)]
pub struct MktmeEngine {
    keys: HashMap<u16, Arc<KeySlot>>,
    /// Per-line MACs: line number → tag (keyed by the writing key's
    /// MAC key, so re-programming the same key under a new KeyID — the
    /// suspension/resume path of §IV-C — keeps lines verifiable).
    macs: MacTable,
    integrity: bool,
    /// Counters.
    pub stats: MktmeStats,
}

impl MktmeEngine {
    /// Creates an engine; `integrity` enables the 28-bit MAC path.
    pub fn new(integrity: bool) -> Self {
        MktmeEngine {
            keys: HashMap::new(),
            macs: MacTable::default(),
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
    /// under the key keep their MACs, so stale reuse is detectable.
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

    /// Tags for every line of a plaintext span, in line order. Aligned
    /// groups of eight consecutive lines go through the lane-sliced
    /// [`mac28_lines`] batch; the remainder falls back to [`mac28`]. MAC
    /// computation touches neither physical memory nor the engine counters,
    /// so batching is invisible to the timing model.
    fn span_tags(slot: &KeySlot, span_base: u64, span: &[u8]) -> Vec<MacTag> {
        let nlines = span.len() / LINE_SIZE as usize;
        let mut tags = Vec::with_capacity(nlines);
        let mut i = 0usize;
        while i + MAC_BATCH_LINES <= nlines {
            let chunk: &[u8; MAC_BATCH_LINES * LINE_SIZE as usize] = span
                [i * LINE_SIZE as usize..(i + MAC_BATCH_LINES) * LINE_SIZE as usize]
                .try_into()
                .expect("eight lines");
            tags.extend(mac28_lines(
                &slot.mac_key,
                span_base + i as u64 * LINE_SIZE,
                chunk,
            ));
            i += MAC_BATCH_LINES;
        }
        while i < nlines {
            let line_base = span_base + i as u64 * LINE_SIZE;
            tags.push(mac28(
                &slot.mac_key,
                line_base,
                &span[i * LINE_SIZE as usize..(i + 1) * LINE_SIZE as usize],
            ));
            i += 1;
        }
        tags
    }

    /// Stores whole encrypted lines. Under integrity their tags were just
    /// refreshed, so the lines count as checked under `slot`.
    fn store(
        &self,
        mem: &mut PhysMemory,
        slot: &KeySlot,
        pa: PhysAddr,
        lines: &[u8],
    ) -> Result<(), MemFault> {
        if self.integrity {
            mem.write_checked(pa, lines, slot.serial)
        } else {
            mem.write(pa, lines)
        }
    }

    /// Writes `data` at `pa` through `key`.
    ///
    /// For encrypted KeyIDs this stores ciphertext at line granularity and
    /// refreshes each line's MAC. Fast paths (host wall-clock only — the
    /// modelled byte/MAC charges are identical to the scalar data plane):
    ///
    /// * a write covering a whole aligned line skips the
    ///   read-decrypt-splice RMW entirely;
    /// * a request spanning several contiguous lines makes one physical
    ///   round trip for the whole span and streams the keystream across it;
    /// * an aligned page of zeros (EALLOC's §IV-A zeroing) is recorded, not
    ///   computed: the frame becomes "zeros under this key" in
    ///   [`PhysMemory`] and its 64 line tags become on-demand zero-line
    ///   tags, charged exactly as the span path would charge the page.
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
        if pa.0.is_multiple_of(PAGE_SIZE)
            && data.len() as u64 == PAGE_SIZE
            && pa.ppn().0 < mem.total_frames()
            && is_zero(data)
        {
            mem.zero_under_key(pa.ppn(), Arc::clone(slot));
            if self.integrity {
                self.macs.insert_zero_frame(pa.ppn(), &slot.mac_key);
            }
            // The span path's charges: one read and one write per line,
            // every line full, the whole page through the keystream.
            mem.access_count += 2 * FRAME_LINES;
            self.stats.full_line_writes += FRAME_LINES;
            self.stats.keystream_blocks_batched += PAGE_SIZE / 16;
            return Ok(());
        }
        let span_base = pa.0 & !(LINE_SIZE - 1);
        let nlines = span_lines(pa, data.len());
        if nlines > 1 {
            let mut span = vec![0u8; (nlines * LINE_SIZE) as usize];
            if mem.read(PhysAddr(span_base), &mut span).is_ok() {
                // The raw-access counter stays on the per-line trajectory
                // (one read + one write per line) even though the span makes
                // a single round trip each way.
                mem.access_count += 2 * (nlines - 1);
                self.stats.keystream_blocks_batched += span.len() as u64 / 16;
                // Pass 1: assemble the plaintext span — decrypt-splice the
                // partial edge lines, copy full lines straight from `data`.
                let mut written = 0usize;
                for (i, line) in span.chunks_mut(LINE_SIZE as usize).enumerate() {
                    let line_base = span_base + i as u64 * LINE_SIZE;
                    let off = (pa.0.max(line_base) - line_base) as usize;
                    let take = (LINE_SIZE as usize - off).min(data.len() - written);
                    if off == 0 && take == LINE_SIZE as usize {
                        // Full line: the fetched ciphertext is irrelevant.
                        line.copy_from_slice(&data[written..written + take]);
                        self.stats.full_line_writes += 1;
                    } else {
                        slot.keystream(line_base, line);
                        line[off..off + take].copy_from_slice(&data[written..written + take]);
                    }
                    written += take;
                }
                // MAC the plaintext span eight lines at a time, then
                // re-encrypt it in place.
                if self.integrity {
                    for (i, tag) in Self::span_tags(slot, span_base, &span)
                        .into_iter()
                        .enumerate()
                    {
                        self.macs.insert(span_base / LINE_SIZE + i as u64, tag);
                    }
                }
                for (i, line) in span.chunks_mut(LINE_SIZE as usize).enumerate() {
                    slot.keystream(span_base + i as u64 * LINE_SIZE, line);
                }
                return self.store(mem, slot, PhysAddr(span_base), &span);
            }
            // Span read refused (range straddles the end of installed
            // memory): fall through to the per-line path, which faults at
            // exactly the line the scalar data plane would.
        }
        let mut written = 0usize;
        let mut addr = pa.0;
        while written < data.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(data.len() - written);
            let mut line = [0u8; LINE_SIZE as usize];
            if off == 0 && take == LINE_SIZE as usize {
                // Full aligned line: skip the fetch-decrypt-splice RMW. The
                // raw read still happens so the access trajectory (and any
                // fault it would raise) is unchanged.
                mem.read(PhysAddr(line_base), &mut line)?;
                line.copy_from_slice(&data[written..written + take]);
                self.stats.full_line_writes += 1;
            } else {
                // Fetch the current line ciphertext and decrypt it.
                mem.read(PhysAddr(line_base), &mut line)?;
                slot.keystream(line_base, &mut line);
                // Splice in the new plaintext bytes.
                line[off..off + take].copy_from_slice(&data[written..written + take]);
            }
            // Refresh the MAC over the plaintext line.
            if self.integrity {
                let tag = mac28(&slot.mac_key, line_base, &line);
                self.macs.insert(line_base / LINE_SIZE, tag);
            }
            // Re-encrypt and store.
            slot.keystream(line_base, &mut line);
            self.store(mem, slot, PhysAddr(line_base), &line)?;
            written += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// Reads through `key` into `buf`.
    ///
    /// Requests spanning several contiguous lines make one physical round
    /// trip for the whole span; per-line MAC verification, fill order, and
    /// every fault are identical to the scalar data plane. A single-line
    /// request reuses the line's verdict when it passed under this key slot
    /// and its frame has not changed since (or this engine wrote it): the
    /// check is still counted, but no MAC is computed.
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
        let span_base = pa.0 & !(LINE_SIZE - 1);
        let nlines = span_lines(pa, buf.len());
        if nlines > 1 {
            let mut span = vec![0u8; (nlines * LINE_SIZE) as usize];
            if mem.read(PhysAddr(span_base), &mut span).is_ok() {
                self.stats.keystream_blocks_batched += span.len() as u64 / 16;
                // Decrypt the whole span and batch-compute the expected tags
                // up front (neither touches memory or counters); comparisons
                // below stay strictly per-line so counter trajectories and
                // the first-failing-line fault are identical to the scalar
                // data plane.
                for (i, line) in span.chunks_mut(LINE_SIZE as usize).enumerate() {
                    slot.keystream(span_base + i as u64 * LINE_SIZE, line);
                }
                let tags = if self.integrity {
                    Self::span_tags(slot, span_base, &span)
                } else {
                    Vec::new()
                };
                let mut done = 0usize;
                for (i, line) in span.chunks(LINE_SIZE as usize).enumerate() {
                    let line_base = span_base + i as u64 * LINE_SIZE;
                    if i > 0 {
                        // Keep the raw-access counter on the per-line
                        // trajectory, including after an early MAC-failure
                        // return (k+1 line reads for a failure at line k).
                        mem.access_count += 1;
                    }
                    let off = (pa.0.max(line_base) - line_base) as usize;
                    let take = (LINE_SIZE as usize - off).min(buf.len() - done);
                    if self.integrity {
                        self.stats.mac_checks += 1;
                        let valid = match self.macs.get(line_base / LINE_SIZE) {
                            Some(tag) => tags[i] == tag,
                            None => false,
                        };
                        if !valid {
                            self.stats.mac_failures += 1;
                            return Err(MemFault::IntegrityViolation { pa: line_base });
                        }
                    }
                    buf[done..done + take].copy_from_slice(&line[off..off + take]);
                    done += take;
                }
                return Ok(());
            }
            // Fall through: fault at exactly the line the scalar path would.
        }
        let mut done = 0usize;
        let mut addr = pa.0;
        while done < buf.len() {
            let line_base = addr & !(LINE_SIZE - 1);
            let off = (addr - line_base) as usize;
            let take = (LINE_SIZE as usize - off).min(buf.len() - done);
            let mut line = [0u8; LINE_SIZE as usize];
            let checked = mem.read_line(PhysAddr(line_base), slot.serial, &mut line)?;
            slot.keystream(line_base, &mut line);
            if self.integrity {
                self.stats.mac_checks += 1;
                // A line that passed under this slot and has not changed
                // since would pass again: its verdict is reused.
                if !checked {
                    let valid = match self.macs.get(line_base / LINE_SIZE) {
                        Some(tag) => mac28(&slot.mac_key, line_base, &line) == tag,
                        None => false,
                    };
                    if !valid {
                        self.stats.mac_failures += 1;
                        return Err(MemFault::IntegrityViolation { pa: line_base });
                    }
                    mem.mark_checked(PhysAddr(line_base), slot.serial);
                }
            }
            buf[done..done + take].copy_from_slice(&line[off..off + take]);
            done += take;
            addr += take as u64;
        }
        Ok(())
    }

    /// The seed's scalar write path (per-line RMW, cloned key slot, scalar
    /// AES/Keccak), kept verbatim as the differential oracle and the
    /// "before" measurement of the tracked benchmark pipeline. Shares the
    /// key and MAC state with the optimized path, so the two can be
    /// interleaved freely.
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
                self.macs.insert(line_base / LINE_SIZE, tag);
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
                let valid = match self.macs.get(line_base / LINE_SIZE) {
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

    /// A checked line's verdict does not outlive a change to its
    /// ciphertext: a flipped byte faults at that line on the next read.
    #[test]
    fn tampering_after_a_checked_read_is_detected() {
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

    /// Which lines count as checked, and under which slot.
    #[test]
    fn checked_lines_follow_writes_reads_and_slots() {
        let (mut mem, mut engine) = setup();
        let serial = |e: &MktmeEngine, k: u16| e.keys[&k].serial;
        let (one, two) = (serial(&engine, 1), serial(&engine, 2));
        assert_ne!(one, two);
        let mut line = [0u8; 64];
        let mut is_checked = |mem: &mut PhysMemory, pa: u64, s: u64| {
            mem.read_line(PhysAddr(pa), s, &mut line).unwrap()
        };
        // An engine write checks exactly the lines it stored.
        engine
            .write(&mut mem, PhysAddr(0x8040), KeyId(1), &[1u8; 128])
            .unwrap();
        assert!(is_checked(&mut mem, 0x8040, one));
        assert!(is_checked(&mut mem, 0x8080, one));
        assert!(!is_checked(&mut mem, 0x8000, one));
        assert!(!is_checked(&mut mem, 0x80c0, one));
        assert!(!is_checked(&mut mem, 0x8040, two), "another slot");
        // A passing read checks its line; one under another slot replaces
        // the frame's verdicts.
        engine
            .write(&mut mem, PhysAddr(0x8fc0), KeyId(2), &[2u8; 64])
            .unwrap();
        assert!(is_checked(&mut mem, 0x8fc0, two));
        assert!(!is_checked(&mut mem, 0x8040, one));
        let mut buf = [0u8; 8];
        engine
            .read(&mut mem, PhysAddr(0x8048), KeyId(1), &mut buf)
            .unwrap();
        assert!(is_checked(&mut mem, 0x8040, one));
        assert!(!is_checked(&mut mem, 0x8fc0, two));
        // Re-programming a KeyID issues a new slot.
        engine.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        assert!(serial(&engine, 1) > two);
        // Any raw write forgets the whole frame's verdicts.
        mem.write(PhysAddr(0x8800), &[0]).unwrap();
        assert!(!is_checked(&mut mem, 0x8040, one));
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

    /// A zero page is recorded, not computed, yet charges exactly what the
    /// span path charges for any other whole page, and reads back as zeros.
    #[test]
    fn zero_page_is_lazy_and_charged_like_any_page() {
        let (mut lazy_mem, mut lazy) = setup();
        let (mut eager_mem, mut eager) = setup();
        let pa = PhysAddr(0x70_000);
        lazy.write(&mut lazy_mem, pa, KeyId(1), &[0u8; 4096])
            .unwrap();
        eager
            .write(&mut eager_mem, pa, KeyId(1), &[0x01; 4096])
            .unwrap();
        assert_eq!(lazy.stats, eager.stats);
        assert_eq!(lazy_mem.access_count, eager_mem.access_count);
        assert!((0..64).all(|i| lazy.macs.get(pa.0 / LINE_SIZE + i).is_some()));
        let tagged: usize = lazy
            .macs
            .pages
            .values()
            .map(|p| p.iter().filter(|&&t| t != MAC_EMPTY).count())
            .sum();
        assert_eq!(tagged, 64, "only the frame's lines carry tags");
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
