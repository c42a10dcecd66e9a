//! Sparse physical memory with its MAC tags, and the CS OS frame allocator.
//!
//! Frames are materialised lazily, so simulating a multi-gigabyte SoC costs
//! only what is actually touched. Raw byte access here is *below* the
//! encryption engine ([`crate::mktme`]): every raw read and write observes
//! what DRAM holds, which is ciphertext for a line written through an
//! MKTME key. Each line's 28-bit MAC tag is kept here too, as DRAM
//! metadata beside the line.
//!
//! A frame is absent (reads as zeros), bytes, or a zero page written
//! through a key slot and untouched since. The last holds only the slot:
//! its raw bytes are the slot's per-line keystream (CTR ciphertext of
//! zeros), generated for the lines a raw read touches, and its tags are
//! the slot's zero-line tags, computed when asked for.
//!
//! Each line of a frame of bytes is in one of two states:
//!
//! * **ciphertext**: the bytes DRAM holds;
//! * **plain under slot S**: the line the engine last wrote or last
//!   verified through S, kept decrypted as the SoC's caches would hold it.
//!   The engine reads and writes such a line with no AES and no MAC. When
//!   the engine wrote it, its tag is *pending*: the MAC of these bytes
//!   under S, not computed yet.
//!
//! All of a frame's plain lines are under one slot. Ciphertext is made only
//! where raw bytes are observed: a raw read encrypts the plain lines it
//! returns and leaves them plain. A pending tag is computed before its
//! plaintext is lost (a raw write to the line, [`PhysMemory::zero_frame`],
//! or an engine write through another slot, which first turns the frame's
//! plain lines back into ciphertext) and when a read through another slot
//! asks for it.

use crate::addr::{PhysAddr, Ppn, PAGE_SIZE};
use crate::framehash::FrameMap;
use crate::mktme::{KeySlot, LINE_SIZE};
use crate::MemFault;
use hypertee_crypto::mac::{mac28, mac28_lines, MacTag, MAC_BATCH_LINES};
use std::ops::Range;
use std::sync::Arc;

const PAGE_LEN: usize = PAGE_SIZE as usize;
const LINE: usize = LINE_SIZE as usize;

/// Lines per 4 KiB frame.
pub(crate) const FRAME_LINES: u64 = PAGE_SIZE / LINE_SIZE;

/// What a present frame holds.
#[derive(Debug)]
enum Frame {
    Bytes(Box<Page>),
    /// Zeros written under this key slot.
    Keystream(Arc<KeySlot>),
}

/// A materialised frame: its bytes, each line ciphertext or plain under
/// `slot` (see the module docs). Boxed whole, so a [`Frame`] stays 16
/// bytes.
#[derive(Debug)]
struct Page {
    bytes: [u8; PAGE_LEN],
    /// Lines held as plaintext under `slot`.
    plain: u64,
    /// Plain lines whose tag is pending.
    pending: u64,
    slot: Option<Arc<KeySlot>>,
}

/// Lines `[first, last]` of a frame, as a mask.
fn line_mask(first: usize, last: usize) -> u64 {
    u64::MAX >> (63 - (last - first)) << first
}

/// The lines of `mask`, lowest first.
fn lines(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

impl Page {
    /// A frame of zero bytes, all ciphertext.
    fn zeroed() -> Box<Self> {
        Box::new(Page {
            bytes: [0; PAGE_LEN],
            plain: 0,
            pending: 0,
            slot: None,
        })
    }

    /// A zero page written through `slot`, every line held plain.
    fn zeros_under(slot: Arc<KeySlot>) -> Box<Self> {
        Box::new(Page {
            bytes: [0; PAGE_LEN],
            plain: u64::MAX,
            pending: 0,
            slot: Some(slot),
        })
    }

    /// Whether the frame's plain lines are under `slot`.
    fn under(&self, slot: &KeySlot) -> bool {
        self.slot.as_ref().is_some_and(|s| s.serial == slot.serial)
    }

    fn line(&self, i: usize) -> [u8; LINE] {
        self.bytes[i * LINE..(i + 1) * LINE]
            .try_into()
            .expect("one line")
    }

    /// Computes the pending tags of lines `mask` of frame `ppn` into
    /// `tags`. Aligned runs of eight pending lines go through the
    /// lane-sliced [`mac28_lines`] batch.
    fn settle(&mut self, ppn: u64, mask: u64, tags: &mut MacTable) {
        let due = self.pending & mask;
        if due == 0 {
            return;
        }
        let key = &self
            .slot
            .as_ref()
            .expect("a pending line has a slot")
            .mac_key;
        let first = ppn * FRAME_LINES;
        for group in (0..64).step_by(MAC_BATCH_LINES) {
            let run = (due >> group) & 0xff;
            if run == 0xff {
                let batch = self.bytes[group * LINE..(group + MAC_BATCH_LINES) * LINE]
                    .try_into()
                    .expect("eight lines");
                let at = first + group as u64;
                for (i, tag) in mac28_lines(key, at * LINE_SIZE, batch)
                    .into_iter()
                    .enumerate()
                {
                    tags.insert(at + i as u64, tag);
                }
            } else {
                for i in lines(run << group) {
                    let line = first + i as u64;
                    let bytes = &self.bytes[i * LINE..(i + 1) * LINE];
                    tags.insert(line, mac28(key, line * LINE_SIZE, bytes));
                }
            }
        }
        self.pending &= !due;
    }

    /// Turns lines `mask` of frame `ppn` back into ciphertext, settling
    /// their pending tags first.
    fn seal(&mut self, ppn: u64, mask: u64, tags: &mut MacTable) {
        self.settle(ppn, mask, tags);
        let due = self.plain & mask;
        if let Some(slot) = &self.slot {
            for i in lines(due) {
                slot.keystream(
                    ppn * PAGE_SIZE + (i * LINE) as u64,
                    &mut self.bytes[i * LINE..(i + 1) * LINE],
                );
            }
        }
        self.plain &= !due;
    }
}

/// XORs into `out`, a copy of bytes `[off, off + out.len())` of frame
/// `ppn`, the keystream of `slot` over the lines of `mask` it covers:
/// what a raw read observes of lines held plain, or of zeros, under
/// `slot`. Only those lines' keystream is generated.
fn encrypt_lines(slot: &KeySlot, ppn: u64, mask: u64, off: usize, out: &mut [u8]) {
    let end = off + out.len();
    for i in lines(mask & line_mask(off / LINE, (end - 1) / LINE)) {
        let mut ks = [0u8; LINE];
        slot.keystream(ppn * PAGE_SIZE + (i * LINE) as u64, &mut ks);
        let (lo, hi) = ((i * LINE).max(off), ((i + 1) * LINE).min(end));
        for (b, k) in out[lo - off..hi - off].iter_mut().zip(&ks[lo - i * LINE..]) {
            *b ^= k;
        }
    }
}

/// The frames a range of `len` bytes at `pa` covers, in order: each
/// frame's number, the range's offset in it, and the part of the range
/// it holds.
fn frame_chunks(pa: PhysAddr, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let addr = pa.0 + done as u64;
            let off = (addr % PAGE_SIZE) as usize;
            let take = (PAGE_LEN - off).min(len - done);
            done += take;
            (addr / PAGE_SIZE, off, done - take..done)
        })
    })
}

/// Frame `ppn`'s page, materialising an absent frame as zero ciphertext
/// and a zero page as zeros held plain under its slot. With `whole`, the
/// caller overwrites every byte, so what the frame held is not kept.
fn materialise(frames: &mut FrameMap<Frame>, ppn: u64, whole: bool) -> &mut Page {
    let frame = frames
        .entry(ppn)
        .or_insert_with(|| Frame::Bytes(Page::zeroed()));
    if let Frame::Keystream(zeroed) = frame {
        *frame = Frame::Bytes(if whole {
            Page::zeroed()
        } else {
            Page::zeros_under(Arc::clone(zeroed))
        });
    }
    let Frame::Bytes(page) = frame else {
        unreachable!("materialised above")
    };
    page
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

/// Paged flat MAC store indexed by line number: one hash probe per
/// 512-line page plus an array index, instead of one probe per line. A
/// pending tag is not here: its line's frame stands for it.
#[derive(Debug, Default)]
struct MacTable {
    pages: FrameMap<Box<[u32]>>,
    /// MAC key each lazily zeroed frame was zeroed under, by PPN.
    zeroed: FrameMap<[u8; 32]>,
}

impl MacTable {
    /// Looks up the tag recorded for a line number (`pa / LINE_SIZE`). A
    /// line of a lazily zeroed frame gets its zero-line tag computed here.
    fn get(&self, line: u64) -> Option<MacTag> {
        match self.entry(line)? {
            MAC_EMPTY => None,
            MAC_ZERO => {
                let key = &self.zeroed[&(line / FRAME_LINES)];
                Some(mac28(key, line * LINE_SIZE, &[0u8; LINE]))
            }
            tag => Some(MacTag(tag)),
        }
    }

    fn entry(&self, line: u64) -> Option<u32> {
        self.pages
            .get(&(line / MAC_PAGE_LINES))?
            .get((line % MAC_PAGE_LINES) as usize)
            .copied()
    }

    /// Whether the line's tag is the zero-line tag under `mac_key`.
    fn is_zero_tag(&self, line: u64, mac_key: &[u8; 32]) -> bool {
        self.entry(line) == Some(MAC_ZERO)
            && self.zeroed.get(&(line / FRAME_LINES)) == Some(mac_key)
    }

    fn page_mut(&mut self, line: u64) -> &mut [u32] {
        self.pages
            .entry(line / MAC_PAGE_LINES)
            .or_insert_with(|| vec![MAC_EMPTY; MAC_PAGE_LINES as usize].into_boxed_slice())
    }

    /// Records the tag for a line number.
    fn insert(&mut self, line: u64, tag: MacTag) {
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

/// Sparse physical memory of a fixed installed size. Present frames sit in
/// a hash map by PPN: a dense table over every installed frame would cost
/// 16 bytes a frame whether it is touched or not.
#[derive(Debug)]
pub struct PhysMemory {
    frames: FrameMap<Frame>,
    tags: MacTable,
    total_frames: u64,
    /// Number of raw physical accesses performed (timing-model input).
    pub access_count: u64,
}

impl PhysMemory {
    /// Creates memory with `bytes` of installed capacity (rounded down to
    /// whole frames).
    pub fn new(bytes: u64) -> Self {
        PhysMemory {
            frames: FrameMap::default(),
            tags: MacTable::default(),
            total_frames: bytes / PAGE_SIZE,
            access_count: 0,
        }
    }

    /// Installed capacity in frames.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Whether `[pa, pa + len)` lies in installed memory.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] at `pa` when it does not.
    pub(crate) fn check(&self, pa: PhysAddr, len: u64) -> Result<(), MemFault> {
        match pa.0.checked_add(len) {
            Some(end) if end <= self.total_frames * PAGE_SIZE => Ok(()),
            _ => Err(MemFault::BusError { pa: pa.0 }),
        }
    }

    /// Records frame `ppn` as a zero page written through `slot`, replacing
    /// its contents; with `tagged`, its 64 tags become the slot's zero-line
    /// tags, and otherwise the tags the old contents left pending are
    /// computed first. Counts no access: the engine charges the write.
    pub(crate) fn zero_under_key(&mut self, ppn: Ppn, slot: Arc<KeySlot>, tagged: bool) {
        assert!(ppn.0 < self.total_frames, "frame beyond installed memory");
        if tagged {
            self.tags.insert_zero_frame(ppn, &slot.mac_key);
        }
        if let Some(Frame::Bytes(mut page)) = self.frames.insert(ppn.0, Frame::Keystream(slot)) {
            if !tagged {
                page.settle(ppn.0, u64::MAX, &mut self.tags);
            }
        }
    }

    /// Lines with a tag recorded in the MAC table.
    #[cfg(test)]
    pub(crate) fn tagged_lines(&self) -> usize {
        let recorded = |p: &[u32]| p.iter().filter(|&&t| t != MAC_EMPTY).count();
        self.tags.pages.values().map(|p| recorded(p)).sum()
    }

    /// Frames whose bytes are allocated, in PPN order. Absent frames and
    /// zero pages still waiting for their first write are not listed.
    pub fn materialized_frames(&self) -> impl Iterator<Item = Ppn> {
        let mut ppns: Vec<Ppn> = self
            .frames
            .iter()
            .filter(|(_, f)| matches!(f, Frame::Bytes(_)))
            .map(|(&ppn, _)| Ppn(ppn))
            .collect();
        ppns.sort_unstable();
        ppns.into_iter()
    }

    /// Stores `data` at `pa`, which the caller checked is in range, as
    /// plaintext under `slot`: what the engine writes through the slot.
    /// With `tagged`, the lines' tags become pending. A line the write
    /// covers only in part is decrypted under `slot` first unless it is
    /// already held plain. Counts no access: the engine charges the write.
    pub(crate) fn store_plain(
        &mut self,
        pa: PhysAddr,
        data: &[u8],
        slot: &Arc<KeySlot>,
        tagged: bool,
    ) {
        for (ppn, off, part) in frame_chunks(pa, data.len()) {
            let end = off + part.len();
            let page = materialise(&mut self.frames, ppn, part.len() == PAGE_LEN);
            if !page.under(slot) {
                page.seal(ppn, u64::MAX, &mut self.tags);
                page.slot = Some(Arc::clone(slot));
            }
            let (first, last) = (off / LINE, (end - 1) / LINE);
            for i in [first, last] {
                let covered = off <= i * LINE && (i + 1) * LINE <= end;
                if !covered && page.plain >> i & 1 == 0 {
                    slot.keystream(
                        ppn * PAGE_SIZE + (i * LINE) as u64,
                        &mut page.bytes[i * LINE..(i + 1) * LINE],
                    );
                    page.plain |= 1 << i;
                }
            }
            page.bytes[off..end].copy_from_slice(&data[part]);
            let mask = line_mask(first, last);
            page.plain |= mask;
            if tagged {
                page.pending |= mask;
            }
        }
    }

    /// The aligned line at `line_base`, which the caller checked is in
    /// range, decrypted under `slot`; `None` when `verify` is set and its
    /// MAC check fails. A line held plain under `slot` is copied. Any
    /// other line is decrypted from its ciphertext and checked against
    /// its tag; when it passes, it is held plain under `slot` unless its
    /// frame holds lines plain under another slot. Counts no access.
    pub(crate) fn load_plain(
        &mut self,
        line_base: PhysAddr,
        slot: &Arc<KeySlot>,
        verify: bool,
    ) -> Option<[u8; LINE]> {
        let ppn = line_base.0 / PAGE_SIZE;
        let i = (line_base.0 % PAGE_SIZE) as usize / LINE;
        // The line's ciphertext.
        let mut line = [0u8; LINE];
        match self.frames.get_mut(&ppn) {
            Some(Frame::Bytes(page)) => {
                let plain = page.plain >> i & 1 == 1;
                if plain && page.under(slot) {
                    return Some(page.line(i));
                }
                line = page.line(i);
                if plain {
                    page.settle(ppn, 1 << i, &mut self.tags);
                    if let Some(other) = &page.slot {
                        other.keystream(line_base.0, &mut line);
                    }
                }
            }
            Some(Frame::Keystream(zeroed)) => {
                let n = line_base.0 / LINE_SIZE;
                if zeroed.serial == slot.serial
                    && (!verify || self.tags.is_zero_tag(n, &slot.mac_key))
                {
                    return Some(line);
                }
                zeroed.keystream(line_base.0, &mut line);
            }
            None => {}
        }
        slot.keystream(line_base.0, &mut line);
        if verify
            && self.tags.get(line_base.0 / LINE_SIZE)
                != Some(mac28(&slot.mac_key, line_base.0, &line))
        {
            return None;
        }
        if let Some(Frame::Bytes(page)) = self.frames.get_mut(&ppn) {
            if page.plain == 0 {
                page.slot = Some(Arc::clone(slot));
            }
            if page.under(slot) {
                page.bytes[i * LINE..(i + 1) * LINE].copy_from_slice(&line);
                page.plain |= 1 << i;
            }
        }
        Some(line)
    }

    /// The tag of the aligned line at `line_base`, computing it if pending.
    pub(crate) fn tag(&mut self, line_base: PhysAddr) -> Option<MacTag> {
        let ppn = line_base.0 / PAGE_SIZE;
        if let Some(Frame::Bytes(page)) = self.frames.get_mut(&ppn) {
            let i = (line_base.0 % PAGE_SIZE) as usize / LINE;
            page.settle(ppn, 1 << i, &mut self.tags);
        }
        self.tags.get(line_base.0 / LINE_SIZE)
    }

    /// Records `tag` for the aligned line at `line_base`, whose new
    /// ciphertext the caller is about to write: the line stops being held
    /// plain, and a tag it had pending is dropped.
    pub(crate) fn set_tag(&mut self, line_base: PhysAddr, tag: MacTag) {
        let ppn = line_base.0 / PAGE_SIZE;
        if let Some(Frame::Bytes(page)) = self.frames.get_mut(&ppn) {
            let bit = 1 << ((line_base.0 % PAGE_SIZE) as usize / LINE);
            page.pending &= !bit;
            page.seal(ppn, bit, &mut self.tags);
        }
        self.tags.insert(line_base.0 / LINE_SIZE, tag);
    }

    /// Reads `buf.len()` bytes starting at `pa`. Crossing frame boundaries is
    /// allowed; untouched frames read as zero.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the range exceeds installed memory.
    pub fn read(&mut self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        self.access_count += 1;
        for (ppn, off, part) in frame_chunks(pa, buf.len()) {
            let out = &mut buf[part];
            match self.frames.get(&ppn) {
                Some(Frame::Bytes(page)) => {
                    out.copy_from_slice(&page.bytes[off..off + out.len()]);
                    if let Some(slot) = &page.slot {
                        encrypt_lines(slot, ppn, page.plain, off, out);
                    }
                }
                Some(Frame::Keystream(slot)) => {
                    out.fill(0);
                    encrypt_lines(slot, ppn, u64::MAX, off, out);
                }
                None => out.fill(0),
            }
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa`. The lines it touches are ciphertext
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the range exceeds installed memory.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        self.access_count += 1;
        for (ppn, off, part) in frame_chunks(pa, buf.len()) {
            let end = off + part.len();
            let page = materialise(&mut self.frames, ppn, part.len() == PAGE_LEN);
            page.seal(ppn, line_mask(off / LINE, (end - 1) / LINE), &mut self.tags);
            page.bytes[off..end].copy_from_slice(&buf[part]);
        }
        Ok(())
    }

    /// Reads a u64 (little endian).
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when out of range.
    pub(crate) fn read_u64(&mut self, pa: PhysAddr) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a u64 (little endian).
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when out of range.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) -> Result<(), MemFault> {
        self.write(pa, &v.to_le_bytes())
    }

    /// Fills a whole frame with zeros (EMS zeroes pages before reuse, §IV-A).
    /// Its lines' tags stay; the ones its lines had pending are computed
    /// first.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the frame is out of range.
    pub fn zero_frame(&mut self, ppn: Ppn) -> Result<(), MemFault> {
        self.check(ppn.base(), PAGE_SIZE)?;
        self.access_count += 1;
        if let Some(Frame::Bytes(mut page)) = self.frames.remove(&ppn.0) {
            page.settle(ppn.0, u64::MAX, &mut self.tags);
        }
        Ok(())
    }
}

/// The CS operating system's frame allocator: hands out free physical frames.
/// EMS requests frames from here to feed the enclave memory pool (§IV-A).
#[derive(Debug)]
pub struct FrameAllocator {
    next: u64,
    limit: u64,
    free: Vec<Ppn>,
    /// Frames currently handed out.
    pub allocated: u64,
}

impl FrameAllocator {
    /// Manages frames `[first, limit)`.
    pub fn new(first: Ppn, limit: Ppn) -> Self {
        assert!(first.0 < limit.0, "empty allocator range");
        FrameAllocator {
            next: first.0,
            limit: limit.0,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Allocates one frame, or `None` when physical memory is exhausted.
    pub fn alloc(&mut self) -> Option<Ppn> {
        if let Some(f) = self.free.pop() {
            self.allocated += 1;
            return Some(f);
        }
        if self.next < self.limit {
            let f = Ppn(self.next);
            self.next += 1;
            self.allocated += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Allocates `n` physically contiguous frames (host windows, image
    /// staging). Draws from the untouched tail of the range; when the tail
    /// is too short, takes the lowest run of `n` consecutive frames in the
    /// free list, and the free list keeps the rest in their order, so
    /// [`FrameAllocator::alloc`] still pops them as before.
    pub fn alloc_contiguous(&mut self, n: u64) -> Option<Ppn> {
        if self.next + n <= self.limit {
            let base = Ppn(self.next);
            self.next += n;
            self.allocated += n;
            return Some(base);
        }
        let base = self.free_run(n)?;
        self.free.retain(|p| !(base..base + n).contains(&p.0));
        self.allocated += n;
        Some(Ppn(base))
    }

    /// The lowest first frame of `n` (at least one) consecutive frames all
    /// on the free list.
    fn free_run(&self, n: u64) -> Option<u64> {
        let mut sorted: Vec<u64> = self.free.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        let (mut base, mut len) = (0, 0);
        for &p in &sorted {
            if len > 0 && p == base + len {
                len += 1;
            } else {
                (base, len) = (p, 1);
            }
            if len >= n {
                return Some(base);
            }
        }
        None
    }

    /// Returns a frame to the free list.
    pub fn free(&mut self, ppn: Ppn) {
        debug_assert!(ppn.0 < self.limit, "freeing frame outside range");
        self.allocated = self.allocated.saturating_sub(1);
        self.free.push(ppn);
    }

    /// Frames still available.
    pub fn available(&self) -> u64 {
        (self.limit - self.next) + self.free.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::KeyId;
    use crate::mktme::MktmeEngine;

    #[test]
    fn contiguous_falls_back_to_a_free_run_and_keeps_the_pop_order() {
        let mut fa = FrameAllocator::new(Ppn(0), Ppn(32));
        let all: Vec<Ppn> = std::iter::from_fn(|| fa.alloc()).collect();
        assert_eq!((all.len(), fa.available()), (32, 0));
        for p in [10, 3, 4, 20, 5, 6, 30] {
            fa.free(Ppn(p));
        }
        assert_eq!(fa.alloc_contiguous(5), None, "no run of 5");
        assert_eq!(fa.alloc_contiguous(3), Some(Ppn(3)), "lowest run of 3");
        assert_eq!((fa.allocated, fa.available()), (28, 4));
        let popped: Vec<u64> = std::iter::from_fn(|| fa.alloc()).map(|p| p.0).collect();
        assert_eq!(popped, [30, 6, 20, 10]);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = PhysMemory::new(1 << 20);
        let pa = PhysAddr(0x1234);
        mem.write(pa, b"hello world").unwrap();
        let mut buf = [0u8; 11];
        mem.read(pa, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn cross_frame_access() {
        let mut mem = PhysMemory::new(1 << 20);
        let pa = PhysAddr(PAGE_SIZE - 3);
        mem.write(pa, &[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 6];
        mem.read(pa, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut buf = [0xffu8; 16];
        mem.read(PhysAddr(0x8000), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn bus_error_beyond_installed() {
        let mut mem = PhysMemory::new(2 * PAGE_SIZE);
        let mut buf = [0u8; 4];
        assert!(matches!(
            mem.read(PhysAddr(2 * PAGE_SIZE), &mut buf),
            Err(MemFault::BusError { .. })
        ));
        // A straddling access is also rejected.
        assert!(mem.write(PhysAddr(2 * PAGE_SIZE - 2), &[0; 4]).is_err());
    }

    #[test]
    fn range_wrapping_the_address_space_is_bus_error() {
        let mut mem = PhysMemory::new(1 << 20);
        let pa = PhysAddr(u64::MAX - 10);
        let mut buf = [0u8; 64];
        assert!(matches!(
            mem.read(pa, &mut buf),
            Err(MemFault::BusError { .. })
        ));
        assert!(matches!(
            mem.write(pa, &buf),
            Err(MemFault::BusError { .. })
        ));
        assert!(matches!(
            mem.zero_frame(Ppn(u64::MAX / PAGE_SIZE)),
            Err(MemFault::BusError { .. })
        ));
        assert_eq!(mem.materialized_frames().count(), 0, "no phantom frame");
    }

    #[test]
    fn zero_frame_clears() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write(PhysAddr(0x2000), &[0xaa; 64]).unwrap();
        mem.zero_frame(Ppn(2)).unwrap();
        let mut buf = [0xffu8; 64];
        mem.read(PhysAddr(0x2000), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    fn engine() -> MktmeEngine {
        let mut engine = MktmeEngine::new(true);
        engine.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        engine.program_key(KeyId(2), &[0x22; 16], &[0xa2; 32]);
        engine
    }

    /// Frame `ppn`'s plain and pending lines, and the serial of their slot.
    fn held(mem: &PhysMemory, ppn: u64) -> (u64, u64, Option<u64>) {
        match mem.frames.get(&ppn) {
            Some(Frame::Bytes(page)) => (
                page.plain,
                page.pending,
                page.slot.as_ref().map(|s| s.serial),
            ),
            _ => (0, 0, None),
        }
    }

    /// An engine write holds exactly the lines it wrote, tags pending; a
    /// read that passes holds its line with the tag it checked; a one-line
    /// write leaves the rest of the frame held as it was.
    #[test]
    fn engine_writes_and_reads_hold_only_their_lines() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut e = engine();
        e.write_ref(&mut mem, PhysAddr(0x8000), KeyId(1), &[7; 4096])
            .unwrap();
        assert_eq!(held(&mem, 8).0, 0, "the oracle leaves ciphertext");
        let mut page = [0u8; 4096];
        e.read(&mut mem, PhysAddr(0x8000), KeyId(1), &mut page)
            .unwrap();
        let (plain, pending, slot) = held(&mem, 8);
        assert_eq!((plain, pending), (u64::MAX, 0), "verified, not pending");
        e.write(&mut mem, PhysAddr(0x8148), KeyId(1), &[9; 8])
            .unwrap();
        assert_eq!(held(&mem, 8), (u64::MAX, 1 << 5, slot));
        e.write(&mut mem, PhysAddr(0x9040), KeyId(1), &[1; 128])
            .unwrap();
        assert_eq!(held(&mem, 9).0, 0b110);
        assert_eq!(held(&mem, 9).1, 0b110);
        assert_eq!(held(&mem, 9).2, slot);
    }

    /// A raw write forgets only the lines it touches, computing their
    /// pending tags first; a raw read observes ciphertext and forgets
    /// nothing; a write through another slot turns the frame's lines back
    /// into ciphertext, their tags intact.
    #[test]
    fn raw_access_and_other_slots_observe_ciphertext() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut oracle_mem = PhysMemory::new(1 << 20);
        let mut e = engine();
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        e.write(&mut mem, PhysAddr(0x8000), KeyId(1), &data)
            .unwrap();
        e.write_ref(&mut oracle_mem, PhysAddr(0x8000), KeyId(1), &data)
            .unwrap();
        let raw = |mem: &mut PhysMemory| {
            let mut raw = vec![0u8; 4096];
            mem.read(PhysAddr(0x8000), &mut raw).unwrap();
            raw
        };
        assert!(raw(&mut mem) == raw(&mut oracle_mem), "raw bytes differ");
        assert_eq!(held(&mem, 8).1, u64::MAX, "a raw read leaves tags pending");
        mem.write(PhysAddr(0x827f), &[0, 0]).unwrap();
        oracle_mem.write(PhysAddr(0x827f), &[0, 0]).unwrap();
        let mask = !(0b11 << 9);
        assert_eq!(held(&mem, 8).0, mask);
        assert_eq!(held(&mem, 8).1, mask);
        assert!(raw(&mut mem) == raw(&mut oracle_mem), "raw bytes differ");
        for line in [9, 10, 11] {
            let pa = PhysAddr(0x8000 + line * LINE_SIZE);
            assert_eq!(mem.tag(pa), oracle_mem.tag(pa), "line {line}");
        }
        e.write(&mut mem, PhysAddr(0x8000), KeyId(2), &[3; 8])
            .unwrap();
        assert_eq!((held(&mem, 8).0, held(&mem, 8).1), (1, 1));
        let mut buf = [0u8; 64];
        for line in 1..64 {
            let pa = PhysAddr(0x8000 + line * LINE_SIZE);
            let got = e.read_ref(&mut mem, pa, KeyId(1), &mut buf);
            assert_eq!(got.is_ok(), !(9..=10).contains(&line), "line {line}");
        }
    }

    /// Zeros written through a slot are held plain by the first write
    /// through it, with no keystream generated; re-programming the same key
    /// under a new KeyID (the resume path) reads them back through the
    /// pending tags, without taking the frame from its slot.
    #[test]
    fn zero_pages_and_resumed_keys_read_through_held_lines() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut e = engine();
        e.zero_page(&mut mem, Ppn(8), KeyId(1)).unwrap();
        e.write(&mut mem, PhysAddr(0x8010), KeyId(1), &[5; 4])
            .unwrap();
        let (plain, pending, slot) = held(&mem, 8);
        assert_eq!((plain, pending), (u64::MAX, 1));
        e.revoke_key(KeyId(1));
        e.program_key(KeyId(3), &[0x11; 16], &[0xa1; 32]);
        let mut buf = [0u8; 64];
        e.read(&mut mem, PhysAddr(0x8000), KeyId(3), &mut buf)
            .unwrap();
        assert_eq!(&buf[16..20], &[5; 4]);
        e.read(&mut mem, PhysAddr(0x8040), KeyId(3), &mut buf)
            .unwrap();
        assert_eq!(buf, [0; 64]);
        assert_eq!(
            held(&mem, 8),
            (u64::MAX, 0, slot),
            "tag computed, slot kept"
        );
        assert_eq!(
            e.read(&mut mem, PhysAddr(0x8000), KeyId(2), &mut buf),
            Err(MemFault::IntegrityViolation { pa: 0x8000 })
        );
    }

    #[test]
    fn u64_helpers() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write_u64(PhysAddr(0x100), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(
            mem.read_u64(PhysAddr(0x100)).unwrap(),
            0xdead_beef_cafe_f00d
        );
    }

    #[test]
    fn allocator_reuses_freed_frames() {
        let mut alloc = FrameAllocator::new(Ppn(10), Ppn(13));
        let a = alloc.alloc().unwrap();
        let b = alloc.alloc().unwrap();
        let c = alloc.alloc().unwrap();
        assert_eq!(alloc.alloc(), None, "range exhausted");
        alloc.free(b);
        assert_eq!(alloc.alloc(), Some(b));
        assert_eq!(alloc.allocated, 3);
        let _ = (a, c);
    }

    #[test]
    fn allocator_available_counts() {
        let mut alloc = FrameAllocator::new(Ppn(0), Ppn(5));
        assert_eq!(alloc.available(), 5);
        let f = alloc.alloc().unwrap();
        assert_eq!(alloc.available(), 4);
        alloc.free(f);
        assert_eq!(alloc.available(), 5);
    }
}
