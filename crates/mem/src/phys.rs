//! Sparse physical memory and the CS OS frame allocator.
//!
//! Frames are materialised lazily, so simulating a multi-gigabyte SoC costs
//! only what is actually touched. Raw byte access here is *below* the
//! encryption engine: [`crate::mktme`] layers AES-CTR on top.
//!
//! A frame is in one of three states: absent (reads as zeros), bytes, or
//! a zero page written through an MKTME key and untouched since. The last
//! holds only the key: its raw bytes are the key's per-line keystream
//! (CTR ciphertext of zeros), generated for the lines a read touches and
//! materialised in full by the first partial write.
//!
//! A frame of bytes also carries its *checked lines*: which of its lines
//! passed the engine's MAC check, and under which key slot. Any raw
//! mutation of the frame forgets them.

use crate::addr::{PhysAddr, Ppn, PAGE_SIZE};
use crate::mktme::{KeySlot, LINE_SIZE};
use crate::MemFault;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a present frame holds.
#[derive(Debug)]
enum Frame {
    Bytes(Page),
    /// Zeros encrypted under this key slot.
    Keystream(Arc<KeySlot>),
}

const PAGE_LEN: usize = PAGE_SIZE as usize;
/// Offset of the checked-line mask in a [`Page`]'s allocation.
const MASK_AT: usize = PAGE_LEN;
/// Offset of the key slot serial the mask's lines passed under.
const SERIAL_AT: usize = PAGE_LEN + 8;

/// A materialised frame: its raw bytes, then its check state, a 64-bit
/// mask of lines whose MAC check passed and the serial of the key slot
/// they passed under. Both sit in the frame's one zeroed allocation, so a
/// new page costs what its bytes did and starts with nothing checked
/// (serial 0 is never issued). The bytes are mutable only through
/// [`Page::bytes_mut`], which clears the mask.
#[derive(Debug)]
struct Page(Box<[u8]>);

impl Page {
    fn zeroed() -> Self {
        Page(vec![0u8; SERIAL_AT + 8].into_boxed_slice())
    }

    fn bytes(&self) -> &[u8] {
        &self.0[..PAGE_LEN]
    }

    /// The bytes, for a raw mutation: every checked line is forgotten.
    fn bytes_mut(&mut self) -> &mut [u8] {
        self.set_word(MASK_AT, 0);
        &mut self.0[..PAGE_LEN]
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.0[at..at + 8].try_into().expect("eight bytes"))
    }

    fn set_word(&mut self, at: usize, v: u64) {
        self.0[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Whether line `line` passed its check under key slot `serial`.
    fn checked(&self, line: usize, serial: u64) -> bool {
        self.word(SERIAL_AT) == serial && self.word(MASK_AT) >> line & 1 == 1
    }

    /// Records lines `[first, first + n)` as checked under key slot
    /// `serial`; lines checked under another slot are forgotten.
    fn mark(&mut self, first: usize, n: usize, serial: u64) {
        let lines = u64::MAX >> (64 - n) << first;
        let mask = if self.word(SERIAL_AT) == serial {
            self.word(MASK_AT) | lines
        } else {
            self.set_word(SERIAL_AT, serial);
            lines
        };
        self.set_word(MASK_AT, mask);
    }
}

/// Raw bytes `[off, off + out.len())` of a zero page encrypted under
/// `slot` at frame `ppn`; only the lines the range touches are generated.
fn keystream_bytes(slot: &KeySlot, ppn: u64, off: usize, out: &mut [u8]) {
    let line = LINE_SIZE as usize;
    let mut done = 0usize;
    while done < out.len() {
        let pos = off + done;
        let line_off = pos % line;
        let take = (line - line_off).min(out.len() - done);
        let mut ks = [0u8; LINE_SIZE as usize];
        slot.keystream(ppn * PAGE_SIZE + (pos - line_off) as u64, &mut ks);
        out[done..done + take].copy_from_slice(&ks[line_off..line_off + take]);
        done += take;
    }
}

/// Sparse physical memory of a fixed installed size.
#[derive(Debug)]
pub struct PhysMemory {
    frames: BTreeMap<u64, Frame>,
    total_frames: u64,
    /// Number of raw physical accesses performed (timing-model input).
    pub access_count: u64,
}

impl PhysMemory {
    /// Creates memory with `bytes` of installed capacity (rounded down to
    /// whole frames).
    pub fn new(bytes: u64) -> Self {
        PhysMemory {
            frames: BTreeMap::new(),
            total_frames: bytes / PAGE_SIZE,
            access_count: 0,
        }
    }

    /// Installed capacity in frames.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    fn check(&self, pa: PhysAddr, len: u64) -> Result<(), MemFault> {
        match pa.0.checked_add(len) {
            Some(end) if end <= self.total_frames * PAGE_SIZE => Ok(()),
            _ => Err(MemFault::BusError { pa: pa.0 }),
        }
    }

    /// The frame's page, materialising an absent or keystream frame. With
    /// `whole`, the caller overwrites every byte, so what a keystream
    /// frame held is not generated.
    fn page_mut(&mut self, ppn: u64, whole: bool) -> &mut Page {
        let frame = self
            .frames
            .entry(ppn)
            .or_insert_with(|| Frame::Bytes(Page::zeroed()));
        if let Frame::Keystream(slot) = frame {
            let mut page = Page::zeroed();
            if !whole {
                keystream_bytes(slot, ppn, 0, page.bytes_mut());
            }
            *frame = Frame::Bytes(page);
        }
        let Frame::Bytes(page) = frame else {
            unreachable!("materialised above")
        };
        page
    }

    /// Records frame `ppn` as a zero page encrypted under `slot`, replacing
    /// its contents. Counts no access: the engine charges the write.
    pub(crate) fn zero_under_key(&mut self, ppn: Ppn, slot: Arc<KeySlot>) {
        assert!(ppn.0 < self.total_frames, "frame beyond installed memory");
        self.frames.insert(ppn.0, Frame::Keystream(slot));
    }

    /// Frames whose bytes are allocated, in PPN order. Absent frames and
    /// zero pages still waiting for their first write are not listed.
    pub fn materialized_frames(&self) -> impl Iterator<Item = Ppn> + '_ {
        self.frames
            .iter()
            .filter(|(_, f)| matches!(f, Frame::Bytes(_)))
            .map(|(&ppn, _)| Ppn(ppn))
    }

    /// Reads the aligned line at `line_base`, counting one access as
    /// [`PhysMemory::read`] does, and reports whether it passed its MAC
    /// check under key slot `serial` since its frame last changed.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the line exceeds installed memory.
    pub(crate) fn read_line(
        &mut self,
        line_base: PhysAddr,
        serial: u64,
        line: &mut [u8; LINE_SIZE as usize],
    ) -> Result<bool, MemFault> {
        self.check(line_base, LINE_SIZE)?;
        self.access_count += 1;
        let ppn = line_base.0 / PAGE_SIZE;
        let off = (line_base.0 % PAGE_SIZE) as usize;
        Ok(match self.frames.get(&ppn) {
            Some(Frame::Bytes(page)) => {
                line.copy_from_slice(&page.bytes()[off..off + LINE_SIZE as usize]);
                page.checked(off / LINE_SIZE as usize, serial)
            }
            Some(Frame::Keystream(slot)) => {
                keystream_bytes(slot, ppn, off, line);
                false
            }
            None => {
                line.fill(0);
                false
            }
        })
    }

    /// Records the aligned line at `line_base` as checked under key slot
    /// `serial`. A line of an unmaterialised frame is not recorded.
    pub(crate) fn mark_checked(&mut self, line_base: PhysAddr, serial: u64) {
        let off = (line_base.0 % PAGE_SIZE) as usize;
        if let Some(Frame::Bytes(page)) = self.frames.get_mut(&(line_base.0 / PAGE_SIZE)) {
            page.mark(off / LINE_SIZE as usize, 1, serial);
        }
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
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let ppn = addr / PAGE_SIZE;
            let off = (addr % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let out = &mut buf[done..done + take];
            match self.frames.get(&ppn) {
                Some(Frame::Bytes(page)) => out.copy_from_slice(&page.bytes()[off..off + take]),
                Some(Frame::Keystream(slot)) => keystream_bytes(slot, ppn, off, out),
                None => out.fill(0),
            }
            addr += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the range exceeds installed memory.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), MemFault> {
        self.store(pa, buf, None)
    }

    /// Writes whole aligned lines at `pa`, as [`PhysMemory::write`] does,
    /// and records each as checked under key slot `serial`: the engine has
    /// just stored their ciphertext together with their tags.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the range exceeds installed memory.
    pub(crate) fn write_checked(
        &mut self,
        pa: PhysAddr,
        buf: &[u8],
        serial: u64,
    ) -> Result<(), MemFault> {
        debug_assert!(
            pa.0.is_multiple_of(LINE_SIZE) && (buf.len() as u64).is_multiple_of(LINE_SIZE)
        );
        self.store(pa, buf, Some(serial))
    }

    fn store(&mut self, pa: PhysAddr, buf: &[u8], checked: Option<u64>) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        self.access_count += 1;
        let mut addr = pa.0;
        let mut done = 0usize;
        while done < buf.len() {
            let ppn = addr / PAGE_SIZE;
            let off = (addr % PAGE_SIZE) as usize;
            let take = (PAGE_LEN - off).min(buf.len() - done);
            let page = self.page_mut(ppn, take == PAGE_LEN);
            page.bytes_mut()[off..off + take].copy_from_slice(&buf[done..done + take]);
            if let Some(serial) = checked {
                let line = LINE_SIZE as usize;
                page.mark(off / line, take / line, serial);
            }
            addr += take as u64;
            done += take;
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
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the frame is out of range.
    pub fn zero_frame(&mut self, ppn: Ppn) -> Result<(), MemFault> {
        self.check(ppn.base(), PAGE_SIZE)?;
        self.access_count += 1;
        self.frames.remove(&ppn.0);
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
    /// staging). Draws from the untouched tail of the range, never from the
    /// free list.
    pub fn alloc_contiguous(&mut self, n: u64) -> Option<Ppn> {
        if self.next + n <= self.limit {
            let base = Ppn(self.next);
            self.next += n;
            self.allocated += n;
            Some(base)
        } else {
            None
        }
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

    #[test]
    fn page_marks_and_forgets_checked_lines() {
        let mut page = Page::zeroed();
        assert!(!page.checked(0, 0), "serial 0 checks nothing");
        page.mark(0, 64, 7);
        assert!((0..64).all(|l| page.checked(l, 7)));
        assert!(!page.checked(5, 8));
        page.mark(63, 1, 8);
        assert!(page.checked(63, 8));
        assert!((0..63).all(|l| !page.checked(l, 8) && !page.checked(l, 7)));
        page.mark(2, 3, 8);
        assert_eq!((0..64).filter(|&l| page.checked(l, 8)).count(), 4);
        page.bytes_mut()[100] = 1;
        assert!((0..64).all(|l| !page.checked(l, 8)));
        assert_eq!(page.bytes().len(), PAGE_LEN);
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
