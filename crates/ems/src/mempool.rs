//! The enclave memory pool (§IV-A).
//!
//! "EMS proactively requests pages from CS OS and stores them in an enclave
//! memory pool. When new requests arrive, they can obtain pages directly
//! from this pool without notifying CS OS. This method conceals the
//! allocation events effectively… the pool is dynamically enlarged when the
//! number of used pages exceeds a threshold set by EMS. Furthermore, this
//! threshold is randomized once the pool enlarges."
//!
//! Pages entering the pool are zeroed and marked enclave in the bitmap, so
//! the CS OS observes only coarse, batched growth events — never individual
//! enclave allocations.

use crate::error::{EmsError, EmsResult};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_mem::addr::Ppn;
use hypertee_mem::phys::FrameAllocator;
use hypertee_mem::system::MemorySystem;

/// Pool observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Growth events visible to the CS OS.
    pub growth_events: u64,
    /// Frames requested from the CS OS in total.
    pub(crate) frames_from_os: u64,
    /// Pages handed to enclaves (invisible to CS OS).
    pub pages_served: u64,
    /// Pages returned by enclaves.
    pub pages_returned: u64,
}

/// The enclave memory pool.
#[derive(Debug)]
pub struct MemPool {
    free: Vec<Ppn>,
    used: u64,
    threshold: u64,
    grow_chunk: u64,
    rng: ChaChaRng,
    /// Counters.
    pub stats: PoolStats,
}

impl MemPool {
    /// Creates a pool that grows in `grow_chunk`-frame batches.
    pub fn new(grow_chunk: u64, rng: ChaChaRng) -> Self {
        MemPool {
            free: Vec::new(),
            used: 0,
            threshold: grow_chunk / 2,
            grow_chunk,
            rng,
            stats: PoolStats::default(),
        }
    }

    /// Frames currently free in the pool.
    pub(crate) fn free_frames(&self) -> u64 {
        self.free.len() as u64
    }

    /// Frames currently in use by enclaves.
    pub fn used_frames(&self) -> u64 {
        self.used
    }

    /// Current growth threshold (randomized; exposed for tests).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Requests `n` frames from the CS OS: zeroes them and marks them as
    /// enclave memory in the bitmap — the only pool operation the OS can
    /// observe.
    ///
    /// # Errors
    ///
    /// [`EmsError::Exhausted`] when the OS has no frames left.
    fn grow(&mut self, n: u64, os: &mut FrameAllocator, sys: &mut MemorySystem) -> EmsResult<()> {
        for _ in 0..n {
            let frame = os.alloc().ok_or(EmsError::Exhausted)?;
            sys.phys.zero_frame(frame)?;
            sys.bitmap.set(frame, true, &mut sys.phys)?;
            self.free.push(frame);
            self.stats.frames_from_os += 1;
        }
        self.stats.growth_events += 1;
        Ok(())
    }

    /// Ensures at least `n` free frames, growing (and re-randomizing the
    /// threshold) if needed.
    ///
    /// # Errors
    ///
    /// [`EmsError::Exhausted`] when the OS cannot supply enough frames.
    pub(crate) fn ensure(
        &mut self,
        n: u64,
        os: &mut FrameAllocator,
        sys: &mut MemorySystem,
    ) -> EmsResult<()> {
        if (self.free.len() as u64) < n {
            let deficit = n - self.free.len() as u64;
            let batch = deficit.max(self.grow_chunk);
            self.grow(batch, os, sys)?;
            self.randomize_threshold();
        }
        Ok(())
    }

    fn randomize_threshold(&mut self) {
        // Threshold sits somewhere in [used + chunk/4, used + chunk), so an
        // attacker cannot reverse-engineer when the next growth will fire.
        let jitter = self.rng.gen_range((self.grow_chunk * 3 / 4).max(1));
        self.threshold = self.used + self.grow_chunk / 4 + jitter;
    }

    /// Takes one page for an enclave. Grows proactively when `used` crosses
    /// the randomized threshold, so individual takes stay invisible.
    ///
    /// # Errors
    ///
    /// [`EmsError::Exhausted`] when neither the pool nor the OS can supply.
    pub fn take(&mut self, os: &mut FrameAllocator, sys: &mut MemorySystem) -> EmsResult<Ppn> {
        if self.free.is_empty() {
            self.ensure(1, os, sys)?;
        }
        let frame = self.free.pop().ok_or(EmsError::Exhausted)?;
        self.used += 1;
        self.stats.pages_served += 1;
        if self.used > self.threshold {
            // Proactive growth ahead of demand; ignore exhaustion here —
            // the hard failure surfaces on the take that actually needs it.
            let _ = self.grow(self.grow_chunk, os, sys);
            self.randomize_threshold();
        }
        Ok(frame)
    }

    /// Returns a page from an enclave to the pool. The page is zeroed
    /// immediately (it stays enclave-marked while pooled).
    ///
    /// # Errors
    ///
    /// Propagates memory faults from zeroing.
    pub(crate) fn give_back(&mut self, frame: Ppn, sys: &mut MemorySystem) -> EmsResult<()> {
        sys.phys.zero_frame(frame)?;
        self.free.push(frame);
        self.used = self.used.saturating_sub(1);
        self.stats.pages_returned += 1;
        Ok(())
    }

    /// Random swap-count jitter for EWB (§IV-A ③: "randomly selects the
    /// number and specific pages involved").
    pub(crate) fn swap_jitter(&mut self, requested: u64) -> u64 {
        requested + self.rng.gen_range(requested.max(1))
    }

    /// The pool's free list (read-only; feeds the consistency audit).
    pub fn free_list(&self) -> &[Ppn] {
        &self.free
    }

    /// Evicts one random free frame for swap-out (EWB's randomized
    /// selection, §IV-A): zeroes it and clears its bitmap bit. One frame per
    /// call, so a transactional EWB can abort between frames.
    ///
    /// # Errors
    ///
    /// [`EmsError::Exhausted`] when no free frame can be obtained; memory
    /// faults from zeroing/bitmap updates.
    pub(crate) fn evict_one(
        &mut self,
        os: &mut FrameAllocator,
        sys: &mut MemorySystem,
    ) -> EmsResult<Ppn> {
        self.ensure(1, os, sys)?;
        let idx = self.rng.gen_range(self.free.len().max(1) as u64) as usize;
        let frame = if idx < self.free.len() {
            self.free.swap_remove(idx)
        } else {
            return Err(EmsError::Exhausted);
        };
        sys.phys.zero_frame(frame)?;
        sys.bitmap.set(frame, false, &mut sys.phys)?;
        Ok(frame)
    }

    /// Undoes [`MemPool::evict_one`]: re-marks the frame as enclave memory
    /// and puts it back on the free list (it is already zeroed).
    ///
    /// # Errors
    ///
    /// Memory faults from the bitmap update.
    pub(crate) fn unevict(&mut self, frame: Ppn, sys: &mut MemorySystem) -> EmsResult<()> {
        sys.bitmap.set(frame, true, &mut sys.phys)?;
        self.free.push(frame);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_mem::addr::PhysAddr;

    fn setup() -> (MemorySystem, FrameAllocator, MemPool) {
        let sys = MemorySystem::new(64 << 20, PhysAddr(0x4000));
        let os = FrameAllocator::new(Ppn(64), Ppn(16000));
        let pool = MemPool::new(32, ChaChaRng::from_u64(7));
        (sys, os, pool)
    }

    #[test]
    fn take_serves_and_marks_enclave() {
        let (mut sys, mut os, mut pool) = setup();
        let frame = pool.take(&mut os, &mut sys).unwrap();
        assert!(sys.bitmap.is_enclave(frame, &mut sys.phys).unwrap());
        assert_eq!(pool.used_frames(), 1);
    }

    #[test]
    fn growth_is_batched_not_per_take() {
        let (mut sys, mut os, mut pool) = setup();
        for _ in 0..20 {
            pool.take(&mut os, &mut sys).unwrap();
        }
        // 20 takes but far fewer OS-visible growth events: the concealment
        // property the pool exists for.
        assert!(
            pool.stats.growth_events <= 3,
            "events = {}",
            pool.stats.growth_events
        );
        assert_eq!(pool.stats.pages_served, 20);
    }

    #[test]
    fn threshold_randomizes_on_growth() {
        let (mut sys, mut os, mut pool) = setup();
        let mut thresholds = std::collections::BTreeSet::new();
        for _ in 0..200 {
            pool.take(&mut os, &mut sys).unwrap();
            thresholds.insert(pool.threshold());
        }
        assert!(thresholds.len() > 3, "threshold must vary: {thresholds:?}");
    }

    #[test]
    fn give_back_zeroes() {
        let (mut sys, mut os, mut pool) = setup();
        let frame = pool.take(&mut os, &mut sys).unwrap();
        sys.phys.write(frame.base(), &[0x5a; 64]).unwrap();
        pool.give_back(frame, &mut sys).unwrap();
        let mut buf = [0xffu8; 64];
        sys.phys.read(frame.base(), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64], "returned pages must be zeroed");
    }

    #[test]
    fn swap_jitter_at_least_requested() {
        let (_, _, mut pool) = setup();
        for req in [1u64, 4, 16] {
            let k = pool.swap_jitter(req);
            assert!(k >= req && k < req * 2 + 1);
        }
    }

    #[test]
    fn exhaustion_reported() {
        let mut sys = MemorySystem::new(4 << 20, PhysAddr(0x1000));
        let mut os = FrameAllocator::new(Ppn(16), Ppn(20)); // only 4 frames
        let mut pool = MemPool::new(2, ChaChaRng::from_u64(1));
        let mut taken = 0;
        loop {
            match pool.take(&mut os, &mut sys) {
                Ok(_) => taken += 1,
                Err(EmsError::Exhausted) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(taken, 4);
    }
}
