//! Fixed-capacity ring task queues (§III-C, Fig. 3).
//!
//! "When a CS application initiates an enclave primitive request, EMCall
//! generates request packets and stores them in a ring task queue for
//! transmission (Tx)… EMS fetches the requests to its own task queue for
//! receiving (Rx)." Both queues are invisible to CS software; in the
//! reproduction they are private fields of the EMCall/EMS structures.

/// A bounded FIFO ring buffer.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    tail: usize,
    len: usize,
    /// Remaining pops the queue will refuse (injected hardware stall).
    stalled: u32,
}

impl<T> Ring<T> {
    /// Creates a ring with `capacity` slots. A zero capacity is a
    /// configuration error, not a crash: it is clamped to one slot so the
    /// request path can never panic on a malformed ring size.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(None);
        }
        Ring {
            slots,
            head: 0,
            tail: 0,
            len: 0,
            stalled: 0,
        }
    }

    /// Capacity in slots.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Enqueues an item; returns it back if the ring is full (the caller —
    /// the transmitter module — retries later).
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.slots[self.tail] = Some(item);
        self.tail = (self.tail + 1) % self.capacity();
        self.len += 1;
        Ok(())
    }

    /// Dequeues the oldest item. A stalled ring refuses to deliver until
    /// the stall drains (one unit per pop attempt), modelling a queue whose
    /// read port is transiently wedged; items are retained, never lost.
    pub fn pop(&mut self) -> Option<T> {
        if self.stalled > 0 {
            self.stalled -= 1;
            return None;
        }
        if self.is_empty() {
            return None;
        }
        let item = self.slots[self.head].take();
        self.head = (self.head + 1) % self.capacity();
        self.len -= 1;
        item
    }

    /// Injects a stall: the next `pops` pop attempts return `None` even if
    /// items are queued.
    pub fn stall(&mut self, pops: u32) {
        self.stalled = self.stalled.saturating_add(pops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = Ring::new(2);
        r.push('a').unwrap();
        r.push('b').unwrap();
        assert_eq!(r.push('c'), Err('c'));
        assert!(r.is_full());
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut r = Ring::new(3);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.pop(), Some(1));
        r.push(3).unwrap();
        r.push(4).unwrap();
        assert!(r.is_full());
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_not_a_panic() {
        let mut r = Ring::<u8>::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(9).unwrap();
        assert_eq!(r.push(10), Err(10));
        assert_eq!(r.pop(), Some(9));
    }

    #[test]
    fn stall_withholds_then_delivers() {
        let mut r = Ring::new(4);
        r.push(1).unwrap();
        r.push(2).unwrap();
        r.stall(2);
        assert!(r.stalled > 0);
        assert_eq!(r.pop(), None);
        assert_eq!(r.pop(), None);
        assert_eq!(r.stalled, 0);
        // Nothing was lost.
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
    }
}
