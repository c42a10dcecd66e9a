//! Deterministic parallel execution over independent shards (DESIGN.md §12).
//!
//! One HyperTEE SoC has one EMS cluster and one enclave bitmap guarding one
//! physical memory, so a simulator shard is a whole, independent
//! [`Machine`] booted from `derive_stream(seed, shard_index)`. Shards share
//! no mutable state; [`par_run`] runs them on a scoped worker pool and
//! returns their results in shard-index order.
//!
//! # Determinism contract
//!
//! The shard count is part of the *configuration*; the worker-thread count
//! is not. A shard's trace depends only on `(seed, shard_index)`, and
//! results merge in index order regardless of which worker finished first.
//! Identical seed therefore yields identical traces and counters at 1, 2,
//! 4, or 8 threads; `threads <= 1` runs the shards inline on the calling
//! thread and is the reference behavior.

use crate::machine::Machine;
use std::collections::VecDeque;
use std::sync::Mutex;

// A shard must cross threads: this fails to *compile* if `Machine` ever
// grows a non-Send member (e.g. an Rc or a raw pointer).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

/// Runs `f(index, item)` over owned `items` on a pool of `threads` scoped
/// workers and returns the results *in item order*, independent of which
/// worker ran what when. `threads <= 1` executes inline in order (the
/// reference path).
pub fn par_run<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let mut indexed: Vec<(usize, I)> = items.into_iter().enumerate().collect();
    if threads <= 1 || indexed.len() <= 1 {
        return indexed.drain(..).map(|(i, item)| f(i, item)).collect();
    }
    let n = indexed.len();
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(indexed.into_iter().collect());
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let workers = threads.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop_front();
                let Some((i, item)) = next else { break };
                let out = f(i, item);
                results.lock().expect("result lock").push((i, out));
            });
        }
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in results.into_inner().expect("result lock") {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_run_preserves_item_order_at_any_width() {
        let items: Vec<u64> = (0..13).collect();
        let reference: Vec<u64> = par_run(items.clone(), 1, |i, x| x * 10 + i as u64);
        for threads in [2usize, 4, 8] {
            let out = par_run(items.clone(), threads, |i, x| x * 10 + i as u64);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn par_run_runs_two_items_at_once() {
        // Each item signals the other, then waits for the other's signal.
        // Only a pool that runs both at once lets both hear back; a pool
        // that ran them one after another times out instead of hanging.
        for threads in [2usize, 4] {
            let (tx0, rx0) = std::sync::mpsc::channel();
            let (tx1, rx1) = std::sync::mpsc::channel();
            let ends = [(tx0, Mutex::new(rx1)), (tx1, Mutex::new(rx0))];
            let heard = par_run(vec![(); 2], threads, |i, ()| {
                let (tx, rx) = &ends[i];
                tx.send(i).expect("peer receiver alive");
                rx.lock()
                    .expect("receiver lock")
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .ok()
            });
            assert_eq!(heard, [Some(1), Some(0)], "threads={threads}");
        }
    }
}
