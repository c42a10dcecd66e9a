//! The abstract command language and the seeded multi-hart generator.
//!
//! Commands name enclaves by *slot* — a stable, harness-local handle — not
//! by EMS-assigned enclave id: ids change across create/destroy cycles and
//! are assigned by the real machine at run time, so a trace that named ids
//! directly would not survive shrinking. Slot identity is what makes the
//! delta-debugging shrinker in [`crate::shrink()`] sound: removing a command
//! never renumbers the targets of the commands that remain.

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_mem::addr::PAGE_SIZE;

/// Number of concurrently tracked enclave slots.
pub(crate) const MAX_SLOTS: usize = 6;

/// One abstract lifecycle operation against an enclave slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleOp {
    /// ECREATE + EADD + EMEAS driven as one staged flow (mirrors the SDK's
    /// `create_enclave`). The image bytes are synthesized deterministically
    /// from the command's position in the trace.
    Create {
        /// Target slot (skipped as a no-op if the slot is already live).
        slot: usize,
        /// Manifest `heap_max`.
        heap_bytes: u64,
        /// Manifest `stack_bytes`.
        stack_bytes: u64,
        /// Manifest `host_shared_bytes`.
        window_bytes: u64,
        /// Image length in bytes.
        image_len: u64,
    },
    /// A standalone EADD appended after the current image (only succeeds
    /// while the slot is still `Building`).
    AddImage {
        /// Target slot.
        slot: usize,
        /// Chunk length in bytes.
        len: u64,
    },
    /// EENTER on the issuing hart.
    Enter {
        /// Target slot.
        slot: usize,
    },
    /// ERESUME on the issuing hart.
    Resume {
        /// Target slot.
        slot: usize,
    },
    /// EEXIT from the issuing hart.
    Exit {
        /// Target slot.
        slot: usize,
    },
    /// EALLOC of `bytes` from inside the enclave.
    Alloc {
        /// Target slot.
        slot: usize,
        /// Allocation size in bytes.
        bytes: u64,
    },
    /// EFREE of the most recent live allocation (or a deliberately illegal
    /// zero-byte range when none is live).
    Free {
        /// Target slot.
        slot: usize,
    },
    /// EWB asking the EMS to write back around `frames` pool pages.
    Writeback {
        /// Requested frame count.
        frames: u64,
    },
    /// EDESTROY, retried through mid-destroy aborts until terminal.
    Destroy {
        /// Target slot.
        slot: usize,
    },
}

/// A lifecycle op bound to the CS hart that issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// Issuing hart (taken modulo the machine's hart count by the harness).
    pub(crate) hart: usize,
    /// The operation.
    pub op: LifecycleOp,
}

impl core::fmt::Display for Command {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.op {
            LifecycleOp::Create {
                slot,
                heap_bytes,
                stack_bytes,
                window_bytes,
                image_len,
            } => write!(
                f,
                "hart {}: create slot {slot} (heap {heap_bytes}, stack {stack_bytes}, \
                 window {window_bytes}, image {image_len})",
                self.hart
            ),
            LifecycleOp::AddImage { slot, len } => {
                write!(f, "hart {}: add-image slot {slot} ({len} bytes)", self.hart)
            }
            LifecycleOp::Enter { slot } => write!(f, "hart {}: enter slot {slot}", self.hart),
            LifecycleOp::Resume { slot } => write!(f, "hart {}: resume slot {slot}", self.hart),
            LifecycleOp::Exit { slot } => write!(f, "hart {}: exit slot {slot}", self.hart),
            LifecycleOp::Alloc { slot, bytes } => {
                write!(f, "hart {}: alloc slot {slot} ({bytes} bytes)", self.hart)
            }
            LifecycleOp::Free { slot } => write!(f, "hart {}: free slot {slot}", self.hart),
            LifecycleOp::Writeback { frames } => {
                write!(f, "hart {}: writeback ({frames} frames)", self.hart)
            }
            LifecycleOp::Destroy { slot } => write!(f, "hart {}: destroy slot {slot}", self.hart),
        }
    }
}

/// Deterministic image byte for position `i` of the command at `cmd_idx`
/// (shared between the harness's EADD staging and the model's measurement
/// mirror).
pub(crate) fn image_byte(cmd_idx: usize, i: usize) -> u8 {
    ((cmd_idx as u64).wrapping_mul(131).wrapping_add(i as u64) % 251) as u8
}

/// Generator-side shadow of one slot. The shadow optimistically assumes
/// every generated op succeeds; the harness re-derives legality from the
/// *actual* model state at execution time, so shadow drift only shifts the
/// legal/illegal mix, never correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    Vacant,
    Ready,
    Entered(usize),
    Stopped,
}

#[derive(Debug, Clone, Copy)]
struct GSlot {
    state: GState,
    allocs: u64,
    heap_left: u64,
}

/// Generates a seeded, state-aware multi-hart command sequence.
///
/// About one in ten commands is drawn blind (random op, random slot) to
/// keep the illegal-transition paths — `BadState`, `NotFound`,
/// `AccessDenied`, heap overflow — exercised alongside the happy path.
///
/// # Panics
///
/// Panics if `harts` is zero.
pub fn generate(seed: u64, count: usize, harts: usize) -> Vec<Command> {
    assert!(harts > 0, "need at least one hart");
    let mut rng = ChaChaRng::from_u64(seed ^ 0x6d6f_6465_6c6f_7073);
    let mut slots = [GSlot {
        state: GState::Vacant,
        allocs: 0,
        heap_left: 0,
    }; MAX_SLOTS];
    let mut hart_slot: Vec<Option<usize>> = vec![None; harts];
    let mut out = Vec::with_capacity(count);

    while out.len() < count {
        if rng.gen_range(10) == 0 {
            out.push(chaos(&mut rng, harts));
            continue;
        }
        // Weighted kind draw, redrawn when the shadow says the kind has no
        // sensible target right now.
        let mut placed = false;
        for _ in 0..12 {
            let roll = rng.gen_range(100);
            let cmd = match roll {
                0..=17 => gen_create(&mut rng, &mut slots, &mut hart_slot),
                18..=35 => gen_enter(&mut rng, &mut slots, &mut hart_slot),
                36..=44 => gen_resume(&mut rng, &mut slots, &mut hart_slot),
                45..=58 => gen_exit(&mut rng, &mut slots, &mut hart_slot),
                59..=76 => gen_alloc(&mut rng, &mut slots, &hart_slot),
                77..=84 => gen_free(&mut rng, &mut slots, &hart_slot),
                85..=92 => gen_destroy(&mut rng, &mut slots, &mut hart_slot),
                _ => gen_writeback(&mut rng, &hart_slot),
            };
            if let Some(c) = cmd {
                out.push(c);
                placed = true;
                break;
            }
        }
        if !placed {
            // Shadow corner (e.g. every hart parked inside an enclave):
            // writeback is always issuable from some hart.
            out.push(Command {
                hart: (rng.next_u64() as usize) % harts,
                op: LifecycleOp::Writeback {
                    frames: 1 + rng.gen_range(4),
                },
            });
        }
    }
    out
}

fn free_hart(rng: &mut ChaChaRng, hart_slot: &[Option<usize>]) -> Option<usize> {
    let free: Vec<usize> = (0..hart_slot.len())
        .filter(|&h| hart_slot[h].is_none())
        .collect();
    if free.is_empty() {
        None
    } else {
        Some(free[(rng.next_u64() as usize) % free.len()])
    }
}

fn pick_slot(rng: &mut ChaChaRng, slots: &[GSlot], pred: impl Fn(&GSlot) -> bool) -> Option<usize> {
    let hits: Vec<usize> = (0..slots.len()).filter(|&s| pred(&slots[s])).collect();
    if hits.is_empty() {
        None
    } else {
        Some(hits[(rng.next_u64() as usize) % hits.len()])
    }
}

fn gen_create(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    hart_slot: &mut [Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| s.state == GState::Vacant)?;
    let hart = free_hart(rng, hart_slot)?;
    let heap_bytes = (1 + rng.gen_range(16)) * 64 * 1024;
    let stack_bytes = (2 + rng.gen_range(14)) * PAGE_SIZE;
    let window_bytes = (1 + rng.gen_range(4)) * PAGE_SIZE;
    let image_len = 1 + rng.gen_range(3 * PAGE_SIZE);
    slots[slot] = GSlot {
        state: GState::Ready,
        allocs: 0,
        heap_left: heap_bytes,
    };
    Some(Command {
        hart,
        op: LifecycleOp::Create {
            slot,
            heap_bytes,
            stack_bytes,
            window_bytes,
            image_len,
        },
    })
}

fn gen_enter(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    hart_slot: &mut [Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| {
        matches!(s.state, GState::Ready | GState::Stopped)
    })?;
    let hart = free_hart(rng, hart_slot)?;
    slots[slot].state = GState::Entered(hart);
    hart_slot[hart] = Some(slot);
    Some(Command {
        hart,
        op: LifecycleOp::Enter { slot },
    })
}

fn gen_resume(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    hart_slot: &mut [Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| s.state == GState::Stopped)?;
    let hart = free_hart(rng, hart_slot)?;
    slots[slot].state = GState::Entered(hart);
    hart_slot[hart] = Some(slot);
    Some(Command {
        hart,
        op: LifecycleOp::Resume { slot },
    })
}

fn gen_exit(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    hart_slot: &mut [Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| matches!(s.state, GState::Entered(_)))?;
    let GState::Entered(hart) = slots[slot].state else {
        return None;
    };
    slots[slot].state = GState::Stopped;
    hart_slot[hart] = None;
    Some(Command {
        hart,
        op: LifecycleOp::Exit { slot },
    })
}

fn gen_alloc(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    _hart_slot: &[Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| matches!(s.state, GState::Entered(_)))?;
    let GState::Entered(hart) = slots[slot].state else {
        return None;
    };
    // Mostly fits the remaining heap; one in eight deliberately overflows.
    let bytes = if rng.gen_range(8) == 0 {
        slots[slot].heap_left + (1 + rng.gen_range(4)) * PAGE_SIZE
    } else {
        let pages = 1 + rng.gen_range(8);
        let bytes = pages * PAGE_SIZE;
        if bytes <= slots[slot].heap_left {
            slots[slot].heap_left -= bytes;
            slots[slot].allocs += 1;
        }
        bytes
    };
    Some(Command {
        hart,
        op: LifecycleOp::Alloc { slot, bytes },
    })
}

fn gen_free(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    _hart_slot: &[Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| {
        matches!(s.state, GState::Entered(_)) && s.allocs > 0
    })?;
    let GState::Entered(hart) = slots[slot].state else {
        return None;
    };
    slots[slot].allocs -= 1;
    Some(Command {
        hart,
        op: LifecycleOp::Free { slot },
    })
}

fn gen_destroy(
    rng: &mut ChaChaRng,
    slots: &mut [GSlot],
    hart_slot: &mut [Option<usize>],
) -> Option<Command> {
    let slot = pick_slot(rng, slots, |s| s.state != GState::Vacant)?;
    let hart = free_hart(rng, hart_slot)?;
    if let GState::Entered(h) = slots[slot].state {
        hart_slot[h] = None;
    }
    slots[slot] = GSlot {
        state: GState::Vacant,
        allocs: 0,
        heap_left: 0,
    };
    Some(Command {
        hart,
        op: LifecycleOp::Destroy { slot },
    })
}

fn gen_writeback(rng: &mut ChaChaRng, hart_slot: &[Option<usize>]) -> Option<Command> {
    let hart = free_hart(rng, hart_slot)?;
    Some(Command {
        hart,
        op: LifecycleOp::Writeback {
            frames: 1 + rng.gen_range(4),
        },
    })
}

/// A blind op ignoring the shadow: exercises illegal transitions.
fn chaos(rng: &mut ChaChaRng, harts: usize) -> Command {
    let hart = (rng.next_u64() as usize) % harts;
    let slot = (rng.next_u64() as usize) % MAX_SLOTS;
    let op = match rng.gen_range(8) {
        0 => LifecycleOp::AddImage {
            slot,
            len: 1 + rng.gen_range(2 * PAGE_SIZE),
        },
        1 => LifecycleOp::Enter { slot },
        2 => LifecycleOp::Resume { slot },
        3 => LifecycleOp::Exit { slot },
        4 => LifecycleOp::Alloc {
            slot,
            bytes: 1 + rng.gen_range(64 * 1024),
        },
        5 => LifecycleOp::Free { slot },
        6 => LifecycleOp::Destroy { slot },
        _ => LifecycleOp::Writeback {
            frames: 1 + rng.gen_range(4),
        },
    };
    Command { hart, op }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, 200, 4);
        let b = generate(42, 200, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1, 100, 4), generate(2, 100, 4));
    }

    #[test]
    fn generates_requested_count_and_valid_harts() {
        let cmds = generate(7, 500, 3);
        assert_eq!(cmds.len(), 500);
        assert!(cmds.iter().all(|c| c.hart < 3));
    }

    #[test]
    fn covers_every_op_kind() {
        let cmds = generate(11, 600, 4);
        let mut seen = [false; 9];
        for c in &cmds {
            let k = match c.op {
                LifecycleOp::Create { .. } => 0,
                LifecycleOp::AddImage { .. } => 1,
                LifecycleOp::Enter { .. } => 2,
                LifecycleOp::Resume { .. } => 3,
                LifecycleOp::Exit { .. } => 4,
                LifecycleOp::Alloc { .. } => 5,
                LifecycleOp::Free { .. } => 6,
                LifecycleOp::Writeback { .. } => 7,
                LifecycleOp::Destroy { .. } => 8,
            };
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing op kinds: {seen:?}");
    }
}
