//! Hierarchical timer wheel over the scheduler's round domain.
//!
//! The event-driven pump (DESIGN.md §15) needs "wake call N at round R"
//! with O(1) insertion and O(1) amortised expiry, for R spanning anything
//! from `POLL_BUDGET` rounds (a serviced-loss deadline) to thousands of
//! rounds (retry slack proportional to the in-flight population). A flat
//! per-round bucket map would work but wastes memory at fleet scale; a
//! classic hashed hierarchical wheel (Varghese & Lauck) gives the same
//! asymptotics with four 64-slot levels covering 2^24 rounds and an
//! overflow list beyond that.
//!
//! Determinism: [`TimerWheel::advance`] returns the call identifiers that
//! expire at the new round **sorted ascending**, so the pump processes
//! wakes in the same stable order the scan-based oracle visits them.
//! Entries are never cancelled in place — the pump re-validates each fired
//! timer against live call state and drops stale ones (lazy deletion), so
//! the wheel needs no cancellation bookkeeping.

/// Slot count per level; must be a power of two.
const SLOTS: usize = 64;
/// Bits consumed per level.
const BITS: u32 = SLOTS.trailing_zeros();
/// Hierarchy depth: 4 levels cover `64^4 = 2^24` rounds of horizon.
const LEVELS: usize = 4;
/// Horizon of the wheel proper; longer delays park in the overflow list.
const HORIZON: u64 = 1 << (BITS * LEVELS as u32);

/// A timer entry: the absolute round it matures plus its call identifier.
type Entry = (u64, u64);

/// Hierarchical timing wheel keyed by absolute scheduler round.
#[derive(Debug, Clone)]
pub struct TimerWheel {
    /// The round the wheel currently sits at; entries mature strictly
    /// after this.
    current: u64,
    /// `levels[k]` holds entries maturing within `64^(k+1)` rounds, hashed
    /// into slot `(round >> 6k) & 63`.
    levels: Vec<Vec<Vec<Entry>>>,
    /// Entries maturing beyond the wheel horizon (cascaded lazily).
    overflow: Vec<Entry>,
    /// Live entry count (stale entries included until they fire).
    len: usize,
}

impl TimerWheel {
    /// An empty wheel positioned at `start` (timers mature strictly after).
    pub fn new(start: u64) -> Self {
        TimerWheel {
            current: start,
            levels: vec![vec![Vec::new(); SLOTS]; LEVELS],
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// The round the wheel last advanced to.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Number of armed entries, stale ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms `call_id` to fire when the wheel advances to `round`.
    ///
    /// `round` must be strictly in the future; due-now work belongs in the
    /// pump's work set, not the wheel.
    pub fn schedule(&mut self, round: u64, call_id: u64) {
        debug_assert!(round > self.current, "timer must mature in the future");
        self.len += 1;
        let entry = (round, call_id);
        let delta = round - self.current;
        if delta >= HORIZON {
            self.overflow.push(entry);
            return;
        }
        let level = ((64 - delta.leading_zeros()).saturating_sub(1) / BITS) as usize;
        let slot = ((round >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(entry);
    }

    /// Moves one slot's entries back through [`TimerWheel::schedule`] after
    /// a level boundary crossing (classic wheel cascade).
    fn cascade(&mut self, entries: Vec<Entry>) -> Vec<u64> {
        let mut due = Vec::new();
        for (round, call_id) in entries {
            self.len -= 1;
            if round <= self.current {
                due.push(call_id);
            } else {
                self.schedule(round, call_id);
            }
        }
        due
    }

    /// Advances the wheel one round and returns every call identifier whose
    /// timer matured, sorted ascending.
    pub fn advance(&mut self) -> Vec<u64> {
        self.current += 1;
        let now = self.current;
        let mut due = Vec::new();
        // Cascade upper levels (outermost first) whenever their finer
        // sub-index wrapped to zero, so longer timers migrate down before
        // the level-0 slot is drained.
        for level in (1..LEVELS).rev() {
            let shift = BITS * level as u32;
            if now & ((1u64 << shift) - 1) == 0 {
                if level == LEVELS - 1 && now & (HORIZON - 1) == 0 {
                    let parked = std::mem::take(&mut self.overflow);
                    due.extend(self.cascade(parked));
                }
                let slot = ((now >> shift) & (SLOTS as u64 - 1)) as usize;
                let entries = std::mem::take(&mut self.levels[level][slot]);
                due.extend(self.cascade(entries));
            }
        }
        let slot = (now & (SLOTS as u64 - 1)) as usize;
        for (round, call_id) in std::mem::take(&mut self.levels[0][slot]) {
            self.len -= 1;
            debug_assert_eq!(round, now, "level-0 entry hashed to wrong slot");
            due.push(call_id);
        }
        due.sort_unstable();
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `wheel` to `round`, collecting everything that fires.
    fn drain_until(wheel: &mut TimerWheel, round: u64) -> Vec<(u64, Vec<u64>)> {
        let mut fired = Vec::new();
        while wheel.current() < round {
            let due = wheel.advance();
            if !due.is_empty() {
                fired.push((wheel.current(), due));
            }
        }
        fired
    }

    #[test]
    fn near_timers_fire_at_their_exact_round() {
        let mut w = TimerWheel::new(0);
        w.schedule(3, 30);
        w.schedule(1, 10);
        w.schedule(3, 31);
        let fired = drain_until(&mut w, 4);
        assert_eq!(fired, vec![(1, vec![10]), (3, vec![30, 31])]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_round_pops_sort_by_call_id() {
        let mut w = TimerWheel::new(100);
        for id in [9, 2, 77, 4] {
            w.schedule(105, id);
        }
        assert_eq!(drain_until(&mut w, 105), vec![(105, vec![2, 4, 9, 77])]);
    }

    #[test]
    fn cross_level_and_overflow_timers_fire_on_time() {
        let mut w = TimerWheel::new(7);
        // One timer per level plus one past the horizon.
        let rounds = [8, 7 + 70, 7 + 5000, 7 + 300_000, 7 + HORIZON + 3];
        for (i, &r) in rounds.iter().enumerate() {
            w.schedule(r, i as u64);
        }
        let fired = drain_until(&mut w, 7 + HORIZON + 3);
        let got: Vec<(u64, Vec<u64>)> = fired;
        assert_eq!(
            got,
            rounds
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, vec![i as u64]))
                .collect::<Vec<_>>()
        );
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_started_mid_stream_keeps_absolute_rounds() {
        // Regression guard: slots hash absolute rounds, so a wheel created
        // at an arbitrary round must not alias old slots.
        let mut w = TimerWheel::new(123_456);
        w.schedule(123_456 + 64, 1); // exactly one full level-0 turn away
        w.schedule(123_456 + 65, 2);
        let fired = drain_until(&mut w, 123_456 + 65);
        assert_eq!(
            fired,
            vec![(123_456 + 64, vec![1]), (123_456 + 65, vec![2])]
        );
    }

    #[test]
    fn dense_random_schedule_fires_everything_in_order() {
        // Deterministic xorshift load test across all levels.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = TimerWheel::new(1000);
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for id in 0..500u64 {
            let round = 1001 + next() % 9000;
            w.schedule(round, id);
            expect.push((round, id));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while !w.is_empty() {
            let now_due = w.advance();
            let now = w.current();
            got.extend(now_due.into_iter().map(|id| (now, id)));
        }
        assert_eq!(got, expect);
    }
}
