//! Cycle and clock-domain bookkeeping.
//!
//! §VII-E of the paper: "The maximum frequency of CS core and EMS core are
//! 2.5GHz and 750MHz respectively." All timing in the simulator is expressed
//! in *CS cycles*; EMS work is converted through the domain ratio
//! ([`crate::latency::ems_cycles`]).

/// A duration or timestamp in CS-core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating addition.
    pub fn saturating_add(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(other.0))
    }
}

impl core::ops::Add for Cycles {
    type Output = Cycles;
    /// Saturating: long seeded fault campaigns accumulate exponential
    /// back-off charges, and a wrapped clock would be a worse lie than a
    /// pinned one.
    fn add(self, rhs: Cycles) -> Cycles {
        self.saturating_add(rhs)
    }
}

impl core::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = self.saturating_add(rhs);
    }
}

impl core::ops::Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl core::fmt::Display for Cycles {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10);
        let b = Cycles(4);
        assert_eq!(a + b, Cycles(14));
        assert_eq!(a - b, Cycles(6));
        assert_eq!(b - a, Cycles::ZERO, "subtraction saturates");
    }
}
