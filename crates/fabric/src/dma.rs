//! The DMA whitelist (§V-C).
//!
//! "HyperTEE employs the DMA whitelist in CS hardware. This whitelist
//! consists of a set of register pairs and each register pair concludes the
//! address, size, and permission to restrict the legal region for each DMA.
//! Any DMA access beyond the legal region will be discarded. The whitelist
//! is implemented as control registers within the on-chip fabric and is
//! exclusively configurable by EMS."

use hypertee_faults::{FaultInjector, FaultKind, FaultStats};
use hypertee_mem::addr::PhysAddr;

/// Identifier of a DMA-capable device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// Permission of a whitelist window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaPerm {
    /// The device may only read the window.
    ReadOnly,
    /// The device may read and write the window.
    ReadWrite,
}

/// One whitelist register pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaWindow {
    /// Base physical address.
    pub base: PhysAddr,
    /// Window size in bytes.
    pub size: u64,
    /// Allowed direction.
    pub perm: DmaPerm,
}

impl DmaWindow {
    fn covers(&self, addr: PhysAddr, len: u64, write: bool) -> bool {
        let in_range =
            addr.0 >= self.base.0 && len <= self.size && addr.0 - self.base.0 <= self.size - len;
        let perm_ok = match self.perm {
            DmaPerm::ReadWrite => true,
            DmaPerm::ReadOnly => !write,
        };
        in_range && perm_ok
    }
}

/// The whitelist register file.
#[derive(Debug, Default)]
pub(crate) struct DmaWhitelist {
    windows: Vec<(DeviceId, DmaWindow)>,
    /// Accesses discarded because no window covered them.
    pub(crate) discarded: u64,
    /// Legitimate accesses spuriously denied by an injected register flap.
    pub(crate) flapped: u64,
    injector: FaultInjector,
}

impl DmaWhitelist {
    /// Creates an empty whitelist: by default every DMA access is discarded.
    pub(crate) fn new() -> Self {
        DmaWhitelist::default()
    }

    /// Installs a window for a device. Called through the iHub EMS port
    /// only — CS software has no path to this register file.
    pub(crate) fn grant(&mut self, dev: DeviceId, window: DmaWindow) {
        self.windows.push((dev, window));
    }

    /// Removes all windows of a device (driver-enclave teardown).
    pub(crate) fn revoke_all(&mut self, dev: DeviceId) {
        self.windows.retain(|(d, _)| *d != dev);
    }

    /// Installs an armed fault injector: the whitelist can spuriously deny
    /// a legitimate access (a register "flap"), which devices handle by
    /// retrying the transfer.
    pub(crate) fn arm_faults(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Faults injected at this site so far.
    pub(crate) fn fault_stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// Checks one DMA access; counts and reports discards. An injected
    /// whitelist flap denies (and counts) an access the windows would have
    /// allowed — fail-closed, never fail-open.
    pub(crate) fn check(&mut self, dev: DeviceId, addr: PhysAddr, len: u64, write: bool) -> bool {
        let mut ok = self
            .windows
            .iter()
            .any(|(d, w)| *d == dev && w.covers(addr, len, write));
        if ok && self.injector.roll(FaultKind::DmaFlap) {
            self.flapped += 1;
            ok = false;
        }
        if !ok {
            self.discarded += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_deny() {
        let mut wl = DmaWhitelist::new();
        assert!(!wl.check(DeviceId(0), PhysAddr(0x1000), 64, false));
        assert_eq!(wl.discarded, 1);
    }

    #[test]
    fn granted_window_allows() {
        let mut wl = DmaWhitelist::new();
        wl.grant(
            DeviceId(1),
            DmaWindow {
                base: PhysAddr(0x10_000),
                size: 0x1000,
                perm: DmaPerm::ReadWrite,
            },
        );
        assert!(wl.check(DeviceId(1), PhysAddr(0x10_000), 64, true));
        assert!(wl.check(DeviceId(1), PhysAddr(0x10_fc0), 64, false));
        // One byte past the end is discarded.
        assert!(!wl.check(DeviceId(1), PhysAddr(0x10_fc1), 64, false));
    }

    #[test]
    fn window_is_per_device() {
        let mut wl = DmaWhitelist::new();
        wl.grant(
            DeviceId(1),
            DmaWindow {
                base: PhysAddr(0),
                size: 0x1000,
                perm: DmaPerm::ReadWrite,
            },
        );
        assert!(
            !wl.check(DeviceId(2), PhysAddr(0), 64, false),
            "other devices stay denied"
        );
    }

    #[test]
    fn readonly_window_blocks_writes() {
        let mut wl = DmaWhitelist::new();
        wl.grant(
            DeviceId(3),
            DmaWindow {
                base: PhysAddr(0x2000),
                size: 0x1000,
                perm: DmaPerm::ReadOnly,
            },
        );
        assert!(wl.check(DeviceId(3), PhysAddr(0x2000), 16, false));
        assert!(!wl.check(DeviceId(3), PhysAddr(0x2000), 16, true));
    }

    #[test]
    fn revoke_restores_default_deny() {
        let mut wl = DmaWhitelist::new();
        wl.grant(
            DeviceId(1),
            DmaWindow {
                base: PhysAddr(0),
                size: 0x1000,
                perm: DmaPerm::ReadWrite,
            },
        );
        wl.revoke_all(DeviceId(1));
        assert!(!wl.check(DeviceId(1), PhysAddr(0), 64, false));
        assert!(wl.windows.is_empty());
    }

    #[test]
    fn flap_denies_then_retry_succeeds() {
        use hypertee_faults::{FaultConfig, FaultPlan};
        let plan = FaultPlan::new(
            21,
            FaultConfig {
                dma_flap_pm: 200,
                ..FaultConfig::disabled()
            },
        );
        let mut wl = DmaWhitelist::new();
        wl.arm_faults(plan.injector("dma"));
        wl.grant(
            DeviceId(1),
            DmaWindow {
                base: PhysAddr(0x10_000),
                size: 0x1000,
                perm: DmaPerm::ReadWrite,
            },
        );
        // Drive enough accesses that the flap fires at least once; every
        // denial is recoverable by simply retrying (bounded here at 12).
        let mut flaps_seen = 0;
        for _ in 0..200 {
            let mut tries = 0;
            while !wl.check(DeviceId(1), PhysAddr(0x10_000), 64, true) {
                tries += 1;
                assert!(tries < 12, "a legitimate access must eventually pass");
            }
            flaps_seen = wl.flapped;
        }
        assert!(flaps_seen > 0, "flap should have fired under a 20% rate");
        assert_eq!(wl.flapped, wl.discarded, "only injected denials occurred");
    }

    #[test]
    fn overflow_safe_bounds() {
        let mut wl = DmaWhitelist::new();
        wl.grant(
            DeviceId(1),
            DmaWindow {
                base: PhysAddr(u64::MAX - 0x100),
                size: 0x100,
                perm: DmaPerm::ReadWrite,
            },
        );
        // A length larger than the window cannot wrap around.
        assert!(!wl.check(DeviceId(1), PhysAddr(u64::MAX - 0x100), 0x200, false));
        assert!(wl.check(DeviceId(1), PhysAddr(u64::MAX - 0x100), 0x100, false));
    }
}
