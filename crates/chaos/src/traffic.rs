//! Seeded open-loop traffic generation: arrival schedules for enclave
//! sessions.
//!
//! The generator produces the *offered load* ahead of time — a sorted list
//! of [`Arrival`]s on a virtual tick axis — from a seed and a
//! [`TrafficConfig`]. Arrivals are open-loop: they fire whether or not the
//! fleet is keeping up, which is exactly what makes backpressure shedding
//! and deadline expiry observable. Interarrival gaps are exponential
//! (Poisson process) with occasional multi-session bursts, and each
//! arrival draws a tenant profile from a weighted mix, so the fleet serves
//! heterogeneous enclave shapes concurrently.

use hypertee_crypto::chacha::ChaChaRng;

/// One class of tenant in the mix: the enclave shape its sessions deploy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TenantProfile {
    /// Relative draw weight within the mix.
    pub(crate) weight: u32,
    /// Enclave heap ceiling in bytes.
    pub(crate) heap_bytes: u64,
    /// Enclave stack in bytes.
    pub(crate) stack_bytes: u64,
    /// HostApp shared-window size in bytes.
    pub(crate) window_bytes: u64,
    /// Image payload length in bytes.
    pub(crate) image_len: u64,
    /// EALLOC/EFREE rounds the session performs while entered.
    pub(crate) entered_ops: u32,
}

/// The tenant mix: small/medium/large enclave shapes roughly mirroring a
/// multi-tenant serving fleet (weights need not be normalized).
pub(crate) const TENANTS: [TenantProfile; 3] = [
    // micro
    TenantProfile {
        weight: 5,
        heap_bytes: 1 << 20,
        stack_bytes: 16 * 1024,
        window_bytes: 8 * 1024,
        image_len: 1800,
        entered_ops: 1,
    },
    // web
    TenantProfile {
        weight: 3,
        heap_bytes: 4 << 20,
        stack_bytes: 32 * 1024,
        window_bytes: 16 * 1024,
        image_len: 5200,
        entered_ops: 2,
    },
    // batch
    TenantProfile {
        weight: 1,
        heap_bytes: 16 << 20,
        stack_bytes: 32 * 1024,
        window_bytes: 16 * 1024,
        image_len: 12_000,
        entered_ops: 3,
    },
];

/// Shape of the offered load.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total sessions to schedule.
    pub sessions: usize,
    /// Mean exponential interarrival gap, in pump ticks.
    pub(crate) mean_interarrival_ticks: f64,
    /// Per-mille chance an arrival turns into a burst.
    pub(crate) burst_pm: u32,
    /// Upper bound (inclusive) on extra same-tick sessions in a burst.
    pub(crate) burst_size_max: u64,
    /// Admission cap: sessions concurrently live in the fleet. Arrivals
    /// beyond it queue outside the machine (their queue wait still counts
    /// against any deadline-to-first-byte SLO, but nothing enters the
    /// pipeline).
    pub max_live: usize,
}

impl TrafficConfig {
    /// The full fleet campaign: enough sessions that the driven request
    /// count clears 10,000 across well over 1,000 enclaves.
    pub(crate) fn fleet(sessions: usize) -> TrafficConfig {
        TrafficConfig {
            sessions,
            mean_interarrival_ticks: 14.0,
            burst_pm: 120,
            burst_size_max: 6,
            max_live: 192,
        }
    }

    /// A seconds-scale smoke slice of the fleet shape for CI.
    pub(crate) fn smoke(sessions: usize) -> TrafficConfig {
        TrafficConfig {
            sessions,
            mean_interarrival_ticks: 8.0,
            burst_pm: 150,
            burst_size_max: 4,
            max_live: 48,
        }
    }
}

/// One scheduled session arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arrival {
    /// Pump tick the session arrives at.
    pub(crate) tick: u64,
    /// Index into [`TENANTS`].
    pub(crate) tenant: usize,
    /// Session index (dense, `0..sessions`).
    pub(crate) session: usize,
}

/// A uniform draw in `[0, 1)` from the top 53 bits of one `u64`.
fn unit(rng: &mut ChaChaRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws a tenant index by cumulative weight.
fn draw_tenant(rng: &mut ChaChaRng) -> usize {
    let total: u64 = TENANTS.iter().map(|t| u64::from(t.weight)).sum();
    let mut pick = rng.gen_range(total);
    for (i, t) in TENANTS.iter().enumerate() {
        let w = u64::from(t.weight);
        if pick < w {
            return i;
        }
        pick -= w;
    }
    TENANTS.len() - 1
}

/// Builds the full arrival schedule for `cfg` from `seed`. Deterministic:
/// the same `(seed, cfg)` always yields the same schedule.
pub(crate) fn schedule(seed: u64, cfg: &TrafficConfig) -> Vec<Arrival> {
    let mut rng = ChaChaRng::from_u64(seed ^ 0x7472_6166_6669_6330);
    let mut arrivals = Vec::with_capacity(cfg.sessions);
    let mut tick = 0u64;
    let mut session = 0usize;
    while session < cfg.sessions {
        // Exponential gap; `1 - unit` keeps ln away from zero.
        let gap = -cfg.mean_interarrival_ticks * (1.0 - unit(&mut rng)).ln();
        tick += gap.round().max(0.0) as u64;
        let burst = if rng.gen_range(1000) < u64::from(cfg.burst_pm) {
            1 + rng.gen_range(cfg.burst_size_max.max(1))
        } else {
            1
        };
        for _ in 0..burst {
            if session >= cfg.sessions {
                break;
            }
            arrivals.push(Arrival {
                tick,
                tenant: draw_tenant(&mut rng),
                session,
            });
            session += 1;
        }
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let cfg = TrafficConfig::smoke(200);
        assert_eq!(schedule(7, &cfg), schedule(7, &cfg));
        assert_ne!(schedule(7, &cfg), schedule(8, &cfg));
    }

    #[test]
    fn schedule_covers_every_session_in_order() {
        let cfg = TrafficConfig::fleet(500);
        let arr = schedule(3, &cfg);
        assert_eq!(arr.len(), 500);
        for (i, a) in arr.iter().enumerate() {
            assert_eq!(a.session, i);
            assert!(a.tenant < TENANTS.len());
            if i > 0 {
                assert!(a.tick >= arr[i - 1].tick, "arrivals must be sorted");
            }
        }
    }

    #[test]
    fn bursts_actually_happen() {
        let cfg = TrafficConfig::smoke(400);
        let arr = schedule(11, &cfg);
        let same_tick_pairs = arr.windows(2).filter(|w| w[0].tick == w[1].tick).count();
        assert!(
            same_tick_pairs > 5,
            "expected bursts, got {same_tick_pairs}"
        );
    }

    #[test]
    fn tenant_mix_is_weighted() {
        let cfg = TrafficConfig::fleet(2000);
        let arr = schedule(5, &cfg);
        let micro = arr.iter().filter(|a| a.tenant == 0).count();
        let batch = arr.iter().filter(|a| a.tenant == 2).count();
        assert!(
            micro > batch * 2,
            "weight-5 tenant ({micro}) should dominate weight-1 ({batch})"
        );
    }
}
