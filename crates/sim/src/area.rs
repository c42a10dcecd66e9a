//! ASIC area model reproducing Table V (TSMC 7 nm, Synopsys flow).
//!
//! The paper synthesised the design and reports CS areas for 4–64 cores and
//! EMS areas for the recommended cluster per CS size, with the crypto engine
//! occupying 0.20 mm². The model below is anchored to those published
//! numbers: CS areas are the paper's own synthesis results (there is nothing
//! to re-derive without the RTL), EMS areas are rebuilt from per-core and
//! uncore components so that alternative clusters can also be priced.

use crate::config::{CoreConfig, EmsCluster, PipelineKind};

/// Area of the crypto engine in mm² (paper §VII-E).
pub(crate) const CRYPTO_ENGINE_MM2: f64 = 0.20;

/// CS subsystem area in mm² for a given core count, per Table V.
///
/// Intermediate core counts interpolate linearly between published anchors.
///
/// # Panics
///
/// Panics for core counts outside 1..=64.
pub(crate) fn cs_area_mm2(cores: u32) -> f64 {
    assert!(
        (1..=64).contains(&cores),
        "CS core count out of modelled range"
    );
    // Published anchors: (cores, mm²).
    const ANCHORS: [(u32, f64); 5] = [(4, 35.0), (8, 74.0), (16, 151.0), (32, 304.0), (64, 612.0)];
    if cores <= 4 {
        return 35.0 * cores as f64 / 4.0;
    }
    for window in ANCHORS.windows(2) {
        let (c0, a0) = window[0];
        let (c1, a1) = window[1];
        if cores <= c1 {
            let t = (cores - c0) as f64 / (c1 - c0) as f64;
            return a0 + t * (a1 - a0);
        }
    }
    unreachable!("anchor table covers 4..=64")
}

/// Area of one EMS core in mm², by configuration class.
pub(crate) fn ems_core_area_mm2(core: &CoreConfig) -> f64 {
    match (core.pipeline, core.fetch_width) {
        (PipelineKind::InOrder, _) => 0.13,
        (PipelineKind::OutOfOrder, f) if f >= 8 => 1.10,
        (PipelineKind::OutOfOrder, _) => 0.625,
    }
}

/// Total HyperTEE IP (EMS) area in mm²: cores + crypto engine + uncore
/// (mailbox, iHub glue; grows with the intra-cluster interconnect).
pub(crate) fn ems_area_mm2(cluster: &EmsCluster) -> f64 {
    let cores = cluster.cores as f64 * ems_core_area_mm2(&cluster.core);
    let uncore = if cluster.cores <= 1 {
        0.01
    } else {
        0.05 + 0.01 * (cluster.cores as f64 - 2.0)
    };
    cores + CRYPTO_ENGINE_MM2 + uncore
}

/// One row of Table V: CS core count, recommended EMS cluster, areas,
/// and the relative overhead.
#[derive(Debug, Clone)]
pub struct AreaRow {
    /// Number of CS cores.
    pub cs_cores: u32,
    /// Description of the recommended EMS cluster.
    pub ems_desc: String,
    /// CS area in mm².
    pub cs_mm2: f64,
    /// EMS area in mm².
    pub ems_mm2: f64,
}

impl AreaRow {
    /// EMS area as a fraction of CS area (the paper's "Overhead" row).
    pub fn overhead(&self) -> f64 {
        self.ems_mm2 / self.cs_mm2
    }
}

/// The recommended EMS cluster for a CS core count (§VII-B conclusions).
pub(crate) fn recommended_cluster(cs_cores: u32) -> EmsCluster {
    if cs_cores <= 8 {
        EmsCluster::single_inorder()
    } else if cs_cores <= 16 {
        EmsCluster::dual_inorder()
    } else {
        EmsCluster::dual_ooo()
    }
}

/// Produces the full Table V.
pub fn table5() -> Vec<AreaRow> {
    [4u32, 8, 16, 32, 64]
        .iter()
        .map(|&cs| {
            let cluster = recommended_cluster(cs);
            let desc = format!(
                "{} {} Core{}",
                cluster.cores,
                match cluster.core.pipeline {
                    PipelineKind::InOrder => "Weak",
                    PipelineKind::OutOfOrder => "Medium",
                },
                if cluster.cores > 1 { "s" } else { "" }
            );
            AreaRow {
                cs_cores: cs,
                ems_desc: desc,
                cs_mm2: cs_area_mm2(cs),
                ems_mm2: ems_area_mm2(&cluster),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_anchors_reproduced() {
        let rows = table5();
        let expected_cs = [35.0, 74.0, 151.0, 304.0, 612.0];
        let expected_ems = [0.34, 0.34, 0.51, 1.50, 1.50];
        let expected_ov = [0.0097, 0.0046, 0.0034, 0.0049, 0.0025];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.cs_mm2, expected_cs[i]);
            assert!(
                (row.ems_mm2 - expected_ems[i]).abs() < 0.02,
                "row {i}: ems {} vs {}",
                row.ems_mm2,
                expected_ems[i]
            );
            assert!(
                (row.overhead() - expected_ov[i]).abs() < 0.0006,
                "row {i}: overhead {} vs {}",
                row.overhead(),
                expected_ov[i]
            );
        }
    }

    #[test]
    fn ems_always_below_one_percent() {
        // The paper's headline claim: less than 1% area overhead everywhere.
        for row in table5() {
            assert!(row.overhead() < 0.01, "{:?}", row);
        }
    }

    #[test]
    fn interpolation_is_monotonic() {
        let mut prev = 0.0;
        for c in 1..=64 {
            let a = cs_area_mm2(c);
            assert!(a >= prev, "area must grow with core count");
            prev = a;
        }
    }

    #[test]
    #[should_panic(expected = "out of modelled range")]
    fn oversized_soc_panics() {
        cs_area_mm2(65);
    }
}
