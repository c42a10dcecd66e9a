//! DNN inference workloads on the Gemmini accelerator model (§VII-D,
//! Fig. 12).
//!
//! The paper's scenario: model code and weights are confidential inside a
//! *user enclave*; a *driver enclave* owns the Gemmini accelerator. In
//! conventional TEEs every byte crossing the enclave↔accelerator boundary is
//! software-encrypted and decrypted; HyperTEE replaces that with protected
//! shared enclave memory, so the boundary traffic moves at copy speed.
//!
//! Absolute layer timings of the authors' testbed are unavailable; each
//! model's MAC count is its published value and the boundary-traffic volume
//! is calibrated to the crypto share the paper measured (ResNet50: software
//! encryption/decryption ≥ 74.7% of conventional execution).

use hypertee_sim::latency::{COPY_CPB_CS, SW_AES_CPB_CS};

// Gemmini configuration (Table III): 16×16 PEs, 256 KiB global buffer,
// 64 KiB accumulator, output/weight-stationary dataflow.
/// Gemmini processing elements (16×16).
pub(crate) const GEMMINI_PES: u64 = 256;
/// Gemmini's sustained utilisation across layers.
pub(crate) const GEMMINI_UTILIZATION: f64 = 0.70;

/// Gemmini compute cycles for `macs` multiply-accumulates.
pub(crate) fn compute_cycles(macs: f64) -> f64 {
    macs / (GEMMINI_PES as f64 * GEMMINI_UTILIZATION)
}

/// One inference workload.
#[derive(Debug, Clone)]
pub struct DnnModel {
    /// Model name as in Fig. 12.
    pub name: &'static str,
    /// Multiply-accumulates per inference.
    pub(crate) macs: f64,
    /// Bytes crossing the enclave↔accelerator boundary per inference
    /// (activations + streamed commands), calibrated to the paper's
    /// measured crypto shares.
    pub(crate) boundary_bytes: f64,
}

/// The Fig. 12 model set: ResNet50, MobileNet, and the four MLPs of
/// refs \[79\]–\[82\].
pub fn models() -> Vec<DnnModel> {
    vec![
        DnnModel {
            name: "ResNet50",
            macs: 2.0e9,
            boundary_bytes: 8.9e5,
        },
        DnnModel {
            name: "MobileNet",
            macs: 5.7e8,
            boundary_bytes: 2.1e5,
        },
        DnnModel {
            name: "MLP-digit",
            macs: 1.28e6,
            boundary_bytes: 5.5e3,
        },
        DnnModel {
            name: "MLP-committee",
            macs: 2.10e6,
            boundary_bytes: 9.7e3,
        },
        DnnModel {
            name: "MLP-denoise",
            macs: 3.30e6,
            boundary_bytes: 1.63e4,
        },
        DnnModel {
            name: "MLP-multimodal",
            macs: 4.70e6,
            boundary_bytes: 2.48e4,
        },
    ]
}

/// Per-inference cycle breakdown in the conventional design.
#[derive(Debug, Clone, Copy)]
pub struct InferenceTime {
    /// Accelerator compute cycles.
    pub(crate) compute: f64,
    /// Boundary data movement (copy) cycles.
    pub(crate) transfer: f64,
    /// Software encryption + decryption cycles (zero under HyperTEE).
    pub(crate) crypto: f64,
}

impl InferenceTime {
    /// Total cycles.
    pub(crate) fn total(&self) -> f64 {
        self.compute + self.transfer + self.crypto
    }

    /// Fraction of time spent in software crypto.
    pub fn crypto_share(&self) -> f64 {
        self.crypto / self.total()
    }
}

/// Conventional design: every boundary byte is encrypted on one side and
/// decrypted on the other (2× software AES passes).
pub fn conventional(model: &DnnModel) -> InferenceTime {
    InferenceTime {
        compute: compute_cycles(model.macs),
        transfer: model.boundary_bytes * COPY_CPB_CS,
        crypto: 2.0 * model.boundary_bytes * SW_AES_CPB_CS,
    }
}

/// HyperTEE: boundary traffic through protected shared enclave memory —
/// plaintext-speed, no software crypto (§V).
pub(crate) fn hypertee(model: &DnnModel) -> InferenceTime {
    InferenceTime {
        compute: compute_cycles(model.macs),
        transfer: model.boundary_bytes * COPY_CPB_CS,
        crypto: 0.0,
    }
}

/// Fig. 12 speedup of HyperTEE over the conventional design.
pub fn speedup(model: &DnnModel) -> f64 {
    conventional(model).total() / hypertee(model).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_resnet50_anchors() {
        let resnet = &models()[0];
        let conv = conventional(resnet);
        // Paper: software enc/dec ≥ 74.7% of conventional execution…
        assert!(
            conv.crypto_share() > 0.747,
            "crypto share {:.3}",
            conv.crypto_share()
        );
        // …and HyperTEE achieves more than 4.0× speedup.
        let s = speedup(resnet);
        assert!(s > 4.0 && s < 6.0, "ResNet50 speedup {s:.2}");
    }

    #[test]
    fn fig12_mobilenet_anchor() {
        let s = speedup(&models()[1]);
        assert!(s > 3.3 && s < 6.0, "MobileNet speedup {s:.2}");
    }

    #[test]
    fn fig12_mlps_anchor() {
        for m in models().iter().filter(|m| m.name.starts_with("MLP")) {
            let s = speedup(m);
            assert!(s > 27.7, "{}: speedup {s:.1} (paper: > 27.7x)", m.name);
            let share = conventional(m).crypto_share();
            assert!(share > 0.9, "{}: MLP crypto share {share:.3}", m.name);
        }
    }

    #[test]
    fn crypto_share_rises_as_compute_shrinks() {
        // The paper's explanation: fewer layers → higher enc/dec proportion.
        let resnet_share = conventional(&models()[0]).crypto_share();
        let mlp_share = conventional(&models()[2]).crypto_share();
        assert!(mlp_share > resnet_share);
    }
}
