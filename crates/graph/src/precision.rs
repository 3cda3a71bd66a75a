//! Per-net element precision: the standard AMP (automatic mixed precision)
//! recipe, described as *which dtype each tensor class lives in*.
//!
//! Activations and gradients may be half-width (`F16`/`BF16`); master
//! weights, weight gradients, and optimizer state stay `F32` — that is the
//! invariant of the AMP recipe, so [`Precision`] carries no weight dtype.
//! The descriptor threads through the cost model ([`crate::NetCost`]),
//! liveness analysis, planner byte accounting, and data-parallel wire-byte
//! model; it never changes *which* tensors exist, only how many bytes each
//! occupies.

use sn_tensor::DType;

/// Element precision of a network's activation and gradient tensors.
/// Master weights are always `F32` (the AMP invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precision {
    /// Dtype of forward activations (layer outputs).
    pub activations: DType,
    /// Dtype of backward activation gradients (`dY`) — and therefore of the
    /// all-reduce payload in data-parallel training.
    pub gradients: DType,
}

impl Precision {
    /// Full single precision — the CNN baseline; byte-identical to the
    /// pre-dtype accounting.
    pub const fn fp32() -> Precision {
        Precision {
            activations: DType::F32,
            gradients: DType::F32,
        }
    }

    /// bf16 mixed precision: half-width activations and gradients over fp32
    /// master weights.
    pub const fn bf16_mixed() -> Precision {
        Precision {
            activations: DType::BF16,
            gradients: DType::BF16,
        }
    }
}

impl Default for Precision {
    fn default() -> Self {
        Precision::fp32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fp32_and_presets_differ() {
        assert_eq!(Precision::default(), Precision::fp32());
        assert_ne!(Precision::fp32(), Precision::bf16_mixed());
        assert_eq!(Precision::bf16_mixed().activations.size_of(), 2);
        assert_eq!(Precision::fp32().gradients.size_of(), 4);
        assert_eq!(Precision::bf16_mixed().activations, DType::BF16);
    }
}
