//! Layer descriptors: the basic building layers of §2.1 plus the two
//! nonlinear joins of Fig. 1.

use sn_tensor::conv::ConvParams;
use sn_tensor::Shape4;

/// Index of a layer within its [`crate::Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub usize);

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    Max,
    Avg,
}

/// The layer vocabulary. Every network in the paper's evaluation (AlexNet,
/// VGG, ResNet, Inception v4, DenseNet) is expressible with these kinds,
/// and the transformer additions (EMBED/LNORM/ATTN/MLP) open the GPT-style
/// workloads. Dropout stores its probability as raw `f32` bits so the whole
/// vocabulary is `Eq + Hash` — fingerprinting and memo keys need no
/// float special-casing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Input batch producer (shape is the batch shape).
    Data { shape: Shape4 },
    /// Convolution.
    Conv {
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    },
    /// Max/average pooling.
    Pool {
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        pad: usize,
    },
    /// ReLU activation.
    Act,
    /// Cross-channel local response normalization.
    Lrn { local_size: usize },
    /// Batch normalization.
    Bn,
    /// Dropout with drop probability `f32::from_bits(p_bits)` (stored as
    /// bits so the enum derives `Eq + Hash`; build via [`LayerKind::dropout`]).
    Dropout { p_bits: u32 },
    /// Fully connected with `out` output features.
    Fc { out: usize },
    /// Softmax + cross-entropy loss (terminal layer).
    Softmax,
    /// Channel-wise concatenation join (fan-in, Fig. 1a / DenseNet).
    Concat,
    /// Elementwise addition join (residual connection, Fig. 1b).
    Eltwise,
    /// Token-embedding gather: `N×1×S×1` ids → `N×dim×S×1` vectors.
    Embedding { vocab: usize, dim: usize },
    /// Layer normalization over the channel (model) dimension.
    LayerNorm,
    /// Multi-head self-attention over the sequence (`H·W`) axis.
    Attention { heads: usize },
    /// Position-wise two-layer MLP block with `hidden` inner features.
    Mlp { hidden: usize },
}

impl LayerKind {
    /// Dropout with drop probability `p` (stored as bits, see the variant).
    pub fn dropout(p: f32) -> LayerKind {
        LayerKind::Dropout {
            p_bits: p.to_bits(),
        }
    }

    /// Short type name used in reports (matches the paper's Fig. 8 legend).
    pub fn type_name(&self) -> &'static str {
        match self {
            LayerKind::Data { .. } => "DATA",
            LayerKind::Conv { .. } => "CONV",
            LayerKind::Pool { .. } => "POOL",
            LayerKind::Act => "ACT",
            LayerKind::Lrn { .. } => "LRN",
            LayerKind::Bn => "BN",
            LayerKind::Dropout { .. } => "DROPOUT",
            LayerKind::Fc { .. } => "FC",
            LayerKind::Softmax => "SOFTMAX",
            LayerKind::Concat => "CONCAT",
            LayerKind::Eltwise => "ELTWISE",
            LayerKind::Embedding { .. } => "EMBED",
            LayerKind::LayerNorm => "LNORM",
            LayerKind::Attention { .. } => "ATTN",
            LayerKind::Mlp { .. } => "MLP",
        }
    }

    /// Is this layer a *checkpoint* under the recomputation policy?
    ///
    /// Checkpoints are layers whose outputs are kept (and, for CONV/DATA,
    /// offloaded via the Unified Tensor Pool) rather than recomputed:
    /// compute-intensive layers (CONV, FC, and the GEMM-dominated
    /// transformer blocks EMBED/ATTN/MLP), structural layers whose inputs
    /// cross recompute-segment boundaries (DATA, CONCAT, ELTWISE), and the
    /// terminal SOFTMAX. The remaining kinds — POOL, ACT, LRN, BN, DROPOUT,
    /// LNORM — are the paper's "cheap-to-compute" layers whose forward
    /// results are dropped and reconstructed (§3.4).
    pub fn is_checkpoint(&self) -> bool {
        matches!(
            self,
            LayerKind::Data { .. }
                | LayerKind::Conv { .. }
                | LayerKind::Fc { .. }
                | LayerKind::Softmax
                | LayerKind::Concat
                | LayerKind::Eltwise
                | LayerKind::Embedding { .. }
                | LayerKind::Attention { .. }
                | LayerKind::Mlp { .. }
        )
    }

    /// Is this layer's output offloaded to the host by the UTP? The paper
    /// offloads only CONV outputs (plus the input batch, which by the same
    /// argument — large, produced early, reused late — we offload too). The
    /// transformer checkpoints (EMBED/ATTN/MLP) qualify by the same
    /// large-early-reused-late argument.
    pub fn is_offload_candidate(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv { .. }
                | LayerKind::Data { .. }
                | LayerKind::Embedding { .. }
                | LayerKind::Attention { .. }
                | LayerKind::Mlp { .. }
        )
    }

    /// Does this layer's backward computation need its *input* tensor(s)?
    ///
    /// We use input-based backward formulations throughout (as cuDNN and the
    /// paper's accounting do): ReLU masks by `x > 0`, LRN re-derives its
    /// denominators from `x`, max-pool re-derives routing from `x`, dropout
    /// reads its input alongside the regenerated mask, `dW = dY ⊛ X` for
    /// CONV/FC, and BN renormalizes `x` with the saved statistics.
    pub fn bwd_needs_input(&self) -> bool {
        match self {
            LayerKind::Conv { .. }
            | LayerKind::Fc { .. }
            | LayerKind::Pool { .. }
            | LayerKind::Bn
            | LayerKind::Lrn { .. }
            | LayerKind::Act
            | LayerKind::Dropout { .. }
            // The transformer kernels are all input-formulated: embedding
            // re-hashes token ids, layernorm re-derives its statistics, and
            // attention/MLP re-derive q/k/v/probabilities/hidden from `x`.
            | LayerKind::Embedding { .. }
            | LayerKind::LayerNorm
            | LayerKind::Attention { .. }
            | LayerKind::Mlp { .. } => true,
            // The joins and softmax pass gradients without touching inputs.
            LayerKind::Softmax
            | LayerKind::Concat
            | LayerKind::Eltwise
            | LayerKind::Data { .. } => false,
        }
    }

    /// Does this layer's backward computation need its *output* tensor?
    pub fn bwd_needs_output(&self) -> bool {
        // Softmax gradient is `P − onehot(label)`, computed from the stored
        // probabilities. Everything else is input-formulated (see above).
        matches!(self, LayerKind::Softmax)
    }

    /// View as convolution parameters (for the workspace machinery).
    pub fn conv_params(&self) -> Option<ConvParams> {
        match self {
            LayerKind::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => Some(ConvParams {
                out_channels: *out_channels,
                kernel: *kernel,
                stride: *stride,
                pad: *pad,
            }),
            _ => None,
        }
    }
}

/// A node of the network DAG.
#[derive(Debug, Clone)]
pub struct Layer {
    pub id: LayerId,
    /// Display name, e.g. `CONV2` or `res3b_branch2a`.
    pub name: String,
    pub kind: LayerKind,
    /// Input edges (layers whose outputs this layer consumes), in argument
    /// order (significant for CONCAT).
    pub prevs: Vec<LayerId>,
    /// Output edges.
    pub nexts: Vec<LayerId>,
    /// Inferred output shape.
    pub out_shape: Shape4,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_classification_follows_the_paper() {
        assert!(LayerKind::Conv {
            out_channels: 1,
            kernel: 1,
            stride: 1,
            pad: 0
        }
        .is_checkpoint());
        assert!(LayerKind::Fc { out: 10 }.is_checkpoint());
        assert!(LayerKind::Softmax.is_checkpoint());
        assert!(!LayerKind::Act.is_checkpoint());
        assert!(!LayerKind::Pool {
            kind: PoolKind::Max,
            kernel: 2,
            stride: 2,
            pad: 0
        }
        .is_checkpoint());
        assert!(!LayerKind::Bn.is_checkpoint());
        assert!(!LayerKind::Lrn { local_size: 5 }.is_checkpoint());
        assert!(!LayerKind::dropout(0.5).is_checkpoint());
        // Transformer blocks: GEMM-dominated layers checkpoint, LNORM is
        // cheap recompute.
        assert!(LayerKind::Embedding { vocab: 100, dim: 8 }.is_checkpoint());
        assert!(LayerKind::Attention { heads: 4 }.is_checkpoint());
        assert!(LayerKind::Mlp { hidden: 32 }.is_checkpoint());
        assert!(!LayerKind::LayerNorm.is_checkpoint());
    }

    #[test]
    fn layer_kinds_are_hashable_and_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(LayerKind::dropout(0.5));
        set.insert(LayerKind::dropout(0.5));
        set.insert(LayerKind::dropout(0.25));
        set.insert(LayerKind::Attention { heads: 4 });
        assert_eq!(set.len(), 3);
        assert_eq!(
            LayerKind::dropout(0.5),
            LayerKind::Dropout {
                p_bits: 0.5f32.to_bits()
            }
        );
    }

    #[test]
    fn only_conv_and_data_offload() {
        assert!(LayerKind::Conv {
            out_channels: 1,
            kernel: 3,
            stride: 1,
            pad: 1
        }
        .is_offload_candidate());
        assert!(LayerKind::Data {
            shape: Shape4::new(1, 1, 1, 1)
        }
        .is_offload_candidate());
        assert!(!LayerKind::Fc { out: 10 }.is_offload_candidate());
        assert!(!LayerKind::Act.is_offload_candidate());
        assert!(LayerKind::Embedding { vocab: 100, dim: 8 }.is_offload_candidate());
        assert!(LayerKind::Attention { heads: 4 }.is_offload_candidate());
        assert!(LayerKind::Mlp { hidden: 32 }.is_offload_candidate());
        assert!(!LayerKind::LayerNorm.is_offload_candidate());
    }

    #[test]
    fn backward_dependency_flags() {
        assert!(LayerKind::Conv {
            out_channels: 1,
            kernel: 3,
            stride: 1,
            pad: 1
        }
        .bwd_needs_input());
        assert!(!LayerKind::Act.bwd_needs_output());
        assert!(LayerKind::Act.bwd_needs_input());
        assert!(!LayerKind::Eltwise.bwd_needs_input());
        assert!(LayerKind::Softmax.bwd_needs_output());
        assert!(LayerKind::dropout(0.5).bwd_needs_input());
        assert!(LayerKind::Attention { heads: 2 }.bwd_needs_input());
        assert!(LayerKind::LayerNorm.bwd_needs_input());
        assert!(!LayerKind::Attention { heads: 2 }.bwd_needs_output());
    }
}
