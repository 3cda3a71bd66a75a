//! Convolution algorithm catalogue and the dynamic workspace selector
//! (§3.5).
//!
//! cuDNN exposes several convolution algorithms whose speed/workspace
//! trade-offs differ: implicit GEMM needs no scratch memory but is slowest;
//! explicit GEMM materializes the im2col matrix; Winograd and FFT transform
//! into a domain where the convolution is cheap but the transformed operands
//! need large buffers. We model the catalogue with analytic workspace sizes
//! and speed factors relative to implicit GEMM (shapes taken from the cuDNN
//! paper and vendor benchmarking folklore; workspaces scale with the batch,
//! as cuDNN's do). The *ordering* — more workspace ⇒ more speed, FFT
//! favouring big kernels, Winograd favouring 3×3/s1 — is what Fig. 2 and
//! Fig. 12 depend on, not the absolute factors.
//!
//! The runtime's selector implements the paper's dynamic strategy: at each
//! step, profile the free bytes the three memory techniques left over and
//! pick the fastest algorithm whose workspace fits ("the runtime skips
//! convolution algorithms that require more memory than it can provide").

use sn_graph::{LayerKind, Net};
use sn_tensor::Shape4;

/// Modelled convolution algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAlgo {
    /// No workspace, baseline speed (factor 1.0).
    ImplicitGemm,
    /// Explicit im2col + GEMM: workspace = the column matrix for a chunk of
    /// images.
    Gemm,
    /// Winograd F(2×2, 3×3): 3×3 stride-1 only; transformed tiles.
    Winograd,
    /// Tiled FFT: stride-1 only; spectra for a tile chunk.
    FftTiling,
    /// Full FFT: stride-1 only; full padded spectra — the hungriest and,
    /// for large kernels, the fastest.
    Fft,
}

impl ConvAlgo {
    /// All algorithms, slowest→fastest workspace appetite.
    pub const ALL: [ConvAlgo; 5] = [
        ConvAlgo::ImplicitGemm,
        ConvAlgo::Gemm,
        ConvAlgo::Winograd,
        ConvAlgo::FftTiling,
        ConvAlgo::Fft,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ConvAlgo::ImplicitGemm => "IMPLICIT_GEMM",
            ConvAlgo::Gemm => "GEMM",
            ConvAlgo::Winograd => "WINOGRAD",
            ConvAlgo::FftTiling => "FFT_TILING",
            ConvAlgo::Fft => "FFT",
        }
    }

    /// Is the algorithm applicable to this layer's geometry?
    pub fn applicable(&self, kernel: usize, stride: usize) -> bool {
        match self {
            ConvAlgo::ImplicitGemm | ConvAlgo::Gemm => true,
            ConvAlgo::Winograd => kernel == 3 && stride == 1,
            ConvAlgo::FftTiling | ConvAlgo::Fft => stride == 1 && kernel >= 3,
        }
    }

    /// Workspace bytes required for an input of `in_shape` producing
    /// `out_shape` with `k_out` output channels and a `kernel²` filter.
    pub fn workspace_bytes(&self, in_shape: Shape4, out_shape: Shape4, kernel: usize) -> u64 {
        let c = in_shape.c as u64;
        let k = out_shape.c as u64;
        let n = in_shape.n as u64;
        let r = kernel as u64;
        let ohw = (out_shape.h * out_shape.w) as u64;
        match self {
            ConvAlgo::ImplicitGemm => 0,
            // Column matrix C·R·S × OH·OW for a chunk of images.
            ConvAlgo::Gemm => c * r * r * ohw * 4 * n,
            // 4×4 input tiles + 4×4 filter transforms for all channels.
            ConvAlgo::Winograd => {
                let tiles = (out_shape.h as u64).div_ceil(2) * (out_shape.w as u64).div_ceil(2);
                (c + k) * tiles * 16 * 4 * n + c * k * 16 * 4
            }
            // Spectra of tiled input/filter/output (complex f32 = 8 bytes).
            ConvAlgo::FftTiling => {
                let tile = 32u64 * 32;
                let tiles =
                    ((out_shape.h as u64).div_ceil(24)) * ((out_shape.w as u64).div_ceil(24));
                (c + k) * tiles * tile * 8 * n + c * k * tile * 8 / 4
            }
            // Full padded spectra of input, output and filters.
            ConvAlgo::Fft => {
                let hp = (in_shape.h as u64 + r).next_power_of_two();
                let wp = (in_shape.w as u64 + r).next_power_of_two();
                (c + 2 * k) * hp * wp * 8 * n + c * k * hp * wp * 8
            }
        }
    }

    /// Speed factor relative to implicit GEMM (higher = faster).
    pub fn speed_factor(&self, kernel: usize) -> f64 {
        match self {
            ConvAlgo::ImplicitGemm => 1.0,
            ConvAlgo::Gemm => 1.3,
            ConvAlgo::Winograd => 2.25,
            ConvAlgo::FftTiling => {
                if kernel >= 5 {
                    2.4
                } else {
                    1.7
                }
            }
            ConvAlgo::Fft => {
                if kernel >= 5 {
                    3.0
                } else {
                    1.8
                }
            }
        }
    }
}

/// A selector decision for one convolution step.
#[derive(Debug, Clone, Copy)]
pub struct AlgoChoice {
    pub algo: ConvAlgo,
    pub workspace: u64,
    pub speedup: f64,
}

impl AlgoChoice {
    /// The zero-workspace fallback.
    pub fn fallback() -> AlgoChoice {
        AlgoChoice {
            algo: ConvAlgo::ImplicitGemm,
            workspace: 0,
            speedup: 1.0,
        }
    }
}

/// Pick the fastest memory-feasible algorithm for `layer` given
/// `free_bytes` of available workspace memory. Among equally fast ones the
/// first in [`ConvAlgo::ALL`] order wins, so the winner under one budget is
/// also the winner under every smaller budget that still holds its
/// workspace — the planner relies on that to skip the second scan.
pub fn select_algo(net: &Net, layer: sn_graph::LayerId, free_bytes: u64) -> AlgoChoice {
    let l = net.layer(layer);
    let LayerKind::Conv { kernel, stride, .. } = l.kind else {
        return AlgoChoice::fallback();
    };
    let in_shape = net.in_shape(layer);
    let out_shape = l.out_shape;

    let mut best = AlgoChoice::fallback();
    for algo in ConvAlgo::ALL {
        if !algo.applicable(kernel, stride) {
            continue;
        }
        let ws = algo.workspace_bytes(in_shape, out_shape, kernel);
        if ws > free_bytes {
            continue; // skip algorithms that need more memory than available
        }
        let s = algo.speed_factor(kernel);
        if s > best.speedup {
            best = AlgoChoice {
                algo,
                workspace: ws,
                speedup: s,
            };
        }
    }
    best
}

/// The choice made with unlimited memory — the "MAX Speed WS" series of
/// Fig. 12.
pub fn max_speed_algo(net: &Net, layer: sn_graph::LayerId) -> AlgoChoice {
    select_algo(net, layer, u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_net(kernel: usize, stride: usize) -> (Net, sn_graph::LayerId) {
        let mut net = Net::new("t", Shape4::new(32, 64, 56, 56));
        let d = net.data();
        let c = net.conv(d, 128, kernel, stride, kernel / 2);
        let f = net.fc(c, 10);
        net.softmax(f);
        (net, c)
    }

    #[test]
    fn zero_free_bytes_forces_implicit_gemm() {
        let (net, c) = conv_net(3, 1);
        let choice = select_algo(&net, c, 0);
        assert_eq!(choice.algo, ConvAlgo::ImplicitGemm);
        assert_eq!(choice.workspace, 0);
        assert_eq!(choice.speedup, 1.0);
    }

    #[test]
    fn unlimited_memory_picks_fastest_applicable() {
        let (net, c) = conv_net(5, 1);
        let choice = max_speed_algo(&net, c);
        assert_eq!(choice.algo, ConvAlgo::Fft, "5x5 stride 1 favours FFT");
        assert_eq!(choice.speedup, 3.0);

        let (net3, c3) = conv_net(3, 1);
        let choice3 = max_speed_algo(&net3, c3);
        assert_eq!(
            choice3.algo,
            ConvAlgo::Winograd,
            "3x3 stride 1 favours Winograd"
        );
    }

    #[test]
    fn strided_convs_cannot_use_transform_algorithms() {
        let (net, c) = conv_net(5, 2);
        let choice = max_speed_algo(&net, c);
        assert_eq!(choice.algo, ConvAlgo::Gemm);
    }

    #[test]
    fn more_memory_never_yields_a_slower_choice() {
        let (net, c) = conv_net(5, 1);
        let mut prev = 0.0;
        for free in [0u64, 1 << 20, 1 << 24, 1 << 28, 1 << 34] {
            let ch = select_algo(&net, c, free);
            assert!(ch.speedup >= prev, "speedup regressed at free={free}");
            assert!(ch.workspace <= free || ch.workspace == 0);
            prev = ch.speedup;
        }
    }

    #[test]
    fn workspace_sizes_scale_with_batch_and_fft_is_hungry() {
        let (net, c) = conv_net(5, 1);
        let in_s = net.in_shape(c);
        let out_s = net.layer(c).out_shape;
        let gemm = ConvAlgo::Gemm.workspace_bytes(in_s, out_s, 5);
        let fft = ConvAlgo::Fft.workspace_bytes(in_s, out_s, 5);
        assert!(gemm > 0 && fft > 0);
        // Both are hundreds of MB at this geometry; im2col GEMM's 25x
        // inflation for 5x5 kernels legitimately rivals the FFT spectra.
        assert!(
            fft > gemm / 2,
            "FFT must be the same order: {fft} vs {gemm}"
        );
        // Batch-proportional, as cuDNN workspaces are.
        let half = |s: Shape4| Shape4 { n: s.n / 2, ..s };
        let gemm_half = ConvAlgo::Gemm.workspace_bytes(half(in_s), half(out_s), 5);
        assert!(gemm_half < gemm);
    }

    #[test]
    fn non_conv_layers_get_the_fallback() {
        let (net, _) = conv_net(3, 1);
        let fc = sn_graph::LayerId(2);
        let choice = select_algo(&net, fc, u64::MAX);
        assert_eq!(choice.algo, ConvAlgo::ImplicitGemm);
    }
}
