//! Runtime policy knobs.
//!
//! Every memory/performance technique of the paper is an independent switch,
//! so the component evaluations (§4.1) are literal policy diffs: each preset
//! is its difference from the one it extends, and so is each framework
//! emulation of `sn-frameworks`. [`PolicyPreset`] is the one list of the
//! paper's presets, which the cluster's admission ladder, the autotuner's
//! seeds and the experiment harness all read.

/// Which device allocator backs tensor memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// The SuperNeurons heap pool (§3.2.1): an address-ordered vector of
    /// free runs searched first-fit, with an O(1) largest-fragment read. One
    /// representation — no workload holds more than 56 free runs (see the
    /// `sn_mempool::pool` docs).
    HeapPool,
    /// Raw `cudaMalloc`/`cudaFree` with modelled latencies (Table 2 baseline).
    Cuda,
}

/// Recomputation strategy (§3.4, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecomputeMode {
    /// Keep everything needed by backward (no recomputation).
    None,
    /// Recompute each segment once, keep results for the whole segment
    /// backward (MXNet-style; O(N) extra compute, memcost Σ l_f + l_b).
    SpeedCentric,
    /// Recompute dependencies afresh for every backward layer, freeing
    /// intermediates immediately (O(N²) extra compute, memcost l_b).
    MemoryCentric,
    /// The paper's contribution: per segment, speed-centric when its
    /// memcost stays ≤ l_peak, memory-centric otherwise.
    CostAware,
}

/// Tensor Cache replacement policy. The paper uses LRU (§3.3.2) and notes
/// other policies "might better fit the scenario" — FIFO and MRU are
/// provided for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Least-recently-used (the paper's choice — backward's head-to-tail
    /// pattern reuses the most recent tensors earliest).
    Lru,
    /// First-in-first-out: evict the oldest insertion.
    Fifo,
    /// Most-recently-used: the adversarial ordering for this access pattern.
    Mru,
}

/// Convolution-workspace policy (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkspacePolicy {
    /// Always the zero-workspace algorithm (implicit GEMM).
    None,
    /// At every step, profile free bytes and pick the fastest feasible
    /// algorithm (the paper's dynamic strategy).
    Dynamic,
    /// The naive strategy of the emulated frameworks (§2.2): a fixed
    /// per-conv workspace limit (cuDNN-era defaults were tens of MB),
    /// regardless of how much memory is actually free.
    Capped(u64),
}

/// Full policy bundle.
///
/// `Eq + Hash` (every field is a switch, an integer cap, or a tier-size
/// table) so a policy can key the planner's memo table directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Policy {
    /// Liveness analysis (off = the naive baseline allocator).
    pub liveness: bool,
    /// Keep all forward outputs resident (Caffe/Torch-style).
    pub keep_all_forward: bool,
    /// In-place ReLU/Dropout.
    pub inplace_act: bool,
    /// UTP offloading of checkpoint (CONV/DATA) outputs to host.
    pub offload: bool,
    /// Offload eagerly after every checkpoint forward (true), or only under
    /// memory pressure via the Tensor Cache's LRU eviction (false).
    pub eager_offload: bool,
    /// LRU Tensor Cache (Alg. 2): reuse resident tensors, evict on demand.
    pub tensor_cache: bool,
    /// Overlapped prefetch of the next checkpoint's tensors during backward.
    pub prefetch: bool,
    /// Prefetch-ahead window: how many upcoming steps the backward-phase
    /// prefetcher scans for host-resident inputs (it still stops one step
    /// past the next offloadable checkpoint's backward, whichever comes
    /// first). Was a hard-coded `8` inside the planner walk; promoted to a
    /// policy knob so the autotuner can search it. The default reproduces
    /// the historical plans byte-identically.
    pub prefetch_depth: u32,
    /// Pinned host staging (false halves PCIe bandwidth, as the paper notes
    /// for TensorFlow).
    pub pinned_host: bool,
    /// Serialize every DMA with the host thread (the host blocks until each
    /// transfer completes, as with `cudaMemcpy` on the null stream). The
    /// ablation baseline for the async multi-stream engine: compute/transfer
    /// overlap is zero by construction under this flag.
    pub sync_transfers: bool,
    pub recompute: RecomputeMode,
    pub allocator: AllocatorKind,
    pub workspace: WorkspacePolicy,
    /// Tensor Cache replacement policy.
    pub cache_policy: CachePolicy,
    /// External UTP tier capacities (Fig. 7); default = local host only.
    pub tiers: crate::tiers::TierConfig,
    /// Element precision of activations/gradients (fp32 master weights).
    /// Part of the policy — and therefore of every memo key — so an fp32
    /// and a mixed-precision compile of the same net never alias.
    pub precision: sn_graph::Precision,
}

/// The historical prefetch-ahead window the planner walk hard-coded before
/// it became a [`Policy`] knob. Every preset uses it, so default-policy
/// plans stay byte-identical.
pub const DEFAULT_PREFETCH_DEPTH: u32 = 8;

impl Policy {
    /// The naive baseline of §3: one tensor per request, nothing freed,
    /// no offload/recompute/workspace tricks.
    pub fn baseline() -> Policy {
        Policy {
            liveness: false,
            keep_all_forward: false,
            inplace_act: false,
            offload: false,
            eager_offload: false,
            tensor_cache: false,
            prefetch: false,
            prefetch_depth: DEFAULT_PREFETCH_DEPTH,
            pinned_host: true,
            sync_transfers: false,
            recompute: RecomputeMode::None,
            allocator: AllocatorKind::HeapPool,
            workspace: WorkspacePolicy::None,
            cache_policy: CachePolicy::Lru,
            tiers: crate::tiers::TierConfig::default(),
            precision: sn_graph::Precision::fp32(),
        }
    }

    /// This policy with the given element precision (e.g.
    /// [`sn_graph::Precision::bf16_mixed`] for the AMP recipe).
    pub fn with_precision(self, precision: sn_graph::Precision) -> Policy {
        Policy { precision, ..self }
    }

    /// This policy with every DMA serialized against the host — the
    /// synchronous-transfer ablation baseline.
    pub fn synchronous(self) -> Policy {
        Policy {
            sync_transfers: true,
            ..self
        }
    }

    /// This policy with the given prefetch-ahead window.
    pub fn with_prefetch_depth(self, prefetch_depth: u32) -> Policy {
        Policy {
            prefetch_depth,
            ..self
        }
    }

    /// Reject contradictory knob combinations before they reach the planner.
    ///
    /// The planner itself tolerates these (the dead knob is simply ignored),
    /// but the autotuner uses this to skip cells of the search lattice that
    /// would alias an already-evaluated policy under a different key — e.g.
    /// `prefetch` without `offload` compiles to exactly the no-offload plan,
    /// so evaluating it is pure waste.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.prefetch && !self.offload {
            return Err("prefetch requires offload (nothing is ever host-resident)");
        }
        if self.eager_offload && !self.offload {
            return Err("eager_offload requires offload");
        }
        if self.prefetch && self.prefetch_depth == 0 {
            return Err("prefetch requires a nonzero prefetch_depth");
        }
        if self.eager_offload && self.tensor_cache {
            return Err("eager_offload bypasses the tensor_cache pressure policy");
        }
        if !self.liveness && self.recompute != RecomputeMode::None {
            return Err("recomputation requires liveness analysis");
        }
        Ok(())
    }

    /// Liveness analysis only (Fig. 10a).
    pub fn liveness_only() -> Policy {
        Policy {
            liveness: true,
            ..Policy::baseline()
        }
    }

    /// Liveness + eager offload/prefetch of checkpoints (Fig. 10b).
    pub fn liveness_offload() -> Policy {
        Policy {
            liveness: true,
            offload: true,
            eager_offload: true,
            prefetch: true,
            ..Policy::baseline()
        }
    }

    /// Liveness + offload + cost-aware recomputation (Fig. 10c): the full
    /// memory stack, still without the performance features.
    pub fn full_memory() -> Policy {
        Policy {
            recompute: RecomputeMode::CostAware,
            ..Policy::liveness_offload()
        }
    }

    /// The complete SuperNeurons runtime: all three memory techniques plus
    /// the memory pool, Tensor Cache, overlapped transfers, and dynamic
    /// convolution workspaces.
    pub fn superneurons() -> Policy {
        Policy {
            eager_offload: false, // cache decides: transfer only under pressure
            tensor_cache: true,
            workspace: WorkspacePolicy::Dynamic,
            ..Policy::full_memory()
        }
    }

    /// SuperNeurons with the Tensor Cache disabled (Fig. 11 / Table 3
    /// comparison point): every checkpoint offload is on-demand and eager.
    pub fn superneurons_no_cache() -> Policy {
        Policy {
            tensor_cache: false,
            eager_offload: true,
            ..Policy::superneurons()
        }
    }

    /// SuperNeurons on raw cudaMalloc (Table 2 comparison point).
    pub fn superneurons_cuda_alloc() -> Policy {
        Policy {
            allocator: AllocatorKind::Cuda,
            ..Policy::superneurons()
        }
    }

    /// Liveness options implied by this policy.
    pub fn liveness_options(&self) -> sn_graph::liveness::LivenessOptions {
        sn_graph::liveness::LivenessOptions {
            enabled: self.liveness,
            recompute_non_checkpoints: self.recompute != RecomputeMode::None,
            keep_all_forward: self.keep_all_forward,
            inplace_act: self.inplace_act,
            precision: self.precision,
        }
    }
}

impl Default for Policy {
    fn default() -> Self {
        Policy::superneurons()
    }
}

/// The paper's policy presets, ordered from weakest to strongest memory
/// efficiency: the one list of them. Admission control walks this ladder
/// when a requested preset does not fit: a stronger preset trades (virtual)
/// compute and PCIe traffic for a smaller `peak_m`, letting more tenants
/// share one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyPreset {
    Baseline,
    LivenessOnly,
    LivenessOffload,
    // The schedule digests hash these two discriminants: keep them pinned.
    FullMemory = 4,
    Superneurons = 5,
}

impl PolicyPreset {
    pub const ALL: [PolicyPreset; 5] = [
        PolicyPreset::Baseline,
        PolicyPreset::LivenessOnly,
        PolicyPreset::LivenessOffload,
        PolicyPreset::FullMemory,
        PolicyPreset::Superneurons,
    ];

    /// The runtime policy bundle this preset names.
    pub fn policy(self) -> Policy {
        match self {
            PolicyPreset::Baseline => Policy::baseline(),
            PolicyPreset::LivenessOnly => Policy::liveness_only(),
            PolicyPreset::LivenessOffload => Policy::liveness_offload(),
            PolicyPreset::FullMemory => Policy::full_memory(),
            PolicyPreset::Superneurons => Policy::superneurons(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PolicyPreset::Baseline => "baseline",
            PolicyPreset::LivenessOnly => "liveness_only",
            PolicyPreset::LivenessOffload => "liveness_offload",
            PolicyPreset::FullMemory => "full_memory",
            PolicyPreset::Superneurons => "superneurons",
        }
    }

    /// The fallback ladder starting at `self`: this preset, then every
    /// memory-stronger one up to the full `superneurons` stack.
    pub fn ladder(self) -> impl Iterator<Item = PolicyPreset> {
        PolicyPreset::ALL.into_iter().filter(move |p| *p >= self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_documented_knobs() {
        let b = Policy::baseline();
        assert!(!b.liveness && !b.offload && b.recompute == RecomputeMode::None);
        let l = Policy::liveness_only();
        assert!(l.liveness && !l.offload);
        let lo = Policy::liveness_offload();
        assert!(lo.offload && lo.eager_offload && lo.recompute == RecomputeMode::None);
        let sn = Policy::superneurons();
        assert!(sn.tensor_cache && !sn.eager_offload);
        assert_eq!(sn.recompute, RecomputeMode::CostAware);
        assert_eq!(sn.workspace, WorkspacePolicy::Dynamic);
    }

    #[test]
    fn the_preset_table_pins_its_order_names_and_discriminants() {
        let all = PolicyPreset::ALL;
        // The schedule digests hash the discriminants.
        assert_eq!(all.map(|p| p as u8), [0, 1, 2, 4, 5]);
        let names = all.map(PolicyPreset::name);
        let want = [
            "baseline",
            "liveness_only",
            "liveness_offload",
            "full_memory",
            "superneurons",
        ];
        assert_eq!(names, want);
        assert_eq!(
            all.map(PolicyPreset::policy),
            [
                Policy::baseline(),
                Policy::liveness_only(),
                Policy::liveness_offload(),
                Policy::full_memory(),
                Policy::superneurons(),
            ]
        );
        assert!(all.windows(2).all(|w| w[0] < w[1]), "weakest first");
    }

    #[test]
    fn every_preset_validates() {
        for (name, p) in [
            ("baseline", Policy::baseline()),
            ("liveness_only", Policy::liveness_only()),
            ("liveness_offload", Policy::liveness_offload()),
            ("full_memory", Policy::full_memory()),
            ("superneurons", Policy::superneurons()),
            ("superneurons_no_cache", Policy::superneurons_no_cache()),
            ("superneurons_cuda_alloc", Policy::superneurons_cuda_alloc()),
            ("synchronous", Policy::superneurons().synchronous()),
            (
                "bf16",
                Policy::superneurons().with_precision(sn_graph::Precision::bf16_mixed()),
            ),
        ] {
            assert_eq!(p.validate(), Ok(()), "preset {name} must validate");
        }
    }

    #[test]
    fn validate_rejects_contradictory_knobs() {
        let p = Policy {
            prefetch: true,
            ..Policy::baseline()
        };
        assert!(p.validate().is_err(), "prefetch without offload");
        let p = Policy {
            eager_offload: true,
            ..Policy::baseline()
        };
        assert!(p.validate().is_err(), "eager_offload without offload");
        let p = Policy::superneurons().with_prefetch_depth(0);
        assert!(p.validate().is_err(), "prefetch with zero depth");
        let p = Policy {
            eager_offload: true,
            ..Policy::superneurons()
        };
        assert!(
            p.validate().is_err(),
            "eager_offload bypassing tensor_cache"
        );
        let p = Policy {
            recompute: RecomputeMode::CostAware,
            ..Policy::baseline()
        };
        assert!(p.validate().is_err(), "recompute without liveness");
    }

    #[test]
    fn default_prefetch_depth_is_the_historical_window() {
        assert_eq!(Policy::baseline().prefetch_depth, DEFAULT_PREFETCH_DEPTH);
        assert_eq!(Policy::superneurons().prefetch_depth, 8);
        assert_eq!(
            Policy::superneurons().with_prefetch_depth(4).prefetch_depth,
            4
        );
    }

    #[test]
    fn liveness_options_follow_policy() {
        let o = Policy::superneurons().liveness_options();
        assert!(o.enabled && o.recompute_non_checkpoints);
        let o = Policy::baseline().liveness_options();
        assert!(!o.enabled && !o.recompute_non_checkpoints);
    }

    #[test]
    fn precision_flows_into_liveness_options_and_equality() {
        use sn_graph::Precision;
        let fp32 = Policy::superneurons();
        assert_eq!(fp32.precision, Precision::fp32());
        let bf16 = Policy::superneurons().with_precision(Precision::bf16_mixed());
        assert_ne!(fp32, bf16, "precision must distinguish policies");
        assert_eq!(bf16.liveness_options().precision, Precision::bf16_mixed());
        assert_ne!(fp32.liveness_options(), bf16.liveness_options());
    }
}
