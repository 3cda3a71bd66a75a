//! Job descriptions: what a tenant wants to train, at what scale, and under
//! which memory-scheduling policy.

use sn_graph::Net;
use sn_runtime::Policy;

/// Which network a job trains. An enum (rather than a boxed builder closure)
//  keeps `JobSpec` cloneable, hashable for profile memoization, and
/// printable in schedule traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    LeNet,
    AlexNet,
    Vgg16,
    ResNet50,
    InceptionV4,
    /// A synthetic conv tower: `depth` CONV→RELU blocks of `width` channels
    /// over a 32×32 input, then POOL→FC→SOFTMAX. Cheap to simulate, with a
    /// memory footprint that scales predictably — the workhorse for cluster
    /// tests and benches.
    Synthetic {
        width: usize,
        depth: usize,
    },
}

impl Workload {
    /// Build the network at `batch`.
    pub fn build(&self, batch: usize) -> Net {
        match *self {
            Workload::LeNet => sn_models::lenet(batch, 10),
            Workload::AlexNet => sn_models::alexnet(batch),
            Workload::Vgg16 => sn_models::vgg16(batch),
            Workload::ResNet50 => sn_models::resnet50(batch),
            Workload::InceptionV4 => sn_models::inception_v4(batch),
            Workload::Synthetic { width, depth } => {
                let mut net = Net::new("Synthetic", sn_graph::Shape4::new(batch, 3, 32, 32));
                let mut prev = net.data();
                for _ in 0..depth {
                    let c = net.conv(prev, width, 3, 1, 1);
                    prev = net.relu(c);
                }
                let p = net.max_pool(prev, 2, 2, 0);
                let f = net.fc(p, 10);
                net.softmax(f);
                net
            }
        }
    }

    /// Stable label used in traces and reports.
    pub fn label(&self) -> String {
        match *self {
            Workload::LeNet => "lenet".into(),
            Workload::AlexNet => "alexnet".into(),
            Workload::Vgg16 => "vgg16".into(),
            Workload::ResNet50 => "resnet50".into(),
            Workload::InceptionV4 => "inception_v4".into(),
            Workload::Synthetic { width, depth } => format!("synthetic_w{width}_d{depth}"),
        }
    }
}

/// What a job *does* with its network: train it (forward + backward, gangs
/// exchange gradients) or serve it (forward-only inference replicas, no
/// gradient traffic). The admission profiler compiles a training or an
/// inference [`sn_runtime::MemoryPlan`] accordingly — an inference replica
/// of the same `(workload, batch)` reserves a much smaller exact peak, which
/// is what lets the fleet co-locate serving jobs against training jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobKind {
    #[default]
    Training,
    /// Forward-only serving: one "iteration" serves one batch.
    Inference,
}

impl JobKind {
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Training => "training",
            JobKind::Inference => "inference",
        }
    }
}

/// The paper's policy presets, ordered from weakest to strongest memory
/// efficiency. Admission control walks this ladder when a requested preset
/// does not fit: a stronger preset trades (virtual) compute and PCIe traffic
/// for a smaller `peak_m`, letting more tenants share one device.
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

/// One tenant's training request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique name, reported in traces and the final report.
    pub name: String,
    pub workload: Workload,
    /// Per-replica batch size (the data-parallel sub-batch).
    pub batch: usize,
    /// Training iterations to run.
    pub iterations: u32,
    /// Data-parallel replica count; `> 1` makes this a gang job that needs
    /// that many distinct devices simultaneously.
    pub replicas: usize,
    /// Requested memory-scheduling preset.
    pub preset: PolicyPreset,
    /// May admission fall back to memory-stronger presets when the requested
    /// one does not fit? (`false` = run exactly as requested or queue.)
    pub allow_downgrade: bool,
    /// Training iterations or forward-only serving batches?
    pub kind: JobKind,
}

impl JobSpec {
    pub fn new(name: impl Into<String>, workload: Workload, batch: usize) -> JobSpec {
        JobSpec {
            name: name.into(),
            workload,
            batch,
            iterations: 10,
            replicas: 1,
            preset: PolicyPreset::Superneurons,
            allow_downgrade: true,
            kind: JobKind::Training,
        }
    }

    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    pub fn with_preset(mut self, preset: PolicyPreset) -> Self {
        self.preset = preset;
        self
    }

    pub fn with_downgrade(mut self, allow: bool) -> Self {
        self.allow_downgrade = allow;
        self
    }

    pub fn with_kind(mut self, kind: JobKind) -> Self {
        self.kind = kind;
        self
    }

    /// Shorthand: a forward-only serving job.
    pub fn inference(self) -> Self {
        self.with_kind(JobKind::Inference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_walks_toward_superneurons() {
        let from_baseline: Vec<_> = PolicyPreset::Baseline.ladder().collect();
        assert_eq!(from_baseline, PolicyPreset::ALL.to_vec());
        let from_full: Vec<_> = PolicyPreset::FullMemory.ladder().collect();
        assert_eq!(
            from_full,
            vec![PolicyPreset::FullMemory, PolicyPreset::Superneurons]
        );
        let top: Vec<_> = PolicyPreset::Superneurons.ladder().collect();
        assert_eq!(top, vec![PolicyPreset::Superneurons]);
    }

    #[test]
    fn workloads_build_valid_nets() {
        for w in [
            Workload::LeNet,
            Workload::Synthetic {
                width: 16,
                depth: 3,
            },
        ] {
            let net = w.build(4);
            assert!(net.validate().is_ok(), "{} must validate", w.label());
            assert_eq!(net.batch(), 4);
        }
    }

    #[test]
    fn synthetic_width_scales_memory() {
        use sn_graph::NetCost;
        let narrow = NetCost::of(&Workload::Synthetic { width: 8, depth: 3 }.build(8));
        let wide = NetCost::of(
            &Workload::Synthetic {
                width: 32,
                depth: 3,
            }
            .build(8),
        );
        assert!(wide.sum_l_f() > narrow.sum_l_f());
    }
}
