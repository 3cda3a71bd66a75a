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
///
/// `Tuned` names an autotuned bundle from the [`sn_runtime::tune`] registry.
/// Its variant position — between `LivenessOffload` and `FullMemory` — is
/// its downgrade rank: a tuned policy is built on the offload stack, and
/// when admission must shed memory it walks up to the hand
/// `FullMemory`/`Superneurons` rungs exactly like any other preset. The
/// [`TunedId`](sn_runtime::tune::TunedId) rides in every admission memo key,
/// so tuned and hand compiles can never alias even if their policies happen
/// to coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyPreset {
    Baseline,
    LivenessOnly,
    LivenessOffload,
    Tuned(sn_runtime::tune::TunedId),
    FullMemory,
    Superneurons,
}

impl PolicyPreset {
    pub const ALL: [PolicyPreset; 5] = [
        PolicyPreset::Baseline,
        PolicyPreset::LivenessOnly,
        PolicyPreset::LivenessOffload,
        PolicyPreset::FullMemory,
        PolicyPreset::Superneurons,
    ];

    /// The runtime policy bundle this preset names. For `Tuned` rungs this
    /// is a registry lookup; an unregistered id panics (a stale-handle bug,
    /// never a runtime condition).
    pub fn policy(self) -> Policy {
        match self {
            PolicyPreset::Baseline => Policy::baseline(),
            PolicyPreset::LivenessOnly => Policy::liveness_only(),
            PolicyPreset::LivenessOffload => Policy::liveness_offload(),
            PolicyPreset::Tuned(id) => sn_runtime::tune::policy_for(id),
            PolicyPreset::FullMemory => Policy::full_memory(),
            PolicyPreset::Superneurons => Policy::superneurons(),
        }
    }

    /// The all-reduce bucket target gang execution should use under this
    /// preset — the tuned value for `Tuned` rungs, the group default
    /// otherwise.
    pub fn bucket_bytes(self) -> u64 {
        match self {
            PolicyPreset::Tuned(id) => sn_runtime::tune::bucket_bytes_for(id),
            _ => sn_runtime::group::DEFAULT_BUCKET_BYTES,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PolicyPreset::Baseline => "baseline",
            PolicyPreset::LivenessOnly => "liveness_only",
            PolicyPreset::LivenessOffload => "liveness_offload",
            PolicyPreset::Tuned(_) => "tuned",
            PolicyPreset::FullMemory => "full_memory",
            PolicyPreset::Superneurons => "superneurons",
        }
    }

    /// The fallback ladder starting at `self`: this preset, then every
    /// memory-stronger *hand* one up to the full `superneurons` stack.
    /// For hand presets this is identical to the historical
    /// "every `ALL` entry ≥ self"; a `Tuned` rung is followed by the hand
    /// presets ranked above its variant position (`FullMemory`,
    /// `Superneurons`) — tuned policies never appear in another preset's
    /// ladder.
    pub fn ladder(self) -> impl Iterator<Item = PolicyPreset> {
        std::iter::once(self).chain(PolicyPreset::ALL.into_iter().filter(move |p| *p > self))
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

    fn fake_tuned(policy: Policy) -> PolicyPreset {
        let id = sn_runtime::tune::register(sn_runtime::TunedPolicy {
            policy,
            bucket_bytes: 4 << 20,
            step_time: sn_sim::SimTime::from_us(10),
            plan_peak_bytes: 1,
            executed_peak_bytes: 1,
            hand_step_time: sn_sim::SimTime::from_us(12),
            hand_name: "superneurons",
            seed: 0,
            evals: 0,
            pruned: 0,
            trace_digest: 0,
        });
        PolicyPreset::Tuned(id)
    }

    #[test]
    fn tuned_rung_sits_between_offload_and_full_memory() {
        let tuned = fake_tuned(Policy::superneurons());
        assert!(tuned > PolicyPreset::LivenessOffload);
        assert!(tuned < PolicyPreset::FullMemory);
        let ladder: Vec<_> = tuned.ladder().collect();
        assert_eq!(
            ladder,
            vec![tuned, PolicyPreset::FullMemory, PolicyPreset::Superneurons]
        );
        assert_eq!(tuned.name(), "tuned");
        assert_eq!(tuned.bucket_bytes(), 4 << 20);
        assert_eq!(
            PolicyPreset::Baseline.bucket_bytes(),
            sn_runtime::group::DEFAULT_BUCKET_BYTES
        );
        // Hand ladders are byte-identical to the historical ones.
        let from_baseline: Vec<_> = PolicyPreset::Baseline.ladder().collect();
        assert_eq!(from_baseline, PolicyPreset::ALL.to_vec());
    }

    #[test]
    fn tuned_policy_resolves_through_the_registry() {
        let p = Policy::full_memory().with_prefetch_depth(16);
        let tuned = fake_tuned(p);
        assert_eq!(tuned.policy(), p);
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
