//! Seeded-determinism contract of the policy autotuner: the same seed
//! produces bit-identical search traces and chosen policies regardless of
//! the `par_map` worker count the feasibility batches fan out over. This is
//! what makes a [`sn_runtime::TunedPolicy`] a *name* (reproducible from its
//! key) rather than a measurement artifact.

use proptest::prelude::*;
use sn_graph::{Net, Shape4};
use sn_runtime::tune::{search, TuneConfig};
use sn_runtime::Interconnect;
use sn_sim::DeviceSpec;

fn tower(width: usize, depth: usize, batch: usize) -> Net {
    let mut net = Net::new("tower", Shape4::new(batch, 3, 32, 32));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Same seed ⇒ identical `TunedPolicy` (every field, including the
    // trace digest) and identical rendered trace, across worker counts —
    // including counts far above this machine's hardware parallelism.
    #[test]
    fn same_seed_is_identical_across_worker_counts(
        seed in 0u64..1_000_000,
        width in 8usize..24,
        depth in 2usize..5,
        replicas in 1usize..3,
    ) {
        let net = tower(width, depth, 8);
        let spec = DeviceSpec::k40c();
        let cfg = TuneConfig::new(replicas, Interconnect::pcie())
            .with_seed(seed)
            .with_samples(8);
        let reference = search(&net, &spec, &cfg.with_workers(1)).unwrap();
        for workers in [2, 7, 64] {
            let o = search(&net, &spec, &cfg.with_workers(workers)).unwrap();
            prop_assert_eq!(&o.tuned, &reference.tuned, "workers={}", workers);
            prop_assert_eq!(&o.trace, &reference.trace, "workers={}", workers);
        }
        // The winner honours the gates the bench enforces fleet-wide.
        prop_assert!(reference.tuned.step_time <= reference.tuned.hand_step_time);
        prop_assert_eq!(
            reference.tuned.plan_peak_bytes,
            reference.tuned.executed_peak_bytes
        );
        prop_assert!(reference.tuned.policy.validate().is_ok());
    }
}
