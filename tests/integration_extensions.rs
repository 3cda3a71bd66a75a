//! Integration tests for the extension subsystems: the Fig.-7 UTP tiers,
//! alternative cache replacement policies, and data-parallel sessions —
//! each composed with the full runtime stack.

use superneurons::runtime::{
    CachePolicy, Executor, GroupConfig, GroupExecutor, Interconnect, Policy, TierConfig,
};
use superneurons::DeviceSpec;

/// Constraining the local host tier makes offload spill to the other Fig.-7
/// pools; every tier configuration trains and the spill ordering follows
/// placement priority (peer first, then remote).
#[test]
fn utp_tiers_absorb_offload_spill() {
    let spec = DeviceSpec::k40c().with_dram(4 << 30);
    let run = |tiers: TierConfig| {
        let net = superneurons::models::vgg16(48);
        let pol = Policy {
            tiers,
            ..Policy::superneurons_no_cache()
        };
        let mut ex = Executor::new(&net, spec.clone(), pol).unwrap();
        ex.run_iteration().unwrap();
        let r = ex.run_iteration().unwrap();
        let hw = ex.host_high_water();
        (r, hw)
    };

    // Single local tier (the paper's configuration): everything lands there.
    let (_, (p, l, rm)) = run(TierConfig::local_only(256 << 30));
    assert_eq!(p, 0);
    assert!(l > 1 << 30, "VGG16@48 offloads > 1 GiB: {l}");
    assert_eq!(rm, 0);

    // 1 GiB local + peer: peer (fastest) absorbs everything first.
    let (_, (p, l, rm)) = run(TierConfig::full(8 << 30, 1 << 30, 0));
    assert!(p > 0, "peer tier must be used");
    assert!(l <= 1 << 30);
    assert_eq!(rm, 0);

    // 1 GiB local + remote: local fills, remote takes the spill.
    let (r_remote, (p, l, rm)) = run(TierConfig::full(0, 1 << 30, 64 << 30));
    assert_eq!(p, 0);
    assert!(l <= 1 << 30);
    assert!(rm > 0, "remote tier must take the spill");

    // The remote-heavy configuration is the slowest (6 GB/s links).
    let (r_peer, _) = run(TierConfig::full(8 << 30, 1 << 30, 0));
    assert!(
        r_peer.iter_time <= r_remote.iter_time,
        "peer tier (10 GB/s) must not be slower than remote (6 GB/s)"
    );
}

/// All three replacement policies complete under pressure, move comparable
/// data, and never break capacity; MRU (adversarial for this access
/// pattern) must not beat LRU.
#[test]
fn cache_policies_complete_under_pressure() {
    let spec = DeviceSpec::k40c().with_dram(2 << 30);
    let mut times = Vec::new();
    for cp in [CachePolicy::Lru, CachePolicy::Fifo, CachePolicy::Mru] {
        let net = superneurons::models::alexnet(448);
        let pol = Policy {
            cache_policy: cp,
            ..Policy::superneurons()
        };
        let mut ex = Executor::new(&net, spec.clone(), pol).unwrap();
        ex.run_iteration().unwrap();
        let r = ex.run_iteration().unwrap();
        assert!(r.peak_bytes <= spec.dram_bytes);
        assert!(r.counters.evictions > 0, "{cp:?} must face pressure");
        times.push((cp, r.iter_time));
    }
    let t = |want: CachePolicy| times.iter().find(|(c, _)| *c == want).unwrap().1;
    assert!(
        t(CachePolicy::Lru) <= t(CachePolicy::Mru),
        "LRU must not lose to the adversarial MRU ordering"
    );
}

/// Data-parallel composition: throughput grows with GPUs, efficiency decays
/// without overlap and recovers with it, and per-replica memory behaviour
/// is unchanged.
#[test]
fn data_parallel_scales_and_preserves_replica_memory() {
    const BATCH: usize = 16;
    let net = superneurons::models::resnet50(BATCH);
    let run = |cfg: GroupConfig| {
        let mut gx =
            GroupExecutor::new(&net, DeviceSpec::titan_xp(), Policy::superneurons(), cfg).unwrap();
        gx.run_iteration().unwrap(); // warm-up
        gx.run_iteration().unwrap()
    };
    let r1 = run(GroupConfig::new(1, Interconnect::pcie()));
    let r8 = run(GroupConfig::new(8, Interconnect::pcie()).serialized());
    let r8o = run(GroupConfig::new(8, Interconnect::pcie()));
    let (one, eight, eight_overlapped) = (
        r1.imgs_per_sec(BATCH),
        r8.imgs_per_sec(BATCH),
        r8o.imgs_per_sec(BATCH),
    );
    assert!(eight > 4.0 * one, "8 GPUs must beat 4x one GPU");
    assert!(eight < 8.0 * one, "scaling efficiency stays below 1");
    assert!(eight_overlapped >= eight, "overlap never loses");
    assert_eq!(
        r1.replica.peak_bytes, r8.replica.peak_bytes,
        "replica memory is independent of scale"
    );
}
