//! Golden iteration digests: the interpreter's simulated outputs, pinned as
//! the plans (`plan_digests.txt`) and the cluster's schedules
//! (`schedule_digests.txt`) are.
//!
//! Each cell builds an executor, runs three iterations, and folds every field
//! of the first two reports — iteration time, peak, PCIe and link bytes,
//! counters, allocator time and calls, stall, stream busy times, overlap,
//! loss — into one digest, pinned in `tests/golden/iteration_digests.txt`.
//! An iteration is a pure function of the executor's build, so the three
//! reports must be identical: there is no cold iteration to discard.
//! The cells are the paper's Table 4/5 regime and the `train_exec`
//! benchmark's: deep ResNets under every recomputation mode on the 12 GB
//! K40c, a memory-bound VGG16, a forward-only serving executor, and a
//! 4-replica PCIe gang, whose digest also covers the gang's own fields. A
//! moved digest means the interpreter moved a simulated number; the test
//! prints each changed cell's two reports under `--nocapture`. Never
//! regenerate the file to make a change pass.
//!
//! `tests/golden/step_digests.txt` pins what the interpreter samples a step
//! and where its copies land: per cell, the cold and the warm iteration's
//! step records (resident bytes, live tensors, free bytes, completion
//! time) and each host tier's high water, per replica for the gang. Its
//! cells are the seven above plus four that put the Unified Tensor Pool's
//! other paths under load: VGG16 spilling from a 1 GiB local host tier to a
//! peer GPU and to a remote pool, the `cudaMalloc` allocator at a cap where
//! the Tensor Cache evicts, and synchronous copies.
//!
//! `tests/golden/backend_digests.txt` pins what a compute backend is told:
//! per iteration cell, the sequence of `forward`, `backward`, `drop_output`
//! and `drop_grad` calls, with their layers, over a cold and a warm
//! iteration. A value read after its `Free` still reads fine in the numeric
//! backend, so only this digest sees a drop the interpreter swallowed. A
//! gang takes no backend: its cell runs the gang's net on one card.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use sn_graph::{LayerId, Net};
use sn_models as models;
use sn_runtime::{
    ComputeBackend, ExecError, Executor, GroupConfig, GroupExecutor, Interconnect, Policy,
    RecomputeMode, TierConfig,
};
use sn_sim::spec::GB;
use sn_sim::DeviceSpec;

/// What a cell runs its two iterations on.
enum Run {
    Training,
    Inference,
    Gang(usize),
}

struct Cell {
    label: &'static str,
    net: Net,
    spec: DeviceSpec,
    policy: Policy,
    run: Run,
}

fn cells() -> Vec<Cell> {
    let k40 = DeviceSpec::k40c();
    let recompute = |mode| Policy {
        recompute: mode,
        ..Policy::superneurons()
    };
    let cell = |label, net, spec: &DeviceSpec, policy, run| Cell {
        label,
        net,
        spec: spec.clone(),
        policy,
        run,
    };
    vec![
        cell(
            "resnet1000/b16 superneurons",
            models::resnet_depth(16, 1000),
            &k40,
            Policy::superneurons(),
            Run::Training,
        ),
        cell(
            "resnet1920/b16 superneurons",
            models::resnet_depth(16, 1920),
            &k40,
            Policy::superneurons(),
            Run::Training,
        ),
        cell(
            "resnet1000/b16 speed_centric",
            models::resnet_depth(16, 1000),
            &k40,
            recompute(RecomputeMode::SpeedCentric),
            Run::Training,
        ),
        cell(
            "resnet1000/b16 memory_centric",
            models::resnet_depth(16, 1000),
            &k40,
            recompute(RecomputeMode::MemoryCentric),
            Run::Training,
        ),
        cell(
            "vgg16/b64@4GB superneurons",
            models::vgg16(64),
            &k40.clone().with_dram(4 * GB),
            Policy::superneurons(),
            Run::Training,
        ),
        cell(
            "resnet101/b32 inference superneurons",
            models::resnet101(32),
            &k40,
            Policy::superneurons(),
            Run::Inference,
        ),
        cell(
            "resnet50/b32 pcie-gang4 superneurons",
            models::resnet50(32),
            &k40,
            Policy::superneurons(),
            Run::Gang(4),
        ),
    ]
}

/// A cell's first three reports, in their `Debug` form: every field, by
/// construction.
fn reports(cell: &Cell) -> Result<[String; 3], ExecError> {
    let (spec, policy) = (cell.spec.clone(), cell.policy);
    Ok(match cell.run {
        Run::Training | Run::Inference => {
            let mut ex = match cell.run {
                Run::Training => Executor::new(&cell.net, spec, policy)?,
                _ => Executor::new_inference(&cell.net, spec, policy)?,
            };
            let mut next = || ex.run_iteration().map(|r| format!("{r:?}"));
            [next()?, next()?, next()?]
        }
        Run::Gang(replicas) => {
            let cfg = GroupConfig::new(replicas, Interconnect::pcie());
            let mut gx = GroupExecutor::new(&cell.net, spec, policy, cfg)?;
            let mut next = || gx.run_iteration().map(|r| format!("{r:?}"));
            [next()?, next()?, next()?]
        }
    })
}

/// The digest of a cell's first two reports.
fn digest(reports: &[String]) -> String {
    let mut h = fxhash::FxHasher::default();
    reports.hash(&mut h);
    format!("{:016x}", h.finish())
}

#[test]
fn iterations_match_their_golden_digests() {
    let golden = include_str!("golden/iteration_digests.txt");
    let cells = cells();
    assert_eq!(golden.lines().count(), cells.len());
    let mut changed = Vec::new();
    for (cell, want) in cells.iter().zip(golden.lines()) {
        let reports = reports(cell).unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        let got = format!("{} {}", cell.label, digest(&reports[..2]));
        if got != want {
            println!("{got}\n  first {}\n  second {}", reports[0], reports[1]);
            changed.push(cell.label);
        }
        assert_eq!(reports[1], reports[0], "{}: iteration 2 moved", cell.label);
        assert_eq!(reports[2], reports[1], "{}: iteration 3 moved", cell.label);
    }
    assert!(
        changed.is_empty(),
        "iterations changed (reports on stdout): {changed:?}"
    );
}

/// The iteration cells, then four that spill, evict under `cudaMalloc` and
/// copy synchronously.
fn step_cells() -> Vec<Cell> {
    let at_4gb = DeviceSpec::k40c().with_dram(4 * GB);
    let spill = |label, tiers| Cell {
        label,
        net: models::vgg16(48),
        spec: at_4gb.clone(),
        policy: Policy {
            tiers,
            ..Policy::superneurons_no_cache()
        },
        run: Run::Training,
    };
    let mut cells = cells();
    cells.extend([
        spill(
            "vgg16/b48@4GB no_cache peer-spill",
            TierConfig::full(8 * GB, GB, 0),
        ),
        spill(
            "vgg16/b48@4GB no_cache remote-spill",
            TierConfig::full(0, GB, 64 * GB),
        ),
        Cell {
            label: "vgg16/b64@4GB cuda_alloc",
            net: models::vgg16(64),
            spec: at_4gb.clone(),
            policy: Policy::superneurons_cuda_alloc(),
            run: Run::Training,
        },
        Cell {
            label: "vgg16/b32@4GB liveness_offload synchronous",
            net: models::vgg16(32),
            spec: at_4gb,
            policy: Policy::liveness_offload().synchronous(),
            run: Run::Training,
        },
    ]);
    cells
}

/// Folds an executor's last step records and its host tiers' high water.
fn fold_steps(ex: &Executor<'_>, h: &mut impl Hasher) {
    for r in ex.step_records() {
        let sampled = (r.resident_bytes, r.live_tensors, r.free_bytes);
        (sampled, r.completed_at.as_ns()).hash(h);
    }
    ex.host_high_water().hash(h);
}

/// A cell's cold and warm step digest.
fn step_digest(cell: &Cell) -> Result<String, ExecError> {
    let (spec, policy) = (cell.spec.clone(), cell.policy);
    let mut h = fxhash::FxHasher::default();
    match cell.run {
        Run::Training | Run::Inference => {
            let mut ex = match cell.run {
                Run::Training => Executor::new(&cell.net, spec, policy)?,
                _ => Executor::new_inference(&cell.net, spec, policy)?,
            };
            for _ in ["cold", "warm"] {
                ex.run_iteration()?;
                fold_steps(&ex, &mut h);
            }
        }
        Run::Gang(replicas) => {
            let cfg = GroupConfig::new(replicas, Interconnect::pcie());
            let mut gx = GroupExecutor::new(&cell.net, spec, policy, cfg)?;
            for _ in ["cold", "warm"] {
                gx.run_iteration()?;
                for i in 0..gx.replicas() {
                    fold_steps(gx.replica(i), &mut h);
                }
            }
        }
    }
    Ok(format!("{} {:016x}", cell.label, h.finish()))
}

#[test]
fn steps_match_their_golden_digests() {
    let golden = include_str!("golden/step_digests.txt");
    let cells = step_cells();
    assert_eq!(golden.lines().count(), cells.len());
    let mut changed = Vec::new();
    for (cell, want) in cells.iter().zip(golden.lines()) {
        let got = step_digest(cell).unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        if got != want {
            println!("{got} (golden: {want})");
            changed.push(cell.label);
        }
    }
    assert!(changed.is_empty(), "step records changed: {changed:?}");
}

/// A backend that computes nothing and folds every call it is told of,
/// with its layer, into a digest it shares with the test.
struct Recorder(Rc<RefCell<fxhash::FxHasher>>);

impl Recorder {
    fn call(&self, kind: u8, layer: LayerId) {
        (kind, layer.0).hash(&mut *self.0.borrow_mut());
    }
}

impl ComputeBackend for Recorder {
    fn begin_iteration(&mut self, iter: u64) {
        (0u8, iter).hash(&mut *self.0.borrow_mut());
    }

    fn forward(&mut self, layer: LayerId) {
        self.call(1, layer);
    }

    fn backward(&mut self, layer: LayerId) {
        self.call(2, layer);
    }

    fn drop_output(&mut self, layer: LayerId) {
        self.call(3, layer);
    }

    fn drop_grad(&mut self, layer: LayerId) {
        self.call(4, layer);
    }
}

/// A cell's backend calls over a cold and a warm iteration; a gang cell's
/// net runs on one card.
fn backend_digest(cell: &Cell) -> Result<String, ExecError> {
    let (spec, policy) = (cell.spec.clone(), cell.policy);
    let h = Rc::new(RefCell::new(fxhash::FxHasher::default()));
    let ex = match cell.run {
        Run::Inference => Executor::new_inference(&cell.net, spec, policy)?,
        Run::Training | Run::Gang(_) => Executor::new(&cell.net, spec, policy)?,
    };
    let mut ex = ex.with_backend(Box::new(Recorder(h.clone())));
    for _ in ["cold", "warm"] {
        ex.run_iteration()?;
    }
    let digest = h.borrow().finish();
    Ok(format!("{} {digest:016x}", cell.label))
}

#[test]
fn backend_calls_match_their_golden_digests() {
    let golden = include_str!("golden/backend_digests.txt");
    let cells = cells();
    assert_eq!(golden.lines().count(), cells.len());
    let mut changed = Vec::new();
    for (cell, want) in cells.iter().zip(golden.lines()) {
        let got = backend_digest(cell).unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        if got != want {
            println!("{got} (golden: {want})");
            changed.push(cell.label);
        }
    }
    assert!(changed.is_empty(), "backend calls changed: {changed:?}");
}
