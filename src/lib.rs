//! # superneurons — facade crate
//!
//! Re-exports the whole workspace under one name, so examples and downstream
//! users can `use superneurons::...` without tracking internal crate
//! boundaries. See the README for the architecture overview.

pub use sn_cluster as cluster;
pub use sn_frameworks as frameworks;
pub use sn_graph as graph;
pub use sn_mempool as mempool;
pub use sn_models as models;
pub use sn_runtime as runtime;
pub use sn_sim as sim;
pub use sn_telemetry as telemetry;
pub use sn_tensor as tensor;

pub use sn_cluster::{ClusterSim, Fleet, JobSpec, PlacementPolicy, PolicyPreset, Workload};
pub use sn_frameworks::Framework;
pub use sn_graph::{Net, Shape4};
pub use sn_runtime::{Executor, Policy, RecomputeMode};
pub use sn_sim::DeviceSpec;
pub use sn_telemetry::{MetricsRegistry, TraceSink};
