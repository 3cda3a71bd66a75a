//! Deterministic synthetic job streams for experiments, benches, and tests.
//!
//! Two layers live here. The original materialized generators
//! ([`synthetic_stream`] / [`mixed_serving_stream`]) use a bare LCG rather
//! than an RNG crate so the stream is a pure, stable function of
//! `(n, seed)` — the determinism tests depend on that. On top of them sits
//! [`ArrivalStream`], the pull interface the indexed event loop consumes:
//! arrivals are generated one at a time, never collected, so an hour of
//! simulated traffic at 10^6+ jobs costs O(1) memory instead of a
//! million-element vector. [`PoissonStream`] is the open-loop generator
//! (seeded exponential inter-arrival gaps over the rand shim);
//! [`ReplayStream`] feeds any recorded trace — including the materialized
//! streams above — through the same interface.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sn_sim::SimTime;

use crate::job::{JobKind, JobSpec, PolicyPreset, Workload};

/// Split-mix style step; good enough spread for workload mixing.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A reproducible stream of `n` jobs arriving over time: mixed synthetic
/// workloads (varying width/depth/batch), mostly single-replica with
/// occasional 2- and 4-replica gangs, all requesting `preset`.
pub fn synthetic_stream(
    n: usize,
    seed: u64,
    preset: PolicyPreset,
    allow_downgrade: bool,
) -> Vec<(SimTime, JobSpec)> {
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    let mut t_ns = 0u64;
    (0..n)
        .map(|i| {
            let width = 8 + 8 * (next(&mut state) % 4) as usize; // 8..=32
            let depth = 2 + (next(&mut state) % 4) as usize; // 2..=5
            let batch = 8 << (next(&mut state) % 3) as usize; // 8/16/32
            let replicas = match next(&mut state) % 10 {
                0 => 4,
                1 | 2 => 2,
                _ => 1,
            };
            let iterations = 3 + (next(&mut state) % 8) as u32; // 3..=10
                                                                // Bursty arrivals: mean ~1 ms apart, occasionally back-to-back.
            t_ns += (next(&mut state) % 2_000_000) * (next(&mut state) % 2);
            let job = JobSpec::new(
                format!("job{i:04}"),
                Workload::Synthetic { width, depth },
                batch,
            )
            .with_iterations(iterations)
            .with_replicas(replicas)
            .with_preset(preset)
            .with_downgrade(allow_downgrade);
            (SimTime(t_ns), job)
        })
        .collect()
}

/// The mixed training + inference serving preset: a reproducible stream in
/// which roughly one job in three is a forward-only serving job (more
/// batches, smaller reservations) co-scheduled against training tenants.
/// Because admission reserves each job's **exact plan peak**, inference
/// replicas slot into the memory training jobs leave unreserved — the
/// co-location the ISSUE-3 tentpole opens.
pub fn mixed_serving_stream(
    n: usize,
    seed: u64,
    preset: PolicyPreset,
    allow_downgrade: bool,
) -> Vec<(SimTime, JobSpec)> {
    let mut state = seed ^ 0xa0761d6478bd642f;
    synthetic_stream(n, seed, preset, allow_downgrade)
        .into_iter()
        .map(|(t, job)| {
            if next(&mut state).is_multiple_of(3) {
                // Serving jobs run more, cheaper "iterations" (batches).
                let batches = job.iterations * 4;
                (t, job.inference().with_iterations(batches))
            } else {
                (t, job)
            }
        })
        .collect()
}

/// A pull-based arrival source for the indexed event loop.
///
/// The loop pulls one arrival ahead of the clock — arrivals are never
/// materialized, so stream length does not bound memory. Implementations
/// must be deterministic for reproducible runs (seed them explicitly).
pub trait ArrivalStream {
    /// The next `(arrival_time, spec)` pair, or `None` once the stream has
    /// ended. Times should be **non-decreasing**. One that is not — earlier
    /// than its predecessor's, so already in the simulator's past when it
    /// is pulled — is taken at the simulator's current instant: the job
    /// arrives then, and its latency and queueing time count from then. The
    /// same in debug and release builds; the clock never runs backwards.
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)>;
}

/// Replays a recorded arrival trace through the [`ArrivalStream`]
/// interface. This is how the materialized generators ([`synthetic_stream`]
/// and friends) feed the event core, and how a streaming run replays the
/// arrivals a materialized one saw.
pub struct ReplayStream {
    trace: std::vec::IntoIter<(SimTime, JobSpec)>,
}

impl ReplayStream {
    /// `trace` must already be sorted by arrival time (ties keep order).
    pub fn new(trace: Vec<(SimTime, JobSpec)>) -> ReplayStream {
        debug_assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
        ReplayStream {
            trace: trace.into_iter(),
        }
    }
}

impl ArrivalStream for ReplayStream {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        self.trace.next()
    }
}

/// Open-loop Poisson arrivals: exponential inter-arrival gaps around a mean,
/// jobs drawn from a small fixed template mix. Deterministic per seed (the
/// rand shim's `SmallRng` is a pure function of its seed), O(1) state, and
/// deliberately *template-bounded*: a serving fleet sees a stable catalog of
/// model shapes, so the run's rows of admission answers saturate after the
/// first few arrivals and the loop measures scheduling, not plan compilation.
pub struct PoissonStream {
    rng: SmallRng,
    remaining: u64,
    t_ns: u64,
    mean_gap_ns: f64,
    templates: Vec<JobSpec>,
    seq: u64,
}

impl PoissonStream {
    /// `n` jobs at exponential gaps averaging `mean_gap`; the template mix
    /// requests `preset` (downgrades allowed) and serves roughly one
    /// forward-only inference job in three.
    pub fn new(n: u64, seed: u64, mean_gap: SimTime, preset: PolicyPreset) -> PoissonStream {
        let mut templates = Vec::new();
        for (width, depth, batch, replicas) in [
            (8, 2, 8, 1),
            (16, 3, 16, 1),
            (24, 4, 16, 2),
            (32, 2, 32, 1),
            (16, 5, 8, 1),
            (8, 3, 32, 4),
        ] {
            templates.push(
                JobSpec::new("tmpl", Workload::Synthetic { width, depth }, batch)
                    .with_replicas(replicas)
                    .with_preset(preset)
                    .with_downgrade(true),
            );
        }
        // Two serving shapes: forward-only, more (cheaper) iterations.
        for (width, depth, batch) in [(16, 3, 16), (32, 2, 8)] {
            templates.push(
                JobSpec::new("tmpl", Workload::Synthetic { width, depth }, batch)
                    .with_kind(JobKind::Inference)
                    .with_iterations(24)
                    .with_preset(preset)
                    .with_downgrade(true),
            );
        }
        PoissonStream {
            rng: SmallRng::seed_from_u64(seed ^ 0x005e_edab_1e0f_u64),
            remaining: n,
            t_ns: 0,
            mean_gap_ns: mean_gap.0 as f64,
            templates,
            seq: 0,
        }
    }
}

impl ArrivalStream for PoissonStream {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Inverse-CDF exponential gap; u ∈ [0, 1) keeps ln finite.
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let gap = -(1.0 - u).ln() * self.mean_gap_ns;
        self.t_ns = self.t_ns.saturating_add(gap as u64);
        let which = self.rng.gen_range(0usize..self.templates.len());
        let iterations = self.rng.gen_range(3u32..=10);
        let mut job = self.templates[which].clone();
        job.name = format!("pj{:07}", self.seq);
        if job.kind == JobKind::Training {
            job.iterations = iterations;
        }
        self.seq += 1;
        Some((SimTime(self.t_ns), job))
    }
}

/// Drain a stream into a vector — for tests and for feeding
/// [`crate::ClusterSim::run`] (which wants materialized arrivals) the exact
/// jobs a streaming run would see. Not for million-event runs, obviously.
pub fn collect_stream(stream: &mut dyn ArrivalStream) -> Vec<(SimTime, JobSpec)> {
    let mut out = Vec::new();
    while let Some(a) = stream.next_job() {
        out.push(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    #[test]
    fn stream_is_deterministic_and_ordered() {
        let a = synthetic_stream(50, 7, PolicyPreset::Superneurons, true);
        let b = synthetic_stream(50, 7, PolicyPreset::Superneurons, true);
        assert_eq!(a.len(), 50);
        for ((ta, ja), (tb, jb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ja.name, jb.name);
            assert_eq!(ja.workload, jb.workload);
            assert_eq!(ja.batch, jb.batch);
            assert_eq!(ja.replicas, jb.replicas);
        }
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals sorted");
    }

    #[test]
    fn mixed_stream_contains_both_kinds_deterministically() {
        let a = mixed_serving_stream(60, 4, PolicyPreset::Superneurons, true);
        let b = mixed_serving_stream(60, 4, PolicyPreset::Superneurons, true);
        for ((ta, ja), (tb, jb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(ja.kind, jb.kind);
        }
        let inf = a
            .iter()
            .filter(|(_, j)| j.kind == JobKind::Inference)
            .count();
        assert!(inf > 0, "stream must carry serving jobs");
        assert!(inf < a.len(), "stream must carry training jobs");
    }

    #[test]
    fn replay_stream_yields_the_trace_in_order() {
        let trace = synthetic_stream(25, 9, PolicyPreset::Superneurons, true);
        let mut s = ReplayStream::new(trace.clone());
        let drained = collect_stream(&mut s);
        assert_eq!(drained.len(), trace.len());
        for ((ta, ja), (tb, jb)) in drained.iter().zip(&trace) {
            assert_eq!(ta, tb);
            assert_eq!(ja.name, jb.name);
        }
        assert!(s.next_job().is_none(), "stream stays exhausted");
    }

    #[test]
    fn poisson_stream_is_deterministic_and_nondecreasing() {
        let mut a = PoissonStream::new(500, 11, SimTime::from_us(200), PolicyPreset::Superneurons);
        let mut b = PoissonStream::new(500, 11, SimTime::from_us(200), PolicyPreset::Superneurons);
        let va = collect_stream(&mut a);
        let vb = collect_stream(&mut b);
        assert_eq!(va.len(), 500);
        assert!(va.windows(2).all(|w| w[0].0 <= w[1].0), "non-decreasing");
        for ((ta, ja), (tb, jb)) in va.iter().zip(&vb) {
            assert_eq!(ta, tb);
            assert_eq!(ja.name, jb.name);
            assert_eq!(ja.workload, jb.workload);
            assert_eq!(ja.iterations, jb.iterations);
        }
        // The mean gap should land in the right ballpark (±50% is plenty
        // for 500 exponential samples — this guards unit mix-ups, not
        // statistics).
        let span = va.last().unwrap().0 .0 as f64;
        let mean = span / 499.0;
        assert!(
            (100_000.0..400_000.0).contains(&mean),
            "mean gap {mean} ns vs requested 200_000"
        );
        let kinds: std::collections::HashSet<_> = va.iter().map(|(_, j)| j.kind).collect();
        assert_eq!(kinds.len(), 2, "mix carries training and inference");
    }

    #[test]
    fn poisson_templates_bound_the_profile_space() {
        let mut s = PoissonStream::new(200, 3, SimTime::from_us(100), PolicyPreset::Superneurons);
        let shapes: std::collections::HashSet<_> = collect_stream(&mut s)
            .into_iter()
            .map(|(_, j)| (j.workload, j.batch, j.replicas, j.kind))
            .collect();
        assert!(
            shapes.len() <= 8,
            "template mix must stay small, got {}",
            shapes.len()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic_stream(20, 1, PolicyPreset::Superneurons, true);
        let b = synthetic_stream(20, 2, PolicyPreset::Superneurons, true);
        assert!(
            a.iter()
                .zip(&b)
                .any(|((_, ja), (_, jb))| ja.workload != jb.workload || ja.batch != jb.batch),
            "seeds must shape the stream"
        );
    }
}
