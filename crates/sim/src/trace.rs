//! Step-level execution traces.
//!
//! Fig. 10 of the paper plots, for every forward/backward step of an AlexNet
//! iteration, the bytes resident on the device and the number of live
//! tensors. The executor samples both at every step and hands out one
//! [`StepRecord`] per step, collected into a [`StepTrace`], when asked; the
//! experiment harness prints the same two series.

use std::sync::Arc;

use crate::time::SimTime;

/// Which half of the iteration a step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Forward,
    Backward,
}

/// One execution step (one layer's forward or backward computation).
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// 1-based step index within the iteration (1..=2N).
    pub step: usize,
    /// Layer name, e.g. `CONV2` or `POOL5`. Shared with the executor's
    /// interned copy of the net's names; the executor stores no name per
    /// step — the record is built from the plan when the trace is read.
    pub layer: Arc<str>,
    /// Forward or backward half.
    pub phase: Phase,
    /// Device bytes resident *during* this step's computation (the quantity
    /// whose maximum is `peak_m`).
    pub resident_bytes: u64,
    /// Number of live (device-resident) tensors during the step — the
    /// runtime's residency counter read at the kernel submit, so recording
    /// it costs the same at any net depth.
    pub live_tensors: usize,
    /// Free device bytes available for convolution workspace at this step.
    pub free_bytes: u64,
    /// Virtual time when the step's computation completed.
    pub completed_at: SimTime,
}

/// A whole iteration's trace.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    pub records: Vec<StepRecord>,
}

impl StepTrace {
    /// Peak resident bytes over the iteration — `peak_m`.
    pub fn peak_bytes(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.resident_bytes)
            .max()
            .unwrap_or(0)
    }

    /// The step achieving the peak (first if several tie).
    pub fn peak_step(&self) -> Option<&StepRecord> {
        let peak = self.peak_bytes();
        self.records.iter().find(|r| r.resident_bytes == peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: usize, layer: &str, phase: Phase, bytes: u64, live: usize) -> StepRecord {
        StepRecord {
            step,
            layer: layer.into(),
            phase,
            resident_bytes: bytes,
            live_tensors: live,
            free_bytes: 0,
            completed_at: SimTime::ZERO,
        }
    }

    #[test]
    fn peak_detection() {
        let mut t = StepTrace::default();
        t.records.push(rec(1, "CONV1", Phase::Forward, 100, 2));
        t.records.push(rec(2, "POOL1", Phase::Forward, 300, 5));
        t.records.push(rec(3, "POOL1", Phase::Backward, 250, 4));
        assert_eq!(t.peak_bytes(), 300);
        assert_eq!(&*t.peak_step().unwrap().layer, "POOL1");
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = StepTrace::default();
        assert_eq!(t.peak_bytes(), 0);
        assert!(t.peak_step().is_none());
    }
}
