//! Host-side dense `f32` tensor.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::shape::Shape4;

/// A dense NCHW `f32` tensor.
///
/// In numeric mode the runtime moves these between the simulated device
/// arena and the host pool; the kernels in this crate operate on slices so
/// they are agnostic to where the bytes "live".
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: Shape4) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.numel()],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Shape4, v: f32) -> Self {
        Tensor {
            shape,
            data: vec![v; shape.numel()],
        }
    }

    /// Deterministic uniform fill in `[-scale, scale]` from a seed.
    pub fn rand_uniform(shape: Shape4, scale: f32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..shape.numel())
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Tensor { shape, data }
    }

    /// Kaiming-style init for a conv/fc weight with `fan_in` inputs.
    pub fn kaiming(shape: Shape4, fan_in: usize, seed: u64) -> Self {
        let scale = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::rand_uniform(shape, scale, seed)
    }

    /// Build from raw data (length must match the shape).
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), shape.numel(), "data length must match shape");
        Tensor { shape, data }
    }

    #[inline]
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.idx(n, c, h, w)]
    }

    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.shape.idx(n, c, h, w);
        self.data[i] = v;
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: Shape4) -> Self {
        assert_eq!(
            self.shape.numel(),
            shape.numel(),
            "reshape must preserve numel"
        );
        self.shape = shape;
        self
    }

    /// Sum of all elements (used by loss reporting and tests).
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Max absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Elementwise `self += alpha * other` (SAXPY).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Largest elementwise absolute difference against another tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let s = Shape4::new(1, 2, 2, 2);
        assert_eq!(Tensor::zeros(s).sum(), 0.0);
        assert_eq!(Tensor::full(s, 0.5).sum(), 4.0);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let s = Shape4::new(2, 3, 4, 4);
        let a = Tensor::rand_uniform(s, 1.0, 42);
        let b = Tensor::rand_uniform(s, 1.0, 42);
        let c = Tensor::rand_uniform(s, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.max_abs() <= 1.0);
    }

    #[test]
    fn indexing_roundtrip() {
        let s = Shape4::new(2, 2, 3, 3);
        let mut t = Tensor::zeros(s);
        t.set(1, 1, 2, 2, 7.5);
        assert_eq!(t.at(1, 1, 2, 2), 7.5);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let s = Shape4::flat(1, 3);
        let mut a = Tensor::from_vec(s, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(s, vec![10.0, 10.0, 10.0]);
        a.axpy(0.1, &b);
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "must match shape")]
    fn from_vec_validates_length() {
        Tensor::from_vec(Shape4::flat(1, 3), vec![0.0; 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1., 2., 3., 4.]);
        let r = t.reshape(Shape4::flat(1, 4));
        assert_eq!(r.data(), &[1., 2., 3., 4.]);
    }
}
