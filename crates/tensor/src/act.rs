//! Activation-family layers: ReLU, cross-channel LRN, and dropout.
//!
//! Dropout uses a *counter-based* mask derived from `(seed, element index)`:
//! the mask is never stored, so when cost-aware recomputation replays a
//! dropout layer in the backward pass it regenerates the identical mask —
//! the property that makes recomputation numerically exact.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// ReLU forward: `y = max(x, 0)`.
pub fn relu_forward(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    out.data_mut().iter_mut().for_each(|v| {
        if *v < 0.0 {
            *v = 0.0;
        }
    });
    out
}

/// ReLU backward: `dx = dy * [x > 0]`.
///
/// Since `y = max(x, 0)`, the mask `[x > 0]` equals `[y > 0]`, so this single
/// kernel serves both the input-formulated scheduling the runtime declares
/// and in-place execution (where the buffer passed is the shared one).
pub fn relu_backward(input_or_output: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(input_or_output.shape(), grad_out.shape());
    let mut gi = grad_out.clone();
    gi.data_mut()
        .iter_mut()
        .zip(input_or_output.data().iter())
        .for_each(|(g, &x)| {
            if x <= 0.0 {
                *g = 0.0;
            }
        });
    gi
}

/// Local response normalization parameters (AlexNet defaults).
#[derive(Debug, Clone, Copy)]
pub struct LrnParams {
    pub local_size: usize,
    pub alpha: f32,
    pub beta: f32,
    pub k: f32,
}

impl Default for LrnParams {
    fn default() -> Self {
        LrnParams {
            local_size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }
}

/// Cross-channel LRN forward:
/// `y = x / (k + alpha/n * sum_{c'∈window} x_{c'}^2)^beta`.
pub fn lrn_forward(input: &Tensor, p: &LrnParams) -> Tensor {
    let s = input.shape();
    let mut out = Tensor::zeros(s);
    let half = p.local_size / 2;
    let hw = s.h * s.w;
    let scale = p.alpha / p.local_size as f32;
    let src = input.data();

    out.data_mut()
        .chunks_mut(s.c * hw)
        .enumerate()
        .for_each(|(n, oimg)| {
            let ibase = n * s.c * hw;
            for c in 0..s.c {
                let lo = c.saturating_sub(half);
                let hi = (c + half).min(s.c - 1);
                for i in 0..hw {
                    let mut sq = 0.0f32;
                    for cc in lo..=hi {
                        let v = src[ibase + cc * hw + i];
                        sq += v * v;
                    }
                    let denom = (p.k + scale * sq).powf(p.beta);
                    oimg[c * hw + i] = src[ibase + c * hw + i] / denom;
                }
            }
        });
    out
}

/// LRN backward, input-formulated: the denominators (and thereby `y`) are
/// re-derived from `x`, so the output tensor need not be kept for backward —
/// the property the runtime's liveness analysis declares.
pub fn lrn_backward(input: &Tensor, grad_out: &Tensor, p: &LrnParams) -> Tensor {
    let s = input.shape();
    assert_eq!(s, grad_out.shape());
    let half = p.local_size / 2;
    let hw = s.h * s.w;
    let scale = p.alpha / p.local_size as f32;
    let x = input.data();
    let dy = grad_out.data();
    let mut gi = Tensor::zeros(s);

    gi.data_mut()
        .chunks_mut(s.c * hw)
        .enumerate()
        .for_each(|(n, gimg)| {
            let base = n * s.c * hw;
            // Recompute the per-position denominators once.
            let mut denom = vec![0.0f32; s.c * hw];
            for c in 0..s.c {
                let lo = c.saturating_sub(half);
                let hi = (c + half).min(s.c - 1);
                for i in 0..hw {
                    let mut sq = 0.0f32;
                    for cc in lo..=hi {
                        let v = x[base + cc * hw + i];
                        sq += v * v;
                    }
                    denom[c * hw + i] = p.k + scale * sq;
                }
            }
            // With y = x / denom^beta:
            // dx_c = dy_c/denom_c^beta
            //      - 2*scale*beta * x_c * Σ_{c'∋c} dy_{c'} x_{c'} / denom_{c'}^{beta+1}
            for c in 0..s.c {
                let lo = c.saturating_sub(half);
                let hi = (c + half).min(s.c - 1);
                for i in 0..hw {
                    let mut acc = 0.0f32;
                    for cc in lo..=hi {
                        let j = cc * hw + i;
                        acc += dy[base + j] * x[base + j] / denom[j].powf(p.beta + 1.0);
                    }
                    let j = c * hw + i;
                    gimg[j] = dy[base + j] / denom[j].powf(p.beta)
                        - 2.0 * scale * p.beta * x[base + j] * acc;
                }
            }
        });
    gi
}

/// Deterministic keep-mask bit for dropout at `(seed, index)`.
#[inline]
fn dropout_keep(seed: u64, index: usize, keep_prob: f32) -> bool {
    // SplitMix64 on (seed ^ index) — a counter-based RNG: stateless, so
    // recomputation regenerates the identical mask.
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32 % 1.0 < keep_prob
}

/// Dropout forward with inverted scaling: kept elements are multiplied by
/// `1/keep_prob` so inference needs no rescale.
pub fn dropout_forward(input: &Tensor, drop_prob: f32, seed: u64) -> Tensor {
    assert!((0.0..1.0).contains(&drop_prob));
    let keep = 1.0 - drop_prob;
    let inv = 1.0 / keep;
    let mut out = input.clone();
    out.data_mut().iter_mut().enumerate().for_each(|(i, v)| {
        if dropout_keep(seed, i, keep) {
            *v *= inv;
        } else {
            *v = 0.0;
        }
    });
    out
}

/// Dropout backward, regenerating the mask from the same `(seed)`.
pub fn dropout_backward(grad_out: &Tensor, drop_prob: f32, seed: u64) -> Tensor {
    let keep = 1.0 - drop_prob;
    let inv = 1.0 / keep;
    let mut gi = grad_out.clone();
    gi.data_mut().iter_mut().enumerate().for_each(|(i, v)| {
        if dropout_keep(seed, i, keep) {
            *v *= inv;
        } else {
            *v = 0.0;
        }
    });
    gi
}

/// Elementwise addition (the ResNet `join`): `y = a + b`.
pub fn eltwise_add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape());
    let mut out = a.clone();
    out.data_mut()
        .iter_mut()
        .zip(b.data().iter())
        .for_each(|(o, &v)| *o += v);
    out
}

/// Deterministic synthetic batch generator — a stand-in for an input
/// pipeline; produces a separable pattern so numeric training can converge.
pub fn synthetic_batch(
    shape: crate::shape::Shape4,
    classes: usize,
    seed: u64,
) -> (Tensor, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = Tensor::zeros(shape);
    let mut labels = Vec::with_capacity(shape.n);
    let fpc = shape.features();
    for n in 0..shape.n {
        let label = rng.gen_range(0..classes);
        labels.push(label);
        for i in 0..fpc {
            // Class-dependent mean + noise: linearly separable-ish.
            let mean = if i % classes == label { 0.8 } else { -0.2 };
            let noise: f32 = rng.gen_range(-0.3..0.3);
            data.data_mut()[n * fpc + i] = mean + noise;
        }
    }
    (data, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(Shape4::flat(1, 4), vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu_forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_by_output() {
        let y = Tensor::from_vec(Shape4::flat(1, 3), vec![0.0, 1.0, 2.0]);
        let dy = Tensor::from_vec(Shape4::flat(1, 3), vec![5.0, 5.0, 5.0]);
        let dx = relu_backward(&y, &dy);
        assert_eq!(dx.data(), &[0.0, 5.0, 5.0]);
    }

    #[test]
    fn lrn_normalizes_and_matches_finite_diff() {
        let p = LrnParams::default();
        let x = Tensor::rand_uniform(Shape4::new(1, 6, 2, 2), 1.0, 9);
        let y = lrn_forward(&x, &p);
        // |y| <= |x| since denom >= k^beta > 1.
        for (xv, yv) in x.data().iter().zip(y.data()) {
            assert!(yv.abs() <= xv.abs() + 1e-6);
        }
        let dy = Tensor::rand_uniform(x.shape(), 1.0, 10);
        let dx = lrn_backward(&x, &dy, &p);
        let loss = |inp: &Tensor| -> f32 {
            lrn_forward(inp, &p)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-2;
        for &i in &[0usize, 5, 11, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "dLRN[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn dropout_mask_is_reproducible() {
        let x = Tensor::rand_uniform(Shape4::flat(4, 100), 1.0, 11);
        let a = dropout_forward(&x, 0.5, 77);
        let b = dropout_forward(&x, 0.5, 77);
        assert_eq!(
            a, b,
            "same seed must give the same mask (recompute exactness)"
        );
        let c = dropout_forward(&x, 0.5, 78);
        assert_ne!(a, c);
    }

    #[test]
    fn dropout_rate_is_approximately_honoured() {
        let x = Tensor::full(Shape4::flat(1, 10_000), 1.0);
        let y = dropout_forward(&x, 0.5, 3);
        let kept = y.data().iter().filter(|v| **v != 0.0).count();
        assert!((4500..5500).contains(&kept), "kept {kept} of 10000");
        // Inverted scaling keeps the expectation.
        assert!((y.sum() / 10_000.0 - 1.0).abs() < 0.1);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let x = Tensor::rand_uniform(Shape4::flat(1, 64), 1.0, 12);
        let y = dropout_forward(&x, 0.3, 99);
        let dy = Tensor::full(x.shape(), 1.0);
        let dx = dropout_backward(&dy, 0.3, 99);
        for (yv, dxv) in y.data().iter().zip(dx.data()) {
            assert_eq!(*yv == 0.0, *dxv == 0.0, "mask must agree fwd/bwd");
        }
    }

    #[test]
    fn eltwise_adds() {
        let a = Tensor::full(Shape4::flat(1, 3), 1.0);
        let b = Tensor::from_vec(Shape4::flat(1, 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(eltwise_add(&a, &b).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn synthetic_batch_is_deterministic() {
        let s = Shape4::new(4, 1, 4, 4);
        let (d1, l1) = synthetic_batch(s, 4, 5);
        let (d2, l2) = synthetic_batch(s, 4, 5);
        assert_eq!(d1, d2);
        assert_eq!(l1, l2);
        assert!(l1.iter().all(|l| *l < 4));
    }
}
