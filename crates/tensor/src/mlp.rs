//! Transformer MLP block: two fully-connected layers with a ReLU between,
//! applied independently at every sequence position.
//!
//! Weights are packed `[W1 (hidden×d), W2 (d×hidden)]` row-major `[out, in]`,
//! biases `[b1 (hidden), b2 (d)]`. Backward re-derives the hidden
//! pre-activation from the input (input-formulated), like the other
//! transformer kernels.

use crate::attention::{from_pos_major, to_pos_major};
use crate::gemm::{sgemm, sgemm_at, sgemm_bt};
use crate::tensor::Tensor;

/// Hidden pre-activation for one batch item: `xp·W1ᵀ + b1`, `[S, hidden]`.
fn hidden_pre(
    xp: &[f32],
    weight: &[f32],
    bias: &[f32],
    hidden: usize,
    d: usize,
    s: usize,
) -> Vec<f32> {
    let mut h = vec![0.0f32; s * hidden];
    sgemm_bt(s, hidden, d, 1.0, xp, &weight[0..hidden * d], 0.0, &mut h);
    for row in h.chunks_mut(hidden) {
        for (v, b) in row.iter_mut().zip(&bias[0..hidden]) {
            *v += b;
        }
    }
    h
}

/// MLP forward: `y = relu(x·W1ᵀ + b1)·W2ᵀ + b2`, shape-preserving.
pub fn mlp_forward(input: &Tensor, weight: &[f32], bias: &[f32], hidden: usize) -> Tensor {
    let sh = input.shape();
    let (d, s) = (sh.c, sh.h * sh.w);
    assert_eq!(weight.len(), 2 * hidden * d);
    assert_eq!(bias.len(), hidden + d);
    let mut out = Tensor::zeros(sh);
    for n in 0..sh.n {
        let xp = to_pos_major(input.data(), n, d, s);
        let mut h = hidden_pre(&xp, weight, bias, hidden, d, s);
        h.iter_mut().for_each(|v| *v = v.max(0.0));
        let mut y = vec![0.0f32; s * d];
        sgemm_bt(s, d, hidden, 1.0, &h, &weight[hidden * d..], 0.0, &mut y);
        for row in y.chunks_mut(d) {
            for (v, b) in row.iter_mut().zip(&bias[hidden..]) {
                *v += b;
            }
        }
        from_pos_major(&y, out.data_mut(), n, d, s);
    }
    out
}

/// MLP backward: returns `(grad_input, grad_weight, grad_bias)` in the same
/// packed layouts as the forward arguments.
pub fn mlp_backward(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    grad_out: &Tensor,
    hidden: usize,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let sh = input.shape();
    assert_eq!(sh, grad_out.shape());
    let (d, s) = (sh.c, sh.h * sh.w);
    let hd = hidden * d;
    let mut gi = Tensor::zeros(sh);
    let mut dw = vec![0.0f32; 2 * hd];
    let mut db = vec![0.0f32; hidden + d];
    for n in 0..sh.n {
        let xp = to_pos_major(input.data(), n, d, s);
        let g = to_pos_major(grad_out.data(), n, d, s);
        let hpre = hidden_pre(&xp, weight, bias, hidden, d, s);
        let h: Vec<f32> = hpre.iter().map(|v| v.max(0.0)).collect();

        // Second FC: dW2 += gᵀ·h, db2 += col-sums, dh = g·W2, masked by relu.
        sgemm_at(d, hidden, s, 1.0, &g, &h, 1.0, &mut dw[hd..]);
        for row in g.chunks(d) {
            for (acc, &v) in db[hidden..].iter_mut().zip(row) {
                *acc += v;
            }
        }
        let mut dh = vec![0.0f32; s * hidden];
        sgemm(s, hidden, d, 1.0, &g, &weight[hd..], 0.0, &mut dh);
        for (dv, &pre) in dh.iter_mut().zip(&hpre) {
            if pre <= 0.0 {
                *dv = 0.0;
            }
        }

        // First FC.
        sgemm_at(hidden, d, s, 1.0, &dh, &xp, 1.0, &mut dw[0..hd]);
        for row in dh.chunks(hidden) {
            for (acc, &v) in db[0..hidden].iter_mut().zip(row) {
                *acc += v;
            }
        }
        let mut dxp = vec![0.0f32; s * d];
        sgemm(s, d, hidden, 1.0, &dh, &weight[0..hd], 0.0, &mut dxp);
        from_pos_major(&dxp, gi.data_mut(), n, d, s);
    }
    (gi, dw, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    #[test]
    fn backward_matches_finite_differences() {
        let (d, s, hidden) = (3usize, 4usize, 5usize);
        let x = Tensor::rand_uniform(Shape4::new(2, d, s, 1), 1.0, 51);
        let w: Vec<f32> = Tensor::rand_uniform(Shape4::flat(2 * hidden, d), 0.6, 52)
            .data()
            .to_vec();
        let b: Vec<f32> = Tensor::rand_uniform(Shape4::flat(1, hidden + d), 0.2, 53)
            .data()
            .to_vec();
        let dy = Tensor::rand_uniform(x.shape(), 1.0, 54);
        let (dx, dw, db) = mlp_backward(&x, &w, &b, &dy, hidden);

        let loss = |inp: &Tensor, ww: &[f32], bb: &[f32]| -> f32 {
            mlp_forward(inp, ww, bb, hidden)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 7, 13, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 4e-2,
                "dX[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
        for &i in &[2usize, hidden * d + 4, 2 * hidden * d - 1] {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 4e-2, "dW[{i}]: {num} vs {}", dw[i]);
        }
        for &i in &[0usize, hidden - 1, hidden + 1] {
            let mut bp = b.clone();
            bp[i] += eps;
            let mut bm = b.clone();
            bm[i] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((num - db[i]).abs() < 4e-2, "dB[{i}]: {num} vs {}", db[i]);
        }
    }

    #[test]
    fn relu_gate_blocks_dead_hidden_units() {
        // With strongly negative b1 every hidden unit is dead, so the output
        // is exactly the bias b2 and grad_input is exactly zero.
        let (d, s, hidden) = (2usize, 3usize, 4usize);
        let x = Tensor::rand_uniform(Shape4::new(1, d, s, 1), 0.1, 55);
        let w = vec![0.01f32; 2 * hidden * d];
        let mut b = vec![0.0f32; hidden + d];
        for v in &mut b[0..hidden] {
            *v = -10.0;
        }
        b[hidden] = 0.7;
        b[hidden + 1] = -0.3;
        let y = mlp_forward(&x, &w, &b, hidden);
        for pos in 0..s {
            assert_eq!(y.data()[pos], 0.7);
            assert_eq!(y.data()[s + pos], -0.3);
        }
        let dy = Tensor::full(x.shape(), 1.0);
        let (dx, _, _) = mlp_backward(&x, &w, &b, &dy, hidden);
        assert_eq!(dx.max_abs(), 0.0);
    }
}
