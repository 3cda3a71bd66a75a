//! Multi-head self-attention over the sequence axis.
//!
//! Layout convention matches the rest of the stack: activations are NCHW
//! with `C` the model dimension and `H·W` the flattened sequence. Weights
//! are packed `[Wq, Wk, Wv, Wo]` (each `d×d`, row-major `[out, in]`) with
//! biases `[bq, bk, bv, bo]` (each `d`). The backward kernel re-derives
//! every intermediate (q/k/v, softmax probabilities, context) from the
//! input, so the layer is input-formulated and recomputation-exact.

use crate::gemm::{sgemm, sgemm_at, sgemm_bt};
use crate::tensor::Tensor;

/// Gather one batch item into a position-major `[S, d]` matrix.
pub(crate) fn to_pos_major(x: &[f32], n: usize, d: usize, s: usize) -> Vec<f32> {
    let base = n * d * s;
    let mut m = vec![0.0f32; s * d];
    for ch in 0..d {
        for pos in 0..s {
            m[pos * d + ch] = x[base + ch * s + pos];
        }
    }
    m
}

/// Scatter a position-major `[S, d]` matrix back into one NCHW batch item.
pub(crate) fn from_pos_major(m: &[f32], out: &mut [f32], n: usize, d: usize, s: usize) {
    let base = n * d * s;
    for ch in 0..d {
        for pos in 0..s {
            out[base + ch * s + pos] = m[pos * d + ch];
        }
    }
}

fn add_bias(m: &mut [f32], bias: &[f32], d: usize) {
    for row in m.chunks_mut(d) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Extract head `h` (`hd` columns starting at `h*hd`) into a dense `[S, hd]`.
fn head(m: &[f32], h: usize, hd: usize, d: usize, s: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; s * hd];
    for pos in 0..s {
        out[pos * hd..(pos + 1) * hd].copy_from_slice(&m[pos * d + h * hd..pos * d + h * hd + hd]);
    }
    out
}

fn head_add(dst: &mut [f32], src: &[f32], h: usize, hd: usize, d: usize, s: usize) {
    for pos in 0..s {
        for j in 0..hd {
            dst[pos * d + h * hd + j] += src[pos * hd + j];
        }
    }
}

fn softmax_rows(m: &mut [f32], s: usize) {
    for row in m.chunks_mut(s) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// One batch item's forward intermediates, re-derived identically by backward.
struct Fwd {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Per-head softmax probabilities, `heads × S × S`.
    probs: Vec<Vec<f32>>,
    ctx: Vec<f32>,
}

fn forward_one(xp: &[f32], weight: &[f32], bias: &[f32], heads: usize, d: usize, s: usize) -> Fwd {
    let dd = d * d;
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut q = vec![0.0f32; s * d];
    let mut k = vec![0.0f32; s * d];
    let mut v = vec![0.0f32; s * d];
    sgemm_bt(s, d, d, 1.0, xp, &weight[0..dd], 0.0, &mut q);
    sgemm_bt(s, d, d, 1.0, xp, &weight[dd..2 * dd], 0.0, &mut k);
    sgemm_bt(s, d, d, 1.0, xp, &weight[2 * dd..3 * dd], 0.0, &mut v);
    add_bias(&mut q, &bias[0..d], d);
    add_bias(&mut k, &bias[d..2 * d], d);
    add_bias(&mut v, &bias[2 * d..3 * d], d);

    let mut probs = Vec::with_capacity(heads);
    let mut ctx = vec![0.0f32; s * d];
    for h in 0..heads {
        let qh = head(&q, h, hd, d, s);
        let kh = head(&k, h, hd, d, s);
        let vh = head(&v, h, hd, d, s);
        let mut p = vec![0.0f32; s * s];
        sgemm_bt(s, s, hd, scale, &qh, &kh, 0.0, &mut p);
        softmax_rows(&mut p, s);
        let mut ch = vec![0.0f32; s * hd];
        sgemm(s, hd, s, 1.0, &p, &vh, 0.0, &mut ch);
        head_add(&mut ctx, &ch, h, hd, d, s);
        probs.push(p);
    }
    Fwd {
        q,
        k,
        v,
        probs,
        ctx,
    }
}

/// Attention forward: `y = MHA(x)·Woᵀ + bo`, shape-preserving.
pub fn attention_forward(input: &Tensor, weight: &[f32], bias: &[f32], heads: usize) -> Tensor {
    let sh = input.shape();
    let (d, s) = (sh.c, sh.h * sh.w);
    assert_eq!(
        d % heads,
        0,
        "model dim {d} must split across {heads} heads"
    );
    assert_eq!(weight.len(), 4 * d * d);
    assert_eq!(bias.len(), 4 * d);
    let dd = d * d;
    let mut out = Tensor::zeros(sh);
    for n in 0..sh.n {
        let xp = to_pos_major(input.data(), n, d, s);
        let f = forward_one(&xp, weight, bias, heads, d, s);
        let mut y = vec![0.0f32; s * d];
        sgemm_bt(s, d, d, 1.0, &f.ctx, &weight[3 * dd..4 * dd], 0.0, &mut y);
        add_bias(&mut y, &bias[3 * d..4 * d], d);
        from_pos_major(&y, out.data_mut(), n, d, s);
    }
    out
}

/// Attention backward: returns `(grad_input, grad_weight, grad_bias)` with
/// the same packed layouts as the forward arguments.
pub fn attention_backward(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    grad_out: &Tensor,
    heads: usize,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let sh = input.shape();
    assert_eq!(sh, grad_out.shape());
    let (d, s) = (sh.c, sh.h * sh.w);
    let dd = d * d;
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut gi = Tensor::zeros(sh);
    let mut dw = vec![0.0f32; 4 * dd];
    let mut db = vec![0.0f32; 4 * d];

    for n in 0..sh.n {
        let xp = to_pos_major(input.data(), n, d, s);
        let f = forward_one(&xp, weight, bias, heads, d, s);
        let g = to_pos_major(grad_out.data(), n, d, s);

        // Output projection.
        sgemm_at(d, d, s, 1.0, &g, &f.ctx, 1.0, &mut dw[3 * dd..4 * dd]);
        for row in g.chunks(d) {
            for (acc, &v) in db[3 * d..4 * d].iter_mut().zip(row) {
                *acc += v;
            }
        }
        let mut dctx = vec![0.0f32; s * d];
        sgemm(s, d, d, 1.0, &g, &weight[3 * dd..4 * dd], 0.0, &mut dctx);

        let mut dq = vec![0.0f32; s * d];
        let mut dk = vec![0.0f32; s * d];
        let mut dv = vec![0.0f32; s * d];
        for h in 0..heads {
            let qh = head(&f.q, h, hd, d, s);
            let kh = head(&f.k, h, hd, d, s);
            let dch = head(&dctx, h, hd, d, s);
            let p = &f.probs[h];
            // dV_h = Pᵀ · dCtx_h; dP = dCtx_h · V_hᵀ.
            let vh = head(&f.v, h, hd, d, s);
            let mut dvh = vec![0.0f32; s * hd];
            sgemm_at(s, hd, s, 1.0, p, &dch, 0.0, &mut dvh);
            let mut dp = vec![0.0f32; s * s];
            sgemm_bt(s, s, hd, 1.0, &dch, &vh, 0.0, &mut dp);
            // Softmax backward, row-wise.
            let mut ds = vec![0.0f32; s * s];
            for r in 0..s {
                let prow = &p[r * s..(r + 1) * s];
                let dprow = &dp[r * s..(r + 1) * s];
                let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                for j in 0..s {
                    ds[r * s + j] = prow[j] * (dprow[j] - dot);
                }
            }
            let mut dqh = vec![0.0f32; s * hd];
            let mut dkh = vec![0.0f32; s * hd];
            sgemm(s, hd, s, scale, &ds, &kh, 0.0, &mut dqh);
            sgemm_at(s, hd, s, scale, &ds, &qh, 0.0, &mut dkh);
            head_add(&mut dq, &dqh, h, hd, d, s);
            head_add(&mut dk, &dkh, h, hd, d, s);
            head_add(&mut dv, &dvh, h, hd, d, s);
        }

        // Projection weight/bias/input gradients.
        for (i, dm) in [&dq, &dk, &dv].into_iter().enumerate() {
            sgemm_at(d, d, s, 1.0, dm, &xp, 1.0, &mut dw[i * dd..(i + 1) * dd]);
            for row in dm.chunks(d) {
                for (acc, &v) in db[i * d..(i + 1) * d].iter_mut().zip(row) {
                    *acc += v;
                }
            }
        }
        let mut dxp = vec![0.0f32; s * d];
        sgemm(s, d, d, 1.0, &dq, &weight[0..dd], 0.0, &mut dxp);
        sgemm(s, d, d, 1.0, &dk, &weight[dd..2 * dd], 1.0, &mut dxp);
        sgemm(s, d, d, 1.0, &dv, &weight[2 * dd..3 * dd], 1.0, &mut dxp);
        from_pos_major(&dxp, gi.data_mut(), n, d, s);
    }
    (gi, dw, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape4;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::rand_uniform(Shape4::new(1, 4, 3, 1), 1.0, 41);
        let w: Vec<f32> = (0..4 * 16).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect();
        let b = vec![0.05f32; 16];
        let y = attention_forward(&x, &w, &b, 2);
        assert_eq!(y.shape(), x.shape());
        assert!(y.max_abs() > 0.0);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (d, s, heads) = (4usize, 3usize, 2usize);
        let x = Tensor::rand_uniform(Shape4::new(2, d, s, 1), 1.0, 42);
        let w: Vec<f32> = Tensor::rand_uniform(Shape4::flat(4 * d, d), 0.5, 43)
            .data()
            .to_vec();
        let b: Vec<f32> = Tensor::rand_uniform(Shape4::flat(1, 4 * d), 0.2, 44)
            .data()
            .to_vec();
        let dy = Tensor::rand_uniform(x.shape(), 1.0, 45);
        let (dx, dw, db) = attention_backward(&x, &w, &b, &dy, heads);

        let loss = |inp: &Tensor, ww: &[f32], bb: &[f32]| -> f32 {
            attention_forward(inp, ww, bb, heads)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 7, 13, 20] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 3e-2,
                "dX[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
        // Spot-check one weight per packed matrix and one bias per vector.
        for &i in &[1usize, d * d + 5, 2 * d * d + 9, 3 * d * d + 2] {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 3e-2, "dW[{i}]: {num} vs {}", dw[i]);
        }
        for &i in &[0usize, d + 1, 2 * d + 2, 3 * d + 3] {
            let mut bp = b.clone();
            bp[i] += eps;
            let mut bm = b.clone();
            bm[i] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((num - db[i]).abs() < 3e-2, "dB[{i}]: {num} vs {}", db[i]);
        }
    }
}
