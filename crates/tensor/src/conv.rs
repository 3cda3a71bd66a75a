//! 2-D convolution: im2col + GEMM (the "explicit GEMM" cuDNN algorithm whose
//! workspace the paper's dynamic allocator provisions), a direct reference
//! kernel, and the data/filter gradients.

use crate::gemm::sgemm_at;
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvParams {
    pub fn out_shape(&self, input: Shape4) -> Shape4 {
        let oh = Shape4::conv_out_dim(input.h, self.kernel, self.stride, self.pad);
        let ow = Shape4::conv_out_dim(input.w, self.kernel, self.stride, self.pad);
        Shape4::new(input.n, self.out_channels, oh, ow)
    }

    /// Filter shape: `K × C × R × S`.
    pub fn weight_shape(&self, in_channels: usize) -> Shape4 {
        Shape4::new(self.out_channels, in_channels, self.kernel, self.kernel)
    }
}

/// Expand one image (`C×H×W` slice) into the `C·R·S × OH·OW` column matrix.
pub fn im2col(input: &[f32], c: usize, h: usize, w: usize, p: &ConvParams, cols: &mut [f32]) {
    let oh = Shape4::conv_out_dim(h, p.kernel, p.stride, p.pad);
    let ow = Shape4::conv_out_dim(w, p.kernel, p.stride, p.pad);
    let k = p.kernel;
    assert_eq!(cols.len(), c * k * k * oh * ow);
    let mut row = 0usize;
    for ch in 0..c {
        for kr in 0..k {
            for kc in 0..k {
                let base = row * oh * ow;
                row += 1;
                for oy in 0..oh {
                    let iy = (oy * p.stride + kr) as isize - p.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kc) as isize - p.pad as isize;
                        let v = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            input[(ch * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                        cols[base + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
}

/// Scatter a column matrix back into an image (the adjoint of [`im2col`]),
/// accumulating into `grad_input`.
pub fn col2im(cols: &[f32], c: usize, h: usize, w: usize, p: &ConvParams, grad_input: &mut [f32]) {
    let oh = Shape4::conv_out_dim(h, p.kernel, p.stride, p.pad);
    let ow = Shape4::conv_out_dim(w, p.kernel, p.stride, p.pad);
    let k = p.kernel;
    assert_eq!(cols.len(), c * k * k * oh * ow);
    let mut row = 0usize;
    for ch in 0..c {
        for kr in 0..k {
            for kc in 0..k {
                let base = row * oh * ow;
                row += 1;
                for oy in 0..oh {
                    let iy = (oy * p.stride + kr) as isize - p.pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kc) as isize - p.pad as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        grad_input[(ch * h + iy as usize) * w + ix as usize] +=
                            cols[base + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Forward convolution via im2col + GEMM. `bias` is per-output-channel.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &[f32], p: &ConvParams) -> Tensor {
    let ishape = input.shape();
    let wshape = weight.shape();
    assert_eq!(wshape.c, ishape.c, "filter channels must match input");
    assert_eq!(wshape.n, p.out_channels);
    assert_eq!(bias.len(), p.out_channels);
    let oshape = p.out_shape(ishape);
    let mut out = Tensor::zeros(oshape);

    let crs = ishape.c * p.kernel * p.kernel;
    let ohw = oshape.h * oshape.w;
    let in_stride = ishape.features();
    let out_stride = oshape.features();

    // Image by image: each expands its own column buffer and runs a
    // (K × CRS)·(CRS × OHW) GEMM.
    out.data_mut()
        .chunks_mut(out_stride)
        .zip(input.data().chunks(in_stride))
        .for_each(|(oimg, iimg)| {
            let mut cols = vec![0.0f32; crs * ohw];
            im2col(iimg, ishape.c, ishape.h, ishape.w, p, &mut cols);
            // weight is K×CRS row-major already.
            crate::gemm::sgemm(
                p.out_channels,
                ohw,
                crs,
                1.0,
                weight.data(),
                &cols,
                0.0,
                oimg,
            );
            for k in 0..p.out_channels {
                let b = bias[k];
                if b != 0.0 {
                    for v in &mut oimg[k * ohw..(k + 1) * ohw] {
                        *v += b;
                    }
                }
            }
        });
    out
}

/// Direct (naive) forward convolution — the correctness reference.
pub fn conv2d_forward_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    p: &ConvParams,
) -> Tensor {
    let ishape = input.shape();
    let oshape = p.out_shape(ishape);
    let mut out = Tensor::zeros(oshape);
    for n in 0..ishape.n {
        for k in 0..p.out_channels {
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let mut acc = bias[k];
                    for c in 0..ishape.c {
                        for kr in 0..p.kernel {
                            let iy = (oy * p.stride + kr) as isize - p.pad as isize;
                            if iy < 0 || iy as usize >= ishape.h {
                                continue;
                            }
                            for kc in 0..p.kernel {
                                let ix = (ox * p.stride + kc) as isize - p.pad as isize;
                                if ix < 0 || ix as usize >= ishape.w {
                                    continue;
                                }
                                acc += input.at(n, c, iy as usize, ix as usize)
                                    * weight.at(k, c, kr, kc);
                            }
                        }
                    }
                    out.set(n, k, oy, ox, acc);
                }
            }
        }
    }
    out
}

/// Gradients of a convolution: `(grad_input, grad_weight, grad_bias)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    p: &ConvParams,
) -> (Tensor, Tensor, Vec<f32>) {
    let ishape = input.shape();
    let wshape = weight.shape();
    let oshape = grad_out.shape();
    assert_eq!(oshape, p.out_shape(ishape));

    let crs = ishape.c * p.kernel * p.kernel;
    let ohw = oshape.h * oshape.w;
    let in_stride = ishape.features();
    let out_stride = oshape.features();

    let mut grad_input = Tensor::zeros(ishape);
    let mut grad_weight = Tensor::zeros(wshape);
    let mut grad_bias = vec![0.0f32; p.out_channels];

    // grad_bias: sum of grad_out over N, OH, OW per channel.
    for n in 0..oshape.n {
        let img = &grad_out.data()[n * out_stride..(n + 1) * out_stride];
        for k in 0..p.out_channels {
            grad_bias[k] += img[k * ohw..(k + 1) * ohw].iter().sum::<f32>();
        }
    }

    // Per-image: dW += dY · colsᵀ ; dcols = Wᵀ · dY ; dX += col2im(dcols).
    // Weight gradient accumulates across images in image order.
    let mut cols = vec![0.0f32; crs * ohw];
    let mut dcols = vec![0.0f32; crs * ohw];
    for n in 0..ishape.n {
        let iimg = &input.data()[n * in_stride..(n + 1) * in_stride];
        let oimg = &grad_out.data()[n * out_stride..(n + 1) * out_stride];
        im2col(iimg, ishape.c, ishape.h, ishape.w, p, &mut cols);
        // dW[K×CRS] += dY[K×OHW] · cols[CRS×OHW]ᵀ
        crate::gemm::sgemm_bt(
            p.out_channels,
            crs,
            ohw,
            1.0,
            oimg,
            &cols,
            1.0,
            grad_weight.data_mut(),
        );
        // dcols[CRS×OHW] = W[K×CRS]ᵀ · dY[K×OHW]
        sgemm_at(
            crs,
            ohw,
            p.out_channels,
            1.0,
            weight.data(),
            oimg,
            0.0,
            &mut dcols,
        );
        let gimg = &mut grad_input.data_mut()[n * in_stride..(n + 1) * in_stride];
        col2im(&dcols, ishape.c, ishape.h, ishape.w, p, gimg);
    }
    (grad_input, grad_weight, grad_bias)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case() -> (Tensor, Tensor, Vec<f32>, ConvParams) {
        let p = ConvParams {
            out_channels: 3,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input = Tensor::rand_uniform(Shape4::new(2, 2, 7, 7), 1.0, 11);
        let weight = Tensor::rand_uniform(p.weight_shape(2), 0.5, 12);
        let bias = vec![0.1, -0.2, 0.3];
        (input, weight, bias, p)
    }

    #[test]
    fn gemm_conv_matches_direct() {
        let (input, weight, bias, p) = small_case();
        let a = conv2d_forward(&input, &weight, &bias, &p);
        let b = conv2d_forward_direct(&input, &weight, &bias, &p);
        assert!(a.max_abs_diff(&b) < 1e-4, "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn output_shape_is_correct() {
        let (input, weight, bias, p) = small_case();
        let out = conv2d_forward(&input, &weight, &bias, &p);
        assert_eq!(out.shape(), Shape4::new(2, 3, 4, 4));
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let p = ConvParams {
            out_channels: 1,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let (c, h, w) = (2, 5, 5);
        let x = Tensor::rand_uniform(Shape4::new(1, c, h, w), 1.0, 21);
        // Per-image im2col buffer size in elements: `C·R·S × OH·OW`.
        let out = p.out_shape(x.shape());
        let cols_len = c * p.kernel * p.kernel * out.h * out.w;
        let y = Tensor::rand_uniform(Shape4::flat(1, cols_len), 1.0, 22);
        let mut cols = vec![0.0; cols_len];
        im2col(x.data(), c, h, w, &p, &mut cols);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut xadj = vec![0.0; c * h * w];
        col2im(y.data(), c, h, w, &p, &mut xadj);
        let rhs: f32 = x.data().iter().zip(xadj.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let p = ConvParams {
            out_channels: 2,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let input = Tensor::rand_uniform(Shape4::new(1, 2, 4, 4), 1.0, 31);
        let weight = Tensor::rand_uniform(p.weight_shape(2), 0.5, 32);
        let bias = vec![0.05, -0.05];
        let gout = Tensor::rand_uniform(p.out_shape(input.shape()), 1.0, 33);
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &gout, &p);

        let loss = |inp: &Tensor, w: &Tensor, b: &[f32]| -> f32 {
            let y = conv2d_forward(inp, w, b, &p);
            y.data().iter().zip(gout.data()).map(|(a, g)| a * g).sum()
        };
        let eps = 1e-2f32;
        // input gradient at a few positions
        for &i in &[0usize, 5, 17, 31] {
            let mut ip = input.clone();
            ip.data_mut()[i] += eps;
            let mut im = input.clone();
            im.data_mut()[i] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            assert!(
                (num - gi.data()[i]).abs() < 2e-2,
                "dX[{i}]: {num} vs {}",
                gi.data()[i]
            );
        }
        // weight gradient
        for &i in &[0usize, 7, 20] {
            let mut wp = weight.clone();
            wp.data_mut()[i] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 2e-2,
                "dW[{i}]: {num} vs {}",
                gw.data()[i]
            );
        }
        // bias gradient
        for i in 0..2 {
            let mut bp = bias.clone();
            bp[i] += eps;
            let mut bm = bias.clone();
            bm[i] -= eps;
            let num = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            assert!((num - gb[i]).abs() < 2e-2, "dB[{i}]: {num} vs {}", gb[i]);
        }
    }

    #[test]
    fn stride_without_pad() {
        let p = ConvParams {
            out_channels: 1,
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        // 1×1×4×4 ones, 2×2 ones kernel, stride 2 → every output = 4.
        let input = Tensor::full(Shape4::new(1, 1, 4, 4), 1.0);
        let weight = Tensor::full(p.weight_shape(1), 1.0);
        let out = conv2d_forward(&input, &weight, &[0.0], &p);
        assert_eq!(out.shape(), Shape4::new(1, 1, 2, 2));
        assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
    }
}
