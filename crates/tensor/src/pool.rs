//! Max and average pooling.
//!
//! Max pooling records the argmax index of every output element so the
//! backward pass routes gradients without re-scanning the window; the mask
//! tensor is exactly the "workspace" memory the cost model charges POOL
//! layers for.

use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Pooling hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolParams {
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl PoolParams {
    pub fn out_shape(&self, input: Shape4) -> Shape4 {
        Shape4::new(
            input.n,
            input.c,
            Shape4::conv_out_dim(input.h, self.kernel, self.stride, self.pad),
            Shape4::conv_out_dim(input.w, self.kernel, self.stride, self.pad),
        )
    }
}

/// Max-pool forward: returns `(output, argmax)` where `argmax[i]` is the flat
/// input index that won output element `i`.
pub fn maxpool_forward(input: &Tensor, p: &PoolParams) -> (Tensor, Vec<u32>) {
    let ishape = input.shape();
    let oshape = p.out_shape(ishape);
    let mut out = Tensor::zeros(oshape);
    let mut argmax = vec![0u32; oshape.numel()];
    let ihw = ishape.h * ishape.w;
    let ohw = oshape.h * oshape.w;

    out.data_mut()
        .chunks_mut(ohw)
        .zip(argmax.chunks_mut(ohw))
        .enumerate()
        .for_each(|(nc, (oplane, aplane))| {
            let n = nc / ishape.c;
            let c = nc % ishape.c;
            let ibase = (n * ishape.c + c) * ihw;
            let iplane = &input.data()[ibase..ibase + ihw];
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
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
                            let idx = iy as usize * ishape.w + ix as usize;
                            if iplane[idx] > best {
                                best = iplane[idx];
                                best_idx = ibase + idx;
                            }
                        }
                    }
                    oplane[oy * oshape.w + ox] = best;
                    aplane[oy * oshape.w + ox] = best_idx as u32;
                }
            }
        });
    (out, argmax)
}

/// Max-pool backward: scatter `grad_out` to the recorded argmax positions.
pub fn maxpool_backward(input_shape: Shape4, grad_out: &Tensor, argmax: &[u32]) -> Tensor {
    assert_eq!(grad_out.shape().numel(), argmax.len());
    let mut gi = Tensor::zeros(input_shape);
    let gdata = gi.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax.iter()) {
        gdata[idx as usize] += g;
    }
    gi
}

/// Average-pool forward.
pub fn avgpool_forward(input: &Tensor, p: &PoolParams) -> Tensor {
    let ishape = input.shape();
    let oshape = p.out_shape(ishape);
    let mut out = Tensor::zeros(oshape);
    let ihw = ishape.h * ishape.w;
    let ohw = oshape.h * oshape.w;
    let window = (p.kernel * p.kernel) as f32;

    out.data_mut()
        .chunks_mut(ohw)
        .enumerate()
        .for_each(|(nc, oplane)| {
            let ibase = nc * ihw;
            let iplane = &input.data()[ibase..ibase + ihw];
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let mut acc = 0.0;
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
                            acc += iplane[iy as usize * ishape.w + ix as usize];
                        }
                    }
                    oplane[oy * oshape.w + ox] = acc / window;
                }
            }
        });
    out
}

/// Average-pool backward.
pub fn avgpool_backward(input_shape: Shape4, grad_out: &Tensor, p: &PoolParams) -> Tensor {
    let oshape = grad_out.shape();
    let mut gi = Tensor::zeros(input_shape);
    let ihw = input_shape.h * input_shape.w;
    let ohw = oshape.h * oshape.w;
    let window = (p.kernel * p.kernel) as f32;
    for nc in 0..input_shape.n * input_shape.c {
        let gplane = &grad_out.data()[nc * ohw..(nc + 1) * ohw];
        let iplane = &mut gi.data_mut()[nc * ihw..(nc + 1) * ihw];
        for oy in 0..oshape.h {
            for ox in 0..oshape.w {
                let g = gplane[oy * oshape.w + ox] / window;
                for kr in 0..p.kernel {
                    let iy = (oy * p.stride + kr) as isize - p.pad as isize;
                    if iy < 0 || iy as usize >= input_shape.h {
                        continue;
                    }
                    for kc in 0..p.kernel {
                        let ix = (ox * p.stride + kc) as isize - p.pad as isize;
                        if ix < 0 || ix as usize >= input_shape.w {
                            continue;
                        }
                        iplane[iy as usize * input_shape.w + ix as usize] += g;
                    }
                }
            }
        }
    }
    gi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let p = PoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let input = Tensor::from_vec(
            Shape4::new(1, 1, 4, 4),
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let (out, argmax) = maxpool_forward(&input, &p);
        assert_eq!(out.data(), &[4., 8., 12., 16.]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let p = PoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let input = Tensor::rand_uniform(Shape4::new(1, 2, 4, 4), 1.0, 5);
        let (out, argmax) = maxpool_forward(&input, &p);
        let gout = Tensor::full(out.shape(), 1.0);
        let gi = maxpool_backward(input.shape(), &gout, &argmax);
        // Every output contributes exactly one unit of gradient.
        assert_eq!(gi.sum(), out.shape().numel() as f32);
        // Gradient only lands on argmax positions.
        for (i, v) in gi.data().iter().enumerate() {
            if *v != 0.0 {
                assert!(argmax.contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn avgpool_averages() {
        let p = PoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let input = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 6.0]);
        let out = avgpool_forward(&input, &p);
        assert_eq!(out.data(), &[3.0]);
    }

    #[test]
    fn avgpool_backward_spreads_evenly() {
        let p = PoolParams {
            kernel: 2,
            stride: 2,
            pad: 0,
        };
        let gout = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![4.0]);
        let gi = avgpool_backward(Shape4::new(1, 1, 2, 2), &gout, &p);
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn overlapping_maxpool_like_alexnet() {
        // AlexNet pools are 3x3 stride 2 (overlapping).
        let p = PoolParams {
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        let input = Tensor::rand_uniform(Shape4::new(2, 3, 7, 7), 1.0, 6);
        let (out, _) = maxpool_forward(&input, &p);
        assert_eq!(out.shape(), Shape4::new(2, 3, 3, 3));
        // Output elements must be >= every strided sample they cover.
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
}
