//! Numeric execution backend: real `f32` computation behind the scheduler.
//!
//! The executor decides *when* layers run (including recomputation replays)
//! and *which* values cease to exist; this backend owns the values and
//! performs the arithmetic with the `sn-tensor` kernels. Because dropout
//! masks are counter-based and BN statistics are deterministic functions of
//! the (identical) recomputed inputs, a replayed forward reproduces the
//! original activations bit-for-bit — the invariant that makes Cost-Aware
//! Recomputation semantically free, and which the integration tests assert.

use sn_graph::{LayerId, LayerKind, Net, PoolKind};
use sn_tensor::act::{
    dropout_backward, dropout_forward, eltwise_add, lrn_backward, lrn_forward, relu_backward,
    relu_forward, synthetic_batch, LrnParams,
};
use sn_tensor::attention::{attention_backward, attention_forward};
use sn_tensor::conv::{conv2d_backward, conv2d_forward, ConvParams};
use sn_tensor::embedding::{embedding_backward, embedding_forward};
use sn_tensor::layernorm::{layernorm_backward, layernorm_forward};
use sn_tensor::linear::{fc_backward, fc_forward};
use sn_tensor::loss::{accuracy, cross_entropy, softmax_forward, softmax_xent_backward};
use sn_tensor::mlp::{mlp_backward, mlp_forward};
use sn_tensor::norm::{bn_backward, bn_forward, BnSaved};
use sn_tensor::pool::{
    avgpool_backward, avgpool_forward, maxpool_backward, maxpool_forward, PoolParams,
};
use sn_tensor::sgd::{SgdParams, SgdState};
use sn_tensor::{Shape4, Tensor};

use crate::executor::ComputeBackend;

/// Per-layer trainable parameters.
struct LayerParams {
    weight: Tensor,
    bias: Vec<f32>,
    w_state: SgdState,
    b_state: SgdState,
}

/// The backend.
pub struct NumericBackend {
    net: Net,
    params: Vec<Option<LayerParams>>,
    bn_saved: Vec<Option<BnSaved>>,
    outputs: Vec<Option<Tensor>>,
    grads: Vec<Option<Tensor>>,
    labels: Vec<usize>,
    classes: usize,
    data_seed: u64,
    sgd: SgdParams,
    iter: u64,
    last_loss: Option<f32>,
    last_accuracy: Option<f32>,
    /// Count of forward executions per layer this iteration (recompute
    /// replays increment it past 1) — used by exactness tests.
    pub forward_counts: Vec<u32>,
}

impl NumericBackend {
    /// Build a backend for `net` with `classes` output classes and
    /// deterministic weight init from `seed`.
    pub fn new(net: &Net, classes: usize, seed: u64, sgd: SgdParams) -> NumericBackend {
        let n = net.len();
        let mut params: Vec<Option<LayerParams>> = Vec::with_capacity(n);
        for layer in net.layers() {
            params.push(match &layer.kind {
                LayerKind::Conv { .. } => {
                    let p = layer.kind.conv_params().unwrap();
                    let cin = net.in_channels(layer.id);
                    let wshape = p.weight_shape(cin);
                    let fan_in = cin * p.kernel * p.kernel;
                    Some(LayerParams {
                        weight: Tensor::kaiming(wshape, fan_in, seed ^ layer.id.0 as u64),
                        bias: vec![0.0; p.out_channels],
                        w_state: SgdState::new(wshape.numel()),
                        b_state: SgdState::new(p.out_channels),
                    })
                }
                LayerKind::Fc { out } => {
                    let f = net.in_shape(layer.id).features();
                    let wshape = Shape4::flat(*out, f);
                    Some(LayerParams {
                        weight: Tensor::kaiming(wshape, f, seed ^ (layer.id.0 as u64) << 8),
                        bias: vec![0.0; *out],
                        w_state: SgdState::new(wshape.numel()),
                        b_state: SgdState::new(*out),
                    })
                }
                LayerKind::Bn => {
                    let c = layer.out_shape.c;
                    Some(LayerParams {
                        weight: Tensor::full(Shape4::flat(1, c), 1.0), // gamma
                        bias: vec![0.0; c],                            // beta
                        w_state: SgdState::new(c),
                        b_state: SgdState::new(c),
                    })
                }
                LayerKind::LayerNorm => {
                    let c = layer.out_shape.c;
                    Some(LayerParams {
                        weight: Tensor::full(Shape4::flat(1, c), 1.0), // gamma
                        bias: vec![0.0; c],                            // beta
                        w_state: SgdState::new(c),
                        b_state: SgdState::new(c),
                    })
                }
                LayerKind::Embedding { vocab, dim } => {
                    let wshape = Shape4::flat(*vocab, *dim);
                    Some(LayerParams {
                        weight: Tensor::rand_uniform(wshape, 0.1, seed ^ (layer.id.0 as u64) << 16),
                        bias: vec![],
                        w_state: SgdState::new(wshape.numel()),
                        b_state: SgdState::new(0),
                    })
                }
                LayerKind::Attention { .. } => {
                    let d = layer.out_shape.c;
                    let wshape = Shape4::flat(4 * d, d); // packed Wq/Wk/Wv/Wo
                    Some(LayerParams {
                        weight: Tensor::kaiming(wshape, d, seed ^ (layer.id.0 as u64) << 24),
                        bias: vec![0.0; 4 * d],
                        w_state: SgdState::new(wshape.numel()),
                        b_state: SgdState::new(4 * d),
                    })
                }
                LayerKind::Mlp { hidden } => {
                    let d = layer.out_shape.c;
                    let wshape = Shape4::flat(2 * *hidden, d); // packed W1/W2
                    Some(LayerParams {
                        weight: Tensor::kaiming(wshape, d, seed ^ (layer.id.0 as u64) << 32),
                        bias: vec![0.0; *hidden + d],
                        w_state: SgdState::new(wshape.numel()),
                        b_state: SgdState::new(*hidden + d),
                    })
                }
                _ => None,
            });
        }
        NumericBackend {
            net: net.clone(),
            params,
            bn_saved: (0..n).map(|_| None).collect(),
            outputs: (0..n).map(|_| None).collect(),
            grads: (0..n).map(|_| None).collect(),
            labels: Vec::new(),
            classes,
            data_seed: seed.wrapping_mul(0x9E37),
            sgd,
            iter: 0,
            last_loss: None,
            last_accuracy: None,
            forward_counts: vec![0; n],
        }
    }

    fn dropout_seed(&self, layer: LayerId) -> u64 {
        // Stable per (layer, iteration): recompute replays regenerate the
        // identical mask.
        (self.iter << 20) ^ (layer.0 as u64) ^ self.data_seed
    }

    fn input(&self, layer: LayerId, idx: usize) -> &Tensor {
        let p = self.net.layer(layer).prevs[idx];
        self.outputs[p.0]
            .as_ref()
            .unwrap_or_else(|| panic!("input {idx} of {} absent", self.net.layer(layer).name))
    }

    fn accumulate_grad(&mut self, layer: LayerId, g: Tensor) {
        let shape = self.net.layer(layer).out_shape;
        debug_assert_eq!(g.shape().numel(), shape.numel());
        let g = g.reshape(shape);
        match &mut self.grads[layer.0] {
            Some(acc) => acc.axpy(1.0, &g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Loss of the last completed iteration.
    pub fn last_loss(&self) -> Option<f32> {
        self.last_loss
    }

    /// Top-1 accuracy of the last completed iteration.
    pub fn last_accuracy(&self) -> Option<f32> {
        self.last_accuracy
    }

    /// Immutable view of a layer's current output value (for tests).
    pub fn output(&self, layer: LayerId) -> Option<&Tensor> {
        self.outputs[layer.0].as_ref()
    }
}

impl ComputeBackend for NumericBackend {
    fn begin_iteration(&mut self, iter: u64) {
        self.iter = iter;
        self.forward_counts.iter_mut().for_each(|c| *c = 0);
        self.outputs.iter_mut().for_each(|o| *o = None);
        self.grads.iter_mut().for_each(|g| *g = None);
    }

    fn forward(&mut self, layer: LayerId) {
        self.forward_counts[layer.0] += 1;
        let kind = self.net.layer(layer).kind.clone();
        let out = match &kind {
            LayerKind::Data { shape } => {
                let (data, labels) =
                    synthetic_batch(*shape, self.classes, self.data_seed + self.iter);
                self.labels = labels;
                data
            }
            LayerKind::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => {
                let p = ConvParams {
                    out_channels: *out_channels,
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                };
                let lp = self.params[layer.0].as_ref().unwrap();
                conv2d_forward(self.input(layer, 0), &lp.weight, &lp.bias, &p)
            }
            LayerKind::Pool {
                kind: pk,
                kernel,
                stride,
                pad,
            } => {
                let p = PoolParams {
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                };
                match pk {
                    PoolKind::Max => maxpool_forward(self.input(layer, 0), &p).0,
                    PoolKind::Avg => avgpool_forward(self.input(layer, 0), &p),
                }
            }
            LayerKind::Act => relu_forward(self.input(layer, 0)),
            LayerKind::Lrn { local_size } => {
                let p = LrnParams {
                    local_size: *local_size,
                    ..Default::default()
                };
                lrn_forward(self.input(layer, 0), &p)
            }
            LayerKind::Bn => {
                let lp = self.params[layer.0].as_ref().unwrap();
                let (y, saved) = bn_forward(self.input(layer, 0), lp.weight.data(), &lp.bias);
                self.bn_saved[layer.0] = Some(saved);
                y
            }
            LayerKind::Dropout { p_bits } => dropout_forward(
                self.input(layer, 0),
                f32::from_bits(*p_bits),
                self.dropout_seed(layer),
            ),
            LayerKind::Embedding { vocab, dim } => {
                let lp = self.params[layer.0].as_ref().unwrap();
                embedding_forward(self.input(layer, 0), lp.weight.data(), *vocab, *dim)
            }
            LayerKind::LayerNorm => {
                let lp = self.params[layer.0].as_ref().unwrap();
                layernorm_forward(self.input(layer, 0), lp.weight.data(), &lp.bias)
            }
            LayerKind::Attention { heads } => {
                let lp = self.params[layer.0].as_ref().unwrap();
                attention_forward(self.input(layer, 0), lp.weight.data(), &lp.bias, *heads)
            }
            LayerKind::Mlp { hidden } => {
                let lp = self.params[layer.0].as_ref().unwrap();
                mlp_forward(self.input(layer, 0), lp.weight.data(), &lp.bias, *hidden)
            }
            LayerKind::Fc { .. } => {
                let lp = self.params[layer.0].as_ref().unwrap();
                fc_forward(self.input(layer, 0), &lp.weight, &lp.bias)
            }
            LayerKind::Softmax => {
                let probs = softmax_forward(self.input(layer, 0));
                self.last_loss = Some(cross_entropy(&probs, &self.labels));
                self.last_accuracy = Some(accuracy(&probs, &self.labels));
                probs
            }
            LayerKind::Concat => {
                let prevs = self.net.layer(layer).prevs.clone();
                let shape = self.net.layer(layer).out_shape;
                let mut out = Tensor::zeros(shape);
                let hw = shape.h * shape.w;
                let mut c_off = 0usize;
                for p in &prevs {
                    let src = self.outputs[p.0].as_ref().expect("concat input absent");
                    let sc = src.shape().c;
                    for n in 0..shape.n {
                        let dst_base = (n * shape.c + c_off) * hw;
                        let src_base = n * sc * hw;
                        out.data_mut()[dst_base..dst_base + sc * hw]
                            .copy_from_slice(&src.data()[src_base..src_base + sc * hw]);
                    }
                    c_off += sc;
                }
                out
            }
            LayerKind::Eltwise => {
                let prevs = self.net.layer(layer).prevs.clone();
                let mut out = self.outputs[prevs[0].0]
                    .as_ref()
                    .expect("eltwise input absent")
                    .clone();
                for p in &prevs[1..] {
                    out = eltwise_add(&out, self.outputs[p.0].as_ref().unwrap());
                }
                out
            }
        };
        self.outputs[layer.0] = Some(out);
    }

    fn backward(&mut self, layer: LayerId) {
        let kind = self.net.layer(layer).kind.clone();
        let prevs = self.net.layer(layer).prevs.clone();
        match &kind {
            LayerKind::Data { .. } => {} // no upstream gradient
            LayerKind::Softmax => {
                let probs = self.outputs[layer.0].as_ref().expect("softmax output");
                let g = softmax_xent_backward(probs, &self.labels);
                self.accumulate_grad(prevs[0], g);
            }
            LayerKind::Fc { .. } => {
                let gout = self.grads[layer.0].take().expect("fc grad");
                let (gi, gw, gb) = {
                    let lp = self.params[layer.0].as_ref().unwrap();
                    fc_backward(self.input(layer, 0), &lp.weight, &gout)
                };
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step_tensor(&mut lp.weight, &gw, &self.sgd);
                lp.b_state.step(&mut lp.bias, &gb, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => {
                let p = ConvParams {
                    out_channels: *out_channels,
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                };
                let gout = self.grads[layer.0].take().expect("conv grad");
                let (gi, gw, gb) = {
                    let lp = self.params[layer.0].as_ref().unwrap();
                    conv2d_backward(self.input(layer, 0), &lp.weight, &gout, &p)
                };
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step_tensor(&mut lp.weight, &gw, &self.sgd);
                lp.b_state.step(&mut lp.bias, &gb, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Pool {
                kind: pk,
                kernel,
                stride,
                pad,
            } => {
                let p = PoolParams {
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                };
                let gout = self.grads[layer.0].as_ref().expect("pool grad");
                let input = self.input(layer, 0);
                let gi = match pk {
                    PoolKind::Max => {
                        // Argmax is re-derived from the input (the mask
                        // workspace was transient).
                        let (_, argmax) = maxpool_forward(input, &p);
                        maxpool_backward(input.shape(), gout, &argmax)
                    }
                    PoolKind::Avg => avgpool_backward(input.shape(), gout, &p),
                };
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Act => {
                let gout = self.grads[layer.0].as_ref().expect("act grad");
                let gi = relu_backward(self.input(layer, 0), gout);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Lrn { local_size } => {
                let p = LrnParams {
                    local_size: *local_size,
                    ..Default::default()
                };
                let gout = self.grads[layer.0].as_ref().expect("lrn grad");
                let gi = lrn_backward(self.input(layer, 0), gout, &p);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Bn => {
                let gout = self.grads[layer.0].take().expect("bn grad");
                let (gi, dgamma, dbeta) = {
                    let lp = self.params[layer.0].as_ref().unwrap();
                    let saved = self.bn_saved[layer.0].as_ref().expect("bn saved stats");
                    bn_backward(self.input(layer, 0), &gout, lp.weight.data(), saved)
                };
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step(lp.weight.data_mut(), &dgamma, &self.sgd);
                lp.b_state.step(&mut lp.bias, &dbeta, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Dropout { p_bits } => {
                let gout = self.grads[layer.0].as_ref().expect("dropout grad");
                let gi = dropout_backward(gout, f32::from_bits(*p_bits), self.dropout_seed(layer));
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Embedding { vocab, dim } => {
                let gout = self.grads[layer.0].take().expect("embedding grad");
                let (gi, dtable) = embedding_backward(self.input(layer, 0), &gout, *vocab, *dim);
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step(lp.weight.data_mut(), &dtable, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::LayerNorm => {
                let gout = self.grads[layer.0].take().expect("layernorm grad");
                let (gi, dgamma, dbeta) = {
                    let lp = self.params[layer.0].as_ref().unwrap();
                    layernorm_backward(self.input(layer, 0), &gout, lp.weight.data())
                };
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step(lp.weight.data_mut(), &dgamma, &self.sgd);
                lp.b_state.step(&mut lp.bias, &dbeta, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Attention { heads } => {
                let gout = self.grads[layer.0].take().expect("attention grad");
                let (gi, dw, db) = {
                    let lp = self.params[layer.0].as_ref().unwrap();
                    attention_backward(
                        self.input(layer, 0),
                        lp.weight.data(),
                        &lp.bias,
                        &gout,
                        *heads,
                    )
                };
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step(lp.weight.data_mut(), &dw, &self.sgd);
                lp.b_state.step(&mut lp.bias, &db, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Mlp { hidden } => {
                let gout = self.grads[layer.0].take().expect("mlp grad");
                let (gi, dw, db) = {
                    let lp = self.params[layer.0].as_ref().unwrap();
                    mlp_backward(
                        self.input(layer, 0),
                        lp.weight.data(),
                        &lp.bias,
                        &gout,
                        *hidden,
                    )
                };
                self.grads[layer.0] = Some(gout);
                let lp = self.params[layer.0].as_mut().unwrap();
                lp.w_state.step(lp.weight.data_mut(), &dw, &self.sgd);
                lp.b_state.step(&mut lp.bias, &db, &self.sgd);
                self.accumulate_grad(prevs[0], gi);
            }
            LayerKind::Concat => {
                let gout = self.grads[layer.0].take().expect("concat grad");
                let shape = self.net.layer(layer).out_shape;
                let hw = shape.h * shape.w;
                let mut c_off = 0usize;
                for p in &prevs {
                    let pshape = self.net.layer(*p).out_shape;
                    let mut gi = Tensor::zeros(pshape);
                    for n in 0..shape.n {
                        let src_base = (n * shape.c + c_off) * hw;
                        let dst_base = n * pshape.c * hw;
                        gi.data_mut()[dst_base..dst_base + pshape.c * hw]
                            .copy_from_slice(&gout.data()[src_base..src_base + pshape.c * hw]);
                    }
                    c_off += pshape.c;
                    self.accumulate_grad(*p, gi);
                }
                self.grads[layer.0] = Some(gout);
            }
            LayerKind::Eltwise => {
                let gout = self.grads[layer.0].take().expect("eltwise grad");
                for p in &prevs {
                    self.accumulate_grad(*p, gout.clone());
                }
                self.grads[layer.0] = Some(gout);
            }
        }
    }

    fn drop_output(&mut self, layer: LayerId) {
        self.outputs[layer.0] = None;
    }

    fn drop_grad(&mut self, layer: LayerId) {
        self.grads[layer.0] = None;
    }

    fn loss(&self) -> Option<f32> {
        self.last_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::policy::Policy;
    use sn_sim::DeviceSpec;

    fn tiny_net(batch: usize) -> Net {
        let mut net = Net::new("tiny", Shape4::new(batch, 1, 8, 8));
        let d = net.data();
        let c1 = net.conv(d, 4, 3, 1, 1);
        let a1 = net.relu(c1);
        let p1 = net.max_pool(a1, 2, 2, 0);
        let f1 = net.fc(p1, 4);
        net.softmax(f1);
        net
    }

    fn backend(net: &Net) -> NumericBackend {
        NumericBackend::new(
            net,
            4,
            7,
            SgdParams {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            },
        )
    }

    #[test]
    fn training_reduces_loss() {
        let net = tiny_net(16);
        let mut ex = Executor::new(&net, DeviceSpec::k40c(), Policy::liveness_only())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        let mut losses = Vec::new();
        for _ in 0..30 {
            let r = ex.run_iteration().unwrap();
            losses.push(r.loss.unwrap());
        }
        let first = losses[..5].iter().sum::<f32>() / 5.0;
        let last = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            last < first * 0.8,
            "loss should drop: first ≈ {first}, last ≈ {last}, {losses:?}"
        );
    }

    #[test]
    fn recompute_policy_matches_plain_execution_exactly() {
        // Two executors, identical backend seeds: one with the full memory
        // stack (recompute + offload), one plain. Losses must be identical
        // to the last bit for several iterations.
        let net = tiny_net(8);
        let mut plain = Executor::new(&net, DeviceSpec::k40c(), Policy::liveness_only())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        let mut fancy = Executor::new(&net, DeviceSpec::k40c(), Policy::full_memory())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        for i in 0..5 {
            let rp = plain.run_iteration().unwrap();
            let rf = fancy.run_iteration().unwrap();
            assert!(rf.counters.recompute_forwards > 0 || i == usize::MAX);
            assert_eq!(
                rp.loss, rf.loss,
                "iteration {i}: recomputation must be numerically exact"
            );
        }
    }

    fn third_iteration(ex: &mut Executor) -> crate::IterationReport {
        ex.run_iteration().unwrap();
        ex.run_iteration().unwrap();
        ex.run_iteration().unwrap()
    }

    #[test]
    fn eviction_under_tiny_dram_is_numerically_exact() {
        let net = tiny_net(8);
        let mut roomy_ex = Executor::new(&net, DeviceSpec::k40c(), Policy::superneurons())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        let roomy = third_iteration(&mut roomy_ex);
        // Constrain DRAM to barely above l_peak so the LRU cache must evict.
        let cost = sn_graph::NetCost::of(&net);
        let tight_bytes = (cost.total_weight_bytes() + cost.l_peak()) * 3 / 2 + (1 << 20);
        let spec = DeviceSpec::k40c().with_dram(tight_bytes);
        let mut tight_ex = Executor::new(&net, spec, Policy::superneurons())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        let tight = third_iteration(&mut tight_ex);
        assert_eq!(roomy.loss, tight.loss, "eviction must not change results");
    }

    #[test]
    fn nonlinear_net_trains_through_joins() {
        let mut net = Net::new("res", Shape4::new(8, 4, 8, 8));
        let d = net.data();
        let c1 = net.conv(d, 4, 3, 1, 1);
        let b1 = net.bn(c1);
        let r1 = net.relu(b1);
        let c2 = net.conv(r1, 4, 3, 1, 1);
        let e = net.eltwise(&[c2, c1]);
        let r2 = net.relu(e);
        let f = net.fc(r2, 4);
        net.softmax(f);
        let mut ex = Executor::new(&net, DeviceSpec::k40c(), Policy::full_memory())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for i in 0..20 {
            let r = ex.run_iteration().unwrap();
            if i == 0 {
                first = r.loss.unwrap();
            }
            last = r.loss.unwrap();
        }
        assert!(last < first, "residual net should learn: {first} -> {last}");
    }

    #[test]
    fn concat_backward_splits_gradients() {
        let mut net = Net::new("cat", Shape4::new(4, 2, 6, 6));
        let d = net.data();
        let a = net.conv(d, 2, 3, 1, 1);
        let b = net.conv(d, 3, 3, 1, 1);
        let j = net.concat(&[a, b]);
        let f = net.fc(j, 4);
        net.softmax(f);
        let mut ex = Executor::new(&net, DeviceSpec::k40c(), Policy::liveness_only())
            .unwrap()
            .with_backend(Box::new(backend(&net)));
        // Just verify it runs and learns slightly.
        let r1 = ex.run_iteration().unwrap().loss.unwrap();
        for _ in 0..10 {
            ex.run_iteration().unwrap();
        }
        let r2 = ex.run_iteration().unwrap().loss.unwrap();
        assert!(r2.is_finite() && r1.is_finite());
    }
}
