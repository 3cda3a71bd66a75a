//! Per-layer memory and compute cost models.
//!
//! These drive everything quantitative: `l_f`/`l_b` (the memory terms of the
//! paper's `peak_m` formulas), virtual execution times, and the Fig. 8
//! breakdowns by layer type. FLOP counts are the standard analytic ones;
//! execution time is the max of a compute-bound term (FLOPs over effective
//! throughput) and a bandwidth-bound term (bytes moved over DRAM bandwidth),
//! plus a fixed kernel-launch overhead — the usual roofline shape that makes
//! CONV/FC compute-bound and POOL/ACT/BN/LRN bandwidth-bound, which is
//! precisely the asymmetry Cost-Aware Recomputation exploits.

use sn_sim::{DeviceSpec, SimTime};

use crate::layer::{Layer, LayerId, LayerKind};
use crate::net::Net;
use crate::precision::Precision;

/// Fixed kernel launch overhead added to every compute operation, on every
/// card.
const KERNEL_LAUNCH: SimTime = SimTime::from_us(5);

/// Arithmetic efficiency (fraction of peak FLOP/s) by layer family.
fn efficiency(kind: &LayerKind) -> f64 {
    match kind {
        LayerKind::Conv { .. } => 0.50,
        // GEMM-dominated layers: FC and the transformer attention/MLP blocks
        // run the same tiled-GEMM kernels.
        LayerKind::Fc { .. } | LayerKind::Attention { .. } | LayerKind::Mlp { .. } => 0.35,
        // Elementwise/pooling kernels never approach peak arithmetic
        // throughput; their time is dominated by the bandwidth term anyway.
        _ => 0.10,
    }
}

/// Static cost description of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    /// Forward FLOPs.
    pub fwd_flops: u64,
    /// Backward FLOPs (data + weight gradients).
    pub bwd_flops: u64,
    /// Bytes touched by the forward kernel (reads + writes).
    pub fwd_bytes_moved: u64,
    /// Bytes touched by the backward kernel.
    pub bwd_bytes_moved: u64,
    /// Output tensor bytes — the dominant component of `l_f`.
    pub out_bytes: u64,
    /// Trainable parameter bytes (weights + biases), resident all iteration.
    pub weight_bytes: u64,
    /// Output-gradient tensor bytes (`dY`), the dominant component of `l_b`.
    pub grad_bytes: u64,
    /// Weight-gradient bytes, transient within the backward step.
    pub wgrad_bytes: u64,
    /// Non-conv forward workspace (e.g. max-pool argmax mask, attention
    /// score matrices), transient.
    pub fwd_workspace: u64,
    /// Total bytes of the layer's input tensors.
    pub in_bytes: u64,
    /// Bytes this layer contributes to the data-parallel all-reduce: its
    /// weight-gradient *elements* at the gradient dtype. Equals
    /// `weight_bytes` at fp32; half of it under bf16/f16 mixed precision.
    pub allreduce_bytes: u64,
    /// Does the backward kernel read the input tensor (input-formulated)?
    pub bwd_reads_input: bool,
}

impl LayerCost {
    /// Build the cost model for `layer` within `net` at `precision`.
    ///
    /// Activation-class tensors (outputs, inputs, activation gradients, GEMM
    /// workspaces) scale by the activation/gradient dtype; master weights,
    /// weight gradients, and the pool argmax mask stay fp32/u32.
    pub fn with_precision(net: &Net, layer: &Layer, precision: Precision) -> LayerCost {
        let out = layer.out_shape;
        let out_elems = out.numel() as u64;
        let act = precision.activations;
        let out_bytes = out.bytes_of(act);
        let in_shape = if layer.prevs.is_empty() {
            out
        } else {
            net.layer(layer.prevs[0]).out_shape
        };
        let in_bytes: u64 = layer
            .prevs
            .iter()
            .map(|p| net.layer(*p).out_shape.bytes_of(act))
            .sum();

        let mut c = LayerCost {
            out_bytes,
            grad_bytes: out.bytes_of(precision.gradients),
            in_bytes,
            bwd_reads_input: layer.kind.bwd_needs_input(),
            ..Default::default()
        };

        match &layer.kind {
            LayerKind::Data { .. } => {
                // Producing the batch: a host copy, costed as bytes moved.
                c.fwd_bytes_moved = out_bytes;
                c.grad_bytes = 0; // no gradient w.r.t. input data
            }
            LayerKind::Conv { kernel, .. } => {
                let cin = net.in_channels(layer.id) as u64;
                let k = *kernel as u64;
                let macs = out_elems * cin * k * k;
                c.fwd_flops = 2 * macs;
                // backward-data + backward-filter ≈ 2× forward.
                c.bwd_flops = 4 * macs;
                let w = cin * (out.c as u64) * k * k * 4 + out.c as u64 * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = w;
                c.fwd_bytes_moved = in_bytes + out_bytes + w;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes) + 2 * w;
            }
            LayerKind::Fc { out: k } => {
                let f = in_shape.features() as u64;
                let n = in_shape.n as u64;
                let k = *k as u64;
                c.fwd_flops = 2 * n * f * k;
                c.bwd_flops = 4 * n * f * k;
                let w = f * k * 4 + k * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = w;
                c.fwd_bytes_moved = in_bytes + out_bytes + w;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes) + 2 * w;
            }
            LayerKind::Pool { kernel, .. } => {
                let k = *kernel as u64;
                c.fwd_flops = out_elems * k * k;
                c.bwd_flops = out_elems;
                c.fwd_bytes_moved = in_bytes + out_bytes;
                c.bwd_bytes_moved = in_bytes + out_bytes;
                // argmax mask: one u32 per output element.
                c.fwd_workspace = out_elems * 4;
            }
            LayerKind::Act => {
                c.fwd_flops = out_elems;
                c.bwd_flops = out_elems;
                c.fwd_bytes_moved = in_bytes + out_bytes;
                c.bwd_bytes_moved = 2 * out_bytes;
            }
            LayerKind::Lrn { local_size } => {
                let ls = *local_size as u64;
                c.fwd_flops = out_elems * (2 * ls + 2);
                c.bwd_flops = out_elems * (3 * ls + 3);
                c.fwd_bytes_moved = in_bytes * 2 + out_bytes;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes);
            }
            LayerKind::Bn => {
                c.fwd_flops = out_elems * 4;
                c.bwd_flops = out_elems * 7;
                // gamma/beta (+ running stats): 4 floats per channel.
                let w = out.c as u64 * 4 * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = out.c as u64 * 2 * 4;
                c.fwd_bytes_moved = in_bytes * 2 + out_bytes;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes);
            }
            LayerKind::Dropout { .. } => {
                c.fwd_flops = 2 * out_elems;
                c.bwd_flops = 2 * out_elems;
                c.fwd_bytes_moved = in_bytes + out_bytes;
                c.bwd_bytes_moved = 2 * out_bytes;
            }
            LayerKind::Softmax => {
                c.fwd_flops = 5 * out_elems;
                c.bwd_flops = 2 * out_elems;
                c.fwd_bytes_moved = in_bytes + out_bytes;
                c.bwd_bytes_moved = 2 * out_bytes;
            }
            LayerKind::Concat | LayerKind::Eltwise => {
                c.fwd_flops = out_elems;
                c.bwd_flops = out_elems;
                c.fwd_bytes_moved = in_bytes + out_bytes;
                c.bwd_bytes_moved = in_bytes + out_bytes;
            }
            LayerKind::Embedding { vocab, dim } => {
                // A gather: ~one read-modify-write per output element; the
                // backward scatter-adds into the (fp32) table gradient.
                c.fwd_flops = out_elems;
                c.bwd_flops = out_elems;
                let w = (*vocab as u64) * (*dim as u64) * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = w;
                c.fwd_bytes_moved = in_bytes + 2 * out_bytes;
                c.bwd_bytes_moved = 2 * out_bytes;
            }
            LayerKind::LayerNorm => {
                // Per-position mean/var + normalize, Welford-ish flop counts
                // mirroring BN; gamma/beta are 2 floats per channel.
                c.fwd_flops = out_elems * 4;
                c.bwd_flops = out_elems * 7;
                let w = out.c as u64 * 2 * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = w;
                c.fwd_bytes_moved = in_bytes * 2 + out_bytes;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes);
            }
            LayerKind::Attention { heads } => {
                // GEMM-dominated: four d×d projections (8·s·d² MACs·2) plus
                // scores and context (2·2·s²·d), per batch item.
                let n = out.n as u64;
                let d = out.c as u64;
                let s = (out.h * out.w) as u64;
                c.fwd_flops = n * (8 * s * d * d + 4 * s * s * d);
                c.bwd_flops = 2 * c.fwd_flops;
                let w = (4 * d * d + 4 * d) * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = w;
                c.fwd_bytes_moved = in_bytes + out_bytes + w;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes) + 2 * w;
                // Transient q/k/v plus the per-head score matrices, held at
                // activation precision — the seq²-dominant term that makes
                // long sequences expensive.
                c.fwd_workspace = n * (3 * s * d + *heads as u64 * s * s) * act.size_of();
            }
            LayerKind::Mlp { hidden } => {
                let n = out.n as u64;
                let d = out.c as u64;
                let s = (out.h * out.w) as u64;
                let hid = *hidden as u64;
                c.fwd_flops = 4 * n * s * d * hid;
                c.bwd_flops = 2 * c.fwd_flops;
                let w = (2 * hid * d + hid + d) * 4;
                c.weight_bytes = w;
                c.wgrad_bytes = w;
                c.fwd_bytes_moved = in_bytes + out_bytes + w;
                c.bwd_bytes_moved = 2 * (in_bytes + out_bytes) + 2 * w;
                // The hidden activation, transient at activation precision.
                c.fwd_workspace = n * s * hid * act.size_of();
            }
        }
        // All-reduce payload: one element per weight-gradient element,
        // shipped at the gradient dtype (fp32 master weights stay local).
        c.allreduce_bytes = c.weight_bytes / 4 * precision.gradients.size_of();
        c
    }

    /// Forward memory usage `l_f` of the paper: the tensors this layer's
    /// forward pass materializes (its output).
    pub fn l_f(&self) -> u64 {
        self.out_bytes
    }

    /// Backward memory usage `l_b`: the output gradient plus the transient
    /// weight gradient.
    pub fn l_b(&self) -> u64 {
        self.grad_bytes + self.wgrad_bytes
    }

    /// Working set of the layer's *forward* computation: inputs + output
    /// (+ transient mask workspace).
    pub fn working_set_fwd(&self) -> u64 {
        self.in_bytes + self.out_bytes + self.fwd_workspace
    }

    /// Working set of the layer's *backward* computation: the output
    /// gradient `dY`, the input gradient `dX` being produced, the saved
    /// input `X` when the kernel is input-formulated, and the transient
    /// weight gradient. This is the quantity the paper's floor argument
    /// uses: "cuDNN needs at least stash the tensors in a layer to compute".
    pub fn working_set_bwd(&self) -> u64 {
        let x = if self.bwd_reads_input {
            self.in_bytes
        } else {
            0
        };
        // dY + dX + (X if read) + dW.
        self.grad_bytes + self.in_bytes + x + self.wgrad_bytes
    }

    /// The per-layer memory floor `l_i`: the larger of the two working sets.
    pub fn working_set(&self) -> u64 {
        self.working_set_fwd().max(self.working_set_bwd())
    }

    fn roofline(flops: u64, eff: f64, bytes: u64, spec: &DeviceSpec) -> SimTime {
        let ft = sn_sim::time::compute_time(flops, spec.peak_gflops * eff);
        let bt = sn_sim::time::transfer_time(bytes, spec.mem_bw_gbps);
        KERNEL_LAUNCH + ft.max(bt)
    }

    /// Forward execution time on `spec`, with the selected convolution
    /// algorithm's speed factor (1.0 = the zero-workspace baseline; the
    /// runtime divides by a larger factor when a faster algorithm fits).
    #[inline]
    pub fn fwd_time(&self, kind: &LayerKind, spec: &DeviceSpec, algo_speedup: f64) -> SimTime {
        debug_assert!(algo_speedup >= 1.0);
        let flops = (self.fwd_flops as f64 / algo_speedup) as u64;
        Self::roofline(flops, efficiency(kind), self.fwd_bytes_moved, spec)
    }

    /// Backward execution time on `spec`.
    #[inline]
    pub fn bwd_time(&self, kind: &LayerKind, spec: &DeviceSpec, algo_speedup: f64) -> SimTime {
        debug_assert!(algo_speedup >= 1.0);
        let flops = (self.bwd_flops as f64 / algo_speedup) as u64;
        Self::roofline(flops, efficiency(kind), self.bwd_bytes_moved, spec)
    }
}

/// Costs for every layer of a network, plus aggregations.
#[derive(Debug, Clone)]
pub struct NetCost {
    per_layer: Vec<LayerCost>,
}

impl NetCost {
    /// fp32 costs — shorthand for [`NetCost::with_precision`] at
    /// [`Precision::fp32`].
    pub fn of(net: &Net) -> NetCost {
        Self::with_precision(net, Precision::fp32())
    }

    /// Costs for every layer at `precision`.
    pub fn with_precision(net: &Net, precision: Precision) -> NetCost {
        NetCost {
            per_layer: net
                .layers()
                .iter()
                .map(|l| LayerCost::with_precision(net, l, precision))
                .collect(),
        }
    }

    #[inline]
    pub fn layer(&self, id: LayerId) -> &LayerCost {
        &self.per_layer[id.0]
    }

    /// `Σ l_f` over all layers.
    pub fn sum_l_f(&self) -> u64 {
        self.per_layer.iter().map(|c| c.l_f()).sum()
    }

    /// `Σ l_b` over all layers.
    pub fn sum_l_b(&self) -> u64 {
        self.per_layer.iter().map(|c| c.l_b()).sum()
    }

    /// `l_peak = max_i(l_i)` where `l_i` is the layer's computation working
    /// set — the floor Cost-Aware Recomputation reaches (§3.4).
    pub fn l_peak(&self) -> u64 {
        self.per_layer
            .iter()
            .map(|c| c.working_set())
            .max()
            .unwrap_or(0)
    }

    /// The layer achieving `l_peak`.
    pub fn l_peak_layer(&self) -> LayerId {
        let peak = self.l_peak();
        LayerId(
            self.per_layer
                .iter()
                .position(|c| c.working_set() == peak)
                .unwrap_or(0),
        )
    }

    /// Total trainable parameter bytes (always fp32 master weights).
    pub fn total_weight_bytes(&self) -> u64 {
        self.per_layer.iter().map(|c| c.weight_bytes).sum()
    }

    /// Fig. 8 aggregation: per layer-type `(fwd+bwd time share, memory
    /// share)`, returned as `(type, time_ns, l_f_bytes)` rows.
    pub fn breakdown_by_type(&self, net: &Net, spec: &DeviceSpec) -> Vec<(String, u64, u64)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for layer in net.layers() {
            let c = self.layer(layer.id);
            let t = c.fwd_time(&layer.kind, spec, 1.0).as_ns()
                + c.bwd_time(&layer.kind, spec, 1.0).as_ns();
            let e = map.entry(layer.kind.type_name()).or_insert((0, 0));
            e.0 += t;
            e.1 += c.l_f();
        }
        map.into_iter()
            .map(|(k, (t, m))| (k.to_string(), t, m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_tensor::Shape4;

    fn alexnet_like() -> Net {
        // A miniature conv->relu->lrn->pool->fc->softmax chain, sized so the
        // convolution is genuinely compute-heavy (realistic proportions).
        let mut net = Net::new("mini", Shape4::new(64, 3, 32, 32));
        let d = net.data();
        let c = net.conv(d, 128, 5, 1, 2);
        let r = net.relu(c);
        let l = net.lrn(r);
        let p = net.max_pool(l, 2, 2, 0);
        let f = net.fc(p, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn conv_flops_match_analytic_formula() {
        let net = alexnet_like();
        let conv = &net.layers()[1];
        let c = LayerCost::with_precision(&net, conv, Precision::fp32());
        // 2 * N*K*OH*OW * C*R*S = 2 * 8*16*32*32 * 3*5*5
        assert_eq!(c.fwd_flops, 2 * 64 * 128 * 32 * 32 * 3 * 5 * 5);
        assert_eq!(c.bwd_flops, 2 * c.fwd_flops);
    }

    #[test]
    fn weight_bytes_cover_filters_and_bias() {
        let net = alexnet_like();
        let conv = &net.layers()[1];
        let c = LayerCost::with_precision(&net, conv, Precision::fp32());
        assert_eq!(c.weight_bytes, (128 * 3 * 5 * 5 + 128) * 4);
    }

    #[test]
    fn elementwise_layers_are_bandwidth_bound() {
        let net = alexnet_like();
        let spec = DeviceSpec::k40c();
        let relu = &net.layers()[2];
        let c = LayerCost::with_precision(&net, relu, Precision::fp32());
        let t = c.fwd_time(&relu.kind, &spec, 1.0);
        // Pure bandwidth bound: bytes/bw plus launch overhead.
        let expect =
            KERNEL_LAUNCH + sn_sim::time::transfer_time(c.fwd_bytes_moved, spec.mem_bw_gbps);
        assert_eq!(t, expect);
    }

    #[test]
    fn conv_dominates_time_activations_dominate_memory() {
        let net = alexnet_like();
        let cost = NetCost::of(&net);
        let spec = DeviceSpec::k40c();
        let rows = cost.breakdown_by_type(&net, &spec);
        let total_t: u64 = rows.iter().map(|r| r.1).sum();
        let total_m: u64 = rows.iter().map(|r| r.2).sum();
        let conv_t = rows.iter().find(|r| r.0 == "CONV").unwrap().1;
        let cheap_m: u64 = rows
            .iter()
            .filter(|r| ["ACT", "LRN", "POOL"].contains(&r.0.as_str()))
            .map(|r| r.2)
            .sum();
        assert!(
            conv_t * 2 > total_t,
            "CONV should be >50% of time: {conv_t}/{total_t}"
        );
        assert!(
            cheap_m * 2 > total_m,
            "cheap layers should be >50% of memory: {cheap_m}/{total_m}"
        );
    }

    #[test]
    fn l_peak_is_max_layer_working_set() {
        let net = alexnet_like();
        let cost = NetCost::of(&net);
        let manual = net
            .layers()
            .iter()
            .map(|l| cost.layer(l.id).working_set())
            .max()
            .unwrap();
        assert_eq!(cost.l_peak(), manual);
        // The floor sits below the whole-network sum but above any single
        // output tensor.
        assert!(cost.l_peak() <= cost.sum_l_f() + cost.sum_l_b());
        let max_out = net
            .layers()
            .iter()
            .map(|l| cost.layer(l.id).l_f())
            .max()
            .unwrap();
        assert!(cost.l_peak() >= max_out);
    }

    #[test]
    fn algo_speedup_reduces_conv_time() {
        let net = alexnet_like();
        let conv = &net.layers()[1];
        let c = LayerCost::with_precision(&net, conv, Precision::fp32());
        let spec = DeviceSpec::k40c();
        let slow = c.fwd_time(&conv.kind, &spec, 1.0);
        let fast = c.fwd_time(&conv.kind, &spec, 2.5);
        assert!(fast < slow);
    }

    #[test]
    fn data_layer_has_no_gradient() {
        let net = alexnet_like();
        let cost = NetCost::of(&net);
        assert_eq!(cost.layer(LayerId(0)).grad_bytes, 0);
    }

    fn tiny_gpt() -> Net {
        let mut net = Net::new("tiny-gpt", Shape4::new(2, 1, 8, 1));
        let d = net.data();
        let e = net.embedding(d, 64, 16);
        let ln = net.layernorm(e);
        let a = net.attention(ln, 4);
        let m = net.mlp(a, 32);
        net.softmax(m);
        net
    }

    #[test]
    fn mixed_precision_halves_activations_keeps_weights_fp32() {
        use crate::precision::Precision;
        let net = tiny_gpt();
        let fp32 = NetCost::with_precision(&net, Precision::fp32());
        let bf16 = NetCost::with_precision(&net, Precision::bf16_mixed());
        for l in net.layers() {
            let a = fp32.layer(l.id);
            let b = bf16.layer(l.id);
            assert_eq!(a.out_bytes, 2 * b.out_bytes, "{}: out halves", l.name);
            assert_eq!(a.grad_bytes, 2 * b.grad_bytes, "{}: grad halves", l.name);
            // Master weights and their gradients stay fp32.
            assert_eq!(a.weight_bytes, b.weight_bytes, "{}: weights fixed", l.name);
            assert_eq!(a.wgrad_bytes, b.wgrad_bytes, "{}: wgrads fixed", l.name);
            // All-reduce payload ships at the gradient dtype.
            assert_eq!(
                b.allreduce_bytes,
                a.weight_bytes / 2,
                "{}: wire bytes halve",
                l.name
            );
        }
        let payload = |c: &NetCost| c.per_layer.iter().map(|l| l.allreduce_bytes).sum::<u64>();
        assert_eq!(payload(&fp32), fp32.total_weight_bytes());
        assert_eq!(payload(&bf16) * 2, bf16.total_weight_bytes());
        // `of` stays the fp32 shorthand.
        assert_eq!(
            NetCost::of(&net).total_weight_bytes(),
            fp32.total_weight_bytes()
        );
    }

    #[test]
    fn attention_and_mlp_are_gemm_dominated() {
        let net = tiny_gpt();
        let cost = NetCost::of(&net);
        let spec = DeviceSpec::k40c();
        let attn = net
            .layers()
            .iter()
            .find(|l| matches!(l.kind, LayerKind::Attention { .. }))
            .unwrap();
        let mlp = net
            .layers()
            .iter()
            .find(|l| matches!(l.kind, LayerKind::Mlp { .. }))
            .unwrap();
        // Analytic flop counts: n(8sd² + 4s²d) and 4nsd·hidden.
        assert_eq!(
            cost.layer(attn.id).fwd_flops,
            2 * (8 * 8 * 16 * 16 + 4 * 8 * 8 * 16)
        );
        assert_eq!(cost.layer(mlp.id).fwd_flops, 4 * 2 * 8 * 16 * 32);
        // The GEMM blocks dominate the cheap layers' time.
        let ln = net
            .layers()
            .iter()
            .find(|l| matches!(l.kind, LayerKind::LayerNorm))
            .unwrap();
        assert!(
            cost.layer(attn.id).fwd_time(&attn.kind, &spec, 1.0)
                >= cost.layer(ln.id).fwd_time(&ln.kind, &spec, 1.0)
        );
    }
}
