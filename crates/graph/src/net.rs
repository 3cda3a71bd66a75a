//! The network DAG builder with shape inference and validation.

use std::sync::OnceLock;

use sn_tensor::pool::PoolParams;
use sn_tensor::Shape4;

use crate::layer::{Layer, LayerId, LayerKind, PoolKind};

/// A nonlinear neural network: a DAG of layers with a single DATA source and
/// (by convention) a SOFTMAX sink.
#[derive(Debug, Clone)]
pub struct Net {
    pub name: String,
    layers: Vec<Layer>,
    /// [`Net::fingerprint`], computed on first use. `layers` is private and
    /// [`Net::add`] is its only writer, so emptying this there is enough to
    /// keep it true.
    fingerprint: OnceLock<(u64, u64)>,
}

impl Net {
    /// Start a network with its DATA layer.
    pub fn new(name: impl Into<String>, input: Shape4) -> Self {
        let data = Layer {
            id: LayerId(0),
            name: "DATA0".into(),
            kind: LayerKind::Data { shape: input },
            prevs: vec![],
            nexts: vec![],
            out_shape: input,
        };
        Net {
            name: name.into(),
            layers: vec![data],
            fingerprint: OnceLock::new(),
        }
    }

    /// The DATA layer id.
    pub fn data(&self) -> LayerId {
        LayerId(0)
    }

    /// Append a layer consuming `prevs`; returns its id. Shape inference
    /// runs immediately, so invalid wiring fails at build time.
    pub fn add(&mut self, kind: LayerKind, prevs: &[LayerId]) -> LayerId {
        assert!(!prevs.is_empty(), "non-DATA layers need at least one input");
        let id = LayerId(self.layers.len());
        let out_shape = self.infer_shape(&kind, prevs);
        let name = format!("{}{}", kind.type_name(), id.0);
        self.fingerprint = OnceLock::new();
        for p in prevs {
            self.layers[p.0].nexts.push(id);
        }
        self.layers.push(Layer {
            id,
            name,
            kind,
            prevs: prevs.to_vec(),
            nexts: vec![],
            out_shape,
        });
        id
    }

    /// Append a layer in a linear chain after `prev`.
    pub fn chain(&mut self, kind: LayerKind, prev: LayerId) -> LayerId {
        self.add(kind, &[prev])
    }

    fn infer_shape(&self, kind: &LayerKind, prevs: &[LayerId]) -> Shape4 {
        let shape_of = |id: LayerId| self.layers[id.0].out_shape;
        match kind {
            LayerKind::Data { shape } => *shape,
            LayerKind::Conv { .. } => {
                assert_eq!(prevs.len(), 1, "CONV takes one input");
                let p = kind.conv_params().unwrap();
                p.out_shape(shape_of(prevs[0]))
            }
            LayerKind::Pool {
                kernel,
                stride,
                pad,
                ..
            } => {
                assert_eq!(prevs.len(), 1, "POOL takes one input");
                PoolParams {
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                }
                .out_shape(shape_of(prevs[0]))
            }
            LayerKind::Act | LayerKind::Bn | LayerKind::Dropout { .. } | LayerKind::Lrn { .. } => {
                assert_eq!(prevs.len(), 1, "elementwise layers take one input");
                shape_of(prevs[0])
            }
            LayerKind::LayerNorm | LayerKind::Attention { .. } | LayerKind::Mlp { .. } => {
                assert_eq!(prevs.len(), 1, "transformer blocks take one input");
                let s = shape_of(prevs[0]);
                if let LayerKind::Attention { heads } = kind {
                    assert!(
                        *heads > 0 && s.c % heads == 0,
                        "model dim {} must split across {heads} heads",
                        s.c
                    );
                }
                s
            }
            LayerKind::Embedding { dim, .. } => {
                assert_eq!(prevs.len(), 1, "EMBED takes one input");
                let s = shape_of(prevs[0]);
                assert_eq!(s.c, 1, "EMBED input carries one token id per position");
                Shape4::new(s.n, *dim, s.h, s.w)
            }
            LayerKind::Fc { out } => {
                assert_eq!(prevs.len(), 1, "FC takes one input");
                Shape4::flat(shape_of(prevs[0]).n, *out)
            }
            LayerKind::Softmax => {
                assert_eq!(prevs.len(), 1, "SOFTMAX takes one input");
                let s = shape_of(prevs[0]);
                Shape4::flat(s.n, s.features())
            }
            LayerKind::Concat => {
                assert!(prevs.len() >= 2, "CONCAT joins at least two inputs");
                let first = shape_of(prevs[0]);
                let mut c = 0;
                for p in prevs {
                    let s = shape_of(*p);
                    assert_eq!(
                        (s.n, s.h, s.w),
                        (first.n, first.h, first.w),
                        "CONCAT inputs must agree on N/H/W"
                    );
                    c += s.c;
                }
                Shape4::new(first.n, c, first.h, first.w)
            }
            LayerKind::Eltwise => {
                assert!(prevs.len() >= 2, "ELTWISE joins at least two inputs");
                let first = shape_of(prevs[0]);
                for p in prevs {
                    assert_eq!(shape_of(*p), first, "ELTWISE inputs must have equal shapes");
                }
                first
            }
        }
    }

    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0]
    }

    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Batch size of the input.
    pub fn batch(&self) -> usize {
        self.layers[0].out_shape.n
    }

    /// Input channels of a layer (channels of its first producer).
    pub fn in_channels(&self, id: LayerId) -> usize {
        let l = self.layer(id);
        self.layers[l.prevs[0].0].out_shape.c
    }

    /// Input shape of a (single-input) layer.
    pub fn in_shape(&self, id: LayerId) -> Shape4 {
        let l = self.layer(id);
        self.layers[l.prevs[0].0].out_shape
    }

    /// Structural digest of the network: 128 bits over every layer's kind,
    /// parameters, wiring and inferred shape (two independently seeded Fx
    /// passes, so a collision needs both 64-bit digests to collide).
    ///
    /// Two nets with equal fingerprints produce identical routes, liveness
    /// plans and memory plans — this is the `net` component of the planner's
    /// memo key (`sn_runtime::plan`'s `(fingerprint, policy, device)`
    /// cache). The name is deliberately excluded: renaming a network does
    /// not change what the planner would do with it.
    ///
    /// Digested once per structure and cached: every plan compile and every
    /// memo lookup asks for it.
    pub fn fingerprint(&self) -> (u64, u64) {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> (u64, u64) {
        (
            self.digest(0x5275_7374_5f46_7830),
            self.digest(0x736e_5f67_7261_7068),
        )
    }

    fn digest(&self, seed: u64) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = fxhash::FxHasher::default();
        seed.hash(&mut h);
        self.layers.len().hash(&mut h);
        for l in &self.layers {
            // Discriminant + every parameter; floats by bit pattern.
            match &l.kind {
                LayerKind::Data { shape } => (0u8, shape.n, shape.c, shape.h, shape.w).hash(&mut h),
                LayerKind::Conv {
                    out_channels,
                    kernel,
                    stride,
                    pad,
                } => (1u8, out_channels, kernel, stride, pad).hash(&mut h),
                LayerKind::Pool {
                    kind,
                    kernel,
                    stride,
                    pad,
                } => (
                    2u8,
                    matches!(kind, crate::layer::PoolKind::Max),
                    kernel,
                    stride,
                    pad,
                )
                    .hash(&mut h),
                LayerKind::Act => 3u8.hash(&mut h),
                LayerKind::Lrn { local_size } => (4u8, local_size).hash(&mut h),
                LayerKind::Bn => 5u8.hash(&mut h),
                // Dropout keeps the bits it stores — digest-identical to the
                // former `p.to_bits()` special case.
                LayerKind::Dropout { p_bits } => (6u8, p_bits).hash(&mut h),
                LayerKind::Fc { out } => (7u8, out).hash(&mut h),
                LayerKind::Softmax => 8u8.hash(&mut h),
                LayerKind::Concat => 9u8.hash(&mut h),
                LayerKind::Eltwise => 10u8.hash(&mut h),
                LayerKind::Embedding { vocab, dim } => (11u8, vocab, dim).hash(&mut h),
                LayerKind::LayerNorm => 12u8.hash(&mut h),
                LayerKind::Attention { heads } => (13u8, heads).hash(&mut h),
                LayerKind::Mlp { hidden } => (14u8, hidden).hash(&mut h),
            }
            // `out_shape` is omitted deliberately: shape inference is a
            // pure function of the kinds and wiring hashed above, so it
            // adds cost without adding discrimination.
            l.prevs.hash(&mut h);
        }
        h.finish()
    }

    /// Sanity checks: connectivity, single source, acyclicity by
    /// construction (edges only point to later ids).
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("empty network".into());
        }
        if !matches!(self.layers[0].kind, LayerKind::Data { .. }) {
            return Err("layer 0 must be DATA".into());
        }
        for l in &self.layers {
            for p in &l.prevs {
                if p.0 >= l.id.0 {
                    return Err(format!("{} has a non-causal input edge", l.name));
                }
                if !self.layers[p.0].nexts.contains(&l.id) {
                    return Err(format!("asymmetric edge {} -> {}", p.0, l.id.0));
                }
            }
        }
        // Every non-terminal layer must be consumed.
        for l in &self.layers {
            let terminal = matches!(l.kind, LayerKind::Softmax);
            if !terminal && l.nexts.is_empty() {
                return Err(format!("dangling layer {}", l.name));
            }
        }
        Ok(())
    }

    /// Convenience constructors for the common kinds.
    pub fn conv(
        &mut self,
        prev: LayerId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> LayerId {
        self.chain(
            LayerKind::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            },
            prev,
        )
    }

    pub fn max_pool(&mut self, prev: LayerId, kernel: usize, stride: usize, pad: usize) -> LayerId {
        self.chain(
            LayerKind::Pool {
                kind: PoolKind::Max,
                kernel,
                stride,
                pad,
            },
            prev,
        )
    }

    pub fn avg_pool(&mut self, prev: LayerId, kernel: usize, stride: usize, pad: usize) -> LayerId {
        self.chain(
            LayerKind::Pool {
                kind: PoolKind::Avg,
                kernel,
                stride,
                pad,
            },
            prev,
        )
    }

    pub fn relu(&mut self, prev: LayerId) -> LayerId {
        self.chain(LayerKind::Act, prev)
    }

    pub fn bn(&mut self, prev: LayerId) -> LayerId {
        self.chain(LayerKind::Bn, prev)
    }

    pub fn lrn(&mut self, prev: LayerId) -> LayerId {
        self.chain(LayerKind::Lrn { local_size: 5 }, prev)
    }

    pub fn dropout(&mut self, prev: LayerId, p: f32) -> LayerId {
        self.chain(LayerKind::dropout(p), prev)
    }

    pub fn fc(&mut self, prev: LayerId, out: usize) -> LayerId {
        self.chain(LayerKind::Fc { out }, prev)
    }

    pub fn embedding(&mut self, prev: LayerId, vocab: usize, dim: usize) -> LayerId {
        self.chain(LayerKind::Embedding { vocab, dim }, prev)
    }

    pub fn layernorm(&mut self, prev: LayerId) -> LayerId {
        self.chain(LayerKind::LayerNorm, prev)
    }

    pub fn attention(&mut self, prev: LayerId, heads: usize) -> LayerId {
        self.chain(LayerKind::Attention { heads }, prev)
    }

    pub fn mlp(&mut self, prev: LayerId, hidden: usize) -> LayerId {
        self.chain(LayerKind::Mlp { hidden }, prev)
    }

    pub fn softmax(&mut self, prev: LayerId) -> LayerId {
        self.chain(LayerKind::Softmax, prev)
    }

    pub fn concat(&mut self, prevs: &[LayerId]) -> LayerId {
        self.add(LayerKind::Concat, prevs)
    }

    pub fn eltwise(&mut self, prevs: &[LayerId]) -> LayerId {
        self.add(LayerKind::Eltwise, prevs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fan network of Fig. 3c: DATA forks into a CONV branch and a POOL
    /// branch, joined by CONCAT before FC.
    pub fn fan_net() -> Net {
        let mut net = Net::new("fan", Shape4::new(2, 3, 8, 8));
        let d = net.data();
        let c1 = net.conv(d, 4, 3, 1, 1);
        let p1 = net.max_pool(d, 2, 2, 0);
        let c2 = net.conv(p1, 4, 3, 2, 1); // brings it to 4x4? 8->4 pool, conv stride2 -> 2x2
        let c1p = net.max_pool(c1, 4, 4, 0); // 8 -> 2
        let j = net.concat(&[c1p, c2]);
        let f = net.fc(j, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn shapes_infer_through_fan_and_join() {
        let net = fan_net();
        net.validate().unwrap();
        let j = net
            .layers()
            .iter()
            .find(|l| matches!(l.kind, LayerKind::Concat))
            .unwrap();
        assert_eq!(j.out_shape, Shape4::new(2, 8, 2, 2));
    }

    #[test]
    fn eltwise_requires_matching_shapes() {
        let mut net = Net::new("t", Shape4::new(1, 4, 4, 4));
        let d = net.data();
        let a = net.conv(d, 4, 3, 1, 1);
        let r = net.eltwise(&[a, d]);
        assert_eq!(net.layer(r).out_shape, Shape4::new(1, 4, 4, 4));
    }

    #[test]
    #[should_panic(expected = "equal shapes")]
    fn eltwise_rejects_mismatched_shapes() {
        let mut net = Net::new("t", Shape4::new(1, 4, 4, 4));
        let d = net.data();
        let a = net.conv(d, 8, 3, 1, 1);
        net.eltwise(&[a, d]);
    }

    #[test]
    fn validation_catches_dangling_layers() {
        let mut net = Net::new("t", Shape4::new(1, 1, 4, 4));
        let d = net.data();
        let _orphan = net.conv(d, 2, 3, 1, 1);
        let c = net.conv(d, 2, 3, 1, 1);
        let f = net.fc(c, 2);
        net.softmax(f);
        assert!(net.validate().unwrap_err().contains("dangling"));
    }

    #[test]
    fn transformer_shapes_infer() {
        let mut net = Net::new("t", Shape4::new(2, 1, 6, 1));
        let d = net.data();
        let e = net.embedding(d, 100, 8);
        assert_eq!(net.layer(e).out_shape, Shape4::new(2, 8, 6, 1));
        let ln = net.layernorm(e);
        let a = net.attention(ln, 4);
        let m = net.mlp(a, 32);
        assert_eq!(net.layer(m).out_shape, Shape4::new(2, 8, 6, 1));
        net.softmax(m);
        net.validate().unwrap();
        // A different head count or hidden width changes the fingerprint.
        let fp = net.fingerprint();
        let mut other = Net::new("t", Shape4::new(2, 1, 6, 1));
        let d = other.data();
        let e = other.embedding(d, 100, 8);
        let ln = other.layernorm(e);
        let a = other.attention(ln, 2);
        let m = other.mlp(a, 32);
        other.softmax(m);
        assert_ne!(fp, other.fingerprint());
    }

    #[test]
    #[should_panic(expected = "must split across")]
    fn attention_rejects_indivisible_heads() {
        let mut net = Net::new("t", Shape4::new(1, 1, 4, 1));
        let d = net.data();
        let e = net.embedding(d, 10, 6);
        net.attention(e, 4);
    }

    #[test]
    fn fc_flattens() {
        let mut net = Net::new("t", Shape4::new(3, 2, 5, 5));
        let d = net.data();
        let f = net.fc(d, 7);
        net.softmax(f);
        assert_eq!(net.layer(f).out_shape, Shape4::flat(3, 7));
    }

    /// A small builder parameterized so each test case perturbs exactly one
    /// structural property.
    fn tower(batch: usize, ch: usize, kernel: usize, acts: usize, name: &str) -> Net {
        let mut net = Net::new(name, Shape4::new(batch, 3, 16, 16));
        let mut prev = net.data();
        let c = net.conv(prev, ch, kernel, 1, kernel / 2);
        prev = c;
        for _ in 0..acts {
            prev = net.relu(prev);
        }
        let f = net.fc(prev, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn fingerprint_is_stable_for_equal_nets() {
        // Two independent constructions of the same structure digest equal —
        // the group memo key (fingerprint, policy, device, replicas) relies
        // on this to share gang compilations across identical jobs.
        let a = tower(8, 16, 3, 1, "a");
        let b = tower(8, 16, 3, 1, "a");
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Repeated calls are stable (no interior mutation).
        assert_eq!(a.fingerprint(), a.fingerprint());
        // The name is deliberately excluded: renaming changes nothing the
        // planner would do.
        let renamed = tower(8, 16, 3, 1, "something-else");
        assert_eq!(a.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn cached_fingerprint_equals_a_fresh_digest_after_every_builder_call() {
        // Ask between builder calls, so each call has a cached value to
        // invalidate — including the one after the "finished" net was
        // already looked up.
        let mut net = Net::new("cache", Shape4::new(4, 3, 16, 16));
        let mut seen = vec![net.fingerprint()];
        let mut check = |net: &Net| {
            assert_eq!(net.fingerprint(), net.compute_fingerprint());
            assert_eq!(net.clone().fingerprint(), net.compute_fingerprint());
            assert!(
                !seen.contains(&net.fingerprint()),
                "a mutation kept the old digest"
            );
            seen.push(net.fingerprint());
        };
        let d = net.data();
        let c = net.conv(d, 8, 3, 1, 1);
        check(&net);
        let p = net.max_pool(d, 2, 2, 0);
        check(&net);
        let a = net.relu(c);
        check(&net);
        let a = net.max_pool(a, 2, 2, 0);
        check(&net);
        let p = net.conv(p, 8, 3, 1, 1);
        check(&net);
        let j = net.add(LayerKind::Eltwise, &[a, p]);
        check(&net);
        let f = net.chain(LayerKind::Fc { out: 10 }, j);
        check(&net);
        let s = net.softmax(f);
        check(&net);
        // The values themselves are pinned: caching must not move a digest.
        assert_eq!(
            tower(8, 16, 3, 1, "t").fingerprint(),
            (0xbafe_4304_b066_3f06, 0x5110_e27c_167a_f2a4)
        );
        net.dropout(s, 0.5);
        check(&net);
    }

    #[test]
    fn single_layer_perturbations_change_the_fingerprint() {
        let base = tower(8, 16, 3, 1, "t").fingerprint();
        // One changed parameter anywhere — batch, a layer's channel count,
        // a kernel size, or one extra layer — must produce a different
        // 128-bit digest.
        assert_ne!(base, tower(16, 16, 3, 1, "t").fingerprint(), "batch");
        assert_ne!(base, tower(8, 32, 3, 1, "t").fingerprint(), "channels");
        assert_ne!(base, tower(8, 16, 5, 1, "t").fingerprint(), "kernel");
        assert_ne!(base, tower(8, 16, 3, 2, "t").fingerprint(), "extra layer");
        // Rewiring with identical layer multiset: fan vs chain.
        let fan = fan_net().fingerprint();
        assert_ne!(base, fan, "wiring");
    }

    #[test]
    fn fan_out_is_observable() {
        let net = fan_net();
        assert!(net.layer(net.data()).nexts.len() > 1);
        let j = net
            .layers()
            .iter()
            .find(|l| matches!(l.kind, LayerKind::Concat))
            .unwrap();
        assert!(j.prevs.len() > 1);
    }
}
