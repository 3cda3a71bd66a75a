//! # sn-models — the network zoo of the paper's evaluation
//!
//! Builders over `sn-graph` for every architecture §4 measures:
//!
//! * [`alexnet`] — the exact 23-layer chain of the paper's footnote 3;
//! * [`vgg16`] / [`vgg19`];
//! * [`resnet`] — bottleneck ResNet with the Table 4 depth formula
//!   `depth = 3·(n1+n2+n3+n4) + 2` (`resnet50`/`101`/`152` presets, plus
//!   [`resnet_depth`] which varies `n3` exactly as the paper does);
//! * [`inception_v4`] — stem + Inception-A/B/C with reduction blocks
//!   (fan/join structure);
//! * [`densenet`] — dense blocks with full concat joins;
//! * [`lenet`] — a small net for numeric-mode training tests and examples.
//!
//! ImageNet-scale inputs are 3×224×224 (AlexNet 3×227×227), 1000 classes.

use sn_graph::{LayerId, Net, Shape4};

/// ImageNet class count.
pub const CLASSES: usize = 1000;

/// AlexNet at `batch`, with the paper's layer order: CONV1→RELU1→LRN1→POOL1
/// →CONV2→RELU2→LRN2→POOL2→CONV3→RELU3→CONV4→RELU4→CONV5→RELU5→POOL5→FC1
/// →RELU6→DROPOUT1→FC2→RELU7→DROPOUT2→FC3→SOFTMAX (23 layers + DATA).
pub fn alexnet(batch: usize) -> Net {
    let mut net = Net::new("AlexNet", Shape4::new(batch, 3, 227, 227));
    let d = net.data();
    let c1 = net.conv(d, 96, 11, 4, 0); // 55x55
    let r1 = net.relu(c1);
    let n1 = net.lrn(r1);
    let p1 = net.max_pool(n1, 3, 2, 0); // 27x27
    let c2 = net.conv(p1, 256, 5, 1, 2);
    let r2 = net.relu(c2);
    let n2 = net.lrn(r2);
    let p2 = net.max_pool(n2, 3, 2, 0); // 13x13
    let c3 = net.conv(p2, 384, 3, 1, 1);
    let r3 = net.relu(c3);
    let c4 = net.conv(r3, 384, 3, 1, 1);
    let r4 = net.relu(c4);
    let c5 = net.conv(r4, 256, 3, 1, 1);
    let r5 = net.relu(c5);
    let p5 = net.max_pool(r5, 3, 2, 0); // 6x6
    let f1 = net.fc(p5, 4096);
    let r6 = net.relu(f1);
    let d1 = net.dropout(r6, 0.5);
    let f2 = net.fc(d1, 4096);
    let r7 = net.relu(f2);
    let d2 = net.dropout(r7, 0.5);
    let f3 = net.fc(d2, CLASSES);
    net.softmax(f3);
    net
}

fn vgg_block(net: &mut Net, mut prev: LayerId, convs: usize, channels: usize) -> LayerId {
    for _ in 0..convs {
        let c = net.conv(prev, channels, 3, 1, 1);
        prev = net.relu(c);
    }
    net.max_pool(prev, 2, 2, 0)
}

fn vgg(batch: usize, name: &str, blocks: &[(usize, usize)]) -> Net {
    let mut net = Net::new(name, Shape4::new(batch, 3, 224, 224));
    let mut prev = net.data();
    for (convs, channels) in blocks {
        prev = vgg_block(&mut net, prev, *convs, *channels);
    }
    let f1 = net.fc(prev, 4096);
    let r1 = net.relu(f1);
    let d1 = net.dropout(r1, 0.5);
    let f2 = net.fc(d1, 4096);
    let r2 = net.relu(f2);
    let d2 = net.dropout(r2, 0.5);
    let f3 = net.fc(d2, CLASSES);
    net.softmax(f3);
    net
}

/// VGG-16 (configuration D).
pub fn vgg16(batch: usize) -> Net {
    vgg(
        batch,
        "VGG16",
        &[(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)],
    )
}

/// VGG-19 (configuration E).
pub fn vgg19(batch: usize) -> Net {
    vgg(
        batch,
        "VGG19",
        &[(2, 64), (2, 128), (4, 256), (4, 512), (4, 512)],
    )
}

/// One bottleneck residual unit: 1×1 reduce → 3×3 → 1×1 expand, with BN+ReLU
/// after each conv and an elementwise join with the (possibly projected)
/// shortcut.
fn bottleneck(
    net: &mut Net,
    input: LayerId,
    mid: usize,
    out: usize,
    stride: usize,
    project: bool,
) -> LayerId {
    let c1 = net.conv(input, mid, 1, stride, 0);
    let b1 = net.bn(c1);
    let r1 = net.relu(b1);
    let c2 = net.conv(r1, mid, 3, 1, 1);
    let b2 = net.bn(c2);
    let r2 = net.relu(b2);
    let c3 = net.conv(r2, out, 1, 1, 0);
    let b3 = net.bn(c3);
    let shortcut = if project {
        let sc = net.conv(input, out, 1, stride, 0);
        net.bn(sc)
    } else {
        input
    };
    let e = net.eltwise(&[b3, shortcut]);
    net.relu(e)
}

/// Bottleneck ResNet with stage unit counts `(n1, n2, n3, n4)` —
/// `depth = 3·(n1+n2+n3+n4) + 2` per Table 4's accounting.
pub fn resnet(batch: usize, n: (usize, usize, usize, usize)) -> Net {
    let depth = 3 * (n.0 + n.1 + n.2 + n.3) + 2;
    let mut net = Net::new(format!("ResNet{depth}"), Shape4::new(batch, 3, 224, 224));
    let d = net.data();
    let c = net.conv(d, 64, 7, 2, 3); // 112x112
    let b = net.bn(c);
    let r = net.relu(b);
    let mut prev = net.max_pool(r, 3, 2, 1); // 56x56

    let stages = [
        (n.0, 64usize, 256usize, 1usize),
        (n.1, 128, 512, 2),
        (n.2, 256, 1024, 2),
        (n.3, 512, 2048, 2),
    ];
    for (units, mid, out, first_stride) in stages {
        for u in 0..units {
            let (stride, project) = if u == 0 {
                (first_stride, true)
            } else {
                (1, false)
            };
            prev = bottleneck(&mut net, prev, mid, out, stride, project);
        }
    }
    let p = net.avg_pool(prev, 7, 7, 0);
    let f = net.fc(p, CLASSES);
    net.softmax(f);
    net
}

/// ResNet-50: (3, 4, 6, 3).
pub fn resnet50(batch: usize) -> Net {
    resnet(batch, (3, 4, 6, 3))
}

/// ResNet-101: (3, 4, 23, 3).
pub fn resnet101(batch: usize) -> Net {
    resnet(batch, (3, 4, 23, 3))
}

/// ResNet-152: (3, 8, 36, 3).
pub fn resnet152(batch: usize) -> Net {
    resnet(batch, (3, 8, 36, 3))
}

/// The Table 4 depth knob: `n1 = 6, n2 = 32, n4 = 6` fixed, `n3` varied, so
/// `depth = 3·(44 + n3) + 2`. Returns the net for a requested `depth`
/// (rounded down to a representable one).
pub fn resnet_depth(batch: usize, depth: usize) -> Net {
    let total_units = depth.saturating_sub(2) / 3;
    let n3 = total_units.saturating_sub(6 + 32 + 6).max(1);
    resnet(batch, (6, 32, n3, 6))
}

// ---------------------------------------------------------------------
// Inception v4 (simplified but faithful fan/join structure)
// ---------------------------------------------------------------------

fn conv_bn_relu(
    net: &mut Net,
    prev: LayerId,
    ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> LayerId {
    let c = net.conv(prev, ch, k, stride, pad);
    let b = net.bn(c);
    net.relu(b)
}

/// Inception-A block: four parallel branches concatenated.
fn inception_a(net: &mut Net, prev: LayerId) -> LayerId {
    let b1 = conv_bn_relu(net, prev, 96, 1, 1, 0);
    let b2a = conv_bn_relu(net, prev, 64, 1, 1, 0);
    let b2 = conv_bn_relu(net, b2a, 96, 3, 1, 1);
    let b3a = conv_bn_relu(net, prev, 64, 1, 1, 0);
    let b3b = conv_bn_relu(net, b3a, 96, 3, 1, 1);
    let b3 = conv_bn_relu(net, b3b, 96, 3, 1, 1);
    let b4a = net.avg_pool(prev, 3, 1, 1);
    let b4 = conv_bn_relu(net, b4a, 96, 1, 1, 0);
    net.concat(&[b1, b2, b3, b4])
}

fn reduction_a(net: &mut Net, prev: LayerId) -> LayerId {
    let b1 = conv_bn_relu(net, prev, 384, 3, 2, 0);
    let b2a = conv_bn_relu(net, prev, 192, 1, 1, 0);
    let b2b = conv_bn_relu(net, b2a, 224, 3, 1, 1);
    let b2 = conv_bn_relu(net, b2b, 256, 3, 2, 0);
    let b3 = net.max_pool(prev, 3, 2, 0);
    net.concat(&[b1, b2, b3])
}

fn inception_b(net: &mut Net, prev: LayerId) -> LayerId {
    let b1 = conv_bn_relu(net, prev, 384, 1, 1, 0);
    // The 1x7 -> 7x1 pair, modelled as two square 3x3 convs of the same
    // channel progression.
    let b2a = conv_bn_relu(net, prev, 192, 1, 1, 0);
    let b2b = conv_bn_relu(net, b2a, 224, 3, 1, 1);
    let b2 = conv_bn_relu(net, b2b, 256, 3, 1, 1);
    // The 7x1 -> 1x7 -> 7x1 -> 1x7 chain (five convs in the original).
    let b3a = conv_bn_relu(net, prev, 192, 1, 1, 0);
    let b3b = conv_bn_relu(net, b3a, 192, 3, 1, 1);
    let b3c = conv_bn_relu(net, b3b, 224, 3, 1, 1);
    let b3d = conv_bn_relu(net, b3c, 224, 3, 1, 1);
    let b3 = conv_bn_relu(net, b3d, 256, 3, 1, 1);
    let b4a = net.avg_pool(prev, 3, 1, 1);
    let b4 = conv_bn_relu(net, b4a, 128, 1, 1, 0);
    net.concat(&[b1, b2, b3, b4])
}

fn reduction_b(net: &mut Net, prev: LayerId) -> LayerId {
    let b1a = conv_bn_relu(net, prev, 192, 1, 1, 0);
    let b1 = conv_bn_relu(net, b1a, 192, 3, 2, 0);
    let b2a = conv_bn_relu(net, prev, 256, 1, 1, 0);
    let b2b = conv_bn_relu(net, b2a, 320, 3, 1, 1);
    let b2 = conv_bn_relu(net, b2b, 320, 3, 2, 0);
    let b3 = net.max_pool(prev, 3, 2, 0);
    net.concat(&[b1, b2, b3])
}

fn inception_c(net: &mut Net, prev: LayerId) -> LayerId {
    let b1 = conv_bn_relu(net, prev, 256, 1, 1, 0);
    // Branch 2 fans into parallel 1x3/3x1 heads (256 each).
    let b2a = conv_bn_relu(net, prev, 384, 1, 1, 0);
    let b2l = conv_bn_relu(net, b2a, 256, 3, 1, 1);
    let b2r = conv_bn_relu(net, b2a, 256, 3, 1, 1);
    // Branch 3: 384 -> 448 -> 512, then parallel 256/256 heads.
    let b3a = conv_bn_relu(net, prev, 384, 1, 1, 0);
    let b3b = conv_bn_relu(net, b3a, 448, 3, 1, 1);
    let b3c = conv_bn_relu(net, b3b, 512, 3, 1, 1);
    let b3l = conv_bn_relu(net, b3c, 256, 3, 1, 1);
    let b3r = conv_bn_relu(net, b3c, 256, 3, 1, 1);
    let b4a = net.avg_pool(prev, 3, 1, 1);
    let b4 = conv_bn_relu(net, b4a, 256, 1, 1, 0);
    net.concat(&[b1, b2l, b2r, b3l, b3r, b4])
}

/// Inception v4: stem, 4×A, reduction-A, 7×B, reduction-B, 3×C.
pub fn inception_v4(batch: usize) -> Net {
    let mut net = Net::new("InceptionV4", Shape4::new(batch, 3, 299, 299));
    let d = net.data();
    // Stem (simplified: three convs + pool fan).
    let s1 = conv_bn_relu(&mut net, d, 32, 3, 2, 0); // 149
    let s2 = conv_bn_relu(&mut net, s1, 32, 3, 1, 0); // 147
    let s3 = conv_bn_relu(&mut net, s2, 64, 3, 1, 1); // 147
    let sp = net.max_pool(s3, 3, 2, 0); // 73
    let sc = conv_bn_relu(&mut net, s3, 96, 3, 2, 0); // 73
    let stem1 = net.concat(&[sp, sc]); // 160ch
    let t1 = conv_bn_relu(&mut net, stem1, 192, 3, 2, 0); // 36
    let t2 = net.max_pool(stem1, 3, 2, 0); // 36
    let mut prev = net.concat(&[t1, t2]); // 352ch @ 36 (vs paper 384 @ 35)

    for _ in 0..4 {
        prev = inception_a(&mut net, prev);
    }
    prev = reduction_a(&mut net, prev);
    for _ in 0..7 {
        prev = inception_b(&mut net, prev);
    }
    prev = reduction_b(&mut net, prev);
    for _ in 0..3 {
        prev = inception_c(&mut net, prev);
    }
    let p = net.avg_pool(prev, 8, 8, 0);
    let dr = net.dropout(p, 0.2);
    let f = net.fc(dr, CLASSES);
    net.softmax(f);
    net
}

// ---------------------------------------------------------------------
// DenseNet
// ---------------------------------------------------------------------

/// DenseNet-BC style network with growth rate `k` and `layers_per_block`
/// layers in each of 4 dense blocks. Every layer's input is the concat of
/// all previous outputs in the block — the "full-join" of Fig. 1b.
pub fn densenet(batch: usize, k: usize, layers_per_block: usize) -> Net {
    let mut net = Net::new(
        format!("DenseNet-k{k}-L{layers_per_block}"),
        Shape4::new(batch, 3, 224, 224),
    );
    let d = net.data();
    let c = net.conv(d, 2 * k, 7, 2, 3);
    let b = net.bn(c);
    let r = net.relu(b);
    let mut prev = net.max_pool(r, 3, 2, 1); // 56x56

    for block in 0..4 {
        let mut feats: Vec<LayerId> = vec![prev];
        for _ in 0..layers_per_block {
            let input = if feats.len() == 1 {
                feats[0]
            } else {
                net.concat(&feats)
            };
            // BN-ReLU-Conv(1x1, 4k) then BN-ReLU-Conv(3x3, k).
            let b1 = net.bn(input);
            let r1 = net.relu(b1);
            let c1 = net.conv(r1, 4 * k, 1, 1, 0);
            let b2 = net.bn(c1);
            let r2 = net.relu(b2);
            let c2 = net.conv(r2, k, 3, 1, 1);
            feats.push(c2);
        }
        let block_out = net.concat(&feats);
        if block < 3 {
            // Transition: 1x1 halving channels + 2x2 avg pool.
            let ch = net.layer(block_out).out_shape.c / 2;
            let t = net.conv(block_out, ch, 1, 1, 0);
            let tb = net.bn(t);
            prev = net.avg_pool(tb, 2, 2, 0);
        } else {
            prev = block_out;
        }
    }
    let p = net.avg_pool(prev, 7, 7, 0);
    let f = net.fc(p, CLASSES);
    net.softmax(f);
    net
}

// ---------------------------------------------------------------------
// GPT-style transformers
// ---------------------------------------------------------------------

/// GPT-2's BPE vocabulary size, shared by both GPT presets.
pub const GPT_VOCAB: usize = 50_257;

/// One pre-norm transformer block: `x + Attn(LN(x))` then `r + MLP(LN(r))`,
/// with dropout on each sublayer output before the residual join.
fn transformer_block(net: &mut Net, x: LayerId, heads: usize, hidden: usize) -> LayerId {
    let ln1 = net.layernorm(x);
    let attn = net.attention(ln1, heads);
    let d1 = net.dropout(attn, 0.1);
    let r1 = net.eltwise(&[x, d1]);
    let ln2 = net.layernorm(r1);
    let mlp = net.mlp(ln2, hidden);
    let d2 = net.dropout(mlp, 0.1);
    net.eltwise(&[r1, d2])
}

/// A GPT-style decoder stack: token embedding, `layers` pre-norm blocks, a
/// final LayerNorm and a softmax over the model dimension. Tokens ride the
/// spatial axis (`H = seq`, `W = 1`); the embedding lifts them to `C = dim`.
fn gpt(
    name: &str,
    batch: usize,
    seq: usize,
    dim: usize,
    heads: usize,
    hidden: usize,
    layers: usize,
) -> Net {
    let mut net = Net::new(name, Shape4::new(batch, 1, seq, 1));
    let d = net.data();
    let e = net.embedding(d, GPT_VOCAB, dim);
    let mut prev = net.dropout(e, 0.1);
    for _ in 0..layers {
        prev = transformer_block(&mut net, prev, heads, hidden);
    }
    let ln = net.layernorm(prev);
    net.softmax(ln);
    net
}

/// GPT-Small (GPT-2 124M-class): 12 blocks, `d = 768`, 12 heads,
/// 4·d MLP hidden width, at the given batch and sequence length.
pub fn gpt_small(batch: usize, seq: usize) -> Net {
    gpt("GPT-Small", batch, seq, 768, 12, 3072, 12)
}

/// GPT-Medium (GPT-2 350M-class): 24 blocks, `d = 1024`, 16 heads.
pub fn gpt_medium(batch: usize, seq: usize) -> Net {
    gpt("GPT-Medium", batch, seq, 1024, 16, 4096, 24)
}

/// GPT-Small at sequence length 256 — the transformer row of the
/// batch-parameterized experiment sweeps.
pub fn gpt_small_seq256(batch: usize) -> Net {
    gpt_small(batch, 256)
}

/// A LeNet-style small network for numeric-mode training (input `1×28×28`,
/// `classes` outputs).
pub fn lenet(batch: usize, classes: usize) -> Net {
    let mut net = Net::new("LeNet", Shape4::new(batch, 1, 28, 28));
    let d = net.data();
    let c1 = net.conv(d, 8, 5, 1, 2);
    let r1 = net.relu(c1);
    let p1 = net.max_pool(r1, 2, 2, 0);
    let c2 = net.conv(p1, 16, 5, 1, 2);
    let r2 = net.relu(c2);
    let p2 = net.max_pool(r2, 2, 2, 0);
    let f1 = net.fc(p2, 64);
    let r3 = net.relu(f1);
    let f2 = net.fc(r3, classes);
    net.softmax(f2);
    net
}

/// A batch-parameterized network constructor.
pub type NetBuilder = fn(usize) -> Net;

/// All (name, builder) pairs used by the end-to-end experiments.
pub fn evaluation_networks() -> Vec<(&'static str, NetBuilder)> {
    vec![
        ("AlexNet", alexnet as NetBuilder),
        ("VGG16", vgg16),
        ("InceptionV4", inception_v4),
        ("ResNet50", resnet50),
        ("ResNet101", resnet101),
        ("ResNet152", resnet152),
        ("GPT-Small", gpt_small_seq256),
    ]
}

/// The serving-scenario builders: the networks a fleet typically hosts as
/// forward-only inference services alongside training tenants, with the
/// per-request batch each is usually served at. The same builders feed
/// training routes; inference sessions compile them through
/// `Route::construct_inference` — graphs carry no training/serving split,
/// the *plan* does.
pub fn serving_networks() -> Vec<(&'static str, NetBuilder, usize)> {
    vec![
        ("AlexNet", alexnet as NetBuilder, 64),
        ("VGG16", vgg16, 16),
        ("ResNet50", resnet50, 16),
        ("InceptionV4", inception_v4, 8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::{LayerKind, NetCost, Route};

    #[test]
    fn alexnet_has_the_paper_structure() {
        let net = alexnet(200);
        net.validate().unwrap();
        // DATA + 23 layers.
        assert_eq!(net.len(), 24);
        let kinds: Vec<&str> = net.layers().iter().map(|l| l.kind.type_name()).collect();
        assert_eq!(
            kinds,
            vec![
                "DATA", "CONV", "ACT", "LRN", "POOL", "CONV", "ACT", "LRN", "POOL", "CONV", "ACT",
                "CONV", "ACT", "CONV", "ACT", "POOL", "FC", "ACT", "DROPOUT", "FC", "ACT",
                "DROPOUT", "FC", "SOFTMAX"
            ]
        );
        // conv1 output is 55x55x96 as in the original.
        assert_eq!(net.layers()[1].out_shape, Shape4::new(200, 96, 55, 55));
    }

    #[test]
    fn vgg_depths() {
        let v16 = vgg16(32);
        v16.validate().unwrap();
        let convs = |n: &Net| {
            n.layers()
                .iter()
                .filter(|l| matches!(l.kind, LayerKind::Conv { .. }))
                .count()
        };
        assert_eq!(convs(&v16), 13);
        let v19 = vgg19(32);
        assert_eq!(convs(&v19), 16);
        assert_eq!(v16.layers().last().unwrap().out_shape.features(), CLASSES);
    }

    #[test]
    fn resnet50_shape_and_depth() {
        let net = resnet50(16);
        net.validate().unwrap();
        let convs = net
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv { .. }))
            .count();
        // 1 stem + 3*(3+4+6+3)=48 block convs + 4 projections = 53.
        assert_eq!(convs, 53);
        // Final stage output: 2048 channels pooled to 1x1.
        let p = net
            .layers()
            .iter()
            .rfind(|l| matches!(l.kind, LayerKind::Pool { .. }))
            .unwrap();
        assert_eq!(p.out_shape, Shape4::new(16, 2048, 1, 1));
    }

    #[test]
    fn resnet_routes_and_costs_scale() {
        let shallow = resnet(1, (2, 2, 2, 2));
        let deep = resnet(1, (2, 2, 8, 2));
        assert!(deep.len() > shallow.len());
        let r = Route::construct(&deep);
        r.validate(&deep).unwrap();
        let cost_s = NetCost::of(&shallow);
        let cost_d = NetCost::of(&deep);
        assert!(cost_d.sum_l_f() > cost_s.sum_l_f());
        // l_peak is depth-independent (it's a per-layer max).
        assert_eq!(cost_s.l_peak(), cost_d.l_peak());
    }

    #[test]
    fn resnet_depth_formula_matches_table4() {
        // depth = 3*(6+32+n3+6)+2; for n3 = 1 -> 137.
        let net = resnet_depth(16, 137);
        net.validate().unwrap();
        // For depth 480 (MXNet's Table 4 entry): n3 = 159 - 44 = 115.
        let net = resnet_depth(1, 480);
        net.validate().unwrap();
        assert!(net.len() > 1000, "480-deep resnet has >1000 graph nodes");
    }

    #[test]
    fn inception_v4_is_nonlinear_and_valid() {
        let net = inception_v4(8);
        net.validate().unwrap();
        let joins = net.layers().iter().filter(|l| l.prevs.len() > 1).count();
        assert!(joins >= 16, "inception must have many concats: {joins}");
        let r = Route::construct(&net);
        r.validate(&net).unwrap();
    }

    #[test]
    fn densenet_full_join_grows_channels() {
        let net = densenet(4, 12, 6);
        net.validate().unwrap();
        let r = Route::construct(&net);
        r.validate(&net).unwrap();
        // Inside a block, concat widths grow by k per layer.
        let concats: Vec<usize> = net
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Concat))
            .map(|l| l.out_shape.c)
            .collect();
        assert!(concats.windows(2).take(4).all(|w| w[1] > w[0]));
    }

    #[test]
    fn gpt_blocks_have_the_pre_norm_structure() {
        let net = gpt_small(2, 64);
        net.validate().unwrap();
        let route = Route::construct(&net);
        route.validate(&net).unwrap();
        // DATA + EMBED + DROPOUT + 12 × 8-layer block + LNORM + SOFTMAX.
        assert_eq!(net.len(), 3 + 12 * 8 + 2);
        let count = |pat: &str| {
            net.layers()
                .iter()
                .filter(|l| l.kind.type_name() == pat)
                .count()
        };
        assert_eq!(count("ATTN"), 12);
        assert_eq!(count("MLP"), 12);
        assert_eq!(count("LNORM"), 2 * 12 + 1);
        assert_eq!(count("ELTWISE"), 2 * 12);
        // The embedding lifts tokens to the model dimension; every block
        // preserves the (batch, d, seq, 1) shape (the terminal softmax
        // flattens it like every other head).
        let e = &net.layers()[1];
        assert_eq!(e.kind.type_name(), "EMBED");
        assert_eq!(e.out_shape, Shape4::new(2, 768, 64, 1));
        let body = &net.layers()[2..net.len() - 1];
        assert!(body.iter().all(|l| l.out_shape == e.out_shape));
    }

    #[test]
    fn gpt_presets_scale_like_their_parameter_counts() {
        // GPT-Medium has ~2.8× GPT-Small's parameters; the weight bytes (and
        // forward cost) must order the same way at equal batch/seq.
        let small = NetCost::of(&gpt_small(2, 64));
        let medium = NetCost::of(&gpt_medium(2, 64));
        assert!(medium.total_weight_bytes() > 2 * small.total_weight_bytes());
        assert!(medium.sum_l_f() > small.sum_l_f());
        // Attention/MLP layers are the GEMM checkpoints of the §3 policy:
        // every ATTN/MLP layer is a checkpoint, LNORM is not.
        let net = gpt_small(2, 64);
        for l in net.layers() {
            match l.kind.type_name() {
                "ATTN" | "MLP" | "EMBED" => assert!(l.kind.is_checkpoint()),
                "LNORM" => assert!(!l.kind.is_checkpoint()),
                _ => {}
            }
        }
    }

    #[test]
    fn lenet_is_small() {
        let net = lenet(16, 10);
        net.validate().unwrap();
        assert!(NetCost::of(&net).sum_l_f() < 10 << 20);
    }

    #[test]
    fn evaluation_networks_all_build() {
        for (name, b) in evaluation_networks() {
            let net = b(2);
            net.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let route = Route::construct(&net);
            route.validate(&net).unwrap();
        }
    }

    #[test]
    fn memory_footprints_are_ordered_like_fig2() {
        // At batch 32: AlexNet < ResNet50 < ResNet101 < ResNet152 and
        // Inception v4 the largest (44.3 GB in the paper).
        let total = |net: &Net| {
            let c = NetCost::of(net);
            c.sum_l_f() + c.sum_l_b()
        };
        let alex = total(&alexnet(32));
        let r50 = total(&resnet50(32));
        let r101 = total(&resnet101(32));
        let r152 = total(&resnet152(32));
        let inc = total(&inception_v4(32));
        assert!(alex < r50, "{alex} {r50}");
        assert!(r50 < r101 && r101 < r152, "{r50} {r101} {r152}");
        // Our Inception v4 flattens the 1x7/7x1 chains into square 3x3
        // convs, so it lands near ResNet101 rather than above ResNet152
        // (the paper's 44.3 GB includes cuDNN's measured conv buffers).
        assert!(inc > r50, "{inc} {r50}");
        // Still tens of GB at batch 32.
        assert!(inc > 10u64 << 30, "inception v4 = {} GB", inc >> 30);
    }
}
