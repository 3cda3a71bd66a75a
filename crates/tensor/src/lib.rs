//! # sn-tensor — real NCHW tensor kernels for the numeric execution mode
//!
//! SuperNeurons schedules *tensors*; to prove the runtime actually trains
//! networks (and that recomputation reconstructs bit-identical activations)
//! we implement every layer the paper's networks use, forward and backward,
//! on the CPU:
//!
//! * blocked single-precision [`gemm`](gemm::sgemm);
//! * convolution via `im2col` + GEMM and via a direct loop (the two must
//!   agree — a property test enforces it), plus data/filter gradients;
//! * max/average pooling with argmax bookkeeping;
//! * ReLU, LRN (cross-channel), batch normalization, dropout (counter-based
//!   mask so recomputation regenerates the identical mask without storing
//!   it), softmax + cross-entropy loss;
//! * fully-connected layers and SGD with momentum;
//! * the transformer family: token [`embedding`](embedding::embedding_forward)
//!   (hash-gathered, recompute-exact), [`layernorm`](layernorm::layernorm_forward)
//!   over the channel axis, multi-head self-[`attention`](attention::attention_forward),
//!   and the position-wise [`mlp`](mlp::mlp_forward) block — all
//!   input-formulated so cost-aware recomputation replays them exactly.
//!
//! Byte accounting is precision-aware: [`DType`] gives bytes
//! per element and [`Shape4::bytes_of`] sizes a tensor at any precision
//! (`Shape4::bytes` remains the fp32 shorthand). Numeric kernels stay f32 —
//! dtype affects the *memory model*, not reference numerics.
//!
//! Kernels are single-threaded and favour clarity over peak FLOPs: the paper's
//! experiments run in *virtual* mode (cost models), while numeric mode exists
//! to validate correctness end-to-end on small networks.

// Kernel style: BLAS-shaped signatures (m, n, k, alpha, ...) and explicit
// index loops mirror the reference maths; clippy's preferences here would
// obscure the correspondence.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

pub mod act;
pub mod attention;
pub mod conv;
pub mod embedding;
pub mod gemm;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod norm;
pub mod pool;
pub mod sgd;
pub mod shape;
pub mod tensor;

pub use shape::{DType, Shape4};
pub use tensor::Tensor;
