//! The 4-D NCHW shape the paper's Fig. 4 describes: batches (N), channels
//! (C), height (H), width (W).

use std::fmt;

/// Element precision of a tensor as it lives in device memory.
///
/// The planner's byte accounting multiplies element counts by
/// [`DType::size_of`]. A half-width format differs from `BF16` in numerics,
/// not in the memory model, so `BF16` stands for them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    F32,
    BF16,
}

impl DType {
    /// Bytes per element.
    #[inline]
    pub const fn size_of(self) -> u64 {
        match self {
            DType::F32 => 4,
            DType::BF16 => 2,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DType::F32 => "f32",
            DType::BF16 => "bf16",
        })
    }
}

/// Dense NCHW shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    pub n: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
}

impl Shape4 {
    pub const fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape4 { n, c, h, w }
    }

    /// A flat vector shape (used by FC layers): `N × C × 1 × 1`.
    pub const fn flat(n: usize, c: usize) -> Self {
        Shape4 { n, c, h: 1, w: 1 }
    }

    /// Element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Size in bytes at the given element precision.
    #[inline]
    pub fn bytes_of(&self, dtype: DType) -> u64 {
        self.numel() as u64 * dtype.size_of()
    }

    /// Features per batch item.
    #[inline]
    pub fn features(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Flat index of `(n, c, h, w)`.
    #[inline]
    pub fn idx(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Output spatial dimension of a conv/pool window:
    /// `(in + 2·pad − kernel)/stride + 1`.
    pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
        assert!(stride > 0, "stride must be positive");
        assert!(
            input + 2 * pad >= kernel,
            "window {kernel} larger than padded input {}",
            input + 2 * pad
        );
        (input + 2 * pad - kernel) / stride + 1
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_bytes() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.numel(), 120);
        assert_eq!(s.bytes_of(DType::F32), 480);
        assert_eq!(s.features(), 60);
    }

    #[test]
    fn bytes_of_scales_by_dtype() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.bytes_of(DType::F32), 4 * s.numel() as u64);
        assert_eq!(s.bytes_of(DType::BF16), 240);
        assert_eq!(DType::F32.size_of(), 4);
        assert_eq!(DType::BF16.size_of(), 2);
        assert_eq!(DType::BF16.to_string(), "bf16");
    }

    #[test]
    fn idx_is_row_major_nchw() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.idx(0, 0, 0, 0), 0);
        assert_eq!(s.idx(0, 0, 0, 1), 1);
        assert_eq!(s.idx(0, 0, 1, 0), 5);
        assert_eq!(s.idx(0, 1, 0, 0), 20);
        assert_eq!(s.idx(1, 0, 0, 0), 60);
        assert_eq!(s.idx(1, 2, 3, 4), 119);
    }

    #[test]
    fn conv_out_dims_match_known_layers() {
        // AlexNet conv1: 227 input, 11 kernel, stride 4, pad 0 -> 55.
        assert_eq!(Shape4::conv_out_dim(227, 11, 4, 0), 55);
        // VGG conv: 224, 3x3, stride 1, pad 1 -> 224.
        assert_eq!(Shape4::conv_out_dim(224, 3, 1, 1), 224);
        // Pool 2x2 stride 2 on 224 -> 112.
        assert_eq!(Shape4::conv_out_dim(224, 2, 2, 0), 112);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn conv_out_dim_rejects_oversized_kernel() {
        Shape4::conv_out_dim(4, 7, 1, 0);
    }

    #[test]
    fn display() {
        assert_eq!(Shape4::new(1, 2, 3, 4).to_string(), "1x2x3x4");
    }
}
