//! Single-precision GEMM: `C = alpha * A·B + beta * C`, row-major.
//!
//! This is the workhorse under FC layers and im2col convolution. The kernel
//! runs on one thread, row by row, and micro-blocks over K to stay in cache;
//! it is not a BLAS contender, but it is exact and fast enough to train the
//! numeric-mode networks in tests and examples.

/// `C[m×n] = alpha · A[m×k] · B[k×n] + beta · C`, all row-major, no
/// transposes (callers materialize transposed views when needed).
pub fn sgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");

    // Scale C by beta up front so the accumulation loop is pure FMA.
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    const KB: usize = 64; // K-blocking keeps a B panel in L1/L2.
    c.chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &a[i * k..(i + 1) * k];
        let mut kk = 0;
        while kk < k {
            let kend = (kk + KB).min(k);
            for (p, &av) in arow[kk..kend].iter().enumerate() {
                let scaled = alpha * av;
                if scaled == 0.0 {
                    continue;
                }
                let brow = &b[(kk + p) * n..(kk + p + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += scaled * bv;
                }
            }
            kk = kend;
        }
    });
}

/// `C[m×n] = alpha · Aᵀ[m×k] · B[k×n] + beta · C` where `a` is stored `k×m`.
/// Used by convolution filter gradients.
pub fn sgemm_at(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32], // k×m
    b: &[f32], // k×n
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), k * m, "A must be k×m (transposed)");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    c.chunks_mut(n).enumerate().for_each(|(i, crow)| {
        for p in 0..k {
            let scaled = alpha * a[p * m + i];
            if scaled == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += scaled * bv;
            }
        }
    });
}

/// `C[m×n] = alpha · A[m×k] · Bᵀ[k×n] + beta · C` where `b` is stored `n×k`.
/// Used by FC backward-data and conv backward-data.
pub fn sgemm_bt(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32], // m×k
    b: &[f32], // n×k (transposed)
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), n * k, "B must be n×k (transposed)");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    c.chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &a[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            *cv += alpha * acc;
        }
    });
}

/// Naive reference used only by tests.
#[doc(hidden)]
pub fn sgemm_reference(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn randv(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_various_sizes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (16, 16, 16),
            (33, 17, 129),
            (64, 1, 200),
        ] {
            let a = randv(m * k, 1);
            let b = randv(k * n, 2);
            let mut c1 = randv(m * n, 3);
            let mut c2 = c1.clone();
            sgemm(m, n, k, 0.7, &a, &b, 0.3, &mut c1);
            sgemm_reference(m, n, k, 0.7, &a, &b, 0.3, &mut c2);
            assert_close(&c1, &c2, 1e-5);
        }
    }

    #[test]
    fn at_variant_matches_explicit_transpose() {
        let (m, n, k) = (13, 9, 21);
        let at = randv(k * m, 4); // stored k×m
        let b = randv(k * n, 5);
        // materialize A = atᵀ (m×k)
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        sgemm_at(m, n, k, 1.0, &at, &b, 0.0, &mut c1);
        sgemm_reference(m, n, k, 1.0, &a, &b, 0.0, &mut c2);
        assert_close(&c1, &c2, 1e-5);
    }

    #[test]
    fn bt_variant_matches_explicit_transpose() {
        let (m, n, k) = (7, 11, 15);
        let a = randv(m * k, 6);
        let bt = randv(n * k, 7); // stored n×k
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        sgemm_bt(m, n, k, 1.0, &a, &bt, 0.0, &mut c1);
        sgemm_reference(m, n, k, 1.0, &a, &b, 0.0, &mut c2);
        assert_close(&c1, &c2, 1e-5);
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let (m, n, k) = (2, 2, 2);
        let a = vec![1.0; 4];
        let b = vec![1.0; 4];
        let mut c = vec![f32::NAN; 4];
        sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, vec![2.0; 4]);
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let (m, n, k) = (2, 3, 4);
        let a = randv(m * k, 8);
        let b = randv(k * n, 9);
        let mut c = vec![2.0; m * n];
        sgemm(m, n, k, 0.0, &a, &b, 0.5, &mut c);
        assert_eq!(c, vec![1.0; m * n]);
    }
}
