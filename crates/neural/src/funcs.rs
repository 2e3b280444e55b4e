//! Forward-only functional kernels shared by the autograd ops ([`crate::Var`])
//! and the raw-tensor inference path (DESIGN.md §11).
//!
//! The KV-cached decoder promises logits that are **bit-identical** to the
//! full autograd decode. That promise is only cheap to keep if both paths
//! execute the same float operations in the same order — so every forward
//! kernel lives here once, as a function of rows, and both `Tensor`/`Var`
//! and the decoder's reused buffers call it.

use crate::Tensor;

/// Products below this many flops (`2·m·k·n`) run serially; see
/// `linalg::Matrix::matmul` for the same cutoff on the f64 side.
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// One output row of a matmul (i-k-j order, zero-skip):
/// `dst += Σ_k arow[k] · other[k·stride ..][..dst.len()]`, with `k`
/// ascending and every `arow[k] == 0.0` skipped.
///
/// With `stride == dst.len()` this is a row of `a · other` for a row-major
/// `other`; a larger `stride` reads a column block of a wider row-major
/// matrix in place (an attention head's slice of a cache). Every matmul in
/// the crate, serial or parallel, runs this kernel, so all of them agree
/// bit-for-bit.
#[inline]
pub fn matmul_row(arow: &[f32], other: &[f32], stride: usize, dst: &mut [f32]) {
    let width = dst.len();
    for (k, &a) in arow.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let orow = &other[k * stride..k * stride + width];
        for (d, &o) in dst.iter_mut().zip(orow) {
            *d += a * o;
        }
    }
}

/// `out += a · b` for a row-major `a` of `rows` rows and `out` of
/// `rows × b.cols()`; from a zeroed `out` this is the product
/// ([`Tensor::matmul`] passes a fresh zero tensor, `Linear::forward_into`
/// zeroes its buffer). Products of at least `PAR_FLOP_THRESHOLD` flops
/// over more than one row run row-blocked on the pool, each row through the
/// same [`matmul_row`], so the result is bit-identical at any thread count.
///
/// # Panics
/// Panics if `a` or `out` does not hold `rows` rows of the right width.
pub(crate) fn matmul_into(a: &[f32], rows: usize, b: &Tensor, out: &mut [f32]) {
    let (k, n) = b.shape();
    assert_eq!(
        a.len(),
        rows * k,
        "matmul lhs is not {rows} rows of width {k}"
    );
    assert_eq!(
        out.len(),
        rows * n,
        "matmul output is not {rows} rows of width {n}"
    );
    let b = b.as_slice();
    if 2 * rows * k * n >= PAR_FLOP_THRESHOLD && rows > 1 {
        let rows_per_chunk = parallel::default_chunk_size(rows);
        parallel::par_chunks_mut(out, rows_per_chunk * n, |ci, block| {
            let row0 = ci * rows_per_chunk;
            for (bi, dst) in block.chunks_mut(n).enumerate() {
                let r = row0 + bi;
                matmul_row(&a[r * k..(r + 1) * k], b, n, dst);
            }
        });
    } else {
        for r in 0..rows {
            matmul_row(&a[r * k..(r + 1) * k], b, n, &mut out[r * n..(r + 1) * n]);
        }
    }
}

/// Softmax of one row in place: subtract the row max, `exp`, and divide by
/// the left-to-right sum (skipped when the sum is not positive).
/// [`Tensor::softmax_rows`] runs this per row.
pub fn softmax_row(row: &mut [f32]) {
    let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        z += *v;
    }
    if z > 0.0 {
        for v in row.iter_mut() {
            *v /= z;
        }
    }
}

/// GELU (tanh approximation), one scalar. `Var::gelu` maps this over its
/// input; the inference path must use the same constant and op order.
#[inline]
pub fn gelu_scalar(v: f32) -> f32 {
    const C: f32 = 0.7978845608; // sqrt(2/pi)
    0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh())
}

/// Layer norm of one row: writes `out[c] = xhat[c] · gain[c] + bias[c]`
/// with `xhat[c] = (x[c] − mean) · inv_std`, and returns `(mean, inv_std)`
/// so a caller that keeps `xhat` can recompute it with the same two ops.
pub(crate) fn layer_norm_row(
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    eps: f32,
    out: &mut [f32],
) -> (f32, f32) {
    let cols = x.len();
    let mean: f32 = x.iter().sum::<f32>() / cols as f32;
    let var: f32 = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
    let istd = 1.0 / (var + eps).sqrt();
    for (((o, &v), &g), &b) in out.iter_mut().zip(x).zip(gain).zip(bias) {
        *o = (v - mean) * istd * g + b;
    }
    (mean, istd)
}

/// Row-wise layer-norm forward.
///
/// Returns `(out, xhat, inv_std)`: autograd keeps the normalized activations
/// and inverse standard deviations for the backward pass. `gain` and `bias`
/// are `(1, cols)` row vectors. Each row goes through `layer_norm_row`.
pub fn layer_norm_forward(
    x: &Tensor,
    gain: &Tensor,
    bias: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let (rows, cols) = x.shape();
    let mut xhat = Tensor::zeros(rows, cols);
    let mut out = Tensor::zeros(rows, cols);
    let inv_std = (0..rows)
        .map(|r| {
            let (mean, istd) =
                layer_norm_row(x.row(r), gain.row(0), bias.row(0), eps, out.row_mut(r));
            for (h, &v) in xhat.row_mut(r).iter_mut().zip(x.row(r)) {
                *h = (v - mean) * istd;
            }
            istd
        })
        .collect();
    (out, xhat, inv_std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_norm_forward_normalizes() {
        let x = Tensor::from_vec(1, 4, vec![10.0, 12.0, 14.0, 16.0]);
        let gain = Tensor::full(1, 4, 1.0);
        let bias = Tensor::zeros(1, 4);
        let (out, xhat, istd) = layer_norm_forward(&x, &gain, &bias, 1e-5);
        let mean: f32 = out.row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        // With identity gain/bias the output is exactly xhat.
        assert_eq!(out.as_slice(), xhat.as_slice());
        assert_eq!(istd.len(), 1);
        assert!(istd[0] > 0.0);
    }

    #[test]
    fn gelu_scalar_reference_points() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(1.0) - 0.8411920).abs() < 1e-5);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
    }

    #[test]
    fn strided_matmul_row_reads_a_column_block_in_place() {
        // A 3x4 row-major matrix; columns 1..3 form a 3x2 block.
        let m: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 1.0).collect();
        let block = Tensor::from_vec(3, 2, vec![m[1], m[2], m[5], m[6], m[9], m[10]]);
        let a = [0.25f32, 0.0, -2.0];
        let mut strided = [0.0f32; 2];
        matmul_row(&a, &m[1..], 4, &mut strided);
        let dense = Tensor::row_vector(a.to_vec()).matmul(&block);
        assert_eq!(
            strided.map(f32::to_bits),
            [dense.get(0, 0).to_bits(), dense.get(0, 1).to_bits()]
        );
    }
}
