//! Layers: parameter containers plus their forward functions.

use crate::{xavier_bound, Tensor, Var};
use rand::Rng;

/// Anything that owns trainable parameters.
pub trait Module {
    /// All trainable parameter leaves, in a stable order.
    fn parameters(&self) -> Vec<Var>;

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters()
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                r * c
            })
            .sum()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }
}

/// A dense layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight `(in, out)`.
    pub w: Var,
    /// Bias `(1, out)`.
    pub b: Var,
}

impl Linear {
    /// Xavier-initialized dense layer.
    pub fn new<R: Rng + ?Sized>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        let bound = xavier_bound(d_in, d_out);
        Linear {
            w: Var::param(Tensor::uniform(d_in, d_out, bound, rng)),
            b: Var::param(Tensor::zeros(1, d_out)),
        }
    }

    /// Applies the layer to a `(rows, in)` input.
    pub fn forward(&self, x: &Var) -> Var {
        x.matmul(&self.w).add_row_broadcast(&self.b)
    }

    /// Graph-free forward on a raw tensor (inference path); see
    /// [`Linear::forward_into`].
    pub fn forward_tensor(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(x.rows(), self.w.shape().1);
        self.forward_into(x.as_slice(), x.rows(), out.as_mut_slice());
        out
    }

    /// Graph-free forward of `rows` row-major input rows into `out`
    /// (overwritten): the product through `funcs::matmul_into`,
    /// then the bias added to each row, the same two steps in the same
    /// order as [`Linear::forward`]'s `matmul` and `add_row_broadcast`, so
    /// results are bit-identical.
    pub fn forward_into(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        out.fill(0.0);
        crate::funcs::matmul_into(x, rows, &self.w.data(), out);
        let b = self.b.data();
        let n = b.cols();
        for r in 0..rows {
            for (d, &v) in out[r * n..(r + 1) * n].iter_mut().zip(b.as_slice()) {
                *d += v;
            }
        }
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Var> {
        vec![self.w.clone(), self.b.clone()]
    }
}

/// A token embedding table `(vocab, dim)`.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The embedding matrix.
    pub w: Var,
    dim: usize,
}

impl Embedding {
    /// Uniformly initialized embedding table.
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        let bound = xavier_bound(vocab, dim).max(0.05);
        Embedding {
            w: Var::param(Tensor::uniform(vocab, dim, bound, rng)),
            dim,
        }
    }

    /// Looks up a sequence of token ids into a `(len, dim)` output.
    pub fn forward(&self, ids: &[usize]) -> Var {
        Var::embedding(&self.w, ids)
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Module for Embedding {
    fn parameters(&self) -> Vec<Var> {
        vec![self.w.clone()]
    }
}

/// Learnable row-wise layer normalization.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale parameter `(1, dim)`.
    pub gain: Var,
    /// Shift parameter `(1, dim)`.
    pub bias: Var,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gain: Var::param(Tensor::full(1, dim, 1.0)),
            bias: Var::param(Tensor::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Normalizes each row of `x`.
    pub fn forward(&self, x: &Var) -> Var {
        x.layer_norm(&self.gain, &self.bias, self.eps)
    }

    /// Graph-free forward of row-major rows of `x` into `out` (inference
    /// path); bit-identical to [`LayerNorm::forward`] because both run
    /// `funcs::layer_norm_row` on every row.
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        let (gain, bias) = (self.gain.data(), self.bias.data());
        let cols = gain.cols();
        for (xr, or) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
            crate::funcs::layer_norm_row(xr, gain.as_slice(), bias.as_slice(), self.eps, or);
        }
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<Var> {
        vec![self.gain.clone(), self.bias.clone()]
    }
}

/// A plain multi-layer perceptron with ReLU activations (used by the GAN and
/// the Deepmatcher-like matcher).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[16, 64, 64, 1]`.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "MLP needs at least input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass: ReLU between layers, no activation after the last.
    pub fn forward(&self, x: &Var) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i != last {
                h = h.relu();
            }
        }
        h
    }

    /// The individual dense layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Assembles an MLP from already-built layers (persistence path).
    ///
    /// Callers must supply at least one layer with chained widths; the
    /// artifact reader validates this before construction.
    pub fn from_layers(layers: Vec<Linear>) -> Self {
        Mlp { layers }
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Var> {
        self.layers.iter().flat_map(Module::parameters).collect()
    }
}

/// Generates an inverted-dropout mask: entries are `0` with probability `p`,
/// else `1/(1-p)`.
pub fn dropout_mask<R: Rng + ?Sized>(rows: usize, cols: usize, p: f32, rng: &mut R) -> Tensor {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
    let keep = 1.0 - p;
    let mut t = Tensor::zeros(rows, cols);
    for v in t.as_mut_slice() {
        *v = if rng.gen::<f32>() < p { 0.0 } else { 1.0 / keep };
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::zeros(2, 4));
        assert_eq!(l.forward(&x).shape(), (2, 3));
        assert_eq!(l.num_parameters(), 4 * 3 + 3);
    }

    #[test]
    fn embedding_lookup_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(10, 6, &mut rng);
        let out = e.forward(&[1, 5, 5, 9]);
        assert_eq!(out.shape(), (4, 6));
        // Identical ids produce identical rows.
        let d = out.value();
        assert_eq!(d.row(1), d.row(2));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Var::constant(Tensor::from_vec(1, 4, vec![10.0, 12.0, 14.0, 16.0]));
        let out = ln.forward(&x).value();
        let mean: f32 = out.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = out.row(0).iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new(&[2, 16, 1], &mut rng);
        let inputs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
        let targets = [0.0f32, 1.0, 1.0, 0.0];
        for _ in 0..3000 {
            mlp.zero_grad();
            let x = Var::constant(Tensor::from_vec(
                4,
                2,
                inputs.iter().flatten().cloned().collect(),
            ));
            let y = Tensor::from_vec(4, 1, targets.to_vec());
            let loss = mlp.forward(&x).bce_with_logits(&y);
            loss.backward();
            for p in mlp.parameters() {
                let g = p.grad_value();
                p.update_value(|t| t.add_scaled_assign(&g, -0.5));
            }
        }
        let x = Var::constant(Tensor::from_vec(
            4,
            2,
            inputs.iter().flatten().cloned().collect(),
        ));
        let out = mlp.forward(&x).sigmoid().value();
        assert!(out.get(0, 0) < 0.3, "xor(0,0) {}", out.get(0, 0));
        assert!(out.get(1, 0) > 0.7, "xor(0,1) {}", out.get(1, 0));
        assert!(out.get(2, 0) > 0.7, "xor(1,0) {}", out.get(2, 0));
        assert!(out.get(3, 0) < 0.3, "xor(1,1) {}", out.get(3, 0));
    }

    #[test]
    fn dropout_mask_statistics() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = dropout_mask(100, 100, 0.3, &mut rng);
        let zeros = m.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03);
        // Non-zero entries are the inverted keep scale.
        let nz = m.as_slice().iter().find(|&&v| v != 0.0).unwrap();
        assert!((nz - 1.0 / 0.7).abs() < 1e-6);
    }
}
