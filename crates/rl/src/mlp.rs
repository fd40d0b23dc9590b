//! Multi-layer perceptron with manual backpropagation and Adam.
//!
//! The paper's agent is a 3-layer, 50-neuron network trained with PPO; at
//! that scale a hand-written `Vec<f64>` implementation is faster than
//! pulling in a tensor library, and keeps the whole learning stack
//! dependency-free and deterministic.
//!
//! Gradients are taken a block of samples at a time
//! ([`Mlp::forward_batch`], [`Mlp::backward_batch`]). Activations are
//! sample-major matrices, and all three layer products — the forward
//! `Z = X·Wᵀ`, the input gradient `dX = dZ·W` and the weight gradient
//! `gW += dZᵀ·X` — run through one register-tiled kernel. The kernel sums
//! along its inner dimension in ascending order, starting from the
//! accumulator's current value (the bias, zero, or the gradient so far).
//! Every output element therefore sees exactly the operations of a
//! one-sample-at-a-time pass, in the same order: the results are
//! bit-identical to that pass for any split of a minibatch into blocks,
//! which the property tests check against such a reference.

use rand::rngs::StdRng;
use rand::Rng;

/// Activation functions for hidden and output layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Identity (for logits / value outputs).
    Linear,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`.
    fn deriv_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One dense layer with its gradient and Adam moment buffers.
#[derive(Debug, Clone, PartialEq)]
struct Linear {
    n_in: usize,
    n_out: usize,
    w: Vec<f64>, // row-major [n_out x n_in]
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Linear {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization.
        let bound = (6.0 / (n_in + n_out) as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Linear {
            n_in,
            n_out,
            w,
            b: vec![0.0; n_out],
            gw: vec![0.0; n_in * n_out],
            gb: vec![0.0; n_out],
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }

    /// `dx = dz·W` for a block of `bsz` samples, each element summed over
    /// outputs in ascending order from zero.
    fn input_grad(&self, dz: &[f64], bsz: usize, dx: &mut Vec<f64>) {
        dx.clear();
        dx.resize(bsz * self.n_in, 0.0);
        Gemm {
            a: dz,
            a_rs: self.n_out,
            a_ks: 1,
            b: &self.w,
            ldb: self.n_in,
            depth: self.n_out,
        }
        .run(dx, self.n_in, bsz, self.n_in);
    }

    fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gb.fill(0.0);
    }

    fn grad_sq_norm(&self) -> f64 {
        self.gw.iter().map(|g| g * g).sum::<f64>() + self.gb.iter().map(|g| g * g).sum::<f64>()
    }

    fn scale_grad(&mut self, k: f64) {
        self.gw.iter_mut().for_each(|g| *g *= k);
        self.gb.iter_mut().for_each(|g| *g *= k);
    }

    fn adam_step(&mut self, lr: f64, b1: f64, b2: f64, eps: f64, t: u64) {
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for i in 0..self.w.len() {
            self.mw[i] = b1 * self.mw[i] + (1.0 - b1) * self.gw[i];
            self.vw[i] = b2 * self.vw[i] + (1.0 - b2) * self.gw[i] * self.gw[i];
            let mhat = self.mw[i] / bc1;
            let vhat = self.vw[i] / bc2;
            self.w[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
        for i in 0..self.b.len() {
            self.mb[i] = b1 * self.mb[i] + (1.0 - b1) * self.gb[i];
            self.vb[i] = b2 * self.vb[i] + (1.0 - b2) * self.gb[i] * self.gb[i];
            let mhat = self.mb[i] / bc1;
            let vhat = self.vb[i] / bc2;
            self.b[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Samples per block that callers feed through [`Mlp::forward_batch`] and
/// [`Mlp::backward_batch`] at once. It amortizes the per-call transposed
/// weight copy and keeps the block's activations in cache; blocks of 16,
/// 32 and 64 measured the same PPO update time, and 32 keeps the
/// workspace small.
pub const GRAD_BLOCK: usize = 32;

/// Rows and columns of the kernel's register tile.
const TILE_ROWS: usize = 4;
const TILE_COLS: usize = 8;

/// One `C += A·B` product. `A` is strided: element `(r, k)` is
/// `a[r * a_rs + k * a_ks]`, which lets one kernel read `dZ` both as is and
/// transposed. `B` is row-major with row stride `ldb`; the sum runs over
/// `k < depth`.
#[derive(Clone, Copy)]
struct Gemm<'a> {
    a: &'a [f64],
    a_rs: usize,
    a_ks: usize,
    b: &'a [f64],
    ldb: usize,
    depth: usize,
}

impl Gemm<'_> {
    /// Adds the product into the `rows x cols` matrix `c` (row stride
    /// `ldc`). Each element accumulates along `k` in ascending order,
    /// starting from its current value in `c`.
    fn run(&self, c: &mut [f64], ldc: usize, rows: usize, cols: usize) {
        let mut r = 0;
        while r + TILE_ROWS <= rows {
            self.row_panel::<TILE_ROWS>(c, ldc, r, cols);
            r += TILE_ROWS;
        }
        while r < rows {
            self.row_panel::<1>(c, ldc, r, cols);
            r += 1;
        }
    }

    fn row_panel<const M: usize>(&self, c: &mut [f64], ldc: usize, r0: usize, cols: usize) {
        let mut n = 0;
        while n + TILE_COLS <= cols {
            self.tile::<M, TILE_COLS>(c, ldc, r0, n);
            n += TILE_COLS;
        }
        while n < cols {
            self.tile::<M, 1>(c, ldc, r0, n);
            n += 1;
        }
    }

    /// The `M x N` register tile at `(r0, n0)`. Plain index loops: the
    /// release build unrolls them over the constant tile shape, and they
    /// keep the unoptimized test build from crawling through iterator
    /// adaptors.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    fn tile<const M: usize, const N: usize>(
        &self,
        c: &mut [f64],
        ldc: usize,
        r0: usize,
        n0: usize,
    ) {
        let mut acc = [[0.0; N]; M];
        for i in 0..M {
            acc[i].copy_from_slice(&c[(r0 + i) * ldc + n0..][..N]);
        }
        for k in 0..self.depth {
            let bk = &self.b[k * self.ldb + n0..][..N];
            for i in 0..M {
                let aik = self.a[(r0 + i) * self.a_rs + k * self.a_ks];
                for j in 0..N {
                    acc[i][j] += aik * bk[j];
                }
            }
        }
        for i in 0..M {
            c[(r0 + i) * ldc + n0..][..N].copy_from_slice(&acc[i]);
        }
    }
}

/// Activations and scratch of one block of samples, filled by
/// [`Mlp::forward_batch`] and consumed by [`Mlp::backward_batch`]. Reuse one
/// cache per network across blocks: its buffers keep their capacity.
#[derive(Debug, Clone, Default)]
pub struct BatchCache {
    /// Samples in the block.
    bsz: usize,
    /// Layer widths of the net that filled the cache (input first).
    widths: Vec<usize>,
    /// Post-activation values per layer, sample-major; `acts[0]` is the
    /// input.
    acts: Vec<Vec<f64>>,
    /// The current layer's weights transposed to `[n_in x n_out]`.
    wt: Vec<f64>,
    /// Gradient w.r.t. the current layer's pre-activation output.
    dz: Vec<f64>,
    /// Gradient w.r.t. the current layer's input.
    dx: Vec<f64>,
}

/// A fully-connected feed-forward network.
///
/// # Examples
///
/// ```
/// use autockt_rl::mlp::{Activation, Mlp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let net = Mlp::new(&[4, 16, 2], Activation::Tanh, Activation::Linear, &mut rng);
/// let y = net.forward(&[0.1, -0.2, 0.3, 0.0]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
    adam_t: u64,
}

impl Mlp {
    /// Builds a network with the given layer sizes (first entry is the
    /// input dimension, last is the output dimension).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are supplied.
    pub fn new(
        sizes: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_act,
            out_act,
            adam_t: 0,
        }
    }

    /// Input dimension (0 for a layerless net, which the constructors
    /// never build).
    pub fn n_in(&self) -> usize {
        self.layers.first().map_or(0, |l| l.n_in)
    }

    /// Output dimension (0 for a layerless net, which the constructors
    /// never build).
    pub fn n_out(&self) -> usize {
        self.layers.last().map_or(0, |l| l.n_out)
    }

    /// Layer widths, input first.
    fn widths(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.n_in()).chain(self.layers.iter().map(|l| l.n_out))
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut buf = Vec::new();
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut buf);
            let act = if li == last {
                self.out_act
            } else {
                self.hidden_act
            };
            cur.clear();
            cur.extend(buf.iter().map(|&v| act.apply(v)));
        }
        cur
    }

    /// Forward pass over a block of `bsz` samples. `x` holds the samples'
    /// inputs row by row (`bsz x n_in`, sample-major); entries missing from
    /// a short `x` read as zero and extra ones are ignored. Returns the
    /// outputs (`bsz x n_out`, sample-major) and keeps what
    /// [`Mlp::backward_batch`] needs in `cache`.
    pub fn forward_batch<'c>(&self, x: &[f64], bsz: usize, cache: &'c mut BatchCache) -> &'c [f64] {
        let n_layers = self.layers.len();
        cache.bsz = bsz;
        cache.widths.clear();
        cache.widths.extend(self.widths());
        cache.acts.resize_with(n_layers + 1, Vec::new);
        let len = bsz * self.n_in();
        let input = &mut cache.acts[0];
        input.clear();
        input.extend_from_slice(&x[..x.len().min(len)]);
        input.resize(len, 0.0);
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = cache.acts.split_at_mut(li + 1);
            let z = &mut rest[0];
            z.clear();
            for _ in 0..bsz {
                z.extend_from_slice(&layer.b);
            }
            cache.wt.clear();
            for i in 0..layer.n_in {
                cache
                    .wt
                    .extend(layer.w.iter().skip(i).step_by(layer.n_in.max(1)));
            }
            Gemm {
                a: &done[li],
                a_rs: layer.n_in,
                a_ks: 1,
                b: &cache.wt,
                ldb: layer.n_out,
                depth: layer.n_in,
            }
            .run(z, layer.n_out, bsz, layer.n_out);
            let act = if li + 1 == n_layers {
                self.out_act
            } else {
                self.hidden_act
            };
            z.iter_mut().for_each(|v| *v = act.apply(*v));
        }
        cache.acts.last().map_or(&[], Vec::as_slice)
    }

    /// Accumulates parameter gradients for the block last passed through
    /// [`Mlp::forward_batch`], given the gradient of the loss w.r.t. the
    /// network *output* (post-activation), `bsz x n_out` sample-major.
    /// Entries missing from a short `dout` read as zero. Does nothing if
    /// `cache` was filled by a net of another shape.
    pub fn backward_batch(&mut self, cache: &mut BatchCache, dout: &[f64]) {
        let n_layers = self.layers.len();
        if cache.acts.len() != n_layers + 1 || !cache.widths.iter().copied().eq(self.widths()) {
            return;
        }
        let bsz = cache.bsz;
        let out_act = self.out_act;
        let hidden_act = self.hidden_act;
        cache.dz.clear();
        cache.dz.extend(
            dout.iter()
                .copied()
                .chain(std::iter::repeat(0.0))
                .zip(&cache.acts[n_layers])
                .map(|(g, y)| g * out_act.deriv_from_output(*y)),
        );
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            let x = &cache.acts[li];
            for row in cache.dz.chunks_exact(layer.n_out.max(1)) {
                for (gb, g) in layer.gb.iter_mut().zip(row) {
                    *gb += g;
                }
            }
            Gemm {
                a: &cache.dz,
                a_rs: 1,
                a_ks: layer.n_out,
                b: x,
                ldb: layer.n_in,
                depth: bsz,
            }
            .run(&mut layer.gw, layer.n_in, layer.n_out, layer.n_in);
            if li > 0 {
                layer.input_grad(&cache.dz, bsz, &mut cache.dx);
                for (g, y) in cache.dx.iter_mut().zip(x) {
                    *g *= hidden_act.deriv_from_output(*y);
                }
                std::mem::swap(&mut cache.dz, &mut cache.dx);
            }
        }
    }

    /// Gradient of the loss w.r.t. the network input (`bsz x n_in`,
    /// sample-major) for the block last passed through
    /// [`Mlp::backward_batch`]. Call it before the weights change. Empty if
    /// no backward pass of this net's shape preceded it.
    pub fn input_grad_batch<'c>(&self, cache: &'c mut BatchCache) -> &'c [f64] {
        match self.layers.first() {
            Some(layer) if cache.dz.len() == cache.bsz * layer.n_out => {
                layer.input_grad(&cache.dz, cache.bsz, &mut cache.dx);
                &cache.dx
            }
            _ => &[],
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Global L2 norm of the accumulated gradient.
    pub fn grad_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(Linear::grad_sq_norm)
            .sum::<f64>()
            .sqrt()
    }

    /// Scales all accumulated gradients (used for minibatch averaging and
    /// gradient clipping).
    pub fn scale_grad(&mut self, k: f64) {
        for l in &mut self.layers {
            l.scale_grad(k);
        }
    }

    /// Applies one Adam update with the accumulated gradients, then clears
    /// them.
    pub fn adam_step(&mut self, lr: f64) {
        self.adam_t += 1;
        for l in &mut self.layers {
            l.adam_step(lr, 0.9, 0.999, 1e-8, self.adam_t);
        }
        self.zero_grad();
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Number of dense layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Weights (row-major `[n_out x n_in]`) and bias of dense layer `li`,
    /// or `None` past the last layer.
    pub fn params(&self, li: usize) -> Option<(&[f64], &[f64])> {
        self.layers
            .get(li)
            .map(|l| (l.w.as_slice(), l.b.as_slice()))
    }

    /// Accumulated weight and bias gradients of dense layer `li`, laid out
    /// like [`Mlp::params`].
    pub fn grads(&self, li: usize) -> Option<(&[f64], &[f64])> {
        self.layers
            .get(li)
            .map(|l| (l.gw.as_slice(), l.gb.as_slice()))
    }
}

/// The one-sample-at-a-time forward and backward pass that the batched
/// path replaced, kept as the bitwise oracle of the unit tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Linear, Mlp};

    impl Linear {
        /// Accumulates gradients given upstream gradient `dy` (w.r.t. this
        /// layer's pre-activation output) and this layer's input `x`;
        /// writes the gradient w.r.t. `x` into `dx`.
        fn backward(&mut self, x: &[f64], dy: &[f64], dx: &mut Vec<f64>) {
            dx.clear();
            dx.resize(self.n_in, 0.0);
            for (o, &g) in dy.iter().enumerate() {
                self.gb[o] += g;
                let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
                let grow = &mut self.gw[o * self.n_in..(o + 1) * self.n_in];
                for i in 0..self.n_in {
                    grow[i] += g * x[i];
                    dx[i] += g * row[i];
                }
            }
        }
    }

    impl Mlp {
        /// Forward pass of one sample that records every layer's
        /// post-activation output (`acts[0]` is the input).
        pub(crate) fn forward_cache(&self, x: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
            let mut acts = vec![x.to_vec()];
            let mut buf = Vec::new();
            let last = self.layers.len() - 1;
            for (li, layer) in self.layers.iter().enumerate() {
                layer.forward(&acts[li], &mut buf);
                let act = if li == last {
                    self.out_act
                } else {
                    self.hidden_act
                };
                acts.push(buf.iter().map(|&v| act.apply(v)).collect());
            }
            (acts[last + 1].clone(), acts)
        }

        /// Accumulates parameter gradients for one sample given the
        /// gradient of the loss w.r.t. the network output.
        pub(crate) fn backward(&mut self, acts: &[Vec<f64>], dout: &[f64]) {
            let last = self.layers.len() - 1;
            let mut dy: Vec<f64> = dout
                .iter()
                .zip(&acts[last + 1])
                .map(|(g, y)| g * self.out_act.deriv_from_output(*y))
                .collect();
            let mut dx = Vec::new();
            for li in (0..self.layers.len()).rev() {
                self.layers[li].backward(&acts[li], &dy, &mut dx);
                if li > 0 {
                    let act = self.hidden_act;
                    dy = dx
                        .iter()
                        .zip(&acts[li])
                        .map(|(g, y)| g * act.deriv_from_output(*y))
                        .collect();
                }
            }
        }
    }
}

/// Numerically stable softmax over a slice.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|v| (v - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.iter().map(|e| e / s).collect()
}

/// Log-sum-exp of a slice, numerically stable.
pub fn log_sum_exp(z: &[f64]) -> f64 {
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    m + z.iter().map(|v| (v - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(
            &[3, 8, 8, 2],
            Activation::Tanh,
            Activation::Linear,
            &mut rng(),
        );
        assert_eq!(net.n_in(), 3);
        assert_eq!(net.n_out(), 2);
        assert_eq!(net.forward(&[0.0, 0.0, 0.0]).len(), 2);
        assert!(net.num_params() > 0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Loss = 0.5 * sum over samples of sum(y^2); analytic grad from one
        // batched backward pass vs numerical perturbation of a weight,
        // checked through the full backprop chain.
        let mut net = Mlp::new(&[2, 5, 3], Activation::Tanh, Activation::Linear, &mut rng());
        let xs = [0.3, -0.7, -0.1, 0.4, 0.9, 0.2];
        let mut cache = BatchCache::default();
        let dout = net.forward_batch(&xs, 3, &mut cache).to_vec();
        net.zero_grad();
        net.backward_batch(&mut cache, &dout);
        let loss = |net: &Mlp| -> f64 {
            xs.chunks(2)
                .map(|x| 0.5 * net.forward(x).iter().map(|v| v * v).sum::<f64>())
                .sum()
        };
        // Check a handful of weights in each layer.
        let h = 1e-6;
        for li in 0..net.layers.len() {
            for wi in [0usize, 1, 3] {
                let analytic = net.layers[li].gw[wi];
                let orig = net.layers[li].w[wi];
                net.layers[li].w[wi] = orig + h;
                let lp = loss(&net);
                net.layers[li].w[wi] = orig - h;
                let lm = loss(&net);
                net.layers[li].w[wi] = orig;
                let numeric = (lp - lm) / (2.0 * h);
                assert!(
                    (analytic - numeric).abs() < 1e-6,
                    "layer {li} w[{wi}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn adam_reduces_regression_loss() {
        // Fit y = [x0 + x1, x0 - x1] from random samples.
        let mut r = rng();
        let mut net = Mlp::new(&[2, 16, 2], Activation::Tanh, Activation::Linear, &mut r);
        let loss_of = |net: &Mlp, data: &[([f64; 2], [f64; 2])]| -> f64 {
            data.iter()
                .map(|(x, t)| {
                    let y = net.forward(x);
                    0.5 * ((y[0] - t[0]).powi(2) + (y[1] - t[1]).powi(2))
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let data: Vec<([f64; 2], [f64; 2])> = (0..64)
            .map(|_| {
                let x0: f64 = r.random_range(-1.0..1.0);
                let x1: f64 = r.random_range(-1.0..1.0);
                ([x0, x1], [x0 + x1, x0 - x1])
            })
            .collect();
        let before = loss_of(&net, &data);
        let xs: Vec<f64> = data.iter().flat_map(|(x, _)| *x).collect();
        let ts: Vec<f64> = data.iter().flat_map(|(_, t)| *t).collect();
        let mut cache = BatchCache::default();
        for _ in 0..300 {
            net.zero_grad();
            let y = net.forward_batch(&xs, data.len(), &mut cache);
            let dout: Vec<f64> = y.iter().zip(&ts).map(|(y, t)| y - t).collect();
            net.backward_batch(&mut cache, &dout);
            net.scale_grad(1.0 / data.len() as f64);
            net.adam_step(3e-3);
        }
        let after = loss_of(&net, &data);
        assert!(
            after < before * 0.05,
            "loss should drop 20x: {before} -> {after}"
        );
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| (v - 1.0 / 3.0).abs() < 1e-12));
        let q = softmax(&[-1e9, 0.0]);
        assert!(q[1] > 0.999);
    }

    #[test]
    fn log_sum_exp_matches_naive_in_safe_range() {
        let z = [0.1f64, -0.4, 2.0];
        let naive = z.iter().map(|v| v.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&z) - naive).abs() < 1e-12);
    }

    #[test]
    fn relu_activation_forward_backward() {
        let mut net = Mlp::new(&[1, 4, 1], Activation::Relu, Activation::Linear, &mut rng());
        let mut cache = BatchCache::default();
        let y = net.forward_batch(&[0.5], 1, &mut cache)[0];
        net.zero_grad();
        net.backward_batch(&mut cache, &[1.0]);
        assert!(y.is_finite());
        assert!(net.grad_norm().is_finite());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut rng());
        let b = a.clone();
        let x = [0.2, 0.4];
        let before = b.forward(&x)[0];
        let mut cache = BatchCache::default();
        let y = a.forward_batch(&x, 1, &mut cache)[0];
        a.backward_batch(&mut cache, &[y + 1.0]);
        a.adam_step(0.1);
        assert!(
            (b.forward(&x)[0] - before).abs() < 1e-15,
            "clone unaffected"
        );
        assert!((a.forward(&x)[0] - before).abs() > 1e-9, "original trained");
    }

    #[test]
    fn backward_ignores_a_cache_of_another_shape() {
        let mut net = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, &mut rng());
        let other = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, &mut rng());
        let mut cache = BatchCache::default();
        other.forward_batch(&[0.1, 0.2], 1, &mut cache);
        net.backward_batch(&mut cache, &[1.0]);
        assert_eq!(net.grad_norm().to_bits(), 0.0f64.to_bits());
        assert!(net.input_grad_batch(&mut BatchCache::default()).is_empty());
    }

    #[test]
    fn short_batch_input_reads_as_zero() {
        let net = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Linear, &mut rng());
        let mut cache = BatchCache::default();
        let y = net.forward_batch(&[0.5], 2, &mut cache).to_vec();
        assert_eq!(y.len(), 4);
        assert_eq!(&y[..2], net.forward(&[0.5, 0.0, 0.0]).as_slice());
        assert_eq!(&y[2..], net.forward(&[0.0, 0.0, 0.0]).as_slice());
    }
}
