//! Bitwise property tests of the batched gradient path
//! (`Mlp::forward_batch` / `backward_batch` / `input_grad_batch`) against
//! the one-sample-at-a-time forward and backward pass it replaced.
//!
//! Widths run over 1..=60, so every tile remainder shows up: row counts
//! that are not a multiple of 4, column counts that are not a multiple of
//! 8, and single-output layers. Batches of 1..=70 samples are split into
//! blocks of random size, so gradients accumulate across block edges.

use autockt_rl::mlp::{Activation, BatchCache, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACTS: [Activation; 3] = [Activation::Tanh, Activation::Relu, Activation::Linear];

fn apply(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Tanh => x.tanh(),
        Activation::Relu => x.max(0.0),
        Activation::Linear => x,
    }
}

fn deriv_from_output(act: Activation, y: f64) -> f64 {
    match act {
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

/// The per-sample pass over a copy of a net's parameters, with its own
/// gradient buffers.
struct Reference {
    /// `(w, b, n_in, n_out)` per layer, `w` row-major `[n_out x n_in]`.
    layers: Vec<(Vec<f64>, Vec<f64>, usize, usize)>,
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
    hidden: Activation,
    out: Activation,
}

impl Reference {
    fn of(net: &Mlp, sizes: &[usize], hidden: Activation, out: Activation) -> Self {
        let layers: Vec<_> = (0..net.num_layers())
            .filter_map(|li| net.params(li))
            .zip(sizes.windows(2))
            .map(|((w, b), io)| (w.to_vec(), b.to_vec(), io[0], io[1]))
            .collect();
        Reference {
            gw: layers.iter().map(|l| vec![0.0; l.0.len()]).collect(),
            gb: layers.iter().map(|l| vec![0.0; l.1.len()]).collect(),
            layers,
            hidden,
            out,
        }
    }

    fn act(&self, li: usize) -> Activation {
        if li + 1 == self.layers.len() {
            self.out
        } else {
            self.hidden
        }
    }

    /// Post-activation values per layer; `acts[0]` is the input.
    fn forward(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = vec![x.to_vec()];
        for (li, (w, b, n_in, n_out)) in self.layers.iter().enumerate() {
            let mut y = Vec::with_capacity(*n_out);
            for o in 0..*n_out {
                let mut acc = b[o];
                for (wi, xi) in w[o * n_in..(o + 1) * n_in].iter().zip(&acts[li]) {
                    acc += wi * xi;
                }
                y.push(apply(self.act(li), acc));
            }
            acts.push(y);
        }
        acts
    }

    /// Accumulates one sample's gradients; returns the input gradient.
    fn backward(&mut self, acts: &[Vec<f64>], dout: &[f64]) -> Vec<f64> {
        let last = self.layers.len() - 1;
        let mut dy: Vec<f64> = dout
            .iter()
            .zip(&acts[last + 1])
            .map(|(g, y)| g * deriv_from_output(self.out, *y))
            .collect();
        let mut dx = Vec::new();
        for li in (0..self.layers.len()).rev() {
            let (w, _, n_in, _) = &self.layers[li];
            let x = &acts[li];
            dx = vec![0.0; *n_in];
            for (o, &g) in dy.iter().enumerate() {
                self.gb[li][o] += g;
                for i in 0..*n_in {
                    self.gw[li][o * n_in + i] += g * x[i];
                    dx[i] += g * w[o * n_in + i];
                }
            }
            if li > 0 {
                dy = dx
                    .iter()
                    .zip(&acts[li])
                    .map(|(g, y)| g * deriv_from_output(self.hidden, *y))
                    .collect();
            }
        }
        dx
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Outputs, input gradients and every layer's weight and bias
    /// gradients are bit-identical to the per-sample pass.
    #[test]
    fn batch_matches_per_sample_bitwise(
        sizes in prop::collection::vec(1usize..61, 2..5),
        bsz in 1usize..71,
        block in 1usize..71,
        hidden in 0usize..3,
        out in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (hidden, out) = (ACTS[hidden], ACTS[out]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&sizes, hidden, out, &mut rng);
        let (n_in, n_out) = (sizes[0], sizes[sizes.len() - 1]);
        let mut cache = BatchCache::default();

        // One Adam step with a random gradient moves the biases off zero
        // (and clears the gradients again).
        let x0: Vec<f64> = (0..n_in).map(|_| rng.random_range(-2.0..2.0)).collect();
        net.forward_batch(&x0, 1, &mut cache);
        let g0: Vec<f64> = (0..n_out).map(|_| rng.random_range(-1.0..1.0)).collect();
        net.backward_batch(&mut cache, &g0);
        net.adam_step(0.05);

        let mut reference = Reference::of(&net, &sizes, hidden, out);
        let xs: Vec<f64> = (0..bsz * n_in).map(|_| rng.random_range(-2.0..2.0)).collect();
        let dout: Vec<f64> = (0..bsz * n_out).map(|_| rng.random_range(-1.0..1.0)).collect();
        for lo in (0..bsz).step_by(block) {
            let hi = bsz.min(lo + block);
            let y = net.forward_batch(&xs[lo * n_in..hi * n_in], hi - lo, &mut cache).to_vec();
            net.backward_batch(&mut cache, &dout[lo * n_out..hi * n_out]);
            let dx = net.input_grad_batch(&mut cache).to_vec();
            prop_assert_eq!(y.len(), (hi - lo) * n_out);
            prop_assert_eq!(dx.len(), (hi - lo) * n_in);
            for s in lo..hi {
                let acts = reference.forward(&xs[s * n_in..(s + 1) * n_in]);
                let want_dx = reference.backward(&acts, &dout[s * n_out..(s + 1) * n_out]);
                let r = s - lo;
                prop_assert_eq!(bits(&y[r * n_out..(r + 1) * n_out]), bits(&acts[sizes.len() - 1]));
                prop_assert_eq!(bits(&dx[r * n_in..(r + 1) * n_in]), bits(&want_dx));
            }
        }
        for li in 0..net.num_layers() {
            let (gw, gb) = net.grads(li).expect("layer exists");
            prop_assert_eq!(bits(gw), bits(&reference.gw[li]));
            prop_assert_eq!(bits(gb), bits(&reference.gb[li]));
        }
    }
}
