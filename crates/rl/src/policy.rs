//! Factorized-categorical policy and value networks.
//!
//! Matching the paper, the policy trunk is a 3-layer, 50-neuron MLP; its
//! output layer emits one logit group per action factor (one factor per
//! circuit parameter, each a 3-way decrement/keep/increment categorical).
//! The value function is a separate network of the same shape.

use crate::mlp::{log_sum_exp, softmax, Activation, BatchCache, Mlp};
use rand::rngs::StdRng;
use rand::Rng;

/// A stochastic policy over a factorized discrete action space.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyNet {
    net: Mlp,
    action_dims: Vec<usize>,
}

/// A block of PPO samples, laid out sample-major for
/// [`PolicyNet::ppo_grad_batch`]. The block holds `advantage.len()`
/// samples; `obs` has `obs_dim` entries per sample and `actions` one per
/// action factor.
#[derive(Debug, Clone, Copy)]
pub struct PpoSamples<'a> {
    /// Observations, `bsz x obs_dim`.
    pub obs: &'a [f64],
    /// Factored actions taken, `bsz x factors`.
    pub actions: &'a [usize],
    /// Log-probabilities under the behaviour policy.
    pub logp_old: &'a [f64],
    /// Normalized advantages.
    pub advantage: &'a [f64],
}

/// Reusable buffers of the batched gradient methods: the network's
/// [`BatchCache`], the output gradient, and the per-sample diagnostics of
/// the last [`PolicyNet::ppo_grad_batch`] call. Keep one per network.
#[derive(Debug, Clone, Default)]
pub struct GradWorkspace {
    cache: BatchCache,
    dout: Vec<f64>,
    probs: Vec<f64>,
    logp_new: Vec<f64>,
    entropy: Vec<f64>,
}

impl GradWorkspace {
    /// Per-sample log-probabilities under the current policy, from the
    /// last [`PolicyNet::ppo_grad_batch`] call.
    pub fn logp_new(&self) -> &[f64] {
        &self.logp_new
    }

    /// Per-sample policy entropies, from the last
    /// [`PolicyNet::ppo_grad_batch`] call.
    pub fn entropy(&self) -> &[f64] {
        &self.entropy
    }
}

/// Outcome of sampling the policy at one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// One choice index per action factor.
    pub actions: Vec<usize>,
    /// Joint log-probability of the sampled action.
    pub logp: f64,
}

impl PolicyNet {
    /// Builds a policy for `obs_dim` inputs and the given action factors,
    /// with `hidden` fully-connected tanh layers (the paper uses
    /// `&[50, 50, 50]`).
    pub fn new(obs_dim: usize, action_dims: &[usize], hidden: &[usize], rng: &mut StdRng) -> Self {
        let n_logits: usize = action_dims.iter().sum();
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(n_logits);
        PolicyNet {
            net: Mlp::new(&sizes, Activation::Tanh, Activation::Linear, rng),
            action_dims: action_dims.to_vec(),
        }
    }

    /// The action factor cardinalities this policy emits.
    pub fn action_dims(&self) -> &[usize] {
        &self.action_dims
    }

    /// Raw logits for an observation, concatenated across factors.
    pub fn logits(&self, obs: &[f64]) -> Vec<f64> {
        self.net.forward(obs)
    }

    /// Samples an action from the policy.
    pub fn act(&self, obs: &[f64], rng: &mut StdRng) -> Sampled {
        let logits = self.logits(obs);
        let mut actions = Vec::with_capacity(self.action_dims.len());
        let mut logp = 0.0;
        let mut off = 0;
        for &d in &self.action_dims {
            let z = &logits[off..off + d];
            let p = softmax(z);
            let u: f64 = rng.random::<f64>();
            let mut acc = 0.0;
            let mut choice = d - 1;
            for (i, pi) in p.iter().enumerate() {
                acc += pi;
                if u < acc {
                    choice = i;
                    break;
                }
            }
            logp += z[choice] - log_sum_exp(z);
            actions.push(choice);
            off += d;
        }
        Sampled { actions, logp }
    }

    /// Greedy (argmax) action, used at deployment for reproducibility.
    pub fn act_greedy(&self, obs: &[f64]) -> Vec<usize> {
        let logits = self.logits(obs);
        let mut actions = Vec::with_capacity(self.action_dims.len());
        let mut off = 0;
        for &d in &self.action_dims {
            let z = &logits[off..off + d];
            // `total_cmp` orders NaN logits deterministically instead of
            // panicking mid-deployment; a zero-width factor (which the
            // constructors never build) falls back to action 0.
            let best = z
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            actions.push(best);
            off += d;
        }
        actions
    }

    /// Joint log-probability and total entropy of `actions` under the
    /// current policy at `obs` (no gradient bookkeeping).
    pub fn logp_entropy(&self, obs: &[f64], actions: &[usize]) -> (f64, f64) {
        let logits = self.logits(obs);
        let mut logp = 0.0;
        let mut ent = 0.0;
        let mut off = 0;
        for (&d, &a) in self.action_dims.iter().zip(actions) {
            let z = &logits[off..off + d];
            let lse = log_sum_exp(z);
            logp += z[a] - lse;
            let p = softmax(z);
            ent -= p
                .iter()
                .map(|&pi| if pi > 0.0 { pi * pi.ln() } else { 0.0 })
                .sum::<f64>();
            off += d;
        }
        (logp, ent)
    }

    /// PPO-clip gradient accumulation for a block of samples.
    ///
    /// Accumulates `d(-L_clip - ent_coef * H)/d(theta)` of every sample
    /// into the network's gradient buffers, in sample order. Leaves each
    /// sample's `(logp_new, entropy)` in `ws` for diagnostics.
    pub fn ppo_grad_batch(
        &mut self,
        samples: PpoSamples<'_>,
        clip: f64,
        ent_coef: f64,
        ws: &mut GradWorkspace,
    ) {
        let bsz = samples.advantage.len();
        let n_logits = self.net.n_out();
        let n_factors = self.action_dims.len();
        let out = self.net.forward_batch(samples.obs, bsz, &mut ws.cache);
        ws.dout.clear();
        ws.dout.resize(bsz * n_logits, 0.0);
        ws.probs.clear();
        ws.probs.resize(n_logits, 0.0);
        ws.logp_new.clear();
        ws.entropy.clear();
        let rows = out
            .chunks_exact(n_logits.max(1))
            .zip(ws.dout.chunks_exact_mut(n_logits.max(1)))
            .zip(samples.actions.chunks(n_factors.max(1)))
            .zip(samples.logp_old.iter().zip(samples.advantage));
        for (((out, dlogits), actions), (&logp_old, &advantage)) in rows {
            // First pass: each factor's softmax, and logp_new to decide
            // clipping.
            let mut logp_new = 0.0;
            let mut off = 0;
            for (&d, &a) in self.action_dims.iter().zip(actions) {
                let z = &out[off..off + d];
                logp_new += z[a] - softmax_lse(z, &mut ws.probs[off..off + d]);
                off += d;
            }
            let ratio = (logp_new - logp_old).exp();
            // Clipped-surrogate gradient gate: gradient flows through the
            // ratio only when the unclipped term is the active minimum.
            let unclipped_active = if advantage >= 0.0 {
                ratio < 1.0 + clip
            } else {
                ratio > 1.0 - clip
            };
            let dlogp = if unclipped_active {
                -advantage * ratio // d(-ratio*A)/dlogp_new
            } else {
                0.0
            };

            let mut entropy = 0.0;
            let mut off = 0;
            for (&d, &a) in self.action_dims.iter().zip(actions) {
                let p = &ws.probs[off..off + d];
                let h: f64 = -p
                    .iter()
                    .map(|&pi| if pi > 0.0 { pi * pi.ln() } else { 0.0 })
                    .sum::<f64>();
                entropy += h;
                for j in 0..d {
                    // d logp(a) / dz_j = [j == a] - p_j
                    let dlp = (if j == a { 1.0 } else { 0.0 }) - p[j];
                    // dH/dz_j = -p_j (ln p_j + H)
                    let dh = -p[j] * (p[j].max(1e-12).ln() + h);
                    dlogits[off + j] += dlogp * dlp - ent_coef * dh;
                }
                off += d;
            }
            ws.logp_new.push(logp_new);
            ws.entropy.push(entropy);
        }
        self.net.backward_batch(&mut ws.cache, &ws.dout);
    }

    /// Access to the underlying network for optimizer bookkeeping.
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Read-only access to the underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }
}

/// Writes `softmax(z)` into `p` and returns `log_sum_exp(z)`, both from
/// one pass of exponentials and with exactly the operations of
/// [`softmax`] and [`log_sum_exp`], so the results are bit-identical to
/// theirs.
fn softmax_lse(z: &[f64], p: &mut [f64]) -> f64 {
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (pj, v) in p.iter_mut().zip(z) {
        *pj = (v - m).exp();
    }
    let s: f64 = p.iter().sum();
    p.iter_mut().for_each(|e| *e /= s);
    m + s.ln()
}

/// A state-value network (same trunk shape as the policy).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueNet {
    net: Mlp,
}

impl ValueNet {
    /// Builds a value network for `obs_dim` inputs.
    pub fn new(obs_dim: usize, hidden: &[usize], rng: &mut StdRng) -> Self {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(obs_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        ValueNet {
            net: Mlp::new(&sizes, Activation::Tanh, Activation::Linear, rng),
        }
    }

    /// Predicted value of an observation.
    pub fn value(&self, obs: &[f64]) -> f64 {
        self.net.forward(obs)[0]
    }

    /// Accumulates the gradient of `coef * 0.5 * (v(obs) - target)^2` for a
    /// block of samples (`obs` is `targets.len() x obs_dim`), in sample
    /// order.
    pub fn mse_grad_batch(
        &mut self,
        obs: &[f64],
        targets: &[f64],
        coef: f64,
        ws: &mut GradWorkspace,
    ) {
        let v = self.net.forward_batch(obs, targets.len(), &mut ws.cache);
        ws.dout.clear();
        ws.dout
            .extend(v.iter().zip(targets).map(|(v, target)| coef * (v - target)));
        self.net.backward_batch(&mut ws.cache, &ws.dout);
    }

    /// Access to the underlying network for optimizer bookkeeping.
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn sampled_actions_in_range() {
        let mut r = rng();
        let p = PolicyNet::new(4, &[3, 3, 5], &[16], &mut r);
        for _ in 0..100 {
            let s = p.act(&[0.1, 0.2, -0.1, 0.0], &mut r);
            assert_eq!(s.actions.len(), 3);
            assert!(s.actions[0] < 3 && s.actions[1] < 3 && s.actions[2] < 5);
            assert!(s.logp <= 0.0);
        }
    }

    #[test]
    fn logp_matches_sampling_probabilities() {
        // Empirical frequency of an action should be close to exp(logp).
        let mut r = rng();
        let p = PolicyNet::new(2, &[3], &[8], &mut r);
        let obs = [0.3, -0.3];
        let (logp0, _) = p.logp_entropy(&obs, &[0]);
        let n = 20000;
        let mut count = 0;
        for _ in 0..n {
            if p.act(&obs, &mut r).actions[0] == 0 {
                count += 1;
            }
        }
        let freq = count as f64 / n as f64;
        assert!(
            (freq - logp0.exp()).abs() < 0.02,
            "freq {freq} vs p {}",
            logp0.exp()
        );
    }

    #[test]
    fn entropy_max_for_uniform_logits() {
        // A fresh network with zero bias has near-uniform outputs only by
        // chance; instead check entropy is within the valid bound.
        let mut r = rng();
        let p = PolicyNet::new(2, &[3, 3], &[8], &mut r);
        let (_, ent) = p.logp_entropy(&[0.0, 0.0], &[0, 0]);
        let max_ent = 2.0 * 3f64.ln();
        assert!(ent > 0.0 && ent <= max_ent + 1e-9);
    }

    #[test]
    fn greedy_is_deterministic() {
        let mut r = rng();
        let p = PolicyNet::new(3, &[3, 3], &[16], &mut r);
        let obs = [0.5, -0.5, 0.1];
        assert_eq!(p.act_greedy(&obs), p.act_greedy(&obs));
    }

    #[test]
    fn ppo_grad_moves_policy_toward_advantaged_action() {
        // Repeatedly reinforcing action 2 with positive advantage must
        // raise its probability.
        let mut r = rng();
        let mut p = PolicyNet::new(2, &[3], &[8], &mut r);
        let obs = [0.2, 0.8];
        let (logp_before, _) = p.logp_entropy(&obs, &[2]);
        let mut ws = GradWorkspace::default();
        for _ in 0..50 {
            let (logp_old, _) = p.logp_entropy(&obs, &[2]);
            p.net_mut().zero_grad();
            let samples = PpoSamples {
                obs: &obs,
                actions: &[2],
                logp_old: &[logp_old],
                advantage: &[1.0],
            };
            p.ppo_grad_batch(samples, 0.2, 0.0, &mut ws);
            p.net_mut().adam_step(1e-2);
        }
        let (logp_after, _) = p.logp_entropy(&obs, &[2]);
        assert!(
            logp_after > logp_before,
            "{logp_before} -> {logp_after} should increase"
        );
    }

    #[test]
    fn clipping_gates_gradient() {
        // With a ratio far outside the clip range and positive advantage,
        // the gradient must be zero.
        let mut r = rng();
        let mut p = PolicyNet::new(2, &[3], &[8], &mut r);
        let obs = [0.1, 0.1];
        let (logp_now, _) = p.logp_entropy(&obs, &[1]);
        // Pretend old policy had much lower prob: ratio >> 1 + clip.
        let logp_old = logp_now - 2.0;
        p.net_mut().zero_grad();
        let samples = PpoSamples {
            obs: &obs,
            actions: &[1],
            logp_old: &[logp_old],
            advantage: &[1.0],
        };
        let mut ws = GradWorkspace::default();
        p.ppo_grad_batch(samples, 0.2, 0.0, &mut ws);
        assert!(p.net().grad_norm() < 1e-12, "clipped sample must not move");
        assert_eq!(ws.logp_new(), &[logp_now]);
    }

    #[test]
    fn value_net_fits_constant() {
        let mut r = rng();
        let mut v = ValueNet::new(3, &[16], &mut r);
        let obs = [0.4, -0.2, 0.9];
        let mut ws = GradWorkspace::default();
        for _ in 0..500 {
            v.net_mut().zero_grad();
            v.mse_grad_batch(&obs, &[3.5], 1.0, &mut ws);
            v.net_mut().adam_step(3e-3);
        }
        assert!((v.value(&obs) - 3.5).abs() < 0.05);
    }
}
