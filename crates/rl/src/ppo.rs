//! Proximal Policy Optimization (clipped surrogate) trainer.
//!
//! This is the algorithm the paper trains AutoCkt with (via RLlib); here it
//! is implemented directly on top of [`crate::mlp`]: advantage
//! normalization, minibatched epochs over the collected batch, entropy
//! bonus, value-function regression and global gradient-norm clipping.
//!
//! Each minibatch is gathered sample-major and fed through both nets in
//! blocks of [`GRAD_BLOCK`] samples. The batched gradient path keeps the
//! per-sample summation order, so an update is bit-identical to running
//! the minibatch one transition at a time.

use crate::env::Env;
use crate::mlp::GRAD_BLOCK;
use crate::policy::{GradWorkspace, PolicyNet, PpoSamples, ValueNet};
use crate::rollout::{collect_parallel, Batch, Transition};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters for PPO.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Hidden layer sizes of both networks (paper: three 50-neuron layers).
    pub hidden: Vec<usize>,
    /// Environment steps collected per iteration (split across workers).
    pub steps_per_iter: usize,
    /// Minibatch size for gradient steps; 0 means one minibatch holding
    /// the whole batch.
    pub minibatch: usize,
    /// Optimization epochs over each batch.
    pub epochs: usize,
    /// Discount factor.
    pub gamma: f64,
    /// GAE lambda.
    pub lam: f64,
    /// PPO clip radius.
    pub clip: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            hidden: vec![50, 50, 50],
            steps_per_iter: 2048,
            minibatch: 256,
            epochs: 8,
            gamma: 0.99,
            lam: 0.95,
            clip: 0.2,
            lr: 3e-4,
            ent_coef: 5e-3,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
        }
    }
}

/// Diagnostics from one training iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterStats {
    /// Mean return of episodes completed this iteration (the quantity the
    /// paper plots in Figs. 5, 7, 11). `NaN` if none completed.
    pub mean_episode_reward: f64,
    /// Number of completed episodes.
    pub episodes: usize,
    /// Fraction of completed episodes that reached the goal.
    pub success_rate: f64,
    /// Mean completed-episode length.
    pub mean_episode_len: f64,
    /// Mean policy entropy over the batch after the update.
    pub entropy: f64,
    /// Approximate KL(old || new) after the update.
    pub approx_kl: f64,
    /// Environment steps consumed so far (cumulative).
    pub total_env_steps: usize,
}

/// A PPO agent: policy, value function, optimizer state and config.
#[derive(Debug, Clone)]
pub struct Ppo {
    /// The stochastic policy being optimized.
    pub policy: PolicyNet,
    /// The value-function baseline.
    pub value: ValueNet,
    cfg: PpoConfig,
    rng: StdRng,
    total_env_steps: usize,
    iter: usize,
}

impl Ppo {
    /// Creates an agent for the given observation/action space.
    pub fn new(obs_dim: usize, action_dims: &[usize], cfg: PpoConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = PolicyNet::new(obs_dim, action_dims, &cfg.hidden, &mut rng);
        let value = ValueNet::new(obs_dim, &cfg.hidden, &mut rng);
        Ppo {
            policy,
            value,
            cfg,
            rng,
            total_env_steps: 0,
            iter: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Cumulative environment steps consumed.
    pub fn total_env_steps(&self) -> usize {
        self.total_env_steps
    }

    /// Runs one collect + update iteration over the given environments.
    pub fn train_iteration<E: Env + Send>(&mut self, envs: &mut [E]) -> IterStats {
        assert!(!envs.is_empty(), "need at least one environment");
        let steps_per_worker = self.cfg.steps_per_iter.div_ceil(envs.len());
        let seed = {
            use rand::Rng;
            self.rng.random::<u64>()
        };
        let mut batch = collect_parallel(
            &self.policy,
            &self.value,
            envs,
            steps_per_worker,
            self.cfg.gamma,
            self.cfg.lam,
            seed,
        );
        self.total_env_steps += batch.transitions.len();
        self.iter += 1;
        let (entropy, approx_kl) = self.update(&mut batch);
        IterStats {
            mean_episode_reward: batch.mean_episode_return().unwrap_or(f64::NAN),
            episodes: batch.episode_returns.len(),
            success_rate: batch.success_rate().unwrap_or(0.0),
            mean_episode_len: if batch.episode_lens.is_empty() {
                f64::NAN
            } else {
                batch.episode_lens.iter().sum::<usize>() as f64 / batch.episode_lens.len() as f64
            },
            entropy,
            approx_kl,
            total_env_steps: self.total_env_steps,
        }
    }

    /// Performs the PPO update on a collected batch. Returns
    /// `(mean entropy, approximate KL)` measured during the last epoch.
    pub fn update(&mut self, batch: &mut Batch) -> (f64, f64) {
        let n = batch.transitions.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        // Advantage normalization across the whole batch.
        let mean = batch.transitions.iter().map(|t| t.advantage).sum::<f64>() / n as f64;
        let var = batch
            .transitions
            .iter()
            .map(|t| (t.advantage - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let std = var.sqrt().max(1e-8);
        for t in &mut batch.transitions {
            t.advantage = (t.advantage - mean) / std;
        }

        let minibatch = if self.cfg.minibatch == 0 {
            n
        } else {
            self.cfg.minibatch
        };
        let mut rows = SampleRows::new(self.policy.net().n_in(), self.policy.action_dims().len());
        let mut pol_ws = GradWorkspace::default();
        let mut val_ws = GradWorkspace::default();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut ent_sum = 0.0;
        let mut ent_count = 0usize;
        let mut kl_sum = 0.0;
        for epoch in 0..self.cfg.epochs {
            indices.shuffle(&mut self.rng);
            for chunk in indices.chunks(minibatch) {
                self.policy.net_mut().zero_grad();
                self.value.net_mut().zero_grad();
                for block in chunk.chunks(GRAD_BLOCK) {
                    rows.gather(&batch.transitions, block);
                    self.policy.ppo_grad_batch(
                        rows.samples(),
                        self.cfg.clip,
                        self.cfg.ent_coef,
                        &mut pol_ws,
                    );
                    self.value
                        .mse_grad_batch(&rows.obs, &rows.ret, self.cfg.vf_coef, &mut val_ws);
                    if epoch == self.cfg.epochs - 1 {
                        let diag = pol_ws.entropy().iter().zip(pol_ws.logp_new());
                        for ((ent, logp_new), logp) in diag.zip(&rows.logp) {
                            ent_sum += ent;
                            kl_sum += logp - logp_new;
                            ent_count += 1;
                        }
                    }
                }
                let scale = 1.0 / chunk.len() as f64;
                self.policy.net_mut().scale_grad(scale);
                self.value.net_mut().scale_grad(scale);
                // Global gradient clipping per network.
                for net in [self.policy.net_mut(), self.value.net_mut()] {
                    let gn = net.grad_norm();
                    if gn > self.cfg.max_grad_norm {
                        net.scale_grad(self.cfg.max_grad_norm / gn);
                    }
                }
                self.policy.net_mut().adam_step(self.cfg.lr);
                self.value.net_mut().adam_step(self.cfg.lr);
            }
        }
        if ent_count == 0 {
            (0.0, 0.0)
        } else {
            (ent_sum / ent_count as f64, kl_sum / ent_count as f64)
        }
    }
}

/// One block of transitions gathered sample-major, so that it feeds the
/// nets' batched gradient path as contiguous rows.
#[derive(Debug, Default)]
struct SampleRows {
    obs_dim: usize,
    factors: usize,
    obs: Vec<f64>,
    actions: Vec<usize>,
    logp: Vec<f64>,
    advantage: Vec<f64>,
    ret: Vec<f64>,
}

impl SampleRows {
    fn new(obs_dim: usize, factors: usize) -> Self {
        SampleRows {
            obs_dim,
            factors,
            ..SampleRows::default()
        }
    }

    /// Copies the transitions at `idx`, in order. Every row is padded or
    /// cut to the nets' widths, so a malformed transition cannot shift the
    /// rows after it.
    fn gather(&mut self, transitions: &[Transition], idx: &[usize]) {
        self.obs.clear();
        self.actions.clear();
        self.logp.clear();
        self.advantage.clear();
        self.ret.clear();
        for t in idx.iter().map(|&i| &transitions[i]) {
            let obs = t.obs.iter().copied().chain(std::iter::repeat(0.0));
            self.obs.extend(obs.take(self.obs_dim));
            let actions = t.actions.iter().copied().chain(std::iter::repeat(0));
            self.actions.extend(actions.take(self.factors));
            self.logp.push(t.logp);
            self.advantage.push(t.advantage);
            self.ret.push(t.ret);
        }
    }

    fn samples(&self) -> PpoSamples<'_> {
        PpoSamples {
            obs: &self.obs,
            actions: &self.actions,
            logp_old: &self.logp,
            advantage: &self.advantage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::LineEnv;
    use crate::mlp::{log_sum_exp, softmax};
    use rand::Rng;

    /// The one-sample-at-a-time PPO-clip gradient the batched path
    /// replaced.
    fn reference_ppo_grad(
        p: &mut PolicyNet,
        t: &Transition,
        clip: f64,
        ent_coef: f64,
    ) -> (f64, f64) {
        let (out, acts) = p.net().forward_cache(&t.obs);
        let mut dlogits = vec![0.0; out.len()];
        let mut logp_new = 0.0;
        let mut entropy = 0.0;
        let mut off = 0;
        for (&d, &a) in p.action_dims().iter().zip(&t.actions) {
            let z = &out[off..off + d];
            logp_new += z[a] - log_sum_exp(z);
            off += d;
        }
        let ratio = (logp_new - t.logp).exp();
        let unclipped_active = if t.advantage >= 0.0 {
            ratio < 1.0 + clip
        } else {
            ratio > 1.0 - clip
        };
        let dlogp = if unclipped_active {
            -t.advantage * ratio
        } else {
            0.0
        };
        let mut off = 0;
        for (&d, &a) in p.action_dims().iter().zip(&t.actions) {
            let z = &out[off..off + d];
            let p = softmax(z);
            let h: f64 = -p
                .iter()
                .map(|&pi| if pi > 0.0 { pi * pi.ln() } else { 0.0 })
                .sum::<f64>();
            entropy += h;
            for j in 0..d {
                let dlp = (if j == a { 1.0 } else { 0.0 }) - p[j];
                let dh = -p[j] * (p[j].max(1e-12).ln() + h);
                dlogits[off + j] += dlogp * dlp - ent_coef * dh;
            }
            off += d;
        }
        p.net_mut().backward(&acts, &dlogits);
        (logp_new, entropy)
    }

    /// The per-transition update loop the minibatch-major one replaced.
    fn reference_update(agent: &mut Ppo, batch: &mut Batch) -> (f64, f64) {
        let n = batch.transitions.len();
        let mean = batch.transitions.iter().map(|t| t.advantage).sum::<f64>() / n as f64;
        let var = batch
            .transitions
            .iter()
            .map(|t| (t.advantage - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let std = var.sqrt().max(1e-8);
        for t in &mut batch.transitions {
            t.advantage = (t.advantage - mean) / std;
        }
        let cfg = agent.cfg.clone();
        let mut indices: Vec<usize> = (0..n).collect();
        let (mut ent_sum, mut kl_sum, mut count) = (0.0, 0.0, 0usize);
        for epoch in 0..cfg.epochs {
            indices.shuffle(&mut agent.rng);
            for chunk in indices.chunks(cfg.minibatch) {
                agent.policy.net_mut().zero_grad();
                agent.value.net_mut().zero_grad();
                for &i in chunk {
                    let t = &batch.transitions[i];
                    let (logp_new, ent) =
                        reference_ppo_grad(&mut agent.policy, t, cfg.clip, cfg.ent_coef);
                    let vnet = agent.value.net_mut();
                    let (out, acts) = vnet.forward_cache(&t.obs);
                    vnet.backward(&acts, &[cfg.vf_coef * (out[0] - t.ret)]);
                    if epoch == cfg.epochs - 1 {
                        ent_sum += ent;
                        kl_sum += t.logp - logp_new;
                        count += 1;
                    }
                }
                let scale = 1.0 / chunk.len() as f64;
                agent.policy.net_mut().scale_grad(scale);
                agent.value.net_mut().scale_grad(scale);
                for net in [agent.policy.net_mut(), agent.value.net_mut()] {
                    let gn = net.grad_norm();
                    if gn > cfg.max_grad_norm {
                        net.scale_grad(cfg.max_grad_norm / gn);
                    }
                }
                agent.policy.net_mut().adam_step(cfg.lr);
                agent.value.net_mut().adam_step(cfg.lr);
            }
        }
        (ent_sum / count as f64, kl_sum / count as f64)
    }

    /// A batch whose behaviour log-probabilities straddle the current
    /// policy's, so both sides of the clip gate are exercised.
    fn random_batch(n: usize, obs_dim: usize, factors: usize, seed: u64) -> Batch {
        let mut rng = StdRng::seed_from_u64(seed);
        let transitions = (0..n)
            .map(|_| Transition {
                obs: (0..obs_dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
                actions: (0..factors).map(|_| rng.random_range(0..3)).collect(),
                logp: rng.random_range(-9.0..-6.0),
                reward: 0.0,
                value: 0.0,
                advantage: rng.random_range(-2.0..2.0),
                ret: rng.random_range(-5.0..5.0),
            })
            .collect();
        Batch {
            transitions,
            ..Batch::default()
        }
    }

    /// Debug output spells every weight, gradient, Adam moment and RNG
    /// word exactly, so equal strings mean bit-equal agents.
    fn state(agent: &Ppo) -> String {
        format!("{:?}|{:?}|{:?}", agent.policy, agent.value, agent.rng)
    }

    #[test]
    fn update_is_bitwise_the_per_sample_reference() {
        // 300 samples: neither the 128-sample minibatch nor the gradient
        // block divides it, so ragged tails are covered; two updates carry
        // the Adam moments forward.
        let cfg = PpoConfig {
            minibatch: 128,
            epochs: 2,
            ..PpoConfig::default()
        };
        let mut batched = Ppo::new(15, &[3; 7], cfg, 9);
        let mut reference = batched.clone();
        for seed in [1, 2] {
            let batch = random_batch(300, 15, 7, seed);
            let (e1, k1) = batched.update(&mut batch.clone());
            let (e2, k2) = reference_update(&mut reference, &mut batch.clone());
            assert_eq!((e1.to_bits(), k1.to_bits()), (e2.to_bits(), k2.to_bits()));
            assert_eq!(state(&batched), state(&reference));
        }
    }

    #[test]
    fn zero_minibatch_means_whole_batch() {
        let cfg = PpoConfig {
            minibatch: 0,
            epochs: 2,
            hidden: vec![8],
            ..PpoConfig::default()
        };
        let mut whole = Ppo::new(4, &[3, 3], cfg.clone(), 3);
        let mut explicit = Ppo::new(
            4,
            &[3, 3],
            PpoConfig {
                minibatch: 40,
                ..cfg
            },
            3,
        );
        let batch = random_batch(40, 4, 2, 5);
        let a = whole.update(&mut batch.clone());
        let b = explicit.update(&mut batch.clone());
        assert_eq!(
            (a.0.to_bits(), a.1.to_bits()),
            (b.0.to_bits(), b.1.to_bits())
        );
        assert_eq!(state(&whole), state(&explicit));
    }

    #[test]
    fn ppo_solves_line_env() {
        // The sanity benchmark for the whole learning stack: a policy must
        // learn to walk a 1-D grid to a sampled target within the horizon.
        let mut envs: Vec<LineEnv> = (0..4).map(|_| LineEnv::new(16, 24)).collect();
        let cfg = PpoConfig {
            steps_per_iter: 512,
            minibatch: 128,
            epochs: 6,
            lr: 1e-3,
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(3, &[3], cfg, 12345);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..40 {
            let stats = agent.train_iteration(&mut envs);
            if stats.mean_episode_reward.is_finite() {
                best = best.max(stats.mean_episode_reward);
            }
        }
        // A random walk rarely hits the target (return ~ -2); a trained
        // policy should routinely collect the +10 bonus.
        assert!(best > 5.0, "best mean episode reward {best}");
    }

    #[test]
    fn stats_track_env_steps() {
        let mut envs: Vec<LineEnv> = (0..2).map(|_| LineEnv::new(8, 10)).collect();
        let cfg = PpoConfig {
            steps_per_iter: 64,
            minibatch: 32,
            epochs: 2,
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(3, &[3], cfg, 1);
        let s1 = agent.train_iteration(&mut envs);
        let s2 = agent.train_iteration(&mut envs);
        assert!(s2.total_env_steps > s1.total_env_steps);
        assert_eq!(agent.total_env_steps(), s2.total_env_steps);
    }

    #[test]
    fn update_on_empty_batch_is_noop() {
        let cfg = PpoConfig::default();
        let mut agent = Ppo::new(3, &[3], cfg, 2);
        let mut empty = Batch::default();
        let (e, k) = agent.update(&mut empty);
        assert_eq!((e, k), (0.0, 0.0));
    }
}
