//! Criterion micro-benchmarks of the learning stack: forward/backward
//! passes of the paper's 3x50 network, one sample and one gradient block
//! at a time, and full PPO updates on synthetic batches — a small one and
//! one of the training workload's shape.

use autockt_rl::mlp::{Activation, BatchCache, Mlp, GRAD_BLOCK};
use autockt_rl::policy::PolicyNet;
use autockt_rl::ppo::{Ppo, PpoConfig};
use autockt_rl::rollout::{compute_gae, Batch, Transition};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_mlp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = Mlp::new(
        &[13, 50, 50, 50, 21],
        Activation::Tanh,
        Activation::Linear,
        &mut rng,
    );
    let x: Vec<f64> = (0..13).map(|i| (i as f64 * 0.1).sin()).collect();
    c.bench_function("mlp_forward_3x50", |b| {
        b.iter(|| net.forward(black_box(&x)))
    });
    let mut net2 = net.clone();
    let xs: Vec<f64> = (0..13 * GRAD_BLOCK)
        .map(|i| (i as f64 * 0.1).sin())
        .collect();
    let mut cache = BatchCache::default();
    let mut dout = Vec::new();
    c.bench_function("mlp_forward_backward_3x50_block", |b| {
        b.iter(|| {
            dout.clear();
            dout.extend_from_slice(net2.forward_batch(black_box(&xs), GRAD_BLOCK, &mut cache));
            net2.backward_batch(&mut cache, &dout);
        })
    });
}

fn bench_policy_act(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let p = PolicyNet::new(13, &[3; 7], &[50, 50, 50], &mut rng);
    let obs: Vec<f64> = (0..13).map(|i| (i as f64 * 0.3).cos()).collect();
    c.bench_function("policy_sample_7x3", |b| {
        b.iter(|| p.act(black_box(&obs), &mut rng))
    });
}

fn synthetic_batch(n: usize, obs_dim: usize, factors: usize, rng: &mut StdRng) -> Batch {
    let mut transitions: Vec<Transition> = (0..n)
        .map(|_| Transition {
            obs: (0..obs_dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
            actions: (0..factors).map(|_| rng.random_range(0..3)).collect(),
            logp: -1.1,
            reward: rng.random_range(-1.0..1.0),
            value: 0.0,
            advantage: 0.0,
            ret: 0.0,
        })
        .collect();
    let dones: Vec<bool> = (0..n).map(|i| i % 16 == 15).collect();
    compute_gae(&mut transitions, &dones, 0.0, 0.99, 0.95);
    Batch {
        transitions,
        episode_returns: vec![0.0],
        episode_lens: vec![16],
        episode_successes: vec![false],
    }
}

fn bench_ppo_update(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = PpoConfig {
        steps_per_iter: 256,
        minibatch: 128,
        epochs: 2,
        ..PpoConfig::default()
    };
    let mut agent = Ppo::new(13, &[3; 7], cfg, 4);
    c.bench_function("ppo_update_256x2epochs", |b| {
        b.iter_batched(
            || synthetic_batch(256, 13, 7, &mut rng),
            |mut batch| agent.update(black_box(&mut batch)),
            criterion::BatchSize::LargeInput,
        )
    });
}

/// One update of the training workload's shape: `PpoConfig::default()`
/// (2048 samples, 8 epochs of 256-sample minibatches, 3x50 nets) on a
/// 15-dim observation with 7 three-way action factors.
fn bench_ppo_update_train_shape(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = PpoConfig::default();
    let n = cfg.steps_per_iter;
    let mut agent = Ppo::new(15, &[3; 7], cfg, 6);
    c.bench_function("ppo_update_2048x8", |b| {
        b.iter_batched(
            || synthetic_batch(n, 15, 7, &mut rng),
            |mut batch| agent.update(black_box(&mut batch)),
            criterion::BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_mlp,
    bench_policy_act,
    bench_ppo_update,
    bench_ppo_update_train_shape
);
criterion_main!(benches);
