//! The three closed-loop workloads, each driven through the entry point
//! users call: `autockt_core::train`, `autockt_core::deploy` and
//! `autockt_baselines::ga::ga_solve`.
//!
//! A workload's set-up builds its inputs from the seed. A timed *unit* is
//! one entry-point call on inputs derived from `(seed, unit index)`; the
//! untraced run repeats units for the requested time. The traced run
//! replays a fixed number of units twice — once untraced as the reference,
//! once through the bench-side wrappers of [`crate::probe`] — checks that
//! both agree, and splits the traced run by layer.

use crate::probe::{EnvCall, TimedEnv, TimedProblem};
use crate::replay::{replay_tia, sample_designs, StageSplit};
use crate::stats::{cpu_seconds, median, Latency};
use autockt_baselines::ga::{ga_solve, GaConfig, GaOutcome};
use autockt_circuits::{OpAmp2, SharedMemo, SimMode, SizingProblem, Tia};
use autockt_core::train::wire_thread_budget;
use autockt_core::{
    deploy, is_success, reward, sample_uniform, train, training_targets, DeployConfig,
    DeployOutcome, EnvConfig, SizingEnv, TargetMode, TrainConfig,
};
use autockt_rl::env::Env;
use autockt_rl::policy::PolicyNet;
use autockt_rl::ppo::{IterStats, Ppo};
use autockt_sim::pex::PexConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One timed entry-point call.
#[derive(Debug, Clone, Copy)]
pub struct UnitRun {
    /// Evaluation requests completed.
    pub evals: u64,
    /// Wall time of the entry-point call alone (output checks excluded).
    pub secs: f64,
}

/// Per-layer metrics of a traced run. Layers a workload does not exercise
/// stay 0 (no PPO runs in deploy or ga; the stage replay covers the TIA
/// post-layout workloads only).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub ppo_update_s: f64,
    pub ppo_update_share: f64,
    pub ppo_us_per_grad_sample: f64,
    pub rollout_collect_s: f64,
    pub rollout_worker_wait_frac: f64,
    pub policy_self_s: f64,
    pub policy_us_per_step: f64,
    pub env_steps: usize,
    pub env_step_us_p50: f64,
    pub env_step_us_p90: f64,
    pub env_self_us: f64,
    pub memo_evals: u64,
    pub memo_hit_frac: f64,
    pub memo_cross_hit_frac: f64,
    pub memo_contended_locks: u64,
    pub memo_evictions: u64,
    pub solve_count: usize,
    pub solve_failed: usize,
    pub solve_warm_frac: f64,
    pub solve_ms_p50: f64,
    pub solve_ms_p90: f64,
    pub solve_busy_share: f64,
    pub sim: StageSplit,
    pub process_cpu_s: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// `(name, value, unit)` of every per-layer metric, in report order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("ppo.update_s", self.ppo_update_s, "s"),
            ("ppo.update_share", self.ppo_update_share, "frac"),
            ("ppo.us_per_grad_sample", self.ppo_us_per_grad_sample, "us"),
            ("rollout.collect_s", self.rollout_collect_s, "s"),
            (
                "rollout.worker_wait_frac",
                self.rollout_worker_wait_frac,
                "frac",
            ),
            ("policy.self_s", self.policy_self_s, "s"),
            ("policy.us_per_step", self.policy_us_per_step, "us"),
            ("env.steps", self.env_steps as f64, "count"),
            ("env.step_us_p50", self.env_step_us_p50, "us"),
            ("env.step_us_p90", self.env_step_us_p90, "us"),
            ("env.self_us", self.env_self_us, "us"),
            ("memo.evals", self.memo_evals as f64, "count"),
            ("memo.hit_frac", self.memo_hit_frac, "frac"),
            ("memo.cross_hit_frac", self.memo_cross_hit_frac, "frac"),
            (
                "memo.contended_locks",
                self.memo_contended_locks as f64,
                "count",
            ),
            ("memo.evictions", self.memo_evictions as f64, "count"),
            ("solve.count", self.solve_count as f64, "count"),
            (
                "solve.fail_frac",
                self.solve_failed as f64 / self.solve_count.max(1) as f64,
                "frac",
            ),
            ("solve.warm_frac", self.solve_warm_frac, "frac"),
            ("solve.ms_p50", self.solve_ms_p50, "ms"),
            ("solve.ms_p90", self.solve_ms_p90, "ms"),
            ("solve.busy_share", self.solve_busy_share, "frac"),
            ("sim.designs", self.sim.designs as f64, "count"),
            ("sim.extract_ms", self.sim.extract_ms, "ms"),
            ("sim.dc_ms", self.sim.dc_ms, "ms"),
            ("sim.dc_newton_iters", self.sim.dc_newton_iters, "count"),
            ("sim.ac_ms", self.sim.ac_ms, "ms"),
            ("sim.noise_ms", self.sim.noise_ms, "ms"),
            ("sim.settle_ms", self.sim.settle_ms, "ms"),
            ("sim.mna_dim", self.sim.mna_dim as f64, "count"),
            ("process.cpu_s", self.process_cpu_s, "s"),
            ("trace.overhead_frac", self.trace_overhead_frac, "frac"),
        ]
    }

    /// Fills the `solve.*` metrics from a traced problem's records;
    /// `busy_secs` is the wall time the solves could occupy (traced wall
    /// time × concurrent clients).
    fn solves<P: SizingProblem>(
        &mut self,
        problem: &TimedProblem<P>,
        busy_secs: f64,
    ) -> Result<(), String> {
        let records = problem.records();
        let n = records.len();
        let lat = Latency::of(
            &records.iter().map(|r| r.secs * 1e3).collect::<Vec<_>>(),
            "solve.ms",
        )?;
        let frac = |k: usize| k as f64 / n as f64;
        self.solve_count = n;
        self.solve_failed = records.iter().filter(|r| !r.ok).count();
        self.solve_warm_frac = frac(records.iter().filter(|r| r.method.is_warm()).count());
        self.solve_ms_p50 = lat.p50;
        self.solve_ms_p90 = lat.p90;
        self.solve_busy_share = records.iter().map(|r| r.secs).sum::<f64>() / busy_secs;
        Ok(())
    }

    /// Replays a sample of the successfully solved designs stage by stage.
    fn replay(&mut self, problem: &TimedProblem<Tia>) -> Result<(), String> {
        let seen: Vec<Vec<usize>> = problem
            .records()
            .into_iter()
            .filter(|r| r.ok)
            .map(|r| r.idx)
            .collect();
        self.sim = replay_tia(problem.inner(), &sample_designs(&seen, REPLAY_DESIGNS))?;
        Ok(())
    }
}

/// Designs replayed stage by stage in a traced post-layout run.
const REPLAY_DESIGNS: usize = 6;

/// Solves a traced post-layout run must reach, so that `solve.ms_p90` has
/// at least ten samples beyond it.
const MIN_TRACE_SOLVES: u64 = 110;

/// Inputs derived from `(seed, unit)`: distinct units get independent
/// streams (SplitMix64 finaliser).
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    let mut z = seed.wrapping_add((unit as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A closed-loop workload.
pub trait Workload: Sized {
    /// Builds the inputs from the seed: problem, targets, policy.
    fn setup(seed: u64) -> Self;

    /// Runs timed unit `i` and checks its outputs.
    ///
    /// # Errors
    ///
    /// A description of the first output check that failed.
    fn unit(&self, i: usize) -> Result<UnitRun, String>;

    /// Solver calls `(attempted, failed)` by the timed units so far.
    fn solves(&self) -> (u64, u64);

    /// The traced run: checks that tracing leaves the outputs unchanged
    /// and splits the run by layer.
    ///
    /// # Errors
    ///
    /// A failed transparency gate or output check.
    fn trace(&self) -> Result<Layers, String>;
}

fn check_finite(what: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("non-finite {what}: {v}")),
        None => Ok(()),
    }
}

/// Evaluation requests completed, and the seconds they took.
type Throughput = (u64, f64);

/// `1 - traced / untraced` throughput.
fn overhead(traced: Throughput, untraced: Throughput) -> f64 {
    let rate = |(evals, secs): Throughput| evals as f64 / secs;
    1.0 - rate(traced) / rate(untraced)
}

fn tia_with_mesh(mesh_depth: usize) -> Tia {
    let tia = Tia::default();
    let pex = PexConfig {
        mesh_depth,
        ..tia.pex_config().clone()
    };
    tia.with_pex_config(pex)
}

/// The traced run of a post-layout TIA workload. `run(problem, unit)` runs
/// one unit: first on the counting problem, unit after unit until the
/// solve latency has a reportable tail, then the same units on a traced
/// copy of the problem. The outputs' `key`s must agree.
fn trace_tia<O, K: PartialEq>(
    counting: &Arc<TimedProblem<Tia>>,
    run: impl Fn(&Arc<TimedProblem<Tia>>, usize) -> Result<(O, UnitRun), String>,
    key: impl Fn(&O) -> K,
) -> Result<Layers, String> {
    let solves0 = counting.attempted();
    let mut reference = Vec::new();
    let mut untraced = (0, 0.0);
    while counting.attempted() - solves0 < MIN_TRACE_SOLVES {
        let (out, u) = run(counting, reference.len())?;
        untraced = (untraced.0 + u.evals, untraced.1 + u.secs);
        reference.push(key(&out));
    }
    let timed = Arc::new(TimedProblem::traced(counting.inner().clone()));
    let cpu0 = cpu_seconds()?;
    let mut traced = (0, 0.0);
    for (i, expected) in reference.iter().enumerate() {
        let (out, u) = run(&timed, i)?;
        traced = (traced.0 + u.evals, traced.1 + u.secs);
        if key(&out) != *expected {
            return Err(format!("traced unit {i} differs from the untraced one"));
        }
    }
    let mut layers = Layers {
        process_cpu_s: cpu_seconds()? - cpu0,
        ..Layers::default()
    };
    layers.solves(&timed, traced.1)?;
    // The memo is private to each call: every evaluation that did not
    // reach the solver was a hit.
    layers.memo_evals = traced.0;
    layers.memo_hit_frac = 1.0 - layers.solve_count as f64 / traced.0 as f64;
    layers.replay(&timed)?;
    layers.trace_overhead_frac = overhead(traced, untraced);
    Ok(layers)
}

/// `train_opamp2_schematic`: PPO training on the two-stage op-amp at
/// schematic fidelity, two rollout workers plus a synchronous update.
pub struct TrainWorkload {
    problem: Arc<TimedProblem<OpAmp2>>,
    cfg: TrainConfig,
}

/// PPO iterations per `train()` call.
const TRAIN_ITERS: usize = 2;

impl TrainWorkload {
    fn config(&self, unit: usize) -> TrainConfig {
        TrainConfig {
            seed: unit_seed(self.cfg.seed, unit),
            ..self.cfg.clone()
        }
    }

    fn check_curve(&self, curve: &[IterStats], env_steps: usize) -> Result<(), String> {
        let per_iter = self.cfg.ppo.steps_per_iter;
        if curve.len() != TRAIN_ITERS || env_steps != TRAIN_ITERS * per_iter {
            return Err(format!(
                "train ran {} iterations / {env_steps} env steps, expected {TRAIN_ITERS} / {}",
                curve.len(),
                TRAIN_ITERS * per_iter
            ));
        }
        for s in curve {
            check_finite(
                "training statistic",
                &[
                    s.mean_episode_reward,
                    s.success_rate,
                    s.mean_episode_len,
                    s.entropy,
                    s.approx_kl,
                ],
            )?;
        }
        Ok(())
    }

    /// `train()` rebuilt from its public parts, with every env and the
    /// problem wrapped: returns the curve, the layer split and the
    /// `(env steps, seconds)` of the iteration loop.
    fn traced_train(
        &self,
        cfg: &TrainConfig,
    ) -> Result<(Vec<IterStats>, Layers, Throughput), String> {
        wire_thread_budget();
        let timed = Arc::new(TimedProblem::traced(OpAmp2::default()));
        let problem: Arc<dyn SizingProblem> = timed.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let targets = training_targets(
            problem.as_ref(),
            cfg.num_targets,
            &mut rng,
            cfg.feasible_targets,
        );
        let memo = Arc::new(SharedMemo::with_default_capacity());
        let env_cfg = EnvConfig {
            horizon: cfg.horizon,
            mode: cfg.mode,
            target_mode: TargetMode::FixedSet(targets),
            shared_memo: cfg.pool_memo.then(|| Arc::clone(&memo)),
            ..EnvConfig::default()
        };
        let workers = cfg.num_workers.max(1);
        let mut envs: Vec<TimedEnv<SizingEnv>> = (0..workers)
            .map(|_| TimedEnv::new(SizingEnv::new(Arc::clone(&problem), env_cfg.clone())))
            .collect();
        let mut agent = Ppo::new(
            envs[0].obs_dim(),
            &envs[0].action_dims(),
            cfg.ppo.clone(),
            cfg.seed ^ 0xA5,
        );

        let mut curve = Vec::new();
        let (mut collect, mut update, mut wait) = (0.0, 0.0, 0.0);
        let mut steps: Vec<EnvCall> = Vec::new();
        let start = Instant::now();
        for _ in 0..cfg.max_iters {
            let t = Instant::now();
            curve.push(agent.train_iteration(&mut envs));
            let wall = t.elapsed().as_secs_f64();
            let calls: Vec<Vec<EnvCall>> = envs.iter_mut().map(TimedEnv::take_calls).collect();
            let first = calls
                .iter()
                .filter_map(|c| c.first())
                .map(|c| c.start)
                .min();
            let ends: Vec<Instant> = calls
                .iter()
                .filter_map(|c| c.last())
                .map(|c| c.end)
                .collect();
            let (Some(first), Some(&last)) = (first, ends.iter().max()) else {
                return Err("a training iteration made no env calls".into());
            };
            let span = (last - first).as_secs_f64();
            collect += span;
            update += wall - span;
            wait += ends.iter().map(|&e| (last - e).as_secs_f64()).sum::<f64>();
            steps.extend(calls.into_iter().flatten().filter(|c| c.step));
        }
        let wall = start.elapsed().as_secs_f64();

        let mut layers = Layers::default();
        let env_steps = curve.last().map_or(0, |s| s.total_env_steps);
        layers.ppo_update_s = update;
        layers.ppo_update_share = update / (collect + update);
        layers.ppo_us_per_grad_sample = update * 1e6 / (env_steps * cfg.ppo.epochs) as f64;
        layers.rollout_collect_s = collect;
        layers.rollout_worker_wait_frac = wait / (collect * workers as f64);
        let gaps: Vec<f64> = steps
            .iter()
            .filter_map(|c| c.gap)
            .map(|g| g.as_secs_f64() * 1e6)
            .collect();
        layers.policy_self_s = gaps.iter().sum::<f64>() * 1e-6;
        layers.policy_us_per_step = median(&gaps).ok_or("no policy steps")?;
        let step_us: Vec<f64> = steps.iter().map(|c| c.secs() * 1e6).collect();
        let lat = Latency::of(&step_us, "env.step_us")?;
        layers.env_steps = lat.n;
        layers.env_step_us_p50 = lat.p50;
        layers.env_step_us_p90 = lat.p90;
        layers.env_self_us = steps
            .iter()
            .map(|c| (c.secs() - c.solve.as_secs_f64()) * 1e6)
            .sum::<f64>()
            / lat.n as f64;
        let evals: u64 = envs.iter().map(|e| e.inner().sim_count()).sum();
        let hits: u64 = envs.iter().map(|e| e.inner().memo_hits()).sum();
        let cross: u64 = envs.iter().map(|e| e.inner().cross_memo_hits()).sum();
        layers.memo_evals = evals;
        layers.memo_hit_frac = hits as f64 / evals as f64;
        layers.memo_cross_hit_frac = if hits == 0 {
            0.0
        } else {
            cross as f64 / hits as f64
        };
        layers.memo_contended_locks = memo.contended_locks();
        layers.memo_evictions = memo.evictions();
        layers.solves(&timed, wall * workers as f64)?;
        Ok((curve, layers, (env_steps as u64, wall)))
    }
}

/// Relative tolerance of the train transparency gate. With the pooled
/// memo and warm start on, whichever worker solves a grid point first
/// decides its specs, so `train()` is reproducible only within solver
/// tolerance (see `TrainConfig::pool_memo`): repeated runs of one seed
/// differ in the last bits of the entropy and KL statistics.
const CURVE_RTOL: f64 = 1e-6;

/// Whether two training curves agree: counts exactly, statistics within
/// [`CURVE_RTOL`].
fn curves_agree(a: &[IterStats], b: &[IterStats]) -> bool {
    let stats = |s: &IterStats| {
        [
            s.mean_episode_reward,
            s.success_rate,
            s.mean_episode_len,
            s.entropy,
            s.approx_kl,
        ]
    };
    let close = |x: f64, y: f64| (x - y).abs() <= CURVE_RTOL * x.abs().max(y.abs());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.episodes, x.total_env_steps) == (y.episodes, y.total_env_steps)
                && stats(x).into_iter().zip(stats(y)).all(|(u, v)| close(u, v))
        })
}

impl Workload for TrainWorkload {
    fn setup(seed: u64) -> Self {
        TrainWorkload {
            problem: Arc::new(TimedProblem::counting(OpAmp2::default())),
            cfg: TrainConfig {
                num_workers: 2,
                max_iters: TRAIN_ITERS,
                target_mean_reward: f64::INFINITY,
                seed,
                ..TrainConfig::default()
            },
        }
    }

    fn unit(&self, i: usize) -> Result<UnitRun, String> {
        let cfg = self.config(i);
        let t = Instant::now();
        let res = train(self.problem.clone(), &cfg);
        let secs = t.elapsed().as_secs_f64();
        self.check_curve(&res.curve, res.env_steps())?;
        Ok(UnitRun {
            evals: res.env_steps() as u64,
            secs,
        })
    }

    fn solves(&self) -> (u64, u64) {
        (self.problem.attempted(), self.problem.failed())
    }

    fn trace(&self) -> Result<Layers, String> {
        let cfg = self.config(0);
        let t = Instant::now();
        let reference = train(self.problem.clone(), &cfg);
        let untraced = (reference.env_steps() as u64, t.elapsed().as_secs_f64());
        self.check_curve(&reference.curve, reference.env_steps())?;
        let cpu0 = cpu_seconds()?;
        let (curve, mut layers, traced) = self.traced_train(&cfg)?;
        layers.process_cpu_s = cpu_seconds()? - cpu0;
        self.check_curve(&curve, curve.last().map_or(0, |s| s.total_env_steps))?;
        if !curves_agree(&curve, &reference.curve) {
            return Err(format!(
                "traced training curve {curve:?} differs from the untraced {:?}",
                reference.curve
            ));
        }
        layers.trace_overhead_frac = overhead(traced, untraced);
        Ok(layers)
    }
}

/// `deploy_tia_pexwc_sparse`: deployment of a fixed untrained stochastic
/// policy on the TIA at post-layout worst case, mesh depth 16.
pub struct DeployWorkload {
    seed: u64,
    problem: Arc<TimedProblem<Tia>>,
    policy: PolicyNet,
    targets: Vec<Vec<f64>>,
}

/// PEX mesh depth of the deployment TIA: MNA dim 116, above the dense /
/// sparse crossover of 64.
pub const DEPLOY_MESH: usize = 16;

/// Targets drawn at set-up; units cycle through them.
const TARGET_POOL: usize = 32;

impl DeployWorkload {
    fn run(
        &self,
        problem: &Arc<TimedProblem<Tia>>,
        i: usize,
    ) -> Result<(Vec<DeployOutcome>, UnitRun), String> {
        let targets = [self.targets[i % TARGET_POOL].clone()];
        let cfg = DeployConfig {
            mode: SimMode::PexWorstCase,
            seed: unit_seed(self.seed, i),
            ..DeployConfig::default()
        };
        let t = Instant::now();
        let stats = deploy(&self.policy, problem.clone(), &targets, &cfg);
        let secs = t.elapsed().as_secs_f64();
        let specs = problem.specs();
        let mut evals = 0;
        for o in &stats.outcomes {
            if o.spec_trajectory.len() != o.steps + 1 || o.steps > cfg.horizon {
                return Err(format!(
                    "deploy outcome has {} specs for {} steps",
                    o.spec_trajectory.len(),
                    o.steps
                ));
            }
            for s in &o.spec_trajectory {
                check_finite("deploy spec", s)?;
                check_finite("deploy reward", &[reward(specs, s, &o.target)])?;
            }
            evals += 1 + o.steps as u64;
        }
        Ok((stats.outcomes, UnitRun { evals, secs }))
    }
}

impl Workload for DeployWorkload {
    fn setup(seed: u64) -> Self {
        let problem = Arc::new(TimedProblem::counting(tia_with_mesh(DEPLOY_MESH)));
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = (0..TARGET_POOL)
            .map(|_| sample_uniform(problem.as_ref(), &mut rng))
            .collect();
        let env = SizingEnv::new(problem.clone(), EnvConfig::default());
        let policy = PolicyNet::new(env.obs_dim(), &env.action_dims(), &[50, 50, 50], &mut rng);
        DeployWorkload {
            seed,
            problem,
            policy,
            targets,
        }
    }

    fn unit(&self, i: usize) -> Result<UnitRun, String> {
        self.run(&self.problem, i).map(|(_, u)| u)
    }

    fn solves(&self) -> (u64, u64) {
        (self.problem.attempted(), self.problem.failed())
    }

    fn trace(&self) -> Result<Layers, String> {
        trace_tia(
            &self.problem,
            |p, i| self.run(p, i),
            |outcomes| {
                outcomes
                    .iter()
                    .map(|o| (o.reached, o.steps))
                    .collect::<Vec<_>>()
            },
        )
    }
}

/// `ga_tia_pexwc_dense`: the GA baseline on the TIA at post-layout worst
/// case, mesh depth 4 (MNA dim 32, dense), cold by design.
pub struct GaWorkload {
    seed: u64,
    problem: Arc<TimedProblem<Tia>>,
    targets: Vec<Vec<f64>>,
}

/// PEX mesh depth of the GA TIA: MNA dim 32, below the crossover.
pub const GA_MESH: usize = 4;

/// The fixed GA budget per target.
fn ga_config(seed: u64) -> GaConfig {
    GaConfig {
        population: 16,
        generations: 6,
        count_duplicates: true,
        seed,
        ..GaConfig::default()
    }
}

impl GaWorkload {
    fn run(
        &self,
        problem: &Arc<TimedProblem<Tia>>,
        i: usize,
    ) -> Result<(GaOutcome, UnitRun), String> {
        let target = &self.targets[i % TARGET_POOL];
        let cfg = ga_config(unit_seed(self.seed, i));
        let solves0 = problem.attempted();
        let t = Instant::now();
        let out = ga_solve(problem.as_ref(), target, SimMode::PexWorstCase, &cfg);
        let secs = t.elapsed().as_secs_f64();
        let solves = problem.attempted() - solves0;
        let budget = cfg.population * (cfg.generations + 1);
        if (out.sims as u64) < solves || out.sims > budget {
            return Err(format!(
                "GA counted {} evaluations for {solves} solves (budget {budget})",
                out.sims
            ));
        }
        check_finite("GA reward", &[out.best_reward])?;
        if out.reached != is_success(out.best_reward) {
            return Err("GA reached flag disagrees with its best reward".into());
        }
        // The cold path is deterministic: re-solving the best genome must
        // reproduce its reward bit for bit.
        let specs = problem
            .inner()
            .simulate(&out.best_idx, SimMode::PexWorstCase)
            .map_err(|e| format!("GA best genome does not re-solve: {e}"))?;
        check_finite("GA spec", &specs)?;
        let again = reward(problem.specs(), &specs, target);
        if again.to_bits() != out.best_reward.to_bits() {
            return Err(format!(
                "GA best reward {} does not reproduce ({again})",
                out.best_reward
            ));
        }
        Ok((
            out.clone(),
            UnitRun {
                evals: out.sims as u64,
                secs,
            },
        ))
    }
}

impl Workload for GaWorkload {
    fn setup(seed: u64) -> Self {
        let problem = Arc::new(TimedProblem::counting(tia_with_mesh(GA_MESH)));
        let mut rng = StdRng::seed_from_u64(seed);
        let targets = (0..TARGET_POOL)
            .map(|_| sample_uniform(problem.as_ref(), &mut rng))
            .collect();
        GaWorkload {
            seed,
            problem,
            targets,
        }
    }

    fn unit(&self, i: usize) -> Result<UnitRun, String> {
        self.run(&self.problem, i).map(|(_, u)| u)
    }

    fn solves(&self) -> (u64, u64) {
        (self.problem.attempted(), self.problem.failed())
    }

    fn trace(&self) -> Result<Layers, String> {
        trace_tia(
            &self.problem,
            |p, i| self.run(p, i),
            |o| {
                (
                    o.reached,
                    o.sims,
                    o.best_reward.to_bits(),
                    o.best_idx.clone(),
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_bench::extracted_center_dim;
    use autockt_sim::linalg::sparse::DEFAULT_CROSSOVER;

    #[test]
    fn post_layout_workloads_straddle_the_dense_sparse_crossover() {
        let dim = |mesh| extracted_center_dim("tia", tia_with_mesh(mesh).pex_config()).unwrap();
        assert_eq!(dim(DEPLOY_MESH), 116);
        assert_eq!(dim(GA_MESH), 32);
        assert!(dim(GA_MESH) < DEFAULT_CROSSOVER && DEFAULT_CROSSOVER < dim(DEPLOY_MESH));
    }

    #[test]
    fn curves_agree_within_solver_tolerance_only() {
        let base = IterStats {
            mean_episode_reward: -9.776936297171096,
            episodes: 68,
            success_rate: 0.0,
            mean_episode_len: 30.0,
            entropy: 7.581878828625564,
            approx_kl: 0.00648359502807256,
            total_env_steps: 4096,
        };
        // The last-bit flip seen between repeated runs of one seed.
        let ulp = IterStats {
            entropy: 7.581878828625565,
            approx_kl: 0.006483595028072641,
            ..base.clone()
        };
        assert!(curves_agree(std::slice::from_ref(&base), &[ulp]));
        let episodes = IterStats {
            episodes: 69,
            ..base.clone()
        };
        assert!(!curves_agree(std::slice::from_ref(&base), &[episodes]));
        let reward = IterStats {
            mean_episode_reward: -9.7769,
            ..base.clone()
        };
        assert!(!curves_agree(std::slice::from_ref(&base), &[reward]));
        assert!(!curves_agree(std::slice::from_ref(&base), &[]));
    }

    #[test]
    fn unit_seeds_are_distinct_and_repeatable() {
        let seeds: Vec<u64> = (0..64).map(|i| unit_seed(7, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
        assert_eq!(unit_seed(7, 3), seeds[3]);
        assert_ne!(unit_seed(8, 3), seeds[3]);
    }
}
