//! Bench-side wrappers that observe the library from outside.
//!
//! [`TimedProblem`] wraps a [`SizingProblem`] and counts every solver call
//! (each `simulate*` call is one memo miss); when traced it also times each
//! call and records which method ran. [`TimedEnv`] wraps an [`Env`] and
//! times each reset and step, splitting a step into the solve time inside
//! it and the environment's own time. The library crates carry no clock,
//! counter or hook for this benchmark.

use autockt_circuits::{ParamSpec, SimMode, SizingProblem, SpecDef};
use autockt_rl::env::{Env, StepResult};
use autockt_sim::dc::WarmState;
use autockt_sim::{SimError, SolverConfig};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

thread_local! {
    /// Solver time spent on this thread so far (ns). [`TimedEnv`] reads it
    /// around each step; rollout workers each own a thread, so the delta is
    /// the solve time inside that worker's step.
    static SOLVE_NS: Cell<u64> = const { Cell::new(0) };
}

fn thread_solve_ns() -> u64 {
    SOLVE_NS.with(Cell::get)
}

/// Which [`SizingProblem`] evaluation method a solver call went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `simulate`: cold, the problem's own solver config.
    Simulate,
    /// `simulate_warm`: warm-started.
    Warm,
    /// `simulate_cfg`: cold, caller-chosen solver config.
    Cfg,
    /// `simulate_warm_cfg`: warm-started, caller-chosen solver config.
    WarmCfg,
}

impl Method {
    /// Whether the call took a `simulate_warm*` method.
    pub fn is_warm(self) -> bool {
        matches!(self, Method::Warm | Method::WarmCfg)
    }
}

/// One solver call seen by a traced [`TimedProblem`].
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Grid indices evaluated.
    pub idx: Vec<usize>,
    /// Wall time of the call.
    pub secs: f64,
    /// The evaluation method that ran.
    pub method: Method,
    /// Whether the call returned specs rather than a `SimError`.
    pub ok: bool,
}

/// A [`SizingProblem`] that forwards every method to `inner`, counting
/// solver calls and failures; when traced it also records each call.
pub struct TimedProblem<P> {
    inner: P,
    attempted: AtomicU64,
    failed: AtomicU64,
    records: Option<Mutex<Vec<SolveRecord>>>,
}

impl<P: SizingProblem> TimedProblem<P> {
    /// Counts calls and failures only (the untraced runs).
    pub fn counting(inner: P) -> Self {
        TimedProblem {
            inner,
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            records: None,
        }
    }

    /// Counts, times and records every call (the traced runs).
    pub fn traced(inner: P) -> Self {
        TimedProblem {
            records: Some(Mutex::new(Vec::new())),
            ..TimedProblem::counting(inner)
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Solver calls so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Solver calls that returned a `SimError`.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The calls recorded so far, in completion order (empty when not
    /// traced).
    pub fn records(&self) -> Vec<SolveRecord> {
        self.records.as_ref().map_or_else(Vec::new, |r| {
            r.lock().expect("a solver call panicked").clone()
        })
    }

    fn observe(
        &self,
        idx: &[usize],
        method: Method,
        call: impl FnOnce() -> Result<Vec<f64>, SimError>,
    ) -> Result<Vec<f64>, SimError> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let Some(records) = &self.records else {
            let res = call();
            if res.is_err() {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
            return res;
        };
        let t0 = Instant::now();
        let res = call();
        let dt = t0.elapsed();
        if res.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let ns = u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX);
        SOLVE_NS.with(|c| c.set(c.get().saturating_add(ns)));
        records
            .lock()
            .expect("a solver call panicked")
            .push(SolveRecord {
                idx: idx.to_vec(),
                secs: dt.as_secs_f64(),
                method,
                ok: res.is_ok(),
            });
        res
    }
}

impl<P: SizingProblem> SizingProblem for TimedProblem<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> &[ParamSpec] {
        self.inner.params()
    }

    fn specs(&self) -> &[SpecDef] {
        self.inner.specs()
    }

    fn simulate(&self, idx: &[usize], mode: SimMode) -> Result<Vec<f64>, SimError> {
        self.observe(idx, Method::Simulate, || self.inner.simulate(idx, mode))
    }

    fn simulate_warm(
        &self,
        idx: &[usize],
        mode: SimMode,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.observe(idx, Method::Warm, || {
            self.inner.simulate_warm(idx, mode, state)
        })
    }

    fn solver_config(&self) -> SolverConfig {
        self.inner.solver_config()
    }

    fn simulate_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
    ) -> Result<Vec<f64>, SimError> {
        self.observe(idx, Method::Cfg, || self.inner.simulate_cfg(idx, mode, cfg))
    }

    fn simulate_warm_cfg(
        &self,
        idx: &[usize],
        mode: SimMode,
        cfg: SolverConfig,
        state: &mut WarmState,
    ) -> Result<Vec<f64>, SimError> {
        self.observe(idx, Method::WarmCfg, || {
            self.inner.simulate_warm_cfg(idx, mode, cfg, state)
        })
    }

    fn cardinalities(&self) -> Vec<usize> {
        self.inner.cardinalities()
    }

    fn value(&self, p: usize, i: usize) -> f64 {
        self.inner.value(p, i)
    }

    fn log10_space_size(&self) -> f64 {
        self.inner.log10_space_size()
    }
}

/// One timed environment call.
#[derive(Debug, Clone, Copy)]
pub struct EnvCall {
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Solver time inside the call.
    pub solve: Duration,
    /// `step` (true) or `reset` (false).
    pub step: bool,
    /// For a step, the worker's time since its previous env call returned:
    /// the policy's action sample plus the value forward.
    pub gap: Option<Duration>,
}

impl EnvCall {
    /// Wall time of the call.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An [`Env`] that forwards to `inner` and records an [`EnvCall`] per
/// reset and step.
pub struct TimedEnv<E> {
    inner: E,
    calls: Vec<EnvCall>,
    last_end: Option<Instant>,
}

impl<E: Env> TimedEnv<E> {
    /// Wraps an environment.
    pub fn new(inner: E) -> Self {
        TimedEnv {
            inner,
            calls: Vec::new(),
            last_end: None,
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Drains the calls recorded since the last drain. The next step's gap
    /// starts fresh, so no gap spans two training iterations.
    pub fn take_calls(&mut self) -> Vec<EnvCall> {
        self.last_end = None;
        std::mem::take(&mut self.calls)
    }

    fn timed<T>(&mut self, step: bool, call: impl FnOnce(&mut E) -> T) -> T {
        let solve0 = thread_solve_ns();
        let start = Instant::now();
        let out = call(&mut self.inner);
        let end = Instant::now();
        let solve = Duration::from_nanos(thread_solve_ns() - solve0);
        let gap = if step {
            self.last_end.map(|prev| start - prev)
        } else {
            None
        };
        self.calls.push(EnvCall {
            start,
            end,
            solve,
            step,
            gap,
        });
        self.last_end = Some(end);
        out
    }
}

impl<E: Env> Env for TimedEnv<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.inner.action_dims()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.timed(false, |e| e.reset(rng))
    }

    fn step(&mut self, action: &[usize]) -> StepResult {
        self.timed(true, |e| e.step(action))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::Tia;
    use autockt_core::{EnvConfig, SizingEnv, TargetMode};
    use autockt_sim::SolverBackend;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A walk of one-notch moves from the grid center, the adjacency the
    /// warm-start path relies on.
    fn walk(cards: &[usize]) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = cards.iter().map(|k| k / 2).collect();
        let mut out = vec![idx.clone()];
        for p in 0..cards.len() {
            idx[p] = (idx[p] + 1).min(cards[p] - 1);
            out.push(idx.clone());
        }
        out
    }

    #[test]
    fn timed_problem_forwards_every_method_bitwise() {
        let dense = SolverConfig {
            backend: SolverBackend::Dense,
            ..SolverConfig::default()
        };
        let bare = Tia::default().with_solver_config(dense);
        let wrapped = TimedProblem::traced(bare.clone());
        assert_eq!(wrapped.name(), bare.name());
        assert_eq!(wrapped.params(), bare.params());
        assert_eq!(wrapped.specs(), bare.specs());
        assert_eq!(wrapped.solver_config(), bare.solver_config());
        assert_eq!(wrapped.cardinalities(), bare.cardinalities());
        assert_eq!(wrapped.value(2, 3).to_bits(), bare.value(2, 3).to_bits());
        assert_eq!(
            wrapped.log10_space_size().to_bits(),
            bare.log10_space_size().to_bits()
        );

        let mode = SimMode::PexWorstCase;
        let sparse = SolverConfig {
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        };
        let designs = walk(&bare.cardinalities());
        let (mut ws_bare, mut ws_wrapped) = (WarmState::new(), WarmState::new());
        let (mut wsc_bare, mut wsc_wrapped) = (WarmState::new(), WarmState::new());
        for idx in &designs {
            let pairs = [
                (
                    bare.simulate(idx, mode).unwrap(),
                    wrapped.simulate(idx, mode).unwrap(),
                ),
                (
                    bare.simulate_warm(idx, mode, &mut ws_bare).unwrap(),
                    wrapped.simulate_warm(idx, mode, &mut ws_wrapped).unwrap(),
                ),
                (
                    bare.simulate_cfg(idx, mode, sparse).unwrap(),
                    wrapped.simulate_cfg(idx, mode, sparse).unwrap(),
                ),
                (
                    bare.simulate_warm_cfg(idx, mode, sparse, &mut wsc_bare)
                        .unwrap(),
                    wrapped
                        .simulate_warm_cfg(idx, mode, sparse, &mut wsc_wrapped)
                        .unwrap(),
                ),
            ];
            for (b, w) in pairs {
                assert_eq!(bits(&b), bits(&w), "specs differ at {idx:?}");
            }
        }
        // Each call was recorded under the method it was made through: a
        // missed override would fall onto the trait's default and record
        // (and run) a different method.
        let methods: Vec<Method> = wrapped.records().iter().map(|r| r.method).collect();
        let expected: Vec<Method> = designs
            .iter()
            .flat_map(|_| [Method::Simulate, Method::Warm, Method::Cfg, Method::WarmCfg])
            .collect();
        assert_eq!(methods, expected);
        assert_eq!(wrapped.attempted(), expected.len() as u64);
        assert_eq!(wrapped.failed(), 0);
    }

    #[test]
    fn counting_problem_counts_without_recording() {
        let p = TimedProblem::counting(Tia::default());
        let idx: Vec<usize> = p.cardinalities().iter().map(|k| k / 2).collect();
        p.simulate(&idx, SimMode::Schematic).unwrap();
        p.simulate_warm(&idx, SimMode::Schematic, &mut WarmState::new())
            .unwrap();
        assert_eq!(p.attempted(), 2);
        assert!(p.records().is_empty());
    }

    #[test]
    fn timed_env_preserves_obs_reward_done_and_success() {
        let cfg = EnvConfig {
            horizon: 6,
            target_mode: TargetMode::Uniform,
            ..EnvConfig::default()
        };
        let problem: Arc<dyn SizingProblem> = Arc::new(TimedProblem::traced(Tia::default()));
        let mut bare = SizingEnv::new(Arc::new(Tia::default()), cfg.clone());
        let mut timed = TimedEnv::new(SizingEnv::new(problem, cfg));
        let (mut rb, mut rt) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let actions = [[2, 2, 0, 1, 2, 0], [0, 1, 2, 2, 1, 0], [1, 0, 0, 2, 2, 2]];
        for _episode in 0..2 {
            assert_eq!(bits(&bare.reset(&mut rb)), bits(&timed.reset(&mut rt)));
            for _ in 0..6 {
                for a in &actions {
                    let (b, t) = (bare.step(a), timed.step(a));
                    assert_eq!(bits(&b.obs), bits(&t.obs));
                    assert_eq!(b.reward.to_bits(), t.reward.to_bits());
                    assert_eq!((b.done, b.success), (t.done, t.success));
                }
            }
        }
        let calls = timed.take_calls();
        assert_eq!(calls.len(), 2 * (1 + 18));
        assert_eq!(calls.iter().filter(|c| c.step).count(), 36);
        // Steps simulate; the first step after a reset has a gap, a reset
        // never does.
        assert!(calls.iter().all(|c| c.step == c.gap.is_some()));
        assert!(calls.iter().any(|c| !c.solve.is_zero()));
        assert!(timed.take_calls().is_empty());
    }
}
