//! CI smoke for the corner-batched evaluation engine: on a fixed set of
//! seed designs, the batched and serial `PexWorstCase` paths must produce
//! **bitwise-identical** spec vectors with warm-start off (the lockstep
//! kernels perform the scalar kernels' arithmetic in the scalar kernels'
//! order), and warm-started batched evaluation — which routes the sweep
//! and the settling through the corner-correction (Woodbury) fast paths
//! at dense dims — must agree with warm serial within solver tolerance.
//! The TIA's noise spec is additionally diffed on its own, so a
//! noise-path divergence is reported as such instead of hiding inside
//! the full-vector comparison.
//!
//! Exits nonzero on any divergence, failing the workflow.
//!
//! Run: `cargo run --release -p autockt_bench --bin corner_smoke`

use autockt_circuits::tia::spec_index;
use autockt_circuits::{CornerStrategy, NegGmOta, OpAmp2, SimMode, SizingProblem, Tia};
use autockt_sim::dc::WarmState;
use autockt_sim::pex::PexConfig;
use autockt_sim::{Parallelism, SolverConfig};

/// Same tolerance as the warm-equivalence property suites.
const REL_TOL: f64 = 5e-3;

/// Deterministic seed designs: grid corners, center, and two fixed
/// off-center points.
fn seed_designs(problem: &dyn SizingProblem) -> Vec<Vec<usize>> {
    let cards = problem.cardinalities();
    let at = |f: f64| -> Vec<usize> {
        cards
            .iter()
            .map(|k| (((*k - 1) as f64 * f) as usize).min(k - 1))
            .collect()
    };
    vec![at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

fn check(
    name: &str,
    depth: usize,
    serial: &dyn SizingProblem,
    batched: &dyn SizingProblem,
) -> usize {
    let mut failures = 0;
    let mut warm_s = WarmState::new();
    let mut warm_b = WarmState::new();
    for idx in seed_designs(serial) {
        // Cold: bitwise.
        let s = serial.simulate(&idx, SimMode::PexWorstCase);
        let b = batched.simulate(&idx, SimMode::PexWorstCase);
        let cold_ok = match (&s, &b) {
            (Ok(s), Ok(b)) => s == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        // Warm: solver tolerance.
        let ws = serial.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm_s);
        let wb = batched.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm_b);
        let warm_ok = match (&ws, &wb) {
            (Ok(a), Ok(c)) => {
                a.len() == c.len()
                    && a.iter()
                        .zip(c)
                        .all(|(x, y)| (x - y).abs() <= REL_TOL * (1.0 + x.abs().max(y.abs())))
            }
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let verdict = if cold_ok && warm_ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: cold={cold_ok} warm={warm_ok} [{verdict}]");
        if !cold_ok {
            eprintln!("  cold serial: {s:?}\n  cold batched: {b:?}");
            failures += 1;
        }
        if !warm_ok {
            eprintln!("  warm serial: {ws:?}\n  warm batched: {wb:?}");
            failures += 1;
        }
    }
    failures
}

/// Backend gate: on every seed design, a cold `PexWorstCase` evaluation
/// forced through the CSC sparse backend must agree with the forced-dense
/// reference within the same solver tolerance the warm paths are held to.
/// Run at a mesh depth dense enough that the sparse factorization does
/// real elimination work (not just a trivial near-diagonal system).
fn check_sparse_backend(
    name: &str,
    depth: usize,
    dense: &dyn SizingProblem,
    sparse: &dyn SizingProblem,
) -> usize {
    let mut failures = 0;
    for idx in seed_designs(dense) {
        let d = dense.simulate(&idx, SimMode::PexWorstCase);
        let s = sparse.simulate(&idx, SimMode::PexWorstCase);
        let ok = match (&d, &s) {
            (Ok(a), Ok(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() <= REL_TOL * (1.0 + x.abs().max(y.abs())))
            }
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let verdict = if ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: dense-vs-sparse={ok} [{verdict}]");
        if !ok {
            eprintln!("  dense: {d:?}\n  sparse: {s:?}");
            failures += 1;
        }
    }
    failures
}

/// Thread gate: on three seed designs per topology, a cold
/// `PexWorstCase` evaluation with the tile scheduler forced to four
/// lanes must be **bitwise-identical** to the `Parallelism::Off`
/// reference — the threaded frequency sweeps and noise analyses reorder
/// no arithmetic under any schedule. Run at
/// depth 0 (small systems: forced lanes on tiny tile counts, ragged
/// tails) and at the fill-heavy extracted mesh.
fn check_threaded(
    name: &str,
    depth: usize,
    serial: &dyn SizingProblem,
    threaded: &dyn SizingProblem,
) -> usize {
    let mut failures = 0;
    let seeds: Vec<Vec<usize>> = seed_designs(serial).into_iter().step_by(2).collect();
    for idx in seeds {
        let s = serial.simulate(&idx, SimMode::PexWorstCase);
        let t = threaded.simulate(&idx, SimMode::PexWorstCase);
        let ok = match (&s, &t) {
            (Ok(a), Ok(b)) => a == b,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        let verdict = if ok { "ok" } else { "DIVERGED" };
        println!("{name:<8} mesh={depth} idx={idx:?}: threaded-vs-serial={ok} [{verdict}]");
        if !ok {
            eprintln!("  serial: {s:?}\n  threaded: {t:?}");
            failures += 1;
        }
    }
    failures
}

/// Dedicated TIA noise-spec diff: serial vs batched (cold bitwise, warm
/// within tolerance), printing the noise values themselves so the
/// adjoint noise analysis's agreement across the serial and batched
/// routes is visible in CI logs.
fn check_tia_noise(depth: usize) -> usize {
    let pex = PexConfig {
        mesh_depth: depth,
        ..Tia::default().pex_config().clone()
    };
    let serial = Tia::default()
        .with_pex_config(pex.clone())
        .with_corner_strategy(CornerStrategy::Serial);
    let batched = Tia::default()
        .with_pex_config(pex)
        .with_corner_strategy(CornerStrategy::Batched);
    let mut failures = 0;
    let mut warm_s = WarmState::new();
    let mut warm_b = WarmState::new();
    for idx in seed_designs(&serial) {
        let s = serial.simulate(&idx, SimMode::PexWorstCase);
        let b = batched.simulate(&idx, SimMode::PexWorstCase);
        let ws = serial.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm_s);
        let wb = batched.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm_b);
        let noise = |r: &Result<Vec<f64>, autockt_sim::SimError>| {
            r.as_ref().ok().map(|v| v[spec_index::NOISE])
        };
        let (ns, nb, nws, nwb) = (noise(&s), noise(&b), noise(&ws), noise(&wb));
        let cold_ok = ns == nb;
        let warm_ok = match (nws, nwb) {
            (Some(a), Some(c)) => (a - c).abs() <= REL_TOL * (1.0 + a.abs().max(c.abs())),
            (None, None) => true,
            _ => false,
        };
        let verdict = if cold_ok && warm_ok { "ok" } else { "DIVERGED" };
        println!(
            "tia-noise mesh={depth} idx={idx:?}: cold {:?} vs {:?}, warm {:?} vs {:?} [{verdict}]",
            ns, nb, nws, nwb
        );
        if !cold_ok {
            failures += 1;
        }
        if !warm_ok {
            failures += 1;
        }
    }
    failures
}

/// Dedicated TIA settling-spec diff: serial vs batched (cold bitwise,
/// warm within tolerance — the warm batched path routes the 2048-step
/// corner-set integration through the Woodbury-corrected companion
/// kernel), plus forced-dense vs the default Auto backend (cold, within
/// tolerance) so a settle-path backend divergence is reported as such
/// instead of hiding inside the full-vector comparison. Three seed
/// designs keep the 2048-step sweeps cheap enough for CI.
fn check_tia_settle(depth: usize) -> usize {
    let pex = PexConfig {
        mesh_depth: depth,
        ..Tia::default().pex_config().clone()
    };
    let serial = Tia::default()
        .with_pex_config(pex.clone())
        .with_corner_strategy(CornerStrategy::Serial);
    let batched = Tia::default()
        .with_pex_config(pex.clone())
        .with_corner_strategy(CornerStrategy::Batched);
    let dense = Tia::default()
        .with_pex_config(pex)
        .with_solver_config(SolverConfig::dense());
    let mut failures = 0;
    let mut warm_s = WarmState::new();
    let mut warm_b = WarmState::new();
    let seeds: Vec<Vec<usize>> = seed_designs(&serial).into_iter().step_by(2).collect();
    for idx in seeds {
        let s = serial.simulate(&idx, SimMode::PexWorstCase);
        let b = batched.simulate(&idx, SimMode::PexWorstCase);
        let d = dense.simulate(&idx, SimMode::PexWorstCase);
        let ws = serial.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm_s);
        let wb = batched.simulate_warm(&idx, SimMode::PexWorstCase, &mut warm_b);
        let settle = |r: &Result<Vec<f64>, autockt_sim::SimError>| {
            r.as_ref().ok().map(|v| v[spec_index::SETTLING])
        };
        let close = |p: (Option<f64>, Option<f64>)| match p {
            (Some(a), Some(c)) => (a - c).abs() <= REL_TOL * (1.0 + a.abs().max(c.abs())),
            (None, None) => true,
            _ => false,
        };
        let (ss, sb, sd, sws, swb) = (settle(&s), settle(&b), settle(&d), settle(&ws), settle(&wb));
        let cold_ok = ss == sb;
        let auto_ok = close((sb, sd));
        let warm_ok = close((sws, swb));
        let verdict = if cold_ok && warm_ok && auto_ok {
            "ok"
        } else {
            "DIVERGED"
        };
        println!(
            "tia-settle mesh={depth} idx={idx:?}: cold {ss:?} vs {sb:?}, dense-vs-auto {sd:?}, \
             warm {sws:?} vs {swb:?} [{verdict}]"
        );
        failures += usize::from(!cold_ok) + usize::from(!auto_ok) + usize::from(!warm_ok);
    }
    failures
}

fn main() {
    let mut failures = 0;
    for depth in [0usize, 2] {
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let tia = Tia::default();
        let tia_pex = mesh(tia.pex_config());
        failures += check(
            "tia",
            depth,
            &Tia::default()
                .with_pex_config(tia_pex.clone())
                .with_corner_strategy(CornerStrategy::Serial),
            &Tia::default()
                .with_pex_config(tia_pex)
                .with_corner_strategy(CornerStrategy::Batched),
        );
        let op = OpAmp2::default();
        let op_pex = mesh(op.pex_config());
        failures += check(
            "opamp2",
            depth,
            &OpAmp2::default()
                .with_pex_config(op_pex.clone())
                .with_corner_strategy(CornerStrategy::Serial),
            &OpAmp2::default()
                .with_pex_config(op_pex)
                .with_corner_strategy(CornerStrategy::Batched),
        );
        let ng = NegGmOta::default();
        let ng_pex = mesh(ng.pex_config());
        failures += check(
            "neggm",
            depth,
            &NegGmOta::default()
                .with_pex_config(ng_pex.clone())
                .with_corner_strategy(CornerStrategy::Serial),
            &NegGmOta::default()
                .with_pex_config(ng_pex)
                .with_corner_strategy(CornerStrategy::Batched),
        );
    }
    // The TIA's noise spec on its own — the adjoint noise analysis's
    // serial-vs-batched agreement at the stock dim, the GA's dense dim 32
    // (mesh 4) and the deploy workload's sparse dim 116 (mesh 16), where
    // the sparse transposed solve runs.
    for depth in [0usize, 4, 16] {
        failures += check_tia_noise(depth);
    }
    // The TIA's settling spec on its own — the corner-corrected settle
    // integration's serial-vs-batched agreement, stock and dense mesh.
    for depth in [0usize, 4] {
        failures += check_tia_settle(depth);
    }
    // Dense-vs-sparse backend gate at a mesh depth with real fill-in.
    {
        let depth = 4usize;
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let tia = Tia::default();
        let tia_pex = mesh(tia.pex_config());
        failures += check_sparse_backend(
            "tia",
            depth,
            &Tia::default()
                .with_pex_config(tia_pex.clone())
                .with_solver_config(SolverConfig::dense()),
            &Tia::default()
                .with_pex_config(tia_pex)
                .with_solver_config(SolverConfig::sparse()),
        );
        let op = OpAmp2::default();
        let op_pex = mesh(op.pex_config());
        failures += check_sparse_backend(
            "opamp2",
            depth,
            &OpAmp2::default()
                .with_pex_config(op_pex.clone())
                .with_solver_config(SolverConfig::dense()),
            &OpAmp2::default()
                .with_pex_config(op_pex)
                .with_solver_config(SolverConfig::sparse()),
        );
        let ng = NegGmOta::default();
        let ng_pex = mesh(ng.pex_config());
        failures += check_sparse_backend(
            "neggm",
            depth,
            &NegGmOta::default()
                .with_pex_config(ng_pex.clone())
                .with_solver_config(SolverConfig::dense()),
            &NegGmOta::default()
                .with_pex_config(ng_pex)
                .with_solver_config(SolverConfig::sparse()),
        );
    }
    // Threaded-vs-serial gate: forced four-lane tile schedules must be
    // bitwise-identical to the serial walks, stock and dense mesh.
    for depth in [0usize, 4] {
        let mesh = |base: &PexConfig| PexConfig {
            mesh_depth: depth,
            ..base.clone()
        };
        let serial_cfg = SolverConfig::default().with_parallelism(Parallelism::Off);
        let threaded_cfg = SolverConfig::default().with_parallelism(Parallelism::Threads(4));
        let tia = Tia::default();
        let tia_pex = mesh(tia.pex_config());
        failures += check_threaded(
            "tia",
            depth,
            &Tia::default()
                .with_pex_config(tia_pex.clone())
                .with_solver_config(serial_cfg),
            &Tia::default()
                .with_pex_config(tia_pex)
                .with_solver_config(threaded_cfg),
        );
        let op = OpAmp2::default();
        let op_pex = mesh(op.pex_config());
        failures += check_threaded(
            "opamp2",
            depth,
            &OpAmp2::default()
                .with_pex_config(op_pex.clone())
                .with_solver_config(serial_cfg),
            &OpAmp2::default()
                .with_pex_config(op_pex)
                .with_solver_config(threaded_cfg),
        );
        let ng = NegGmOta::default();
        let ng_pex = mesh(ng.pex_config());
        failures += check_threaded(
            "neggm",
            depth,
            &NegGmOta::default()
                .with_pex_config(ng_pex.clone())
                .with_solver_config(serial_cfg),
            &NegGmOta::default()
                .with_pex_config(ng_pex)
                .with_solver_config(threaded_cfg),
        );
    }
    if failures > 0 {
        eprintln!("corner_smoke: {failures} divergence(s)");
        std::process::exit(1);
    }
    println!("corner_smoke: all seed designs agree (cold bitwise, warm within tolerance)");
}
