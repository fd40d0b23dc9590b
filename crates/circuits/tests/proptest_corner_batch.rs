//! Property: the corner-batched `PexWorstCase` evaluation is equivalent
//! to the serial per-corner reference path for all three topologies.
//!
//! With warm-start off the two strategies must agree **bitwise** — the
//! batched DC Newton, batched AC sweep, and scalar kernels perform the
//! same arithmetic in the same order per corner, so there is no
//! tolerance to hide behind. With warm-start on, both paths seed Newton
//! from the same per-corner slots and the contract is agreement within
//! solver tolerance (like `simulate_warm` itself); the walks below keep
//! one warm state per strategy and compare step by step.

use autockt_circuits::prelude::*;
use autockt_sim::dc::WarmState;
use autockt_sim::pex::PexConfig;
use proptest::prelude::*;

/// Same tolerance as the warm-vs-cold equivalence suite.
const REL_TOL: f64 = 5e-3;

fn specs_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= REL_TOL * (1.0 + x.abs().max(y.abs())))
}

fn idx_from_fracs(problem: &dyn SizingProblem, fracs: &[f64]) -> Vec<usize> {
    problem
        .cardinalities()
        .iter()
        .zip(fracs.iter().cycle())
        .map(|(k, f)| (((*k as f64 - 1.0) * f) as usize).min(k - 1))
        .collect()
}

/// Cold (warm-start off) bitwise equivalence at one grid point.
fn check_cold_bitwise(
    serial: &dyn SizingProblem,
    batched: &dyn SizingProblem,
    fracs: &[f64],
) -> Result<(), String> {
    let idx = idx_from_fracs(serial, fracs);
    let s = serial.simulate(&idx, SimMode::PexWorstCase);
    let b = batched.simulate(&idx, SimMode::PexWorstCase);
    match (s, b) {
        (Ok(s), Ok(b)) => {
            if s != b {
                return Err(format!("cold specs diverge at {idx:?}: {s:?} vs {b:?}"));
            }
        }
        (Err(_), Err(_)) => {}
        (s, b) => return Err(format!("outcome diverges at {idx:?}: {s:?} vs {b:?}")),
    }
    Ok(())
}

/// Warm one-notch walk: each strategy threads its own `WarmState`, and
/// every visited point's specs must agree within solver tolerance.
fn check_warm_walk(
    serial: &dyn SizingProblem,
    batched: &dyn SizingProblem,
    fracs: &[f64],
    moves: &[usize],
) -> Result<(), String> {
    let cards = serial.cardinalities();
    let mut idx = idx_from_fracs(serial, fracs);
    let mut ws = WarmState::new();
    let mut wb = WarmState::new();
    for step in moves.chunks(cards.len()) {
        for ((i, k), m) in idx.iter_mut().zip(&cards).zip(step.iter().cycle()) {
            let delta = *m as i64 - 1;
            *i = (*i as i64 + delta).clamp(0, *k as i64 - 1) as usize;
        }
        let s = serial.simulate_warm(&idx, SimMode::PexWorstCase, &mut ws);
        let b = batched.simulate_warm(&idx, SimMode::PexWorstCase, &mut wb);
        match (s, b) {
            (Ok(s), Ok(b)) => {
                if !specs_close(&s, &b) {
                    return Err(format!("warm specs diverge at {idx:?}: {s:?} vs {b:?}"));
                }
            }
            (Err(_), Err(_)) => {}
            (s, b) => return Err(format!("warm outcome diverges at {idx:?}: {s:?} vs {b:?}")),
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn tia_corner_batch_matches_serial_cold_bitwise(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let serial = Tia::default().with_corner_strategy(CornerStrategy::Serial);
        let batched = Tia::default().with_corner_strategy(CornerStrategy::Batched);
        let r = check_cold_bitwise(&serial, &batched, &fracs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn opamp2_corner_batch_matches_serial_cold_bitwise(
        fracs in prop::collection::vec(0.0..1.0f64, 7),
    ) {
        let serial = OpAmp2::default().with_corner_strategy(CornerStrategy::Serial);
        let batched = OpAmp2::default().with_corner_strategy(CornerStrategy::Batched);
        let r = check_cold_bitwise(&serial, &batched, &fracs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn neggm_corner_batch_matches_serial_cold_bitwise(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        let serial = NegGmOta::default().with_corner_strategy(CornerStrategy::Serial);
        let batched = NegGmOta::default().with_corner_strategy(CornerStrategy::Batched);
        let r = check_cold_bitwise(&serial, &batched, &fracs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn meshed_pex_corner_batch_matches_serial_cold_bitwise(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        depth in 1usize..4,
    ) {
        // The dense-PEX configuration (distributed RC meshes, the bench
        // dims where batching pays) must stay bitwise-equivalent too.
        let pex = PexConfig {
            mesh_depth: depth,
            ..PexConfig::default()
        };
        let serial = Tia::default()
            .with_pex_config(pex.clone())
            .with_corner_strategy(CornerStrategy::Serial);
        let batched = Tia::default()
            .with_pex_config(pex)
            .with_corner_strategy(CornerStrategy::Batched);
        let r = check_cold_bitwise(&serial, &batched, &fracs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn tia_corner_batch_matches_serial_warm_walk(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 12),
    ) {
        let serial = Tia::default().with_corner_strategy(CornerStrategy::Serial);
        let batched = Tia::default().with_corner_strategy(CornerStrategy::Batched);
        let r = check_warm_walk(&serial, &batched, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn meshed_tia_corner_batch_matches_serial_warm_walk(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        depth in 2usize..5,
        moves in prop::collection::vec(0usize..3, 6),
    ) {
        // Dense-mesh warm walks route the sweep and the settling through
        // the base-plus-Woodbury corrected paths (`ac_sweep_corners` /
        // `step_response_corners`) — this pins them to the serial
        // reference within the warm tolerance at the dims where the
        // correction actually engages.
        let pex = PexConfig {
            mesh_depth: depth,
            ..PexConfig::default()
        };
        let serial = Tia::default()
            .with_pex_config(pex.clone())
            .with_corner_strategy(CornerStrategy::Serial);
        let batched = Tia::default()
            .with_pex_config(pex)
            .with_corner_strategy(CornerStrategy::Batched);
        let r = check_warm_walk(&serial, &batched, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn opamp2_corner_batch_matches_serial_warm_walk(
        fracs in prop::collection::vec(0.0..1.0f64, 7),
        moves in prop::collection::vec(0usize..3, 14),
    ) {
        let serial = OpAmp2::default().with_corner_strategy(CornerStrategy::Serial);
        let batched = OpAmp2::default().with_corner_strategy(CornerStrategy::Batched);
        let r = check_warm_walk(&serial, &batched, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn neggm_corner_batch_matches_serial_warm_walk(
        fracs in prop::collection::vec(0.0..1.0f64, 6),
        moves in prop::collection::vec(0usize..3, 12),
    ) {
        let serial = NegGmOta::default().with_corner_strategy(CornerStrategy::Serial);
        let batched = NegGmOta::default().with_corner_strategy(CornerStrategy::Batched);
        let r = check_warm_walk(&serial, &batched, &fracs, &moves);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
