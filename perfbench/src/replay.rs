//! Scalar cold replay of TIA post-layout evaluations, stage by stage.
//!
//! This is the reference path, not the production one: each PVT corner is
//! built, extracted and solved on its own (no corner batching, no warm
//! start), so each stage can be timed from outside the library. It uses the
//! sweep grids of `autockt_bench::tia_settle_corner_case`: the TIA's AC and
//! noise grids, and a 2048-step linear step response over the shared window
//! of 8 / (slowest corner's -3 dB cutoff).

use autockt_circuits::Tia;
use autockt_sim::ac::{ac_sweep_cfg, log_freqs, AcSolver, AcWorkspace};
use autockt_sim::dc::{dc_operating_point, DcOptions};
use autockt_sim::device::{Pvt, Technology};
use autockt_sim::noise::noise_analysis_cfg;
use autockt_sim::pex::extract;
use std::time::Instant;

/// Per-corner-set stage costs, each the median over the replayed designs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageSplit {
    /// Designs replayed.
    pub designs: usize,
    /// Corner technology + netlist build + parasitic extraction (ms).
    pub extract_ms: f64,
    /// DC operating point (ms).
    pub dc_ms: f64,
    /// Newton iterations of the DC solves.
    pub dc_newton_iters: f64,
    /// AC sweep (ms).
    pub ac_ms: f64,
    /// Noise analysis (ms).
    pub noise_ms: f64,
    /// Linear step response for settling (ms).
    pub settle_ms: f64,
    /// MNA dimension of the extracted circuit.
    pub mna_dim: usize,
}

/// The scalar settle record length (the TIA's production 2048 steps).
const SETTLE_STEPS: usize = 2048;

/// Stage costs of one design over the full PVT corner set:
/// `[extract, dc, ac, noise, settle]` in seconds, the Newton iterations,
/// and the MNA dimension.
fn replay_design(tia: &Tia, idx: &[usize]) -> Result<([f64; 5], usize, usize), String> {
    let err = |e: autockt_sim::SimError| format!("replay of {idx:?}: {e}");
    let solver = tia.solver_config();
    let ac_freqs = log_freqs(1e5, 1e12, 10);
    let noise_freqs = Tia::noise_freqs();
    let mut secs = [0.0; 5];
    let mut iters = 0;
    let mut dim = 0;
    let mut corners = Vec::new();
    let mut min_cutoff = f64::INFINITY;
    for pvt in Pvt::corner_set() {
        let t = Instant::now();
        let tech = Technology::ptm45().at_corner(pvt);
        let (ckt, out) = tia.build(idx, &tech);
        let ex = extract(&ckt, tia.pex_config());
        secs[0] += t.elapsed().as_secs_f64();
        dim = ex.mna_dim();

        let t = Instant::now();
        let opts = DcOptions {
            initial_v: tech.vdd / 2.0,
            solver,
            ..DcOptions::default()
        };
        let op = dc_operating_point(&ex, &opts).map_err(err)?;
        secs[1] += t.elapsed().as_secs_f64();
        iters += op.iterations();

        let mut ws = AcWorkspace::default();
        let t = Instant::now();
        let resp = ac_sweep_cfg(&ex, &op, &ac_freqs, out, solver, &mut ws).map_err(err)?;
        secs[2] += t.elapsed().as_secs_f64();
        if let Ok(c) = resp.f_3db() {
            if c > 0.0 {
                min_cutoff = min_cutoff.min(c);
            }
        }

        let t = Instant::now();
        noise_analysis_cfg(
            &ex,
            &op,
            out,
            &noise_freqs,
            pvt.temp_kelvin(),
            solver,
            &mut ws,
        )
        .map_err(err)?;
        secs[3] += t.elapsed().as_secs_f64();
        corners.push((ex, op, out));
    }
    if !min_cutoff.is_finite() {
        return Err(format!("replay of {idx:?}: no corner has a valid cutoff"));
    }
    let t_stop = 8.0 / min_cutoff;
    for (ex, op, out) in &corners {
        let t = Instant::now();
        AcSolver::new(ex, op)
            .with_config(solver)
            .step_response(*out, t_stop, SETTLE_STEPS)
            .map_err(err)?;
        secs[4] += t.elapsed().as_secs_f64();
    }
    Ok((secs, iters, dim))
}

/// Replays `designs` through the scalar cold stages and returns the
/// median per-corner-set cost of each stage.
///
/// # Errors
///
/// Fails when `designs` is empty or any replayed stage fails (the designs
/// come from solves that succeeded, so a failure here is a real fault).
pub fn replay_tia(tia: &Tia, designs: &[Vec<usize>]) -> Result<StageSplit, String> {
    let mut per_stage: [Vec<f64>; 5] = Default::default();
    let mut iters = Vec::new();
    let mut dim = 0;
    for idx in designs {
        let (secs, it, d) = replay_design(tia, idx)?;
        for (acc, s) in per_stage.iter_mut().zip(secs) {
            acc.push(s * 1e3);
        }
        iters.push(it as f64);
        dim = d;
    }
    let med = |v: &[f64]| crate::stats::median(v).ok_or("no designs to replay");
    Ok(StageSplit {
        designs: designs.len(),
        extract_ms: med(&per_stage[0])?,
        dc_ms: med(&per_stage[1])?,
        dc_newton_iters: med(&iters)?,
        ac_ms: med(&per_stage[2])?,
        noise_ms: med(&per_stage[3])?,
        settle_ms: med(&per_stage[4])?,
        mna_dim: dim,
    })
}

/// An evenly spaced sample of at most `n` distinct designs, in order of
/// first appearance.
pub fn sample_designs(seen: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    let mut distinct: Vec<&Vec<usize>> = Vec::new();
    for idx in seen {
        if !distinct.contains(&idx) {
            distinct.push(idx);
        }
    }
    let len = distinct.len();
    let take = n.min(len);
    (0..take)
        .map(|j| distinct[j * len / take].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autockt_circuits::SizingProblem;
    use autockt_sim::pex::PexConfig;

    #[test]
    fn sample_is_distinct_and_spread() {
        let seen: Vec<Vec<usize>> = [1, 1, 2, 3, 2, 4, 5, 6].iter().map(|&i| vec![i]).collect();
        assert_eq!(sample_designs(&seen, 3), vec![vec![1], vec![3], vec![5]]);
        assert_eq!(sample_designs(&seen, 10).len(), 6);
        assert!(sample_designs(&[], 4).is_empty());
    }

    #[test]
    fn replay_times_every_stage_at_the_extracted_dim() {
        let pex = PexConfig {
            mesh_depth: 4,
            ..Tia::default().pex_config().clone()
        };
        let tia = Tia::default().with_pex_config(pex.clone());
        let center: Vec<usize> = tia.cardinalities().iter().map(|k| k / 2).collect();
        let split = replay_tia(&tia, &[center]).unwrap();
        assert_eq!(
            split.mna_dim,
            autockt_bench::extracted_center_dim("tia", &pex).unwrap()
        );
        assert_eq!(split.designs, 1);
        assert!(split.dc_newton_iters >= 6.0);
        for ms in [
            split.extract_ms,
            split.dc_ms,
            split.ac_ms,
            split.noise_ms,
            split.settle_ms,
        ] {
            assert!(ms > 0.0);
        }
    }
}
