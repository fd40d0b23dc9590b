//! Oracle: the single-corner fidelities (`Schematic`, `Pex`) evaluate
//! through the corner engine as a one-corner plan, and must reproduce
//! the direct single-corner pipeline **bit for bit**.
//!
//! The reference below is a test-local copy of that pipeline: build at
//! the topology's own technology, extract for `Pex`, DC operating point,
//! one `ac_sweep_cfg`, then — TIA only — a 2048-step linear step response
//! over `8 / cutoff` and a `noise_analysis_cfg` at 300.15 K, then the
//! specs. Cold evaluations, warm one-notch walks (each side threading its
//! own `WarmState`) and the TIA's nonlinear transient settling are all
//! compared by `to_bits`.

use autockt_circuits::prelude::*;
use autockt_sim::ac::{ac_sweep_cfg, log_freqs, AcResponse, AcSolver, AcWorkspace};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint, WarmState};
use autockt_sim::device::Technology;
use autockt_sim::measure::settling_time;
use autockt_sim::netlist::{Circuit, Node};
use autockt_sim::noise::noise_analysis_cfg;
use autockt_sim::pex::{extract, PexConfig};
use autockt_sim::tran::{transient, transient_warm, TranOptions};
use autockt_sim::{SimError, SolverConfig};

/// DC options at `initial_v`, as every topology sets them up.
fn dc_opts(initial_v: f64) -> DcOptions {
    DcOptions {
        initial_v,
        solver: SolverConfig::default(),
        ..DcOptions::default()
    }
}

/// Extracts the netlist unless the mode is schematic.
fn at_mode(ckt: Circuit, mode: SimMode, pex: &PexConfig) -> Circuit {
    match mode {
        SimMode::Schematic => ckt,
        _ => extract(&ckt, pex),
    }
}

/// DC then one scalar AC sweep through the state's workspace when warm
/// and a fresh one when cold.
fn dc_and_sweep(
    ckt: &Circuit,
    out: Node,
    opts: &DcOptions,
    freqs: &[f64],
    state: &mut Option<&mut WarmState>,
) -> Result<(OpPoint, AcResponse), SimError> {
    let cfg = SolverConfig::default();
    match state.as_deref_mut() {
        Some(st) => {
            let op = st.solve(0, ckt, opts)?;
            let resp = ac_sweep_cfg(ckt, &op, freqs, out, cfg, st.ac_workspace())?;
            Ok((op, resp))
        }
        None => {
            let op = dc_operating_point(ckt, opts)?;
            let resp = ac_sweep_cfg(ckt, &op, freqs, out, cfg, &mut AcWorkspace::default())?;
            Ok((op, resp))
        }
    }
}

/// The direct single-corner TIA measurement.
fn tia_reference(
    tia: &Tia,
    idx: &[usize],
    mode: SimMode,
    transient_settling: bool,
    mut state: Option<&mut WarmState>,
) -> Result<Vec<f64>, SimError> {
    let tech = Technology::ptm45();
    let cfg = SolverConfig::default();
    let specs = tia.specs();
    let opts = dc_opts(tech.vdd / 2.0);
    let (ckt, out) = tia.build(idx, &tech);
    let ckt = at_mode(ckt, mode, tia.pex_config());
    let freqs = log_freqs(1e5, 1e12, 10);
    let (op, resp) = dc_and_sweep(&ckt, out, &opts, &freqs, &mut state)?;
    let cutoff = resp.f_3db().unwrap_or(specs[1].fail_value);
    let mut settling = if cutoff > 0.0 {
        let (t, y) =
            AcSolver::new(&ckt, &op)
                .with_config(cfg)
                .step_response(out, 8.0 / cutoff, 2048)?;
        settling_time(&t, &y, 0.02).unwrap_or(specs[0].fail_value)
    } else {
        specs[0].fail_value
    };
    let nfreqs = Tia::noise_freqs();
    let noise = match state.as_deref_mut() {
        Some(st) => noise_analysis_cfg(&ckt, &op, out, &nfreqs, 300.15, cfg, st.ac_workspace()),
        None => noise_analysis_cfg(
            &ckt,
            &op,
            out,
            &nfreqs,
            300.15,
            cfg,
            &mut AcWorkspace::default(),
        ),
    }
    .map(|n| n.out_vrms)
    .unwrap_or(specs[2].fail_value);
    if transient_settling {
        let (sckt, sout) = tia.build_step(idx, &tech, Tia::STEP_CURRENT);
        let sckt = at_mode(sckt, mode, tia.pex_config());
        settling = specs[0].fail_value;
        if cutoff > 0.0 {
            let mut topts = TranOptions::new(8.0 / cutoff, 512);
            topts.dc = opts;
            let res = match state {
                Some(st) => transient_warm(&sckt, &topts, 0, st),
                None => transient(&sckt, &topts),
            };
            match res {
                Ok(r) => {
                    let w = r.node_waveform(sout);
                    settling = settling_time(&r.t, &w, 0.02).unwrap_or(specs[0].fail_value);
                }
                Err(SimError::TranNoConvergence { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(vec![settling, cutoff, noise])
}

/// Gain, unity-gain bandwidth and phase margin of a swept response.
fn amp_specs(specs: &[SpecDef], resp: &AcResponse) -> Vec<f64> {
    vec![
        resp.dc_gain(),
        resp.ugbw().unwrap_or(specs[1].fail_value),
        resp.phase_margin_deg().unwrap_or(specs[2].fail_value),
    ]
}

/// The direct single-corner op-amp measurement.
fn opamp_reference(
    p: &OpAmp2,
    idx: &[usize],
    mode: SimMode,
    mut state: Option<&mut WarmState>,
) -> Result<Vec<f64>, SimError> {
    let (ckt, out, vdd_src) = p.build(idx, &Technology::ptm45());
    let ckt = at_mode(ckt, mode, p.pex_config());
    let freqs = log_freqs(1e2, 1e10, 10);
    let (op, resp) = dc_and_sweep(&ckt, out, &dc_opts(p.vdd / 2.0), &freqs, &mut state)?;
    let mut specs = amp_specs(p.specs(), &resp);
    specs.push(op.vsource_current(vdd_src).abs());
    Ok(specs)
}

/// The direct single-corner negative-gm OTA measurement.
fn neggm_reference(
    p: &NegGmOta,
    idx: &[usize],
    mode: SimMode,
    mut state: Option<&mut WarmState>,
) -> Result<Vec<f64>, SimError> {
    let (ckt, out) = p.build(idx, &Technology::finfet16());
    let ckt = at_mode(ckt, mode, p.pex_config());
    let freqs = log_freqs(1e2, 1e10, 10);
    let (_, resp) = dc_and_sweep(&ckt, out, &dc_opts(p.vdd / 2.0), &freqs, &mut state)?;
    Ok(amp_specs(p.specs(), &resp))
}

type Reference<'a> =
    &'a dyn Fn(&[usize], SimMode, Option<&mut WarmState>) -> Result<Vec<f64>, SimError>;

fn bits(r: Result<Vec<f64>, SimError>) -> Result<Vec<u64>, SimError> {
    r.map(|v| v.iter().map(|x| x.to_bits()).collect())
}

/// Grid points spread over the space: a fixed fraction per parameter,
/// rotated per point so the parameters do not move in lockstep.
fn points(cards: &[usize]) -> Vec<Vec<usize>> {
    let fracs = [0.0, 0.15, 0.5, 0.85, 1.0, 0.35];
    (0..4)
        .map(|p| {
            cards
                .iter()
                .enumerate()
                .map(|(i, &k)| ((k - 1) as f64 * fracs[(i + p) % fracs.len()]) as usize)
                .collect()
        })
        .collect()
}

/// Cold points and one warm one-notch walk per mode, engine vs reference.
fn check(problem: &dyn SizingProblem, reference: Reference<'_>) {
    let cards = problem.cardinalities();
    for mode in [SimMode::Schematic, SimMode::Pex] {
        for idx in points(&cards) {
            assert_eq!(
                bits(problem.simulate(&idx, mode)),
                bits(reference(&idx, mode, None)),
                "{} {mode:?} cold at {idx:?}",
                problem.name()
            );
        }
        let mut idx: Vec<usize> = cards.iter().map(|k| k / 2).collect();
        let mut engine_state = WarmState::new();
        let mut reference_state = WarmState::new();
        for step in 0..10 {
            let p = step % cards.len();
            idx[p] = if step % 3 == 2 {
                idx[p].saturating_sub(1)
            } else {
                (idx[p] + 1).min(cards[p] - 1)
            };
            assert_eq!(
                bits(problem.simulate_warm(&idx, mode, &mut engine_state)),
                bits(reference(&idx, mode, Some(&mut reference_state))),
                "{} {mode:?} warm step {step} at {idx:?}",
                problem.name()
            );
        }
    }
}

#[test]
fn tia_nominal_modes_match_the_single_corner_pipeline_bitwise() {
    let tia = Tia::default();
    check(&tia, &|idx, mode, st| {
        tia_reference(&tia, idx, mode, false, st)
    });
}

#[test]
fn tia_transient_settling_matches_the_single_corner_pipeline_bitwise() {
    let tia = Tia::default().with_transient_settling(true);
    check(&tia, &|idx, mode, st| {
        tia_reference(&tia, idx, mode, true, st)
    });
}

#[test]
fn opamp2_nominal_modes_match_the_single_corner_pipeline_bitwise() {
    let p = OpAmp2::default();
    check(&p, &|idx, mode, st| opamp_reference(&p, idx, mode, st));
}

#[test]
fn neggm_nominal_modes_match_the_single_corner_pipeline_bitwise() {
    let p = NegGmOta::default();
    check(&p, &|idx, mode, st| neggm_reference(&p, idx, mode, st));
}
