//! Small-signal noise analysis.
//!
//! Every thermal resistor and MOSFET contributes a current-noise power
//! spectral density between its terminals. For each frequency the complex
//! MNA system `A` is factored once; the signal gain comes from the usual
//! forward solve, and the noise transfers from one *adjoint* solve
//! `Aᵀ z = e_out` (Rohrer, Nagel, Meyer & Weber, "Computationally
//! efficient electronic-circuit noise calculations", IEEE JSSC 1971 —
//! SPICE's `.NOISE`). A unit current injected from `p` to `n` reaches
//! the output as `e_outᵀ A⁻¹ (e_n − e_p) = z[n] − z[p]`, so every source's
//! transfer is an O(1) lookup and a point costs one factorization plus
//! two solves, however many sources the circuit has. The weighted sum of
//! the squared transfers is the output noise PSD, and dividing by the
//! squared signal gain refers it to the input.
//!
//! Worst-case PVT evaluations run the analysis over a *corner set* of
//! same-structure circuits through [`noise_analysis_batch`]: every corner
//! runs the scalar [`noise_analysis_ws`] arithmetic — threaded over the
//! (corner × frequency) grid when the scheduler grants lanes, serial
//! otherwise — so per corner it is bitwise-identical to the scalar path,
//! warm and cold alike.

use crate::ac::{ac_ws_pool, grid_parallelism, AcBatchWorkspace, AcSolver, AcWorkspace};
use crate::complex::Complex;
use crate::dc::OpPoint;
use crate::device::BOLTZMANN;
use crate::error::SimError;
use crate::linalg::sparse::SolverConfig;
use crate::measure::integrate_trapezoid;
use crate::netlist::{Circuit, Element, Node};
use crate::par::{run_chunks, would_parallelize, Parallelism};

/// Result of a noise analysis over a frequency grid.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseResult {
    /// Frequency grid (Hz).
    pub freqs: Vec<f64>,
    /// Output noise voltage PSD (V^2/Hz) at each grid point.
    pub out_psd: Vec<f64>,
    /// Signal gain magnitude from the netlist's AC sources to the output.
    pub gain: Vec<f64>,
    /// Total integrated output noise (V rms).
    pub out_vrms: f64,
    /// Input-referred integrated noise (rms, in units of the AC source:
    /// volts for a voltage-driven circuit, amperes for current-driven).
    /// Grid points whose gain is below [`GAIN_FLOOR_REL`] of the peak
    /// gain (a notch, or a point far past the poles) are excluded from
    /// the referral integral instead of dividing by a near-zero gain.
    pub input_referred_rms: f64,
}

/// Relative gain floor for input referral: a grid point whose signal gain
/// is below this fraction of the peak gain carries no usable signal, so
/// dividing the output PSD by its squared gain would let a single notch
/// or far-past-the-poles point dominate (astronomically inflate) the
/// input-referred integral. Such points are excluded segment-wise from
/// the referral integration; the output-noise integral is unaffected.
pub const GAIN_FLOOR_REL: f64 = 1e-6;

struct NoiseSource {
    p: Node,
    n: Node,
    /// (thermal/white PSD, gm-squared flicker prefactor) — evaluated as
    /// `white + flicker_pref / f`.
    white: f64,
    flicker_pref: f64,
}

impl NoiseSource {
    /// Current-noise PSD at frequency `f` (A^2/Hz). The flicker term is
    /// clamped at 1 mHz — the 1/f integral diverges toward DC, and the
    /// frequency grid is validated strictly positive before any analysis.
    fn psd_at(&self, f: f64) -> f64 {
        self.white + self.flicker_pref / f.max(1e-3)
    }
}

/// Validates a noise frequency grid the way `TranOptions::validate`
/// guards time grids: empty, non-positive/non-finite, or non-increasing
/// grids would silently produce a zero or garbage integral (and feed the
/// flicker term's 1 mHz clamp out-of-band values), so they are rejected
/// up front.
fn validate_freqs(freqs: &[f64]) -> Result<(), SimError> {
    if freqs.is_empty() {
        return Err(SimError::InvalidOptions {
            what: "noise frequency grid is empty",
        });
    }
    if freqs.iter().any(|f| !f.is_finite() || *f <= 0.0) {
        return Err(SimError::InvalidOptions {
            what: "noise frequencies must be finite and positive",
        });
    }
    if freqs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(SimError::InvalidOptions {
            what: "noise frequency grid must be strictly increasing",
        });
    }
    Ok(())
}

/// Enumerates the circuit's noise sources at `temp_k`, pairing each MOS
/// element with its operating-point entry. A circuit/op mismatch is a
/// caller bug but not a library panic: it reports
/// [`SimError::BadNetlist`] (the deployment path learned in PR 3 that
/// library code must fail, not abort, on inconsistent inputs).
fn collect_sources(ckt: &Circuit, op: &OpPoint, temp_k: f64) -> Result<Vec<NoiseSource>, SimError> {
    let n_mos = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Mos(_)))
        .count();
    if n_mos != op.mosfets().len() {
        return Err(SimError::BadNetlist {
            what: format!(
                "operating point out of sync with circuit: {} MOS operating entries for {n_mos} MOS elements",
                op.mosfets().len()
            ),
        });
    }
    let mut sources = Vec::new();
    let mut mos_iter = op.mosfets().iter();
    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, r, noisy } if *noisy => {
                sources.push(NoiseSource {
                    p: *p,
                    n: *n,
                    white: 4.0 * BOLTZMANN * temp_k / r,
                    flicker_pref: 0.0,
                });
            }
            Element::Mos(m) => {
                // lint:allow(panic) — MOS counts are verified against the
                // operating point above, so the iterator cannot run dry.
                let mi = mos_iter.next().expect("MOS count verified");
                let white = m.model.thermal_noise_psd(mi.gm, temp_k);
                // flicker psd(f) = kf gm^2 / (Cox W L f)
                let flicker_pref = m.model.kf * mi.gm * mi.gm / (m.model.cox * m.w * m.l * m.mult);
                sources.push(NoiseSource {
                    p: mi.a_d,
                    n: mi.a_s,
                    white,
                    flicker_pref,
                });
            }
            _ => {}
        }
    }
    Ok(sources)
}

/// The per-frequency loop of the scalar analysis, appending one
/// output-PSD and gain sample per grid point.
/// [`AcSolver::prepare_workspace`] must have been called for this solver.
fn noise_points_ws(
    solver: &AcSolver<'_>,
    sources: &[NoiseSource],
    out: Node,
    freqs: &[f64],
    ws: &mut AcWorkspace,
    out_psd: &mut Vec<f64>,
    gain: &mut Vec<f64>,
) -> Result<(), SimError> {
    for &f in freqs {
        let (g, psd) = noise_point_ws(solver, sources, out, f, ws)?;
        gain.push(g);
        out_psd.push(psd);
    }
    Ok(())
}

/// One grid point of the scalar analysis: factor, gain solve, one adjoint
/// solve of the output selector, then the PSD accumulated in source order
/// from the adjoint's per-node transfers — the tile body shared by the
/// serial loop and the threaded lanes, so the sum is bitwise-stable under
/// any schedule. Returns `(gain, psd)`.
fn noise_point_ws(
    solver: &AcSolver<'_>,
    sources: &[NoiseSource],
    out: Node,
    f: f64,
    ws: &mut AcWorkspace,
) -> Result<(f64, f64), SimError> {
    solver.factor_at_ws(f, ws)?;
    let AcWorkspace {
        lu, x, rhs, work, ..
    } = &mut *ws;
    // Signal gain.
    lu.solve_into(solver.source_rhs(), x);
    let g = solver.voltage(x, out).norm();
    // A grounded output sees no noise.
    let Some(o) = solver.mna_index(out) else {
        return Ok((g, 0.0));
    };
    // Adjoint: z = A^{-T} e_out, so a unit current from p to n inside a
    // source reaches the output as z[n] - z[p].
    rhs.clear();
    rhs.resize(solver.dim(), Complex::ZERO);
    rhs[o] = Complex::ONE;
    lu.solve_transpose_into(rhs, x, work);
    let mut psd = 0.0;
    for s in sources {
        let h = solver.voltage(x, s.n) - solver.voltage(x, s.p);
        psd += h.norm_sqr() * s.psd_at(f);
    }
    Ok((g, psd))
}

/// Integrates the sampled PSDs into the result: total output noise over
/// the whole grid, input-referred noise over the segments whose gain
/// clears the per-point floor (see [`GAIN_FLOOR_REL`]).
fn finalize(freqs: &[f64], out_psd: Vec<f64>, gain: Vec<f64>) -> Result<NoiseResult, SimError> {
    let out_v2 = integrate_trapezoid(freqs, &out_psd);
    let out_vrms = out_v2.sqrt();
    let max_gain = gain.iter().cloned().fold(0.0f64, f64::max);
    if max_gain <= 0.0 || !max_gain.is_finite() {
        return Err(SimError::MeasureFailed {
            what: "zero signal gain; cannot refer noise to input",
        });
    }
    // Input-referred: divide the PSD by |gain|^2 pointwise and integrate
    // trapezoid segments whose *both* endpoints carry usable gain. A point
    // below the floor (a notch, or a grid point far past the poles) is
    // excluded rather than clamped — the old `(g*g).max(1e-30)` clamp let
    // one such point inflate the integral by many orders of magnitude
    // while the `max_gain > 0` check still passed.
    let floor = GAIN_FLOOR_REL * max_gain;
    let mut in_v2 = 0.0;
    let mut any_segment = false;
    for i in 1..freqs.len() {
        let (g0, g1) = (gain[i - 1], gain[i]);
        if g0 > floor && g1 > floor {
            let p0 = out_psd[i - 1] / (g0 * g0);
            let p1 = out_psd[i] / (g1 * g1);
            in_v2 += 0.5 * (p1 + p0) * (freqs[i] - freqs[i - 1]);
            any_segment = true;
        }
    }
    if freqs.len() > 1 && !any_segment {
        // Every segment had a below-floor endpoint: there is no band to
        // refer noise through. Reporting 0.0 here would read downstream
        // as "infinitely quiet" — fail honestly instead, like the
        // zero-gain case above.
        return Err(SimError::MeasureFailed {
            what: "no usable-gain segment; cannot refer noise to input",
        });
    }
    let input_referred_rms = in_v2.sqrt();

    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        out_psd,
        gain,
        out_vrms,
        input_referred_rms,
    })
}

/// Runs a noise analysis at temperature `temp_k`, referred to the circuit's
/// own AC sources, measuring at node `out`.
///
/// # Errors
///
/// [`SimError::InvalidOptions`] for a degenerate frequency grid (empty,
/// non-positive, or not strictly increasing), [`SimError::BadNetlist`]
/// when `op` does not belong to `ckt` (MOS count mismatch),
/// [`SimError::MeasureFailed`] if the signal gain is zero (nothing to
/// refer to), and propagates factorization failures.
pub fn noise_analysis(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    temp_k: f64,
) -> Result<NoiseResult, SimError> {
    noise_analysis_ws(ckt, op, out, freqs, temp_k, &mut AcWorkspace::new())
}

/// [`noise_analysis`] with reusable workspace buffers — no per-frequency
/// allocation; results are identical. Each frequency point is factored
/// once through the vectorized SoA complex kernel
/// ([`crate::linalg::ComplexLuSoa`]) and solved twice: forward for the
/// gain, transposed for every noise source's transfer at once. Warm
/// evaluation sessions route their noise analyses through this entry
/// point.
///
/// # Errors
///
/// Same contract as [`noise_analysis`].
pub fn noise_analysis_ws(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    temp_k: f64,
    ws: &mut AcWorkspace,
) -> Result<NoiseResult, SimError> {
    noise_analysis_cfg(ckt, op, out, freqs, temp_k, SolverConfig::default(), ws)
}

/// [`noise_analysis_ws`] with an explicit linear-solver backend policy:
/// the per-frequency factorization and its gain and adjoint solves run
/// dense or sparse per `cfg` (identical results within solver
/// tolerance). This is how the sizing topologies thread their
/// [`SolverConfig`] into the serial noise path.
///
/// # Errors
///
/// Same contract as [`noise_analysis`].
pub fn noise_analysis_cfg(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    temp_k: f64,
    cfg: SolverConfig,
    ws: &mut AcWorkspace,
) -> Result<NoiseResult, SimError> {
    validate_freqs(freqs)?;
    let sources = collect_sources(ckt, op, temp_k)?;
    let solver = AcSolver::new(ckt, op).with_config(cfg);
    let par = solver.sweep_parallelism();
    if would_parallelize(par, freqs.len()) {
        let (out_psd, gain) = noise_points_par(&solver, &sources, out, freqs, par)?;
        return finalize(freqs, out_psd, gain);
    }
    solver.prepare_workspace(ws);
    let mut out_psd = Vec::with_capacity(freqs.len());
    let mut gain = Vec::with_capacity(freqs.len());
    noise_points_ws(&solver, &sources, out, freqs, ws, &mut out_psd, &mut gain)?;
    finalize(freqs, out_psd, gain)
}

/// Threaded scalar noise sweep: every frequency factors and solves into
/// its own slot through a per-lane pooled workspace, exactly the
/// per-point arithmetic of [`noise_points_ws`] (each point's source-order
/// accumulation stays serial inside its tile), so the result is
/// bitwise-equal to the serial walk under any schedule. The in-order
/// drain recovers the serial path's first-failing-frequency abort.
fn noise_points_par(
    solver: &AcSolver<'_>,
    sources: &[NoiseSource],
    out: Node,
    freqs: &[f64],
    par: Parallelism,
) -> Result<(Vec<f64>, Vec<f64>), SimError> {
    let mut slots: Vec<Result<(f64, f64), SimError>> =
        freqs.iter().map(|_| Ok((0.0, 0.0))).collect();
    run_chunks(
        par,
        &mut slots,
        ac_ws_pool(),
        AcWorkspace::new,
        |off, chunk, ws| {
            solver.prepare_lane(freqs[0], ws);
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = noise_point_ws(solver, sources, out, freqs[off + k], ws);
                if slot.is_err() {
                    break;
                }
            }
        },
    );
    let mut out_psd = Vec::with_capacity(freqs.len());
    let mut gain = Vec::with_capacity(freqs.len());
    for s in slots {
        let (g, p) = s?;
        gain.push(g);
        out_psd.push(p);
    }
    Ok((out_psd, gain))
}

/// Serial route of [`noise_analysis_batch`]: each corner runs the exact
/// [`noise_analysis_ws`] pipeline (same kernel, same order) through the
/// batch workspace's scalar buffers — bitwise-equal to calling
/// [`noise_analysis_ws`] per corner.
fn scalar_noise_ws(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    outs: &[Node],
    freqs: &[f64],
    temps: &[f64],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<NoiseResult, SimError>> {
    solvers
        .iter()
        .zip(ops)
        .zip(outs.iter().zip(temps))
        .map(|((solver, op), (&out, &temp_k))| {
            let sources = collect_sources(solver.circuit(), op, temp_k)?;
            solver.prepare_workspace(&mut ws.scalar);
            let mut out_psd = Vec::with_capacity(freqs.len());
            let mut gain = Vec::with_capacity(freqs.len());
            noise_points_ws(
                solver,
                &sources,
                out,
                freqs,
                &mut ws.scalar,
                &mut out_psd,
                &mut gain,
            )?;
            finalize(freqs, out_psd, gain)
        })
        .collect()
}

/// Corner-batched noise analysis: every corner runs the exact
/// [`noise_analysis_ws`] arithmetic, so per-corner results are
/// **bitwise-equal** to the serial path — the noise stage of the corner
/// evaluation engine, warm and cold.
///
/// When the scheduler grants lanes (see [`crate::par`]) the
/// (corner × frequency) grid is threaded, one scalar point per tile;
/// otherwise the corners run one after another through the workspace's
/// scalar buffers. Both routes are bitwise-equal to the serial
/// reference, so the dispatch is pure performance policy. Failures are
/// per corner: a corner reports the error of its first failing frequency
/// (or of its noise-source collection) without disturbing its siblings.
/// A degenerate frequency grid, or `ops`, `outs`, or `temps` of a
/// different length than `solvers`, returns [`SimError::InvalidOptions`]
/// for every corner.
pub fn noise_analysis_batch(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    outs: &[Node],
    freqs: &[f64],
    temps: &[f64],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<NoiseResult, SimError>> {
    let bt = solvers.len();
    let checked = if ops.len() != bt || outs.len() != bt || temps.len() != bt {
        Err(SimError::InvalidOptions {
            what: "noise batch needs one operating point, output node and temperature per corner",
        })
    } else {
        validate_freqs(freqs)
    };
    if let Err(e) = checked {
        return (0..bt).map(|_| Err(e.clone())).collect();
    }
    if bt == 0 {
        return Vec::new();
    }
    let par = grid_parallelism(solvers);
    if would_parallelize(par, bt * freqs.len()) {
        return threaded_grid_noise(solvers, ops, outs, freqs, temps, par);
    }
    scalar_noise_ws(solvers, ops, outs, freqs, temps, ws)
}

/// Threaded corner analysis: the (corner × frequency) grid is
/// flattened into tiles (`tile = corner * nf + freq`), each running the
/// full scalar point into its own slot through a per-lane pooled
/// workspace; a lane crossing a corner boundary re-prepares its workspace
/// for the new corner. Per-corner source collection stays serial up
/// front — a corner whose collection fails is skipped by every lane and
/// reports its collection error, exactly like the scalar route. The
/// in-order per-corner assembly recovers the serial
/// first-failing-frequency abort.
fn threaded_grid_noise(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    outs: &[Node],
    freqs: &[f64],
    temps: &[f64],
    par: Parallelism,
) -> Vec<Result<NoiseResult, SimError>> {
    let bt = solvers.len();
    let nf = freqs.len();
    let sources: Vec<Result<Vec<NoiseSource>, SimError>> = solvers
        .iter()
        .zip(ops)
        .zip(temps)
        .map(|((s, op), &t)| collect_sources(s.circuit(), op, t))
        .collect();
    let mut slots: Vec<Result<(f64, f64), SimError>> =
        (0..bt * nf).map(|_| Ok((0.0, 0.0))).collect();
    run_chunks(
        par,
        &mut slots,
        ac_ws_pool(),
        AcWorkspace::new,
        |off, chunk, ws| {
            let mut cur = usize::MAX;
            for (k, slot) in chunk.iter_mut().enumerate() {
                let t = off + k;
                let (b, i) = (t / nf, t % nf);
                let Ok(srcs) = &sources[b] else { continue };
                if b != cur {
                    solvers[b].prepare_lane(freqs[0], ws);
                    cur = b;
                }
                *slot = noise_point_ws(&solvers[b], srcs, outs[b], freqs[i], ws);
            }
        },
    );
    sources
        .into_iter()
        .enumerate()
        .map(|(b, srcs)| {
            srcs?;
            let mut out_psd = Vec::with_capacity(nf);
            let mut gain = Vec::with_capacity(nf);
            for slot in &slots[b * nf..(b + 1) * nf] {
                match slot {
                    Ok((g, p)) => {
                        gain.push(*g);
                        out_psd.push(*p);
                    }
                    Err(e) => return Err(e.clone()),
                }
            }
            finalize(freqs, out_psd, gain)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::log_freqs;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::netlist::GND;

    /// kT/C: integrated output noise of an RC filter is sqrt(kT/C)
    /// regardless of R.
    #[test]
    fn ktc_noise_of_rc_filter() {
        for r in [1.0e3, 10.0e3, 100.0e3] {
            let c = 1e-12;
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            let o = ckt.node("out");
            ckt.vsource(i, GND, 0.0, 1.0);
            ckt.resistor(i, o, r);
            ckt.capacitor(o, GND, c);
            let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            // Integrate far past the pole so the Lorentzian tail is
            // captured: pole at 1/(2 pi R C).
            let fp = 1.0 / (2.0 * std::f64::consts::PI * r * c);
            let freqs = log_freqs(fp * 1e-3, fp * 1e3, 40);
            let nr = noise_analysis(&ckt, &op, o, &freqs, 300.0).unwrap();
            let expect = (BOLTZMANN * 300.0 / c).sqrt();
            let rel = (nr.out_vrms - expect).abs() / expect;
            assert!(
                rel < 0.05,
                "kT/C mismatch at R={r}: {} vs {expect}",
                nr.out_vrms
            );
        }
    }

    #[test]
    fn resistor_divider_input_referred_matches_output_over_gain() {
        // Divider gain 0.5: input-referred noise should be output noise / 0.5.
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1e3);
        ckt.resistor(o, GND, 1e3);
        ckt.capacitor(o, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        // Integrate well below the output pole (~318 MHz) where the divider
        // gain is flat at 0.5, so input-referred = output / gain exactly.
        let freqs = log_freqs(1e3, 1e7, 30);
        let nr = noise_analysis(&ckt, &op, o, &freqs, 300.0).unwrap();
        let ratio = nr.input_referred_rms / nr.out_vrms;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn noiseless_resistor_is_silent() {
        let mut a = Circuit::new();
        let o1 = a.node("o");
        a.vsource(o1, GND, 0.0, 1.0);
        a.resistor_noiseless(o1, GND, 1e3);
        // A circuit whose only resistor is noiseless: output PSD ~ 0.
        let op = dc_operating_point(&a, &DcOptions::default()).unwrap();
        let nr = noise_analysis(&a, &op, o1, &log_freqs(1e3, 1e6, 10), 300.0).unwrap();
        assert!(nr.out_vrms < 1e-15);
    }

    #[test]
    fn mosfet_noise_increases_with_gm() {
        use crate::device::{MosPolarity, Technology};
        use crate::netlist::Mosfet;
        let t = Technology::ptm45();
        let build = |w: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let g = ckt.node("g");
            let o = ckt.node("o");
            ckt.vsource(vdd, GND, 1.0, 0.0);
            ckt.vsource(g, GND, 0.55, 1.0);
            ckt.resistor_noiseless(vdd, o, 5.0e3);
            ckt.capacitor(o, GND, 1e-13);
            ckt.mosfet(Mosfet {
                polarity: MosPolarity::Nmos,
                d: o,
                g,
                s: GND,
                w,
                l: 90e-9,
                mult: 1.0,
                model: t.nmos,
            });
            ckt
        };
        let freqs = log_freqs(1e4, 1e11, 20);
        let mut vals = Vec::new();
        for w in [1e-6, 4e-6] {
            let ckt = build(w);
            let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let nr = noise_analysis(&ckt, &op, crate::netlist::Node(3), &freqs, 300.0).unwrap();
            vals.push(nr.out_vrms);
        }
        // Wider device: more gm, more output noise current into the same
        // load (but also slightly different pole) — the dominant effect at
        // fixed load is increased noise.
        assert!(vals[1] > vals[0]);
    }

    /// A symmetric twin-T notch: exact transmission null at
    /// `f0 = 1/(2 pi R C)`, where the measured gain collapses to
    /// floating-point dust.
    fn twin_t_notch() -> (Circuit, Node, f64) {
        let r = 10.0e3;
        let c = 1e-9;
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let a = ckt.node("a");
        let b = ckt.node("b");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        // Low-pass T.
        ckt.resistor(i, a, r);
        ckt.resistor(a, o, r);
        ckt.capacitor(a, GND, 2.0 * c);
        // High-pass T.
        ckt.capacitor(i, b, c);
        ckt.capacitor(b, o, c);
        ckt.resistor(b, GND, r / 2.0);
        // Light load so `out` is a live MNA node.
        ckt.resistor_noiseless(o, GND, 10.0e6);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        (ckt, o, f0)
    }

    #[test]
    fn notch_point_does_not_inflate_input_referred_noise() {
        // Regression: a single near-zero-gain grid point (the notch) used
        // to divide the output PSD by ~0 and dominate the input-referred
        // integral by tens of orders of magnitude, while the `max_gain`
        // check still passed. Such points are now excluded per point.
        let (ckt, o, f0) = twin_t_notch();
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let mut with_notch = log_freqs(f0 * 1e-2, f0 * 1e2, 6);
        with_notch.push(f0);
        with_notch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        with_notch.dedup();
        let without_notch: Vec<f64> = with_notch.iter().cloned().filter(|f| *f != f0).collect();
        let nr_with = noise_analysis(&ckt, &op, o, &with_notch, 300.0).unwrap();
        let nr_without = noise_analysis(&ckt, &op, o, &without_notch, 300.0).unwrap();
        // The notch gain really is floating-point dust relative to peak.
        let min_g = nr_with.gain.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_g = nr_with.gain.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            min_g < GAIN_FLOOR_REL * max_g,
            "notch not deep enough: {min_g} vs {max_g}"
        );
        // Including the notch point must not blow the referral up; the
        // old clamp produced a ratio of ~1e8 or worse here.
        let ratio = nr_with.input_referred_rms / nr_without.input_referred_rms;
        assert!(
            ratio < 3.0,
            "notch point inflated input-referred noise {ratio}x"
        );
        // The output-side integral is untouched by the exclusion.
        assert!(
            (nr_with.out_vrms - nr_without.out_vrms).abs() <= 0.05 * nr_without.out_vrms.max(1e-30)
        );
    }

    #[test]
    fn all_segments_excluded_is_an_error_not_silent_zero() {
        // A two-point grid whose second point sits in the notch: the
        // max-gain check passes (point one is healthy) but every
        // trapezoid segment has a below-floor endpoint, so there is no
        // band to refer through — that must fail, not report 0.0 rms
        // (which downstream worst-case folds would read as "infinitely
        // quiet").
        let (ckt, o, f0) = twin_t_notch();
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let r = noise_analysis(&ckt, &op, o, &[f0 * 0.1, f0], 300.0);
        assert!(
            matches!(r, Err(SimError::MeasureFailed { .. })),
            "expected MeasureFailed, got {r:?}"
        );
    }

    #[test]
    fn out_of_sync_operating_point_is_an_error_not_a_panic() {
        use crate::device::{MosPolarity, Technology};
        use crate::netlist::Mosfet;
        let t = Technology::ptm45();
        // Circuit A: plain RC — its op has zero MOS entries.
        let mut a = Circuit::new();
        let ia = a.node("in");
        let oa = a.node("out");
        a.vsource(ia, GND, 0.0, 1.0);
        a.resistor(ia, oa, 1e3);
        a.capacitor(oa, GND, 1e-12);
        let op_a = dc_operating_point(&a, &DcOptions::default()).unwrap();
        // Circuit B: same nodes plus a MOSFET.
        let mut b = Circuit::new();
        let ib = b.node("in");
        let ob = b.node("out");
        b.vsource(ib, GND, 0.55, 1.0);
        b.resistor(ib, ob, 1e3);
        b.capacitor(ob, GND, 1e-12);
        b.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: ob,
            g: ib,
            s: GND,
            w: 1e-6,
            l: 90e-9,
            mult: 1.0,
            model: t.nmos,
        });
        let r = noise_analysis(&b, &op_a, ob, &log_freqs(1e3, 1e6, 4), 300.0);
        assert!(
            matches!(r, Err(SimError::BadNetlist { .. })),
            "expected BadNetlist, got {r:?}"
        );
    }

    #[test]
    fn degenerate_frequency_grids_are_rejected() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1e3);
        ckt.capacitor(o, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let bad: [&[f64]; 5] = [
            &[],
            &[0.0, 1e3],
            &[-1.0, 1e3],
            &[1e3, 1e2],
            &[1e3, 1e3, 1e4],
        ];
        for freqs in bad {
            let r = noise_analysis(&ckt, &op, o, freqs, 300.0);
            assert!(
                matches!(r, Err(SimError::InvalidOptions { .. })),
                "grid {freqs:?} accepted: {r:?}"
            );
        }
        // A valid grid still passes.
        assert!(noise_analysis(&ckt, &op, o, &[1e3, 1e4, 1e5], 300.0).is_ok());
    }

    /// Per-corner inputs of the wrong length are an error for every
    /// corner, not a panic.
    #[test]
    fn mismatched_batch_lengths_are_invalid_options() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1e3);
        ckt.capacitor(o, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let solvers = [AcSolver::new(&ckt, &op), AcSolver::new(&ckt, &op)];
        let freqs = log_freqs(1e3, 1e6, 4);
        let mut ws = AcBatchWorkspace::new();
        let cases: [(&[&OpPoint], &[Node], &[f64]); 3] = [
            (&[&op], &[o, o], &[300.0, 300.0]),
            (&[&op, &op], &[o], &[300.0, 300.0]),
            (&[&op, &op], &[o, o], &[300.0, 300.0, 300.0]),
        ];
        for (ops, outs, temps) in cases {
            let r = noise_analysis_batch(&solvers, ops, outs, &freqs, temps, &mut ws);
            assert_eq!(r.len(), 2);
            for c in &r {
                assert!(matches!(c, Err(SimError::InvalidOptions { .. })), "{c:?}");
            }
        }
        // Matching lengths still run.
        let r = noise_analysis_batch(&solvers, &[&op, &op], &[o, o], &freqs, &[300.0; 2], &mut ws);
        assert!(r.iter().all(Result::is_ok));
    }
}
