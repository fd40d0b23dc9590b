//! Property: the corner-batched noise analysis is the scalar analysis per
//! corner, and the adjoint noise transfers are the per-source transfers.
//!
//! [`noise_analysis_batch`] performs the scalar kernels' arithmetic in
//! the scalar kernels' order per corner, so it must agree **bitwise**
//! with [`noise_analysis_ws`] corner for corner — no tolerance to hide
//! behind. The analysis itself reads every source's transfer off one
//! transposed (adjoint) solve per frequency; it is checked against a
//! test-local copy of the textbook per-source loop — one generic dense
//! LU per frequency and one unit-injection back-substitution per noise
//! source — which must agree to 1e-9 relative on every output-PSD point
//! and on both integrals, on the dense kernel (stock and dense dims) and
//! on the sparse one.

use autockt_sim::ac::{log_freqs, AcBatchWorkspace, AcSolver, AcWorkspace};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::{MosPolarity, Technology, BOLTZMANN};
use autockt_sim::measure::integrate_trapezoid;
use autockt_sim::netlist::{Circuit, Element, Mosfet, Node, GND};
use autockt_sim::noise::{noise_analysis_batch, noise_analysis_ws, NoiseResult, GAIN_FLOOR_REL};
use autockt_sim::SimError;
use proptest::prelude::*;

/// A common-source amplifier driving a `depth`-segment RC mesh — the
/// worst-case-PVT shape: the mesh (and every passive) is shared by all
/// corners, only the device stamps differ with `w`. MNA dim `depth + 6`.
fn amp_with_mesh(w: f64, depth: usize) -> (Circuit, Node) {
    let t = Technology::ptm45();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let d = ckt.node("d");
    ckt.vsource(vdd, GND, 1.0, 0.0);
    ckt.vsource(g, GND, 0.55, 1.0);
    ckt.resistor(vdd, d, 5.0e3);
    ckt.mosfet(Mosfet {
        polarity: MosPolarity::Nmos,
        d,
        g,
        s: GND,
        w,
        l: 90e-9,
        mult: 1.0,
        model: t.nmos,
    });
    let mut prev = d;
    for s in 0..depth {
        let n = ckt.node(&format!("m{s}"));
        ckt.resistor(prev, n, 1.0e3);
        ckt.capacitor(n, GND, 2e-15);
        prev = n;
    }
    let out = ckt.node("out");
    ckt.resistor(prev, out, 1.0e3);
    ckt.capacitor(out, GND, 1e-13);
    (ckt, out)
}

/// Builds the corner set, solves every operating point cold, and returns
/// everything the batched entry point needs.
#[allow(clippy::type_complexity)]
fn corner_set(widths: &[f64], depth: usize) -> (Vec<(Circuit, Node)>, Vec<OpPoint>, Vec<f64>) {
    let variants: Vec<(Circuit, Node)> = widths.iter().map(|&w| amp_with_mesh(w, depth)).collect();
    let ops: Vec<OpPoint> = variants
        .iter()
        .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).expect("amp solves"))
        .collect();
    // Corner temperatures vary like a PVT set (enters the PSD weights).
    let temps: Vec<f64> = (0..widths.len())
        .map(|i| 233.15 + 50.0 * i as f64)
        .collect();
    (variants, ops, temps)
}

/// The per-source oracle's result: the fields of [`NoiseResult`] the
/// adjoint analysis must reproduce.
struct PerSource {
    out_psd: Vec<f64>,
    gain: Vec<f64>,
    out_vrms: f64,
    input_referred_rms: f64,
}

/// Test-local copy of the per-source noise analysis: at every frequency a
/// generic dense LU of the full system, one gain solve, and one solve per
/// noise source with a unit current injected from `p` to `n`, the PSD
/// accumulated in netlist order; then the trapezoid integrals with the
/// input referral skipping below-floor segments.
fn per_source_oracle(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    temp_k: f64,
) -> PerSource {
    // (p, n, white PSD, flicker prefactor) per source.
    let mut sources = Vec::new();
    let mut mos = op.mosfets().iter();
    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, r, noisy } if *noisy => {
                sources.push((*p, *n, 4.0 * BOLTZMANN * temp_k / r, 0.0));
            }
            Element::Mos(m) => {
                let mi = mos.next().expect("operating point matches circuit");
                let flicker = m.model.kf * mi.gm * mi.gm / (m.model.cox * m.w * m.l * m.mult);
                let white = m.model.thermal_noise_psd(mi.gm, temp_k);
                sources.push((mi.a_d, mi.a_s, white, flicker));
            }
            _ => {}
        }
    }
    let solver = AcSolver::new(ckt, op);
    let mut out_psd = Vec::with_capacity(freqs.len());
    let mut gain = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let lu = solver.factor_at(f).expect("small-signal system factors");
        let x = lu.solve(solver.source_rhs());
        gain.push(solver.voltage(&x, out).norm());
        let mut psd = 0.0;
        for &(p, n, white, flicker) in &sources {
            let mut rhs = vec![Complex::ZERO; solver.dim()];
            if let Some(i) = solver.mna_index(p) {
                rhs[i] -= Complex::ONE;
            }
            if let Some(i) = solver.mna_index(n) {
                rhs[i] += Complex::ONE;
            }
            let h = solver.voltage(&lu.solve(&rhs), out);
            psd += h.norm_sqr() * (white + flicker / f.max(1e-3));
        }
        out_psd.push(psd);
    }
    let out_vrms = integrate_trapezoid(freqs, &out_psd).sqrt();
    let floor = GAIN_FLOOR_REL * gain.iter().cloned().fold(0.0f64, f64::max);
    let mut in_v2 = 0.0;
    for i in 1..freqs.len() {
        let (g0, g1) = (gain[i - 1], gain[i]);
        if g0 > floor && g1 > floor {
            let p0 = out_psd[i - 1] / (g0 * g0);
            let p1 = out_psd[i] / (g1 * g1);
            in_v2 += 0.5 * (p1 + p0) * (freqs[i] - freqs[i - 1]);
        }
    }
    PerSource {
        out_psd,
        gain,
        out_vrms,
        input_referred_rms: in_v2.sqrt(),
    }
}

/// Relative agreement (exact zeros agree with each other only).
fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Checks one corner's adjoint result against the per-source oracle.
fn check_oracle(nr: &NoiseResult, oracle: &PerSource, corner: usize) -> Result<(), String> {
    if !rel_close(nr.out_vrms, oracle.out_vrms, 1e-9)
        || !rel_close(nr.input_referred_rms, oracle.input_referred_rms, 1e-9)
    {
        return Err(format!(
            "integrals diverged from the per-source oracle at corner {corner}: out {} vs {}, \
             input-referred {} vs {}",
            nr.out_vrms, oracle.out_vrms, nr.input_referred_rms, oracle.input_referred_rms
        ));
    }
    for (i, ((pa, po), (ga, go))) in nr
        .out_psd
        .iter()
        .zip(&oracle.out_psd)
        .zip(nr.gain.iter().zip(&oracle.gain))
        .enumerate()
    {
        if !rel_close(*pa, *po, 1e-9) || !rel_close(*ga, *go, 1e-9) {
            return Err(format!(
                "point {i} diverged from the per-source oracle at corner {corner}: \
                 psd {pa} vs {po}, gain {ga} vs {go}"
            ));
        }
    }
    Ok(())
}

/// Runs the scalar analysis per corner, checks the batch bitwise against
/// it and the scalar results against the per-source oracle.
fn check_equivalence(widths: &[f64], depth: usize, freqs: &[f64]) -> Result<(), String> {
    let (variants, ops, temps) = corner_set(widths, depth);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();

    let mut sws = AcWorkspace::new();
    let scalar: Vec<_> = variants
        .iter()
        .zip(ops.iter().zip(&temps))
        .map(|((ckt, out), (op, &t))| noise_analysis_ws(ckt, op, *out, freqs, t, &mut sws))
        .collect();

    let mut ws = AcBatchWorkspace::new();
    let batch = noise_analysis_batch(&solvers, &op_refs, &outs, freqs, &temps, &mut ws);
    for (b, (bb, ss)) in batch.iter().zip(&scalar).enumerate() {
        match (bb, ss) {
            (Ok(bb), Ok(ss)) => {
                if bb != ss {
                    return Err(format!("batch diverged bitwise at corner {b}"));
                }
            }
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "batch outcome diverged at corner {b}: {bb:?} vs {ss:?}"
                ))
            }
        }
    }

    for (b, (((ckt, out), (op, &t)), ss)) in variants
        .iter()
        .zip(ops.iter().zip(&temps))
        .zip(&scalar)
        .enumerate()
    {
        let ss = ss.as_ref().map_err(|e| format!("corner {b} failed: {e}"))?;
        check_oracle(ss, &per_source_oracle(ckt, op, *out, freqs, t), b)?;
    }
    Ok(())
}

fn widths_from(base_w: f64, deltas: &[f64]) -> Vec<f64> {
    std::iter::once(base_w)
        .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
        .collect()
}

proptest! {
    /// Dense mesh (dim 24..36, the dense kernel): batch bitwise, adjoint
    /// matches the per-source oracle.
    #[test]
    fn noise_batch_bitwise_and_adjoint_close_dense(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 5),
        depth in 18usize..30,
    ) {
        let r = check_equivalence(&widths_from(base_w, &deltas), depth, &log_freqs(1e4, 1e10, 5));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Stock dims (dim <= 14): batch bitwise, adjoint matches the
    /// per-source oracle.
    #[test]
    fn noise_batch_bitwise_at_stock_dims(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 5),
        depth in 0usize..8,
    ) {
        let r = check_equivalence(&widths_from(base_w, &deltas), depth, &log_freqs(1e4, 1e10, 5));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Sparse dims (dim 64..72, past the default crossover, so the
    /// sparse LU's transposed solve runs): batch bitwise, adjoint
    /// matches the dense per-source oracle.
    #[test]
    fn noise_batch_bitwise_and_adjoint_close_sparse(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 2),
        depth in 58usize..66,
    ) {
        let r = check_equivalence(&widths_from(base_w, &deltas), depth, &log_freqs(1e4, 1e10, 1));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

#[test]
fn single_corner_and_empty_batches() {
    let (variants, ops, temps) = corner_set(&[2e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let freqs = log_freqs(1e4, 1e10, 4);
    let mut ws = AcBatchWorkspace::new();
    // Single corner: the scalar path, bitwise.
    let scalar = noise_analysis_ws(
        &variants[0].0,
        &ops[0],
        outs[0],
        &freqs,
        temps[0],
        &mut AcWorkspace::new(),
    )
    .unwrap();
    let batch = noise_analysis_batch(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].as_ref().unwrap(), &scalar);
    // Empty batch: empty result, no panic.
    assert!(noise_analysis_batch(&[], &[], &[], &freqs, &[], &mut ws).is_empty());
}

#[test]
fn degenerate_grid_reports_invalid_options_per_corner() {
    let (variants, ops, temps) = corner_set(&[2e-6, 2.4e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let mut ws = AcBatchWorkspace::new();
    for bad in [vec![], vec![1e6, 1e3], vec![-1.0, 1e3]] {
        let batch = noise_analysis_batch(&solvers, &op_refs, &outs, &bad, &temps, &mut ws);
        assert_eq!(batch.len(), 2);
        for r in &batch {
            assert!(matches!(r, Err(SimError::InvalidOptions { .. })), "{r:?}");
        }
    }
}

/// Workspace reuse across back-to-back analyses (the session pattern),
/// with an AC corner sweep through the same workspace in between, must
/// not perturb results.
#[test]
fn workspace_reuse_is_stable() {
    let (variants, ops, temps) = corner_set(&[2e-6, 1.6e-6, 2.8e-6], 22);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let freqs = log_freqs(1e4, 1e10, 4);
    let mut ws = AcBatchWorkspace::new();
    let a = noise_analysis_batch(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    let sweep = autockt_sim::ac::ac_sweep_corners(&solvers, &freqs, &outs, &mut ws);
    assert!(sweep.iter().all(Result::is_ok));
    let b = noise_analysis_batch(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    assert_eq!(
        a.iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>(),
        b.iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>()
    );
}
