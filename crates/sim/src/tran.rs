//! Transient analysis: fixed-step trapezoidal integration with a
//! backward-Euler start step, Newton iteration at every time point.
//!
//! Capacitors are replaced by their integration companion models; MOSFETs
//! are re-linearized each Newton iteration; step sources follow their
//! [`crate::netlist::Step`] waveforms.

use crate::ac::{AcSolver, STOCK_DIM_MAX};
use crate::dc::{dc_operating_point, eval_mos_oriented, DcOptions, OpPoint, WarmState};
use crate::error::SimError;
use crate::linalg::correction::{
    corrected_vector, factor_correction, solve_correction_basis, CornerDiff,
};
use crate::linalg::sparse::{CscMatrix, SparseLu, TripletList};
use crate::linalg::{LuFactors, Matrix};
use crate::netlist::{Circuit, Element, Node};

/// Options for the transient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Total simulated time (s).
    pub t_stop: f64,
    /// Fixed time step (s).
    pub dt: f64,
    /// Maximum Newton iterations per time point.
    pub max_iter: usize,
    /// Newton update tolerance (V, A).
    pub tol: f64,
    /// DC options used for the initial operating point.
    pub dc: DcOptions,
}

impl TranOptions {
    /// Creates options covering `t_stop` seconds in `steps` equal steps.
    ///
    /// Degenerate arguments (`steps == 0`, non-positive or non-finite
    /// `t_stop`) produce an options value that [`TranOptions::validate`]
    /// rejects — [`transient`] returns [`SimError::InvalidOptions`] rather
    /// than silently running an empty or NaN-stepped sweep.
    pub fn new(t_stop: f64, steps: usize) -> Self {
        TranOptions {
            t_stop,
            dt: t_stop / steps as f64,
            max_iter: 50,
            tol: 1e-9,
            dc: DcOptions::default(),
        }
    }

    /// Checks the options describe a non-degenerate sweep: a finite,
    /// positive `dt` no longer than a finite, positive `t_stop` (at least
    /// one time step).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(SimError::InvalidOptions {
                what: "transient dt must be finite and positive (zero steps?)",
            });
        }
        if !self.t_stop.is_finite() || self.t_stop <= 0.0 {
            return Err(SimError::InvalidOptions {
                what: "transient t_stop must be finite and positive",
            });
        }
        if self.t_stop < self.dt {
            return Err(SimError::InvalidOptions {
                what: "transient t_stop shorter than dt (empty sweep)",
            });
        }
        Ok(())
    }
}

/// A transient waveform record.
#[derive(Debug, Clone, PartialEq)]
pub struct TranResult {
    /// Time points (s), starting at 0.
    pub t: Vec<f64>,
    /// Node voltages: `v[step][node_index]`.
    pub v: Vec<Vec<f64>>,
}

impl TranResult {
    /// Waveform of one node across all time points.
    pub fn node_waveform(&self, n: Node) -> Vec<f64> {
        self.v.iter().map(|row| row[n.index()]).collect()
    }
}

struct CapState {
    p: Node,
    n: Node,
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

/// Runs a transient analysis from the DC operating point at `t = 0`.
///
/// # Errors
///
/// Returns [`SimError::TranNoConvergence`] if Newton fails at some time
/// point, or propagates DC/LU errors.
///
/// # Examples
///
/// An RC charging step reaches `1 - e^-1` of its final value at `t = RC`:
///
/// ```
/// use autockt_sim::netlist::{Circuit, Step, GND};
/// use autockt_sim::tran::{transient, TranOptions};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let i = ckt.node("in");
/// let o = ckt.node("out");
/// ckt.vsource_step(i, GND, Step { v0: 0.0, v1: 1.0, t_delay: 0.0 }, 0.0);
/// ckt.resistor(i, o, 1.0e3);
/// ckt.capacitor(o, GND, 1e-9);
/// let res = transient(&ckt, &TranOptions::new(5e-6, 2000))?;
/// let w = res.node_waveform(o);
/// let at_tau = res.t.iter().position(|&t| t >= 1e-6).unwrap();
/// assert!((w[at_tau] - (1.0 - (-1.0f64).exp())).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn transient(ckt: &Circuit, opts: &TranOptions) -> Result<TranResult, SimError> {
    opts.validate()?;
    let op = dc_operating_point(ckt, &opts.dc)?;
    transient_from_op(ckt, opts, &op)
}

/// [`transient`] with the initial DC operating point solved through a
/// session's [`WarmState`]: the previous solution stored in `slot` seeds
/// the Newton iteration (with the usual cold + homotopy fallback), so an
/// evaluation session that just solved the same design's operating point
/// for its AC analyses starts the transient in ~1 Newton iteration instead
/// of re-running the cold `initial_v` solve — closing the last cold start
/// in the session pipeline.
///
/// # Errors
///
/// Same contract as [`transient`].
pub fn transient_warm(
    ckt: &Circuit,
    opts: &TranOptions,
    slot: usize,
    state: &mut WarmState,
) -> Result<TranResult, SimError> {
    opts.validate()?;
    let op = state.solve(slot, ckt, &opts.dc)?;
    transient_from_op(ckt, opts, &op)
}

/// [`transient`] starting from an already-solved operating point `op`
/// (which must belong to `ckt` at its DC source values). Both public
/// entry points delegate here; callers that already hold an operating
/// point (e.g. after an AC linearization) can skip the DC solve entirely.
///
/// # Errors
///
/// Returns [`SimError::InvalidOptions`] for a degenerate time grid,
/// [`SimError::TranNoConvergence`] if Newton fails at some time point, or
/// propagates LU errors.
pub fn transient_from_op(
    ckt: &Circuit,
    opts: &TranOptions,
    op: &OpPoint,
) -> Result<TranResult, SimError> {
    opts.validate()?;
    let dim = ckt.mna_dim();
    let nnodes = ckt.num_nodes();
    let nv = nnodes - 1;

    // State vector starts at the operating point.
    let mut x = vec![0.0; dim];
    x[..nv].copy_from_slice(&op.voltages()[1..nnodes]);
    for k in 0..ckt.num_vsources() {
        x[nv + k] = op.vsource_current(k);
    }

    // Capacitor companion state.
    let mut caps: Vec<CapState> = ckt
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor { p, n, c } => Some(CapState {
                p: *p,
                n: *n,
                c: *c,
                v_prev: op.voltage(*p) - op.voltage(*n),
                i_prev: 0.0,
            }),
            _ => None,
        })
        .collect();

    let steps = (opts.t_stop / opts.dt).round() as usize;
    let mut t_points = Vec::with_capacity(steps + 1);
    let mut v_points = Vec::with_capacity(steps + 1);
    t_points.push(0.0);
    v_points.push(op.voltages().to_vec());

    let idx = |n: Node| ckt.mna_index(n);
    let mut j = Matrix::zeros(dim, dim);
    let mut f = vec![0.0; dim];
    // Persistent factorization buffers: every Newton iteration refactors
    // in place (`refactor` is bitwise-equal to a fresh `factor`) instead
    // of cloning the Jacobian and reallocating the factors per iteration.
    // Above the sparse crossover the Jacobian is rescanned into CSC and
    // refactored through the sparse kernel, which reuses its symbolic
    // analysis as long as the nonzero pattern holds (MOS region changes
    // can shift it; the sparse refactor re-runs its analysis then).
    let sparse = opts.dc.solver.use_sparse(dim);
    let mut lu = LuFactors::empty();
    let mut csc = CscMatrix::empty();
    let mut slu = SparseLu::empty();
    let mut rhs = vec![0.0; dim];
    let mut dx: Vec<f64> = Vec::new();

    for step in 1..=steps {
        let t = step as f64 * opts.dt;
        // Trapezoidal companion (backward Euler on the first step, which
        // also damps the discontinuity of step sources at t = 0).
        let trap = step > 1;
        let mut converged = false;
        for _ in 0..opts.max_iter {
            j.fill_zero();
            f.iter_mut().for_each(|e| *e = 0.0);
            let volt = |n: Node| -> f64 {
                match ckt.mna_index(n) {
                    None => 0.0,
                    Some(i) => x[i],
                }
            };
            for i in 0..nv {
                j[(i, i)] += 1e-12;
                f[i] += 1e-12 * x[i];
            }
            // Capacitor companions.
            for cs in &caps {
                let (geq, ieq_hist) = if trap {
                    let g = 2.0 * cs.c / opts.dt;
                    (g, -(g * cs.v_prev + cs.i_prev))
                } else {
                    let g = cs.c / opts.dt;
                    (g, -(g * cs.v_prev))
                };
                let vc = volt(cs.p) - volt(cs.n);
                let i_now = geq * vc + ieq_hist;
                if let Some(ip) = idx(cs.p) {
                    f[ip] += i_now;
                    j[(ip, ip)] += geq;
                    if let Some(in_) = idx(cs.n) {
                        j[(ip, in_)] -= geq;
                    }
                }
                if let Some(in_) = idx(cs.n) {
                    f[in_] -= i_now;
                    j[(in_, in_)] += geq;
                    if let Some(ip) = idx(cs.p) {
                        j[(in_, ip)] -= geq;
                    }
                }
            }
            // Remaining elements.
            let mut vk = 0usize;
            for e in ckt.elements() {
                match e {
                    Element::Resistor { p, n, r, .. } => {
                        let g = 1.0 / r;
                        let i = g * (volt(*p) - volt(*n));
                        if let Some(ip) = idx(*p) {
                            f[ip] += i;
                            j[(ip, ip)] += g;
                            if let Some(in_) = idx(*n) {
                                j[(ip, in_)] -= g;
                            }
                        }
                        if let Some(in_) = idx(*n) {
                            f[in_] -= i;
                            j[(in_, in_)] += g;
                            if let Some(ip) = idx(*p) {
                                j[(in_, ip)] -= g;
                            }
                        }
                    }
                    Element::Capacitor { .. } => {}
                    Element::Vsource { p, n, dc, wave, .. } => {
                        let val = wave.map_or(*dc, |w| w.value(t));
                        let row = nv + vk;
                        let ibr = x[row];
                        if let Some(ip) = idx(*p) {
                            f[ip] += ibr;
                            j[(ip, row)] += 1.0;
                            j[(row, ip)] += 1.0;
                        }
                        if let Some(in_) = idx(*n) {
                            f[in_] -= ibr;
                            j[(in_, row)] -= 1.0;
                            j[(row, in_)] -= 1.0;
                        }
                        f[row] += volt(*p) - volt(*n) - val;
                        vk += 1;
                    }
                    Element::Isource { p, n, dc, wave, .. } => {
                        let val = wave.map_or(*dc, |w| w.value(t));
                        if let Some(ip) = idx(*p) {
                            f[ip] += val;
                        }
                        if let Some(in_) = idx(*n) {
                            f[in_] -= val;
                        }
                    }
                    Element::Vccs {
                        op: o,
                        on,
                        cp,
                        cn,
                        gm,
                    } => {
                        let i = gm * (volt(*cp) - volt(*cn));
                        if let Some(io) = idx(*o) {
                            f[io] += i;
                            if let Some(icp) = idx(*cp) {
                                j[(io, icp)] += gm;
                            }
                            if let Some(icn) = idx(*cn) {
                                j[(io, icn)] -= gm;
                            }
                        }
                        if let Some(io) = idx(*on) {
                            f[io] -= i;
                            if let Some(icp) = idx(*cp) {
                                j[(io, icp)] -= gm;
                            }
                            if let Some(icn) = idx(*cn) {
                                j[(io, icn)] += gm;
                            }
                        }
                    }
                    Element::Mos(m) => {
                        let (a_d, a_s, i_ad, gm, gds, _) = eval_mos_oriented(m, volt);
                        if let Some(id_) = idx(a_d) {
                            f[id_] += i_ad;
                            if let Some(ig) = idx(m.g) {
                                j[(id_, ig)] += gm;
                            }
                            j[(id_, id_)] += gds;
                            if let Some(is_) = idx(a_s) {
                                j[(id_, is_)] -= gm + gds;
                            }
                        }
                        if let Some(is_) = idx(a_s) {
                            f[is_] -= i_ad;
                            if let Some(ig) = idx(m.g) {
                                j[(is_, ig)] -= gm;
                            }
                            if let Some(id_) = idx(a_d) {
                                j[(is_, id_)] -= gds;
                            }
                            j[(is_, is_)] += gm + gds;
                        }
                        // Device capacitances as fixed small-signal values
                        // from the operating point would miss large-signal
                        // swing; instead stamp them as linear companions on
                        // the fly using the current region's gate caps.
                        let (cgs, cgd) = {
                            let e = m.model.eval(
                                match m.polarity {
                                    crate::device::MosPolarity::Nmos => volt(m.g) - volt(a_s),
                                    crate::device::MosPolarity::Pmos => volt(a_s) - volt(m.g),
                                },
                                1.0,
                                m.w,
                                m.l,
                                m.mult,
                            );
                            m.model.gate_caps(e.region, m.w, m.l, m.mult)
                        };
                        // These small device caps are integrated with
                        // backward Euler against the previous *node*
                        // voltages snapshot, folded in via geq only
                        // (history handled implicitly through v_points).
                        let prev = &v_points[v_points.len() - 1];
                        let geq_gs = cgs / opts.dt;
                        let geq_gd = cgd / opts.dt;
                        let pairs = [(m.g, a_s, geq_gs), (m.g, a_d, geq_gd)];
                        for (p, n, geq) in pairs {
                            let v_now = volt(p) - volt(n);
                            let v_prev = prev[p.index()] - prev[n.index()];
                            let i_now = geq * (v_now - v_prev);
                            if let Some(ip) = idx(p) {
                                f[ip] += i_now;
                                j[(ip, ip)] += geq;
                                if let Some(in_) = idx(n) {
                                    j[(ip, in_)] -= geq;
                                }
                            }
                            if let Some(in_) = idx(n) {
                                f[in_] -= i_now;
                                j[(in_, in_)] += geq;
                                if let Some(ip) = idx(p) {
                                    j[(in_, ip)] -= geq;
                                }
                            }
                        }
                    }
                }
            }
            for (r, v) in rhs.iter_mut().zip(&f) {
                *r = -v;
            }
            if sparse {
                csc.from_dense_into(&j);
                slu.refactor(&csc, 1e-30)?;
                slu.solve_into(&rhs, &mut dx);
            } else {
                lu.refactor(&j, 1e-30)?;
                lu.solve_into(&rhs, &mut dx);
            }
            let mut maxd = 0.0f64;
            for (i, d) in dx.iter().enumerate() {
                let s = if i < nv { d.clamp(-0.5, 0.5) } else { *d };
                x[i] += s;
                maxd = maxd.max(d.abs());
            }
            if maxd < opts.tol {
                converged = true;
                break;
            }
        }
        if !converged || !x.iter().all(|v| v.is_finite()) {
            return Err(SimError::TranNoConvergence { time: t });
        }
        // Commit the step: update capacitor history.
        let volt = |n: Node| -> f64 {
            match ckt.mna_index(n) {
                None => 0.0,
                Some(i) => x[i],
            }
        };
        for cs in &mut caps {
            let vc = volt(cs.p) - volt(cs.n);
            let (geq, ieq_hist) = if trap {
                let g = 2.0 * cs.c / opts.dt;
                (g, -(g * cs.v_prev + cs.i_prev))
            } else {
                let g = cs.c / opts.dt;
                (g, -(g * cs.v_prev))
            };
            cs.i_prev = geq * vc + ieq_hist;
            cs.v_prev = vc;
        }
        let mut row = vec![0.0; nnodes];
        row[1..].copy_from_slice(&x[..nnodes - 1]);
        t_points.push(t);
        v_points.push(row);
    }
    Ok(TranResult {
        t: t_points,
        v: v_points,
    })
}

/// One corner's settling record: the `(t, y)` sample vectors of a step
/// response, or the solver error that corner failed with.
pub type StepRecord = Result<(Vec<f64>, Vec<f64>), SimError>;

/// Corner-batched small-signal step response — the warm fast path of the
/// settling measurement across a PVT corner set sharing one time window.
///
/// The trapezoidal companion `A_b = G_b + 2C_b/h` is constant over the
/// whole record, so the scalar kernel already factors it once per corner
/// and amortizes that cost over the 2048 back-substitutions — the
/// batched win has to come from the *per-step solves*, and the kernel
/// picks its mechanism by backend regime:
///
/// - **Dense dims** (crossover- or fill-limit-routed): each corner's
///   constant companion is folded into a precomputed affine propagator
///   `x1 = M x0 + k` (`M = A^{-1}(2C/h - G)`, `k = A^{-1} 2b`), so the
///   per-step cost drops from a back-substitution pair to one `n^2`
///   chain-free matrix-vector product (`corners_propagator`).
///   Lanes agree with the scalar kernel to solver tolerance.
/// - **Sparse dims**: the per-step sparse back-substitution is already
///   cheap, so the kernel instead factors the **base corner's companion
///   once**, builds the `CornerDiff` low-rank structure over the
///   per-corner stamp deltas, and recovers every sibling's state per
///   step through the Woodbury identity
///   (`x_b = y_b - W S_b^{-1} N_b y_b`); each corner's `|R| x |R|`
///   correction system is factored once per corner set. Corner 0 and
///   empty-diff siblings take their lane of the fused solve directly
///   (bitwise); corrected siblings are exact to roundoff.
///
/// Both regimes live under the warm path's solver-tolerance contract —
/// the cold settling path runs the scalar [`AcSolver::step_response`]
/// per corner, which is bitwise. Falls back per corner to the scalar kernel on structural
/// mismatch, a singular lane/base, or (sparse regime) unprofitable
/// support (`3|R| >= n`); stock dims (`n <= 16`) always take the scalar
/// path.
///
/// Returns one `(t, y)` record per corner, ordered like `solvers`.
///
/// # Panics
///
/// Panics if `solvers` and `outs` have different lengths.
pub fn step_response_corners(
    solvers: &[&AcSolver<'_>],
    outs: &[Node],
    t_stop: f64,
    steps: usize,
) -> Vec<StepRecord> {
    assert_eq!(solvers.len(), outs.len(), "one output node per corner");
    let bt = solvers.len();
    if bt == 0 {
        return Vec::new();
    }
    let n = solvers[0].dim();
    let scalar_all = || {
        solvers
            .iter()
            .zip(outs)
            .map(|(s, &o)| s.step_response(o, t_stop, steps))
            .collect()
    };
    if bt == 1 || n <= STOCK_DIM_MAX || solvers.iter().any(|s| s.dim() != n) {
        return scalar_all();
    }
    let h = t_stop / steps as f64;
    let cfg = solvers[0].config();
    if cfg.use_sparse(n) {
        let mut patterns: Vec<Vec<(usize, usize, f64, f64)>> = vec![Vec::new(); bt];
        for (pat, s) in patterns.iter_mut().zip(solvers) {
            s.collect_pattern(pat);
        }
        let cd = CornerDiff::from_patterns(&patterns, n);
        if !cd.profitable(n) {
            return scalar_all();
        }
        // Base companion A0 = G0 + 2*C0/h on the sparse kernel (the
        // correction basis needs one whole-matrix solve per support row).
        let mut trip = TripletList::new(n);
        for &(r, c, gg, cc) in &patterns[0] {
            let v = gg + 2.0 * cc / h;
            // lint:allow(float-eq) — exact-zero sparsity guard.
            if v != 0.0 {
                trip.push(r, c, v);
            }
        }
        let mut csc = CscMatrix::empty();
        trip.compress_into(&mut csc);
        let mut slu = SparseLu::empty();
        if slu.refactor(&csc, 1e-300).is_err() {
            // Base corner singular: let every corner report through its
            // own scalar solve.
            return scalar_all();
        }
        if !cfg.dense_by_fill(n, slu.factor_nnz()) {
            return corners_woodbury(solvers, outs, t_stop, steps, h, &slu, &patterns, &cd);
        }
        // Fill blow-up: the scalar kernel drops to its dense LU here,
        // which is the propagator kernel's regime.
    }
    corners_propagator(solvers, outs, t_stop, steps, h)
}

/// Dense-regime settling kernel: the per-step implicit solve is replaced
/// by a per-corner precomputed **propagator**. The trapezoidal companion
/// is constant over the record, so the step update
/// `A x1 = 2b + (2C/h - G) x0` is the affine fixed map `x1 = M x0 + k`
/// with `M = A^{-1} (2C/h - G)` and `k = A^{-1} (2b)` — each corner pays
/// `n + 1` extra back-substitutions once, and every step collapses to
/// one `n^2` matrix-vector product, half the flops of a back-substitution
/// pair. The matvec runs column-major (axpy accumulation), so the inner
/// loop is `n` independent multiply-adds with none of the substitution
/// dependency chain, and each corner's propagator stays L1-resident for
/// its whole sweep. Algebraically the map is the scalar kernel's exact
/// update; in floating point the precomputed `M` commits its solve
/// roundoff once, so lanes agree with [`AcSolver::step_response`] to
/// solver tolerance — the warm path's contract — not bitwise. A singular
/// companion drops that corner to the scalar path so it reports the
/// scalar error.
fn corners_propagator(
    solvers: &[&AcSolver<'_>],
    outs: &[Node],
    t_stop: f64,
    steps: usize,
    h: f64,
) -> Vec<StepRecord> {
    let n = solvers[0].dim();
    solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| {
            let (g, c) = s.stamps();
            let mut a = Matrix::<f64>::zeros(n, n);
            for r in 0..n {
                for col in 0..n {
                    a[(r, col)] = g[(r, col)] + 2.0 * c[(r, col)] / h;
                }
            }
            let lu = match LuFactors::factor(a, 1e-300) {
                Ok(lu) => lu,
                // Singular companion: the scalar kernel reports it.
                Err(_) => return s.step_response(o, t_stop, steps),
            };
            // M column by column — `A^{-1} (2C/h - G) e_j` — stored
            // column-major so the per-step accumulation walks contiguous
            // columns.
            let mut mcols = vec![0.0; n * n];
            let mut bcol = vec![0.0; n];
            let mut xcol = Vec::new();
            for j in 0..n {
                for (i, bi) in bcol.iter_mut().enumerate() {
                    *bi = 2.0 * c[(i, j)] / h - g[(i, j)];
                }
                lu.solve_into(&bcol, &mut xcol);
                mcols[j * n..(j + 1) * n].copy_from_slice(&xcol);
            }
            let b2: Vec<f64> = s.source_rhs().iter().map(|cb| 2.0 * cb.re).collect();
            let mut k = Vec::new();
            lu.solve_into(&b2, &mut k);

            let oi = s.mna_index(o);
            let mut x = vec![0.0; n];
            let mut xn = vec![0.0; n];
            let mut t_out = Vec::with_capacity(steps + 1);
            let mut y_out = Vec::with_capacity(steps + 1);
            t_out.push(0.0);
            y_out.push(0.0);
            for sidx in 1..=steps {
                // x1 = M x0 + k, axpy over M's columns: the inner loop
                // carries no dependency between iterations, so it
                // pipelines where the back-substitution chain stalls.
                xn.copy_from_slice(&k);
                for (j, &xj) in x.iter().enumerate() {
                    let mcol = &mcols[j * n..(j + 1) * n];
                    for (xi, &mij) in xn.iter_mut().zip(mcol) {
                        *xi += mij * xj;
                    }
                }
                std::mem::swap(&mut x, &mut xn);
                t_out.push(sidx as f64 * h);
                y_out.push(oi.map_or(0.0, |i| x[i]));
            }
            Ok((t_out, y_out))
        })
        .collect()
}

/// Sparse-regime settling kernel: Woodbury-corrects every sibling's
/// per-step state against the once-factored base-corner companion — see
/// [`step_response_corners`] for the contract.
#[allow(clippy::too_many_arguments)]
fn corners_woodbury(
    solvers: &[&AcSolver<'_>],
    outs: &[Node],
    t_stop: f64,
    steps: usize,
    h: f64,
    base: &SparseLu<f64>,
    patterns: &[Vec<(usize, usize, f64, f64)>],
    cd: &CornerDiff,
) -> Vec<StepRecord> {
    let bt = solvers.len();
    let n = solvers[0].dim();
    let rn = cd.support();
    // Same companion arithmetic as the scalar kernel (`2*c/h` with this
    // exact rounding) so the uncorrected lanes stay bitwise-equal.
    let combine = |dg: f64, dc: f64| dg + 2.0 * dc / h;

    // W = A0^{-1} P_R — |R| back-substitutions, shared by every corner
    // and every time step.
    let mut unit = Vec::new();
    let mut xcol = Vec::new();
    let mut wflat = Vec::new();
    solve_correction_basis(base, &cd.rows, n, &mut unit, &mut xcol, &mut wflat);

    // Per-corner correction factors S_b = I + N_b W, factored once for
    // the whole record (the companion has no per-step dependence). A
    // singular correction (corner shifted the base too hard) drops that
    // corner to the scalar kernel.
    let mut smalls: Vec<Option<LuFactors<f64>>> = Vec::with_capacity(bt);
    let mut fallback = vec![false; bt];
    for (diff, fb) in cd.diffs.iter().zip(fallback.iter_mut()) {
        if diff.is_empty() {
            smalls.push(None);
            continue;
        }
        let mut small = LuFactors::empty();
        match factor_correction(&mut small, diff, &cd.row_pos, rn, n, combine, &wflat) {
            Ok(()) => smalls.push(Some(small)),
            Err(_) => {
                *fb = true;
                smalls.push(None);
            }
        }
    }
    let active: Vec<usize> = (0..bt).filter(|&b| !fallback[b]).collect();
    let lanes = active.len();

    let mut out: Vec<StepRecord> = (0..bt).map(|_| Ok((Vec::new(), Vec::new()))).collect();
    if lanes > 0 {
        // Companion right-hand-side stamps per active corner, from the
        // same pattern entries (and in the same row-major order) the
        // scalar kernel walks.
        let comps: Vec<Vec<(usize, usize, f64)>> = active
            .iter()
            .map(|&b| {
                patterns[b]
                    .iter()
                    .filter_map(|&(r, c, gg, cc)| {
                        let v = 2.0 * cc / h - gg;
                        // lint:allow(float-eq) — exact-zero sparsity guard.
                        (v != 0.0).then_some((r, c, v))
                    })
                    .collect()
            })
            .collect();
        let bvecs: Vec<Vec<f64>> = active
            .iter()
            .map(|&b| solvers[b].source_rhs().iter().map(|c| c.re).collect())
            .collect();
        let oi: Vec<Option<usize>> = active
            .iter()
            .map(|&b| solvers[b].mna_index(outs[b]))
            .collect();
        let mut xs: Vec<Vec<f64>> = vec![vec![0.0; n]; lanes];
        let mut touts: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); lanes];
        let mut youts: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); lanes];
        for l in 0..lanes {
            touts[l].push(0.0);
            youts[l].push(0.0);
        }
        let mut rhs_flat = vec![0.0; n * lanes];
        let mut ys_flat = Vec::new();
        let mut ylane = vec![0.0; n];
        let mut u = Vec::new();
        let mut z = Vec::new();
        for s in 1..=steps {
            for (l, bv) in bvecs.iter().enumerate() {
                for (i, &bi) in bv.iter().enumerate() {
                    rhs_flat[i * lanes + l] = 2.0 * bi;
                }
                for &(r, c, v) in &comps[l] {
                    rhs_flat[r * lanes + l] += v * xs[l][c];
                }
            }
            base.solve_multi_into(&rhs_flat, lanes, &mut ys_flat);
            for (l, &b) in active.iter().enumerate() {
                match &smalls[b] {
                    None => {
                        // Stamps equal the base: the fused solve's lane
                        // *is* this corner's solve.
                        for (i, xi) in xs[l].iter_mut().enumerate() {
                            *xi = ys_flat[i * lanes + l];
                        }
                    }
                    Some(small) => {
                        for (i, yi) in ylane.iter_mut().enumerate() {
                            *yi = ys_flat[i * lanes + l];
                        }
                        corrected_vector(
                            small,
                            &cd.diffs[b],
                            &cd.row_pos,
                            &wflat,
                            &ylane,
                            combine,
                            n,
                            rn,
                            &mut u,
                            &mut z,
                            &mut xs[l],
                        );
                    }
                }
                touts[l].push(s as f64 * h);
                youts[l].push(oi[l].map_or(0.0, |i| xs[l][i]));
            }
        }
        for ((&b, t), y) in active.iter().zip(touts).zip(youts) {
            out[b] = Ok((t, y));
        }
    }
    for (b, slot) in out.iter_mut().enumerate() {
        if fallback[b] {
            *slot = solvers[b].step_response(outs[b], t_stop, steps);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Step, GND};

    #[test]
    fn rc_step_response_tau() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource_step(
            i,
            GND,
            Step {
                v0: 0.0,
                v1: 1.0,
                t_delay: 0.0,
            },
            0.0,
        );
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let res = transient(&ckt, &TranOptions::new(5e-6, 5000)).unwrap();
        let w = res.node_waveform(o);
        // At t = tau the response is 1 - 1/e.
        let k = res.t.iter().position(|&t| t >= 1e-6).unwrap();
        assert!((w[k] - 0.6321).abs() < 0.01, "got {}", w[k]);
        // Settled to within 1% at 5 tau (1 - e^-5 ~ 0.9933).
        assert!((w.last().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn step_delay_respected() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        ckt.vsource_step(
            i,
            GND,
            Step {
                v0: 0.2,
                v1: 0.8,
                t_delay: 1e-6,
            },
            0.0,
        );
        ckt.resistor(i, GND, 1e3);
        let res = transient(&ckt, &TranOptions::new(2e-6, 200)).unwrap();
        let w = res.node_waveform(i);
        let before = res.t.iter().position(|&t| t >= 0.5e-6).unwrap();
        assert!((w[before] - 0.2).abs() < 1e-6);
        assert!((w.last().unwrap() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn lc_free_energy_is_not_created() {
        // Two capacitors sharing charge through a resistor: final voltage
        // is the charge-weighted average; trapezoidal must not overshoot
        // persistently.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        // Pre-charge via a step source through a tiny resistor, then the
        // source stays constant; we just verify no numerical blow-up.
        ckt.vsource_step(
            a,
            GND,
            Step {
                v0: 1.0,
                v1: 1.0,
                t_delay: 0.0,
            },
            0.0,
        );
        ckt.resistor(a, b, 1e4);
        ckt.capacitor(b, GND, 1e-12);
        let res = transient(&ckt, &TranOptions::new(1e-6, 1000)).unwrap();
        let w = res.node_waveform(b);
        assert!(w.iter().all(|v| v.is_finite() && *v <= 1.0 + 1e-6));
        assert!((w.last().unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn zero_step_options_are_rejected_not_degenerate() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        ckt.vsource(i, GND, 1.0, 0.0);
        ckt.resistor(i, GND, 1e3);
        // steps = 0 => dt = inf; previously this silently produced a
        // zero-step sweep from `(t_stop / dt).round()` on a non-finite dt.
        let r = transient(&ckt, &TranOptions::new(1e-6, 0));
        assert!(matches!(r, Err(SimError::InvalidOptions { .. })), "{r:?}");
        // t_stop = 0 => dt = 0.
        let r = transient(&ckt, &TranOptions::new(0.0, 100));
        assert!(matches!(r, Err(SimError::InvalidOptions { .. })));
        // Hand-built options with t_stop < dt: empty sweep.
        let opts = TranOptions {
            dt: 1e-6,
            ..TranOptions::new(1e-7, 10)
        };
        assert!(matches!(
            transient(&ckt, &opts),
            Err(SimError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn warm_transient_matches_cold_and_skips_cold_dc() {
        // RC step: the warm path must produce the same waveform as the
        // cold path (same fixed point, same integration), while starting
        // its DC from the session's stored operating point.
        let build = || {
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            let o = ckt.node("out");
            ckt.vsource_step(
                i,
                GND,
                Step {
                    v0: 0.0,
                    v1: 1.0,
                    t_delay: 0.0,
                },
                0.0,
            );
            ckt.resistor(i, o, 1.0e3);
            ckt.capacitor(o, GND, 1e-9);
            ckt
        };
        let ckt = build();
        let opts = TranOptions::new(5e-6, 500);
        let cold = transient(&ckt, &opts).unwrap();
        let mut state = WarmState::new();
        // Prime the slot with the operating point, as a session would.
        state.solve(0, &ckt, &opts.dc).unwrap();
        let warm = transient_warm(&ckt, &opts, 0, &mut state).unwrap();
        assert_eq!(cold.t, warm.t);
        for (a, b) in cold.v.iter().flatten().zip(warm.v.iter().flatten()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // The warm state now holds the transient's initial OP solution.
        assert!(state.is_warm());
    }

    #[test]
    fn forced_sparse_transient_matches_dense() {
        use crate::linalg::sparse::SolverConfig;
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource_step(
            i,
            GND,
            Step {
                v0: 0.0,
                v1: 1.0,
                t_delay: 0.0,
            },
            0.0,
        );
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let opts = TranOptions::new(5e-6, 500);
        let dense = transient(&ckt, &opts).unwrap();
        let mut sp_opts = opts.clone();
        sp_opts.dc.solver = SolverConfig::sparse();
        let sparse = transient(&ckt, &sp_opts).unwrap();
        assert_eq!(dense.t, sparse.t);
        for (a, b) in dense.v.iter().flatten().zip(sparse.v.iter().flatten()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn mosfet_inverter_transient_switches() {
        use crate::device::{MosPolarity, Technology};
        use crate::netlist::Mosfet;
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource_step(
            g,
            GND,
            Step {
                v0: 0.0,
                v1: 1.0,
                t_delay: 0.2e-9,
            },
            0.0,
        );
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: o,
            g,
            s: GND,
            w: 1e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.nmos,
        });
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Pmos,
            d: o,
            g,
            s: vdd,
            w: 2e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.pmos,
        });
        ckt.capacitor(o, GND, 10e-15);
        let res = transient(&ckt, &TranOptions::new(2e-9, 2000)).unwrap();
        let w = res.node_waveform(o);
        assert!(w[0] > 0.9, "output starts high, got {}", w[0]);
        assert!(*w.last().unwrap() < 0.1, "output ends low");
    }
}
