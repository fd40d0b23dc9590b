//! Small-signal AC analysis.
//!
//! The circuit is linearized at a DC operating point ([`crate::dc`]); the
//! complex system `(G + j w C) x = b` is then factored and solved per
//! frequency point. The real `G` and `C` matrices are assembled once per
//! linearization and reused across the sweep, and the per-frequency LU
//! factorization is exposed so the noise analysis can reuse it for its
//! gain and adjoint solves.

use crate::complex::Complex;
use crate::dc::OpPoint;
use crate::error::SimError;
use crate::linalg::correction::{
    corrected_entry, factor_correction, solve_correction_basis, CornerDiff,
};
use crate::linalg::sparse::{CscMatrix, SolverConfig, SparseLu, TripletList};
use crate::linalg::{ComplexLuBatch, ComplexLuSoa, LinearSolver, LuFactors, Matrix};
use crate::netlist::{Circuit, Element, Node};
use crate::par::{run_chunks, would_parallelize, Parallelism, WorkspacePool};

/// The per-frequency complex factorization of an [`AcWorkspace`]: the
/// dense structure-of-arrays kernel below the sparse crossover, the CSC
/// sparse LU above it (or when forced by [`SolverConfig`]). Carrying the
/// backend inside the workspace keeps every downstream back-substitution
/// site — the sweep loops here and the gain and adjoint solves in
/// [`crate::noise`] — backend-agnostic: they just call
/// [`ComplexLu::solve_into`] / [`ComplexLu::solve_transpose_into`]
/// against whatever [`AcSolver::factor_at_ws`] produced.
// One long-lived instance per workspace, so the dense/sparse size skew
// is irrelevant — boxing would only add an indirection to the hot solve.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum ComplexLu {
    /// Dense split re/im kernel (bitwise-equal to `LuFactors<Complex>`).
    Dense(ComplexLuSoa),
    /// Sparse factorization over the CSC image of the stamp pattern.
    Sparse(SparseLu<Complex>),
}

impl Default for ComplexLu {
    fn default() -> Self {
        ComplexLu::Dense(ComplexLuSoa::empty())
    }
}

impl ComplexLu {
    /// Back-substitutes `b` through whichever backend holds the current
    /// factorization.
    pub(crate) fn solve_into(&self, b: &[Complex], x: &mut Vec<Complex>) {
        match self {
            ComplexLu::Dense(lu) => lu.solve_into(b, x),
            ComplexLu::Sparse(slu) => slu.solve_into(b, x),
        }
    }

    /// Solves the transposed system `Aᵀ z = c` (no conjugation) through
    /// whichever backend holds the current factorization, with `work` as
    /// scratch.
    pub(crate) fn solve_transpose_into(
        &self,
        c: &[Complex],
        z: &mut Vec<Complex>,
        work: &mut Vec<Complex>,
    ) {
        match self {
            ComplexLu::Dense(lu) => lu.solve_transpose_into(c, z, work),
            ComplexLu::Sparse(slu) => slu.solve_transpose_into(c, z, work),
        }
    }
}

/// Reusable buffers for repeated AC factor/solve calls: the complex system
/// matrix lives inside the LU factors and is stamped in place per
/// frequency from a sparse pattern collected once per linearization, so a
/// whole sweep (and consecutive sweeps of a warm evaluation session)
/// performs no per-point allocation.
///
/// The factorization buffer is the structure-of-arrays
/// [`ComplexLuSoa`] kernel — split re/im storage that the compiler
/// autovectorizes — producing results bitwise-equal to the generic
/// `LuFactors<Complex>` path of [`AcSolver::factor_at`].
#[derive(Debug, Clone, Default)]
pub struct AcWorkspace {
    pub(crate) lu: ComplexLu,
    pub(crate) pattern: Vec<(usize, usize, f64, f64)>,
    /// CSC image of the stamp pattern (sparse backend only): built once
    /// per linearization, revalued per frequency.
    pub(crate) csc: CscMatrix<Complex>,
    /// Unscaled per-entry stamps aligned with `csc`'s value order:
    /// `re` holds the conductance, `im` the (unscaled) capacitance, so
    /// each frequency point is a pure value rewrite `g + j*w*c`.
    pub(crate) gc: Vec<Complex>,
    pub(crate) trip: TripletList<Complex>,
    pub(crate) x: Vec<Complex>,
    pub(crate) rhs: Vec<Complex>,
    /// Scratch of the transposed (adjoint) solve.
    pub(crate) work: Vec<Complex>,
    /// Whether this sweep's dense-by-fill decision has been taken (at the
    /// first successful factorization after
    /// [`AcSolver::prepare_workspace`]). Pinning the decision to one
    /// frequency point makes the sparse-vs-dense route a pure function of
    /// the sweep's inputs, which is what lets threaded lanes replicate it
    /// instead of each flipping at their own chunk-local point.
    pub(crate) fill_checked: bool,
}

impl AcWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        AcWorkspace::default()
    }
}

/// Reusable buffers for corner-batched AC sweeps ([`ac_sweep_batch_solvers`] and
/// [`ac_sweep_corners`]) and the corner-batched noise analysis
/// ([`crate::noise::noise_analysis_batch`]): the lockstep complex batch
/// LU of the cold AC sweep, one sparse stamp pattern per corner,
/// batch-layout right-hand-side/solution buffers, the base-factor/correction
/// scratch of the corner-correction sweep, and the scalar workspace the
/// per-corner routes sweep through.
#[derive(Debug, Clone, Default)]
pub struct AcBatchWorkspace {
    pub(crate) lu: ComplexLuBatch,
    pub(crate) patterns: Vec<Vec<(usize, usize, f64, f64)>>,
    pub(crate) rhs_re: Vec<f64>,
    pub(crate) rhs_im: Vec<f64>,
    pub(crate) x_re: Vec<f64>,
    pub(crate) x_im: Vec<f64>,
    pub(crate) acc_re: Vec<f64>,
    pub(crate) acc_im: Vec<f64>,
    pub(crate) base: ComplexLuSoa,
    pub(crate) spare: ComplexLuSoa,
    pub(crate) small: LuFactors<Complex>,
    pub(crate) y0: Vec<Complex>,
    pub(crate) unit: Vec<Complex>,
    pub(crate) xcol: Vec<Complex>,
    pub(crate) wflat: Vec<Complex>,
    /// Scalar workspace of the per-corner routes (the sparse sweeps and
    /// the serial noise route).
    pub(crate) scalar: AcWorkspace,
}

impl AcBatchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        AcBatchWorkspace::default()
    }
}

/// A reusable small-signal solver bound to a circuit and operating point.
#[derive(Debug)]
pub struct AcSolver<'a> {
    ckt: &'a Circuit,
    g: Matrix<f64>,
    c: Matrix<f64>,
    rhs: Vec<Complex>,
    dim: usize,
    cfg: SolverConfig,
}

impl<'a> AcSolver<'a> {
    /// Builds the small-signal stamps for `ckt` linearized at `op`.
    pub fn new(ckt: &'a Circuit, op: &OpPoint) -> Self {
        let dim = ckt.mna_dim();
        let nnodes = ckt.num_nodes();
        let mut g = Matrix::zeros(dim, dim);
        let mut c = Matrix::zeros(dim, dim);
        let mut rhs = vec![Complex::ZERO; dim];
        let idx = |n: Node| ckt.mna_index(n);

        // Same gmin regularization as the DC solve keeps conditioning
        // consistent between analyses.
        for i in 0..(nnodes - 1) {
            g[(i, i)] += 1e-12;
        }

        let stamp_g = |m: &mut Matrix<f64>, p: Node, n: Node, val: f64| {
            if let Some(ip) = idx(p) {
                m[(ip, ip)] += val;
                if let Some(in_) = idx(n) {
                    m[(ip, in_)] -= val;
                }
            }
            if let Some(in_) = idx(n) {
                m[(in_, in_)] += val;
                if let Some(ip) = idx(p) {
                    m[(in_, ip)] -= val;
                }
            }
        };
        let stamp_vccs = |m: &mut Matrix<f64>, op_: Node, on: Node, cp: Node, cn: Node, gm: f64| {
            if let Some(io) = idx(op_) {
                if let Some(icp) = idx(cp) {
                    m[(io, icp)] += gm;
                }
                if let Some(icn) = idx(cn) {
                    m[(io, icn)] -= gm;
                }
            }
            if let Some(io) = idx(on) {
                if let Some(icp) = idx(cp) {
                    m[(io, icp)] -= gm;
                }
                if let Some(icn) = idx(cn) {
                    m[(io, icn)] += gm;
                }
            }
        };

        let mut vk = 0usize;
        let mut mos_iter = op.mosfets().iter();
        for e in ckt.elements() {
            match e {
                Element::Resistor { p, n, r, .. } => stamp_g(&mut g, *p, *n, 1.0 / r),
                Element::Capacitor { p, n, c: cap } => stamp_g(&mut c, *p, *n, *cap),
                Element::Vsource { p, n, ac, .. } => {
                    let row = nnodes - 1 + vk;
                    if let Some(ip) = idx(*p) {
                        g[(ip, row)] += 1.0;
                        g[(row, ip)] += 1.0;
                    }
                    if let Some(in_) = idx(*n) {
                        g[(in_, row)] -= 1.0;
                        g[(row, in_)] -= 1.0;
                    }
                    rhs[row] += Complex::from_re(*ac);
                    vk += 1;
                }
                Element::Isource { p, n, ac, .. } => {
                    if let Some(ip) = idx(*p) {
                        rhs[ip] -= Complex::from_re(*ac);
                    }
                    if let Some(in_) = idx(*n) {
                        rhs[in_] += Complex::from_re(*ac);
                    }
                }
                Element::Vccs {
                    op: o,
                    on,
                    cp,
                    cn,
                    gm,
                } => {
                    stamp_vccs(&mut g, *o, *on, *cp, *cn, *gm);
                }
                Element::Mos(m) => {
                    // lint:allow(panic) — `op` carries one MosOp per MOS
                    // element of the circuit it was solved on; a foreign
                    // operating point is a caller bug, and this constructor
                    // has no error channel to report it.
                    let mi = mos_iter.next().expect("op and circuit out of sync");
                    stamp_g(&mut g, mi.a_d, mi.a_s, mi.gds);
                    stamp_vccs(&mut g, mi.a_d, mi.a_s, mi.g, mi.a_s, mi.gm);
                    stamp_g(&mut c, m.g, mi.a_s, mi.cgs);
                    stamp_g(&mut c, m.g, mi.a_d, mi.cgd);
                    stamp_g(&mut c, mi.a_d, crate::netlist::GND, mi.cdb);
                    stamp_g(&mut c, mi.a_s, crate::netlist::GND, mi.csb);
                }
            }
        }
        AcSolver {
            ckt,
            g,
            c,
            rhs,
            dim,
            cfg: SolverConfig::default(),
        }
    }

    /// Overrides the linear-solver backend selection for every
    /// workspace-based factorization this solver performs (the allocating
    /// reference paths [`AcSolver::factor_at`] / [`AcSolver::solve_sources`]
    /// stay on the dense generic kernel — they are the equivalence
    /// baseline the other paths are tested against).
    pub fn with_config(mut self, cfg: SolverConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The backend selection policy this solver factors under.
    pub fn config(&self) -> SolverConfig {
        self.cfg
    }

    /// Dimension of the MNA system.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The circuit this solver was linearized from — the noise analyses
    /// need it again for noise-source enumeration and node indexing.
    pub fn circuit(&self) -> &'a Circuit {
        self.ckt
    }

    /// Assembles the dense complex system matrix `G + j*2*pi*f*C` at
    /// frequency `f` (Hz) — what [`AcSolver::factor_at`] eliminates.
    /// Exposed so kernel benchmarks and tests can drive both LU layouts
    /// over the identical system.
    pub fn system_matrix(&self, f: f64) -> Matrix<Complex> {
        let w = 2.0 * std::f64::consts::PI * f;
        let mut y = Matrix::<Complex>::zeros(self.dim, self.dim);
        for r in 0..self.dim {
            for cidx in 0..self.dim {
                let gg = self.g[(r, cidx)];
                let cc = self.c[(r, cidx)];
                // lint:allow(float-eq) — exact-zero sparsity guard: only
                // bitwise-zero stamps are skipped; rounded values stay.
                if gg != 0.0 || cc != 0.0 {
                    y[(r, cidx)] = Complex::new(gg, w * cc);
                }
            }
        }
        y
    }

    /// Factors the complex system `G + j*2*pi*f*C` at frequency `f` (Hz).
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] for a singular small-signal system.
    pub fn factor_at(&self, f: f64) -> Result<LuFactors<Complex>, SimError> {
        LuFactors::factor(self.system_matrix(f), 1e-300)
    }

    /// Right-hand side driven by the netlist's AC source magnitudes.
    pub fn source_rhs(&self) -> &[Complex] {
        &self.rhs
    }

    /// Solves for node voltages at frequency `f` with the netlist's own AC
    /// sources driving. Returns the full MNA solution vector.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures from the factorization.
    pub fn solve_sources(&self, f: f64) -> Result<Vec<Complex>, SimError> {
        Ok(self.factor_at(f)?.solve(&self.rhs))
    }

    /// Collects this linearization's sparse `(row, col, g, c)` stamp
    /// pattern into `ws`; call once before any `_ws` solve. When the
    /// solver's [`SolverConfig`] routes this dimension to the sparse
    /// backend, the pattern is additionally compressed into a CSC matrix
    /// whose values are rewritten (not rebuilt) per frequency point.
    pub fn prepare_workspace(&self, ws: &mut AcWorkspace) {
        self.collect_pattern(&mut ws.pattern);
        ws.fill_checked = false;
        if self.cfg.use_sparse(self.dim) {
            ws.trip.clear(self.dim);
            for &(r, c, gg, cc) in &ws.pattern {
                // Encode (g, c) as one complex entry; the per-frequency
                // rewrite scales the imaginary part by w.
                ws.trip.push(r, c, Complex::new(gg, cc));
            }
            ws.trip.compress_into(&mut ws.csc);
            ws.gc.clear();
            ws.gc.extend_from_slice(ws.csc.values());
            if !matches!(ws.lu, ComplexLu::Sparse(_)) {
                ws.lu = ComplexLu::Sparse(SparseLu::empty());
            }
        } else if !matches!(ws.lu, ComplexLu::Dense(_)) {
            ws.lu = ComplexLu::Dense(ComplexLuSoa::empty());
        }
    }

    /// Collects the sparse `(row, col, g, c)` stamp pattern into a
    /// caller-provided buffer (cleared first) — the per-corner analogue
    /// of [`AcSolver::prepare_workspace`] used by [`ac_sweep_batch_solvers`].
    pub fn collect_pattern(&self, pattern: &mut Vec<(usize, usize, f64, f64)>) {
        pattern.clear();
        for r in 0..self.dim {
            for c in 0..self.dim {
                let gg = self.g[(r, c)];
                let cc = self.c[(r, c)];
                // lint:allow(float-eq) — exact-zero sparsity guard: the
                // CSC pattern must keep every bitwise-nonzero stamp.
                if gg != 0.0 || cc != 0.0 {
                    pattern.push((r, c, gg, cc));
                }
            }
        }
    }

    /// Factors `G + j*2*pi*f*C` into the workspace buffers with zero
    /// per-point allocation. On the dense backend (the default below the
    /// sparse crossover) the result is identical (bitwise) to
    /// [`AcSolver::factor_at`], through the vectorized split re/im
    /// kernel; on the sparse backend the CSC values are rewritten in
    /// place and refactored reusing the symbolic analysis (the pattern
    /// never changes across a sweep). [`AcSolver::prepare_workspace`]
    /// must have been called for this solver first.
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] for a singular small-signal system on
    /// the dense backend, [`SimError::SingularSparse`] on the sparse one.
    pub fn factor_at_ws(&self, f: f64, ws: &mut AcWorkspace) -> Result<(), SimError> {
        let w = 2.0 * std::f64::consts::PI * f;
        let n = self.dim;
        let AcWorkspace {
            lu,
            pattern,
            csc,
            gc,
            fill_checked,
            ..
        } = ws;
        match lu {
            ComplexLu::Dense(lu) => lu.refactor_with(n, 1e-300, |re, im| {
                for &(r, c, gg, cc) in pattern.iter() {
                    re[r * n + c] = gg;
                    im[r * n + c] = w * cc;
                }
            }),
            ComplexLu::Sparse(slu) => {
                for (v, base) in csc.values_mut().iter_mut().zip(gc.iter()) {
                    *v = Complex::new(base.re, w * base.im);
                }
                slu.refactor(csc, 1e-300)?;
                if !*fill_checked {
                    *fill_checked = true;
                    if self.cfg.dense_by_fill(n, slu.factor_nnz()) {
                        // The measured factor fill crossed the config's
                        // limit: this pattern is too dense for the sparse
                        // traversal to pay, so flip the workspace to the
                        // dense kernel and refactor this same point there —
                        // every later point of the sweep (and of reuses of
                        // this workspace until the next
                        // [`AcSolver::prepare_workspace`]) then takes the
                        // dense branch directly. Costs one throwaway sparse
                        // factorization per sweep. The check runs only at
                        // the sweep's first successful factorization, so
                        // the route is a deterministic function of the
                        // sweep inputs — threaded lanes replicate it by
                        // probing the sweep's first frequency.
                        let mut dense = ComplexLuSoa::empty();
                        dense.refactor_with(n, 1e-300, |re, im| {
                            for &(r, c, gg, cc) in pattern.iter() {
                                re[r * n + c] = gg;
                                im[r * n + c] = w * cc;
                            }
                        })?;
                        *lu = ComplexLu::Dense(dense);
                    }
                }
                Ok(())
            }
        }
    }

    /// Batched multi-frequency solve: refactors and solves the
    /// source-driven system at *every* frequency in `freqs` through the
    /// SoA kernel in one pass, recording the transfer to `out`. The sparse
    /// pattern is prepared once and the factor/solution buffers are reused
    /// across all points, so the whole batch allocates only the output
    /// vector. Point-for-point results equal [`AcSolver::solve_sources`].
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures at any frequency point.
    pub fn solve_sources_batch_ws(
        &self,
        freqs: &[f64],
        out: Node,
        ws: &mut AcWorkspace,
    ) -> Result<Vec<Complex>, SimError> {
        let par = self.sweep_parallelism();
        if would_parallelize(par, freqs.len()) {
            return self.solve_sources_batch_par(par, freqs, out);
        }
        self.prepare_workspace(ws);
        let mut h = Vec::with_capacity(freqs.len());
        for &f in freqs {
            self.factor_at_ws(f, ws)?;
            let AcWorkspace { lu, x, .. } = &mut *ws;
            lu.solve_into(&self.rhs, x);
            h.push(self.voltage(x, out));
        }
        Ok(h)
    }

    /// One sweep point through a prepared workspace: factor, solve the
    /// source vector, read the output voltage — the tile body of the
    /// threaded sweep, arithmetically identical to one iteration of the
    /// serial loop in [`AcSolver::solve_sources_batch_ws`].
    fn point_ws(&self, f: f64, out: Node, ws: &mut AcWorkspace) -> Result<Complex, SimError> {
        self.factor_at_ws(f, ws)?;
        let AcWorkspace { lu, x, .. } = ws;
        lu.solve_into(&self.rhs, x);
        Ok(self.voltage(x, out))
    }

    /// Per-lane prologue of every threaded sweep: prepare a pooled
    /// workspace for this solver and replicate the sweep's dense-by-fill
    /// route decision by probing the first frequency — so a lane whose
    /// chunk starts mid-sweep factors through the same kernel the serial
    /// walk would use there. A singular probe is ignored: the lane owning
    /// that tile reports it in order.
    pub(crate) fn prepare_lane(&self, first_freq: f64, ws: &mut AcWorkspace) {
        self.prepare_workspace(ws);
        let _ = self.factor_at_ws(first_freq, ws);
    }

    /// The frequency-tile policy of this solver's sweeps: at stock
    /// extraction dims a factorization is far cheaper than a lane spawn,
    /// so [`Parallelism::Auto`] resolves to serial there; forced modes
    /// pass through.
    pub(crate) fn sweep_parallelism(&self) -> Parallelism {
        match self.cfg.par {
            Parallelism::Auto if self.dim <= STOCK_DIM_MAX => Parallelism::Off,
            p => p,
        }
    }

    /// Threaded frequency sweep: every frequency point factors and solves
    /// into its own result slot through a per-lane pooled workspace.
    /// Bitwise-equal to the serial loop (history-free factorizations; the
    /// route decision is replicated per lane), with the serial error
    /// contract recovered by the in-order scan: the sweep's first failing
    /// frequency is always computed by the lane that owns it.
    fn solve_sources_batch_par(
        &self,
        par: Parallelism,
        freqs: &[f64],
        out: Node,
    ) -> Result<Vec<Complex>, SimError> {
        let mut slots: Vec<Result<Complex, SimError>> =
            freqs.iter().map(|_| Ok(Complex::ZERO)).collect();
        run_chunks(
            par,
            &mut slots,
            ac_ws_pool(),
            AcWorkspace::new,
            |off, chunk, ws| {
                self.prepare_lane(freqs[0], ws);
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = self.point_ws(freqs[off + k], out, ws);
                    if slot.is_err() {
                        // The serial sweep aborts here; every later value is
                        // discarded by the in-order scan below.
                        break;
                    }
                }
            },
        );
        slots.into_iter().collect()
    }

    /// Extracts the voltage of `node` from an MNA solution vector.
    pub fn voltage(&self, x: &[Complex], node: Node) -> Complex {
        match self.ckt.mna_index(node) {
            None => Complex::ZERO,
            Some(i) => x[i],
        }
    }

    /// MNA index of `node` in this solver's system (`None` for ground).
    pub fn mna_index(&self, node: Node) -> Option<usize> {
        self.ckt.mna_index(node)
    }

    /// The `(G, C)` small-signal stamp matrices of this linearization —
    /// the corner-batched settling integration in [`crate::tran`]
    /// assembles per-corner trapezoidal companions straight from them.
    pub(crate) fn stamps(&self) -> (&Matrix<f64>, &Matrix<f64>) {
        (&self.g, &self.c)
    }

    /// Small-signal step response at `out`: integrates
    /// `C x' + G x = b u(t)` (with `b` the AC-source right-hand side and
    /// zero initial state) by the trapezoidal rule. The companion matrix
    /// `A = G + 2C/h` is constant over the record, so it is factored
    /// **once** — on whichever backend the solver's [`SolverConfig`]
    /// selects for this dimension — and every step costs one sparse
    /// companion product plus one back-substitution. The companion
    /// right-hand-side stamps `2C/h - G` are likewise collected once as a
    /// nonzero list: on an extracted mesh the MNA matrices are mostly
    /// zeros, so the old dense `O(n^2)`-per-step accumulation was the
    /// settling path's real bound, not the factorization.
    ///
    /// Returns `(t, y)` with `y` the small-signal deviation of `out`.
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] (dense backend) or
    /// [`SimError::SingularSparse`] (sparse backend) if `2C/h + G` is
    /// singular.
    pub fn step_response(
        &self,
        out: Node,
        t_stop: f64,
        steps: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), SimError> {
        let h = t_stop / steps as f64;
        let n = self.dim;
        // A = G + 2C/h (factored once); per step:
        // A x1 = 2 b + (2C/h - G) x0  =>  rhs = 2 b + (2C/h) x0 - G x0.
        // The companion stamps (r, c, 2C/h - G) are collected row-major so
        // the per-step accumulation visits each row's nonzeros in the same
        // order the dense loop did.
        let mut comp: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let v = 2.0 * self.c[(r, c)] / h - self.g[(r, c)];
                // lint:allow(float-eq) — exact-zero sparsity guard.
                if v != 0.0 {
                    comp.push((r, c, v));
                }
            }
        }
        // Sparse-route the companion when configured, but drop back to
        // the dense kernel if the measured factor fill crosses the
        // config's limit — the 2048 back-substitutions are cheaper dense
        // then, at the cost of one throwaway sparse factorization.
        let mut slu = SparseLu::empty();
        let mut use_sparse = false;
        if self.cfg.use_sparse(n) {
            let mut trip = TripletList::new(n);
            for r in 0..n {
                for c in 0..n {
                    let v = self.g[(r, c)] + 2.0 * self.c[(r, c)] / h;
                    // lint:allow(float-eq) — exact-zero sparsity guard.
                    if v != 0.0 {
                        trip.push(r, c, v);
                    }
                }
            }
            let mut csc = CscMatrix::empty();
            trip.compress_into(&mut csc);
            slu.refactor(&csc, 1e-300)?;
            use_sparse = !self.cfg.dense_by_fill(n, slu.factor_nnz());
        }
        let dense_lu;
        let lu: &dyn LinearSolver<f64> = if use_sparse {
            &slu
        } else {
            let mut a = Matrix::<f64>::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a[(r, c)] = self.g[(r, c)] + 2.0 * self.c[(r, c)] / h;
                }
            }
            dense_lu = crate::linalg::LuFactors::factor(a, 1e-300)?;
            &dense_lu
        };
        let b: Vec<f64> = self.rhs.iter().map(|c| c.re).collect();
        let mut x = vec![0.0; n];
        let oi = self.ckt.mna_index(out);
        let mut t_out = Vec::with_capacity(steps + 1);
        let mut y_out = Vec::with_capacity(steps + 1);
        t_out.push(0.0);
        y_out.push(0.0);
        let mut rhs = vec![0.0; n];
        for s in 1..=steps {
            // rhs = 2 b + (2C/h) x - G x, touching only the stored
            // companion nonzeros.
            for (r, rv) in rhs.iter_mut().enumerate() {
                *rv = 2.0 * b[r];
            }
            for &(r, c, v) in &comp {
                rhs[r] += v * x[c];
            }
            // `rhs` is fully formed, so `x` can be overwritten in place —
            // one allocation for the whole record instead of one per step.
            lu.solve_into(&rhs, &mut x);
            t_out.push(s as f64 * h);
            y_out.push(oi.map_or(0.0, |i| x[i]));
        }
        Ok((t_out, y_out))
    }
}

/// A frequency response: paired frequency grid and complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResponse {
    /// Frequency grid (Hz), strictly increasing.
    pub freqs: Vec<f64>,
    /// Complex response at each grid point.
    pub h: Vec<Complex>,
}

/// Runs an AC sweep and records the transfer to `out` (driven by the
/// netlist's AC sources).
///
/// # Errors
///
/// Propagates solver failures at any frequency point.
///
/// # Examples
///
/// An RC low-pass has its -3 dB point at `1/(2 pi R C)`:
///
/// ```
/// use autockt_sim::netlist::{Circuit, GND};
/// use autockt_sim::dc::{dc_operating_point, DcOptions};
/// use autockt_sim::ac::{ac_sweep, log_freqs};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let i = ckt.node("in");
/// let o = ckt.node("out");
/// ckt.vsource(i, GND, 0.0, 1.0);
/// ckt.resistor(i, o, 1.0e3);
/// ckt.capacitor(o, GND, 1e-9);
/// let op = dc_operating_point(&ckt, &DcOptions::default())?;
/// let resp = ac_sweep(&ckt, &op, &log_freqs(1e3, 1e8, 20), o)?;
/// let f3db = resp.f_3db()?;
/// let expect = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 1e-9);
/// assert!((f3db - expect).abs() / expect < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn ac_sweep(
    ckt: &Circuit,
    op: &OpPoint,
    freqs: &[f64],
    out: Node,
) -> Result<AcResponse, SimError> {
    let solver = AcSolver::new(ckt, op);
    let mut h = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let x = solver.solve_sources(f)?;
        h.push(solver.voltage(&x, out));
    }
    Ok(AcResponse {
        freqs: freqs.to_vec(),
        h,
    })
}

/// [`ac_sweep`] through reusable workspace buffers and an explicit
/// linear-solver backend policy: the whole sweep is one batched pass
/// through [`AcSolver::solve_sources_batch_ws`], which stamps and factors
/// the complex system in place per point (no per-frequency allocation),
/// dense or sparse per `cfg` (identical results within solver tolerance;
/// the dense route is bitwise-equal to [`ac_sweep`]).
///
/// # Errors
///
/// Propagates solver failures at any frequency point.
pub fn ac_sweep_cfg(
    ckt: &Circuit,
    op: &OpPoint,
    freqs: &[f64],
    out: Node,
    cfg: SolverConfig,
    ws: &mut AcWorkspace,
) -> Result<AcResponse, SimError> {
    let solver = AcSolver::new(ckt, op).with_config(cfg);
    let h = solver.solve_sources_batch_ws(freqs, out, ws)?;
    Ok(AcResponse {
        freqs: freqs.to_vec(),
        h,
    })
}

/// Corner-batched AC sweep: runs [`ac_sweep`] over the solvers of a
/// batch of *same-structure* circuits (the PVT corner set of a worst-case
/// evaluation, each linearized at its own operating point), recording
/// each corner's transfer to its own output node, in lockstep. At every
/// frequency the B complex systems `G_b + j w C_b` are stamped into one
/// [`ComplexLuBatch`] and eliminated together — SIMD over the corner
/// axis — then back-substituted against each corner's own source vector.
///
/// Per corner the result is bitwise-equal to [`ac_sweep`] over that
/// corner's circuit and operating point. Failures are per corner: a
/// corner whose system goes singular reports the error of its *first*
/// failing frequency, exactly like the scalar sweep, and is masked off
/// without disturbing its siblings. Mismatched dimensions and
/// single-corner batches run the scalar path.
///
/// # Panics
///
/// Panics if `solvers` and `outs` have different lengths.
pub fn ac_sweep_batch_solvers(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<AcResponse, SimError>> {
    assert_eq!(solvers.len(), outs.len(), "one output node per corner");
    let bt = solvers.len();
    if bt == 0 {
        return Vec::new();
    }
    let par = grid_parallelism(solvers);
    if would_parallelize(par, bt * freqs.len()) {
        return threaded_grid_sweeps(solvers, freqs, outs, par);
    }
    let dim = solvers[0].dim();
    if solvers.iter().any(|s| s.config().use_sparse(s.dim())) {
        // Sparse-routed dims: the lockstep batch kernel is dense-only, so
        // each corner sweeps through its own sparse factor/solve path —
        // which preserves the per-corner equivalence contract trivially
        // (every corner runs exactly the scalar arithmetic).
        return sparse_scalar_sweeps(solvers, freqs, outs, ws);
    }
    if bt == 1 || solvers.iter().any(|s| s.dim() != dim) {
        return scalar_sweeps(solvers, freqs, outs);
    }
    ws.patterns.resize(bt, Vec::new());
    for (pat, s) in ws.patterns.iter_mut().zip(solvers) {
        s.collect_pattern(pat);
    }
    ws.rhs_re.clear();
    ws.rhs_re.resize(dim * bt, 0.0);
    ws.rhs_im.clear();
    ws.rhs_im.resize(dim * bt, 0.0);
    for (b, s) in solvers.iter().enumerate() {
        for (i, v) in s.source_rhs().iter().enumerate() {
            ws.rhs_re[i * bt + b] = v.re;
            ws.rhs_im[i * bt + b] = v.im;
        }
    }
    let oi: Vec<Option<usize>> = solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| s.mna_index(o))
        .collect();
    let mut h: Vec<Vec<Complex>> = vec![Vec::with_capacity(freqs.len()); bt];
    let mut errs: Vec<Option<SimError>> = vec![None; bt];
    for &fq in freqs {
        let w = 2.0 * std::f64::consts::PI * fq;
        let AcBatchWorkspace {
            lu,
            patterns,
            rhs_re,
            rhs_im,
            x_re,
            x_im,
            acc_re,
            acc_im,
            ..
        } = ws;
        lu.refactor_with(dim, bt, 1e-300, |re, im| {
            for (b, pat) in patterns.iter().enumerate() {
                if errs[b].is_some() {
                    // Dead corner: identity keeps the lockstep
                    // elimination trivially nonsingular.
                    for i in 0..dim {
                        re[(i * dim + i) * bt + b] = 1.0;
                    }
                    continue;
                }
                for &(r, c, gg, cc) in pat {
                    re[(r * dim + c) * bt + b] = gg;
                    im[(r * dim + c) * bt + b] = w * cc;
                }
            }
        });
        for (b, e) in errs.iter_mut().enumerate() {
            if e.is_none() {
                if let Some(column) = lu.singular(b) {
                    *e = Some(SimError::SingularMatrix { column });
                }
            }
        }
        lu.solve_batch_into(rhs_re, rhs_im, x_re, x_im, acc_re, acc_im);
        for (b, hb) in h.iter_mut().enumerate() {
            if errs[b].is_none() {
                hb.push(match oi[b] {
                    None => Complex::ZERO,
                    Some(i) => Complex::new(ws.x_re[i * bt + b], ws.x_im[i * bt + b]),
                });
            }
        }
    }
    errs.iter_mut()
        .zip(h)
        .map(|(e, hb)| match e.take() {
            Some(e) => Err(e),
            None => Ok(AcResponse {
                freqs: freqs.to_vec(),
                h: hb,
            }),
        })
        .collect()
}

/// Process-wide pool of per-lane sweep workspaces: threaded sweeps check
/// lanes' workspaces out of one shared pool, so repeated sweeps reuse the
/// same factorization buffers across calls — the threaded analogue of the
/// serial paths' caller-held workspace.
pub(crate) fn ac_ws_pool() -> &'static WorkspacePool<AcWorkspace> {
    static POOL: WorkspacePool<AcWorkspace> = WorkspacePool::new();
    &POOL
}

/// Process-wide pool of per-lane corner-sweep workspaces (the threaded
/// warm corner paths need the full batch scratch per lane).
pub(crate) fn ac_batch_ws_pool() -> &'static WorkspacePool<AcBatchWorkspace> {
    static POOL: WorkspacePool<AcBatchWorkspace> = WorkspacePool::new();
    &POOL
}

/// The (corner × frequency)-grid policy of the cold batch sweep: same
/// dim gate as [`AcSolver::sweep_parallelism`], applied across the corner
/// set (corner sets share one topology-chosen config, so corner 0's knob
/// speaks for all).
pub(crate) fn grid_parallelism(solvers: &[AcSolver<'_>]) -> Parallelism {
    match solvers[0].config().par {
        Parallelism::Auto if solvers.iter().all(|s| s.dim() <= STOCK_DIM_MAX) => Parallelism::Off,
        p => p,
    }
}

/// Threaded cold corner sweep: the (corner × frequency) grid is
/// flattened into tiles (`tile = corner * nf + freq`), each factoring and
/// solving into its own slot through a per-lane pooled workspace; a lane
/// crossing a corner boundary re-prepares its workspace for the new
/// corner. Per corner the arithmetic is exactly the scalar per-point
/// path, which the lockstep batch kernel is bitwise-equal to (tested), so
/// this dispatch preserves [`ac_sweep_batch_solvers`]'s cold bitwise
/// contract. Per-corner first-failing-frequency errors are recovered by
/// the in-order assembly scan.
fn threaded_grid_sweeps(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    par: Parallelism,
) -> Vec<Result<AcResponse, SimError>> {
    let bt = solvers.len();
    let nf = freqs.len();
    let mut slots: Vec<Result<Complex, SimError>> =
        (0..bt * nf).map(|_| Ok(Complex::ZERO)).collect();
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
                if b != cur {
                    solvers[b].prepare_lane(freqs[0], ws);
                    cur = b;
                }
                *slot = solvers[b].point_ws(freqs[i], outs[b], ws);
            }
        },
    );
    (0..bt)
        .map(|b| {
            let mut h = Vec::with_capacity(nf);
            for slot in &slots[b * nf..(b + 1) * nf] {
                match slot {
                    Ok(v) => h.push(*v),
                    // The corner's first failing frequency, like the
                    // serial per-corner abort; later values discarded.
                    Err(e) => return Err(e.clone()),
                }
            }
            Ok(AcResponse {
                freqs: freqs.to_vec(),
                h,
            })
        })
        .collect()
}

/// Scalar reference sweep per corner (mismatched structures and
/// single-corner batches): same per-point factor/solve as [`ac_sweep`],
/// reusing the caller's solvers.
fn scalar_sweeps(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
) -> Vec<Result<AcResponse, SimError>> {
    solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| {
            let mut h = Vec::with_capacity(freqs.len());
            for &f in freqs {
                let x = s.solve_sources(f)?;
                h.push(s.voltage(&x, o));
            }
            Ok(AcResponse {
                freqs: freqs.to_vec(),
                h,
            })
        })
        .collect()
}

/// Per-corner sweep through the batch workspace's scalar buffers with
/// each solver's own backend dispatch — the corner-path route for
/// sparse-routed dimensions, where neither the lockstep batch kernel nor
/// the dense Woodbury correction applies. Identical per corner to
/// [`AcSolver::solve_sources_batch_ws`] on a fresh workspace.
fn sparse_scalar_sweeps(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<AcResponse, SimError>> {
    // Corner sets share their stamp *pattern* (same netlist structure),
    // and every corner here sweeps through the one `ws.scalar` sparse
    // solver — so `SparseLu::refactor`'s same-pattern check reuses the
    // symbolic analysis + AMD ordering across the whole corner set, and
    // only corner 0 pays the full analysis. Same-pattern refactors are
    // bitwise-equal to fresh factorizations (property-tested), which is
    // what keeps this path on the cold bitwise contract.
    solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| {
            let h = s.solve_sources_batch_ws(freqs, o, &mut ws.scalar)?;
            Ok(AcResponse {
                freqs: freqs.to_vec(),
                h,
            })
        })
        .collect()
}

/// Corner-correction AC sweep for sparse-routed dimensions — the warm
/// batched corner engine's fast path above the crossover. The base
/// corner's system is factored **sparsely** once per frequency (symbolic
/// analysis + AMD ordering shared across the sweep via the workspace's
/// refactor fast path) and every sibling is recovered through the same
/// Woodbury correction as the dense [`ac_sweep_corners`] — the
/// correction basis and small systems are dense but only `|R| x n`, so
/// the sparse factor's fill advantage is kept where it matters. Falls
/// back to [`sparse_scalar_sweeps`] on structural mismatch, unprofitable
/// support, or mismatched sources, and to a direct per-corner sparse
/// solve at any frequency where the base factor or a correction system
/// is singular.
fn sparse_corner_sweeps(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<AcResponse, SimError>> {
    let bt = solvers.len();
    let n = solvers[0].dim();
    if bt == 1 || solvers.iter().any(|s| s.dim() != n) {
        return sparse_scalar_sweeps(solvers, freqs, outs, ws);
    }
    let rhs0 = solvers[0].source_rhs();
    if solvers.iter().any(|s| s.source_rhs() != rhs0) {
        return sparse_scalar_sweeps(solvers, freqs, outs, ws);
    }
    ws.patterns.resize(bt, Vec::new());
    for (pat, s) in ws.patterns.iter_mut().zip(solvers) {
        s.collect_pattern(pat);
    }
    let cd = CornerDiff::from_patterns(&ws.patterns, n);
    if !cd.profitable(n) {
        return sparse_scalar_sweeps(solvers, freqs, outs, ws);
    }
    let rn = cd.support();

    let oi: Vec<Option<usize>> = solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| s.mna_index(o))
        .collect();
    // As in the dense corner sweep, every frequency's corner row is an
    // independent tile; the sparse base factorization is history-free
    // (same-pattern refactors are bitwise-equal to fresh ones), so the
    // threaded schedule runs the exact arithmetic of the serial loop.
    let mut rows = corner_rows(bt, freqs.len());
    let par = grid_parallelism(solvers);
    if would_parallelize(par, freqs.len()) {
        run_chunks(
            par,
            &mut rows,
            ac_batch_ws_pool(),
            AcBatchWorkspace::new,
            |off, chunk, lane| {
                solvers[0].prepare_lane(freqs[0], &mut lane.scalar);
                let mut u = vec![Complex::ZERO; rn];
                let mut z = Vec::new();
                let mut spare = AcWorkspace::new();
                for (k, row) in chunk.iter_mut().enumerate() {
                    sparse_corner_row(
                        solvers,
                        &cd,
                        rn,
                        &oi,
                        freqs[off + k],
                        lane,
                        &mut spare,
                        &mut u,
                        &mut z,
                        row,
                    );
                }
            },
        );
    } else {
        let mut u = vec![Complex::ZERO; rn];
        let mut z = Vec::new();
        // Rare-path scratch: per-corner direct solves on base/correction
        // singularities re-prepare this workspace for whichever corner
        // needs it.
        let mut spare = AcWorkspace::new();
        solvers[0].prepare_workspace(&mut ws.scalar);
        for (i, row) in rows.iter_mut().enumerate() {
            sparse_corner_row(
                solvers, &cd, rn, &oi, freqs[i], ws, &mut spare, &mut u, &mut z, row,
            );
        }
    }
    assemble_corner_rows(&rows, freqs, bt)
}

/// One frequency tile of the sparse warm corner sweep: sparse base factor
/// through the workspace's scalar solver (symbolic analysis reused across
/// the lane's whole chunk), dense correction basis, per-corner Woodbury
/// corrections — the sparse sibling of [`dense_corner_row`].
#[allow(clippy::too_many_arguments)]
fn sparse_corner_row(
    solvers: &[AcSolver<'_>],
    cd: &CornerDiff,
    rn: usize,
    oi: &[Option<usize>],
    fq: f64,
    ws: &mut AcBatchWorkspace,
    spare: &mut AcWorkspace,
    u: &mut Vec<Complex>,
    z: &mut Vec<Complex>,
    row: &mut [Result<Complex, SimError>],
) {
    let n = solvers[0].dim();
    let rhs0 = solvers[0].source_rhs();
    let w_ang = 2.0 * std::f64::consts::PI * fq;
    let base_ok = solvers[0].factor_at_ws(fq, &mut ws.scalar).is_ok();
    if !base_ok {
        for (b, slot) in row.iter_mut().enumerate() {
            *slot = direct_sparse_corner_point(&solvers[b], fq, spare, oi[b]);
        }
        return;
    }
    {
        let AcBatchWorkspace {
            scalar,
            y0,
            unit,
            xcol,
            wflat,
            ..
        } = &mut *ws;
        let base: &dyn LinearSolver<Complex> = match &scalar.lu {
            ComplexLu::Dense(lu) => lu,
            ComplexLu::Sparse(slu) => slu,
        };
        base.solve_into(rhs0, y0);
        solve_correction_basis(base, &cd.rows, n, unit, xcol, wflat);
    }
    for (b, slot) in row.iter_mut().enumerate() {
        let base_v = oi[b].map_or(Complex::ZERO, |i| ws.y0[i]);
        let diff = &cd.diffs[b];
        if diff.is_empty() {
            *slot = Ok(base_v);
            continue;
        }
        let ok = factor_correction(
            &mut ws.small,
            diff,
            &cd.row_pos,
            rn,
            n,
            |dg, dc| Complex::new(dg, w_ang * dc),
            &ws.wflat,
        )
        .is_ok();
        *slot = if ok {
            Ok(corrected_entry(
                &ws.small,
                diff,
                &cd.row_pos,
                &ws.wflat,
                &ws.y0,
                oi[b],
                |dg, dc| Complex::new(dg, w_ang * dc),
                n,
                rn,
                u,
                z,
            ))
        } else {
            direct_sparse_corner_point(&solvers[b], fq, spare, oi[b])
        };
    }
}

/// Factors corner `b`'s full system at one frequency through its own
/// backend dispatch into `spare` and solves its source vector — the
/// per-point fallback of [`sparse_corner_sweeps`].
fn direct_sparse_corner_point(
    s: &AcSolver<'_>,
    fq: f64,
    spare: &mut AcWorkspace,
    oi: Option<usize>,
) -> Result<Complex, SimError> {
    s.prepare_workspace(spare);
    s.factor_at_ws(fq, spare)?;
    let AcWorkspace { lu, x, .. } = spare;
    lu.solve_into(s.source_rhs(), x);
    Ok(oi.map_or(Complex::ZERO, |i| x[i]))
}

/// Allocation-free scalar sweep per corner through the batch workspace's
/// SoA buffers — what [`ac_sweep_corners`] falls back to when the
/// correction cannot pay. Bitwise-equal to [`scalar_sweeps`] (the SoA and
/// generic kernels agree exactly) but matches the warm serial path's
/// per-point cost instead of allocating per frequency.
fn scalar_sweeps_ws(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<AcResponse, SimError>> {
    solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| {
            let n = s.dim();
            s.collect_pattern(&mut ws.patterns[0]);
            let mut h = Vec::with_capacity(freqs.len());
            for &f in freqs {
                let w = 2.0 * std::f64::consts::PI * f;
                let AcBatchWorkspace { base, patterns, .. } = &mut *ws;
                base.refactor_with(n, 1e-300, |re, im| {
                    for &(r, c, gg, cc) in &patterns[0] {
                        re[r * n + c] = gg;
                        im[r * n + c] = w * cc;
                    }
                })?;
                ws.base.solve_into(s.source_rhs(), &mut ws.xcol);
                h.push(s.voltage(&ws.xcol, o));
            }
            Ok(AcResponse {
                freqs: freqs.to_vec(),
                h,
            })
        })
        .collect()
}

/// Dimension boundary between "stock" and "dense" extraction regimes for
/// the corner paths. At or below it the Woodbury correction cannot pay
/// (the difference support spans most of the system) and the lockstep
/// batch kernels still fit their per-corner working set in cache; above
/// it the correction wins and the batch-innermost layout starts to
/// thrash.
pub(crate) const STOCK_DIM_MAX: usize = 16;

/// Corner-correction AC sweep: the fast path of the *warm* batched corner
/// engine. The B corner systems of a worst-case evaluation differ only in
/// their device stamps — the parasitic mesh, passives, sources, and gmin
/// regularization are identical across PVT corners — so instead of B full
/// factorizations per frequency this factors the **base corner once** and
/// recovers every sibling's output voltage through the Woodbury identity:
///
/// `A_b = A0 + P_R N_b  =>  x_b = y0 - W (I + N_b W)^{-1} N_b y0`
///
/// where `R` is the set of rows any corner's stamps differ on (device
/// terminal rows — a handful, independent of mesh depth), `W = A0^{-1}
/// P_R` costs `|R|` extra back-substitutions shared by all corners, and
/// the per-corner work collapses to an `|R| x |R|` solve plus one dot
/// product (only the output node's voltage is needed). Per frequency that
/// is ~`1 + |R|/n` factorization-equivalents instead of `B`, which is
/// where the batched engine's dense-mesh speedup comes from.
///
/// The correction is algebraically exact; in floating point it agrees
/// with the direct per-corner factorization to roundoff amplified by the
/// base system's conditioning — far inside the warm evaluation path's
/// solver-tolerance contract, which is why the *cold* (bitwise) path uses
/// [`ac_sweep_batch_solvers`] instead. Falls back to the lockstep batch
/// when the difference support is too wide to pay (`3|R| >= n`), to the
/// scalar sweep on structural mismatch, and to direct per-corner
/// factorization at any frequency where the base factor or a correction
/// system is singular.
pub fn ac_sweep_corners(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<AcResponse, SimError>> {
    assert_eq!(solvers.len(), outs.len(), "one output node per corner");
    let bt = solvers.len();
    if bt == 0 {
        return Vec::new();
    }
    let n = solvers[0].dim();
    if solvers.iter().any(|s| s.config().use_sparse(s.dim())) {
        // Sparse-routed dims get their own corrected sweep: sparse base
        // factor per frequency (symbolic analysis shared across the
        // sweep), dense low-rank correction per sibling.
        return sparse_corner_sweeps(solvers, freqs, outs, ws);
    }
    if bt == 1 || solvers.iter().any(|s| s.dim() != n) {
        return scalar_sweeps(solvers, freqs, outs);
    }
    ws.patterns.resize(bt.max(1), Vec::new());
    if n <= STOCK_DIM_MAX {
        // At stock extraction dims the difference support spans most of
        // the system (every node touches a device), so the correction
        // cannot pay — skip its setup and sweep each corner through the
        // scalar kernel (bitwise-equal, and free of lockstep overhead).
        return scalar_sweeps_ws(solvers, freqs, outs, ws);
    }
    let rhs0 = solvers[0].source_rhs();
    if solvers.iter().any(|s| s.source_rhs() != rhs0) {
        // One shared base solve needs one shared source vector; corner
        // sets always satisfy this (same netlist structure), so this is
        // a safety valve, not a hot path.
        return scalar_sweeps_ws(solvers, freqs, outs, ws);
    }

    // Dense base images of G and C, plus per-corner stamp differences.
    ws.patterns.resize(bt, Vec::new());
    for (pat, s) in ws.patterns.iter_mut().zip(solvers) {
        s.collect_pattern(pat);
    }
    let cd = CornerDiff::from_patterns(&ws.patterns, n);
    if !cd.profitable(n) {
        // Correction support too wide relative to the system to pay.
        return scalar_sweeps_ws(solvers, freqs, outs, ws);
    }
    let rn = cd.support();

    let oi: Vec<Option<usize>> = solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| s.mna_index(o))
        .collect();
    // Every frequency's full corner row is an independent tile: the base
    // factor, correction basis, and per-corner corrections at one `fq`
    // read nothing a sibling frequency wrote, so the serial walk and the
    // threaded schedule run the exact same row body.
    let patterns = std::mem::take(&mut ws.patterns);
    let mut rows = corner_rows(bt, freqs.len());
    let par = grid_parallelism(solvers);
    if would_parallelize(par, freqs.len()) {
        run_chunks(
            par,
            &mut rows,
            ac_batch_ws_pool(),
            AcBatchWorkspace::new,
            |off, chunk, lane| {
                let mut u = vec![Complex::ZERO; rn];
                let mut z = Vec::new();
                for (k, row) in chunk.iter_mut().enumerate() {
                    dense_corner_row(
                        &patterns[..bt],
                        &cd,
                        rn,
                        n,
                        rhs0,
                        &oi,
                        freqs[off + k],
                        lane,
                        &mut u,
                        &mut z,
                        row,
                    );
                }
            },
        );
    } else {
        let mut u = vec![Complex::ZERO; rn];
        let mut z = Vec::new();
        for (i, row) in rows.iter_mut().enumerate() {
            dense_corner_row(
                &patterns[..bt],
                &cd,
                rn,
                n,
                rhs0,
                &oi,
                freqs[i],
                ws,
                &mut u,
                &mut z,
                row,
            );
        }
    }
    ws.patterns = patterns;
    assemble_corner_rows(&rows, freqs, bt)
}

/// Preallocated (frequency × corner) result grid of the corner sweeps:
/// one row per frequency tile, one slot per corner.
fn corner_rows(bt: usize, nf: usize) -> Vec<Vec<Result<Complex, SimError>>> {
    (0..nf)
        .map(|_| (0..bt).map(|_| Ok(Complex::ZERO)).collect())
        .collect()
}

/// Per-corner assembly of a corner sweep's row grid: frequencies in
/// order up to the corner's first failing point, exactly the serial
/// per-corner abort contract (values computed past a corner's first
/// error are discarded).
fn assemble_corner_rows(
    rows: &[Vec<Result<Complex, SimError>>],
    freqs: &[f64],
    bt: usize,
) -> Vec<Result<AcResponse, SimError>> {
    (0..bt)
        .map(|b| {
            let mut h = Vec::with_capacity(freqs.len());
            for row in rows {
                match &row[b] {
                    Ok(v) => h.push(*v),
                    Err(e) => return Err(e.clone()),
                }
            }
            Ok(AcResponse {
                freqs: freqs.to_vec(),
                h,
            })
        })
        .collect()
}

/// One frequency tile of the dense warm corner sweep: base factor +
/// shared correction basis + per-corner Woodbury corrections, writing
/// every corner's value (or error) into `row`. Identical arithmetic
/// whether called from the serial loop (caller workspace) or a threaded
/// lane (pooled workspace): the dense refactor is a full restamp, so the
/// workspace carries no cross-frequency history.
#[allow(clippy::too_many_arguments)]
fn dense_corner_row(
    patterns: &[Vec<(usize, usize, f64, f64)>],
    cd: &CornerDiff,
    rn: usize,
    n: usize,
    rhs0: &[Complex],
    oi: &[Option<usize>],
    fq: f64,
    ws: &mut AcBatchWorkspace,
    u: &mut Vec<Complex>,
    z: &mut Vec<Complex>,
    row: &mut [Result<Complex, SimError>],
) {
    let w_ang = 2.0 * std::f64::consts::PI * fq;
    let base_ok = ws
        .base
        .refactor_with(n, 1e-300, |re, im| {
            for &(r, c, g, cc) in &patterns[0] {
                re[r * n + c] = g;
                im[r * n + c] = w_ang * cc;
            }
        })
        .is_ok();
    if !base_ok {
        // Base corner singular at this point: factor every corner
        // directly instead.
        for (b, slot) in row.iter_mut().enumerate() {
            *slot = direct_corner_point(
                &mut ws.spare,
                &mut ws.xcol,
                &patterns[b],
                n,
                w_ang,
                rhs0,
                oi[b],
            );
        }
        return;
    }
    ws.base.solve_into(rhs0, &mut ws.y0);
    // W = A0^{-1} P_R : one extra back-substitution per support row,
    // shared by every corner at this frequency.
    {
        let AcBatchWorkspace {
            base,
            unit,
            xcol,
            wflat,
            ..
        } = &mut *ws;
        solve_correction_basis(&*base, &cd.rows, n, unit, xcol, wflat);
    }
    for (b, slot) in row.iter_mut().enumerate() {
        let base_v = oi[b].map_or(Complex::ZERO, |i| ws.y0[i]);
        let diff = &cd.diffs[b];
        if diff.is_empty() {
            *slot = Ok(base_v);
            continue;
        }
        // S = I + N_b W and u = N_b y0, accumulated straight from
        // the sparse stamp differences — into the reused small-LU
        // buffer, so the per-(corner, frequency) correction
        // allocates nothing.
        let ok = factor_correction(
            &mut ws.small,
            diff,
            &cd.row_pos,
            rn,
            n,
            |dg, dc| Complex::new(dg, w_ang * dc),
            &ws.wflat,
        )
        .is_ok();
        *slot = if ok {
            Ok(corrected_entry(
                &ws.small,
                diff,
                &cd.row_pos,
                &ws.wflat,
                &ws.y0,
                oi[b],
                |dg, dc| Complex::new(dg, w_ang * dc),
                n,
                rn,
                u,
                z,
            ))
        } else {
            // Correction system singular (a corner shifted the
            // base too hard): solve this corner directly.
            direct_corner_point(
                &mut ws.spare,
                &mut ws.xcol,
                &patterns[b],
                n,
                w_ang,
                rhs0,
                oi[b],
            )
        };
    }
}

/// Factors corner `b`'s full system at one frequency into the spare
/// buffer and solves the shared source vector — the per-point fallback of
/// [`ac_sweep_corners`].
fn direct_corner_point(
    spare: &mut ComplexLuSoa,
    xcol: &mut Vec<Complex>,
    pat: &[(usize, usize, f64, f64)],
    n: usize,
    w_ang: f64,
    rhs: &[Complex],
    oi: Option<usize>,
) -> Result<Complex, SimError> {
    spare.refactor_with(n, 1e-300, |re, im| {
        for &(r, c, g, cc) in pat {
            re[r * n + c] = g;
            im[r * n + c] = w_ang * cc;
        }
    })?;
    spare.solve_into(rhs, xcol);
    Ok(oi.map_or(Complex::ZERO, |i| xcol[i]))
}

/// Builds a logarithmically spaced frequency grid from `fstart` to `fstop`
/// with `points_per_decade` points per decade (endpoints included).
///
/// # Panics
///
/// Panics unless `0 < fstart < fstop` and `points_per_decade >= 1`.
pub fn log_freqs(fstart: f64, fstop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(fstart > 0.0 && fstop > fstart && points_per_decade >= 1);
    let decades = (fstop / fstart).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..=n)
        .map(|i| fstart * 10f64.powf(decades * i as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::device::{MosPolarity, Technology};
    use crate::netlist::{Mosfet, GND};

    #[test]
    fn rc_lowpass_magnitude_and_phase() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let resp = ac_sweep(&ckt, &op, &[fc], o).unwrap();
        // At the corner: magnitude 1/sqrt(2), phase -45 degrees.
        assert!((resp.h[0].norm() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((resp.h[0].arg().to_degrees() + 45.0).abs() < 0.1);
    }

    #[test]
    fn log_freqs_monotone_and_bounded() {
        let f = log_freqs(1e2, 1e6, 10);
        assert!((f[0] - 1e2).abs() / 1e2 < 1e-12);
        assert!((f.last().unwrap() - 1e6).abs() / 1e6 < 1e-9);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn common_source_gain_matches_gm_ro() {
        // NMOS common-source with ideal current-source-like load resistor:
        // |A| = gm * (ro || RL) at low frequency.
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource(g, GND, 0.55, 1.0);
        ckt.resistor_noiseless(vdd, o, 20.0e3);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: o,
            g,
            s: GND,
            w: 2e-6,
            l: 90e-9,
            mult: 1.0,
            model: t.nmos,
        });
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let m = &op.mosfets()[0];
        let expect = m.gm * (1.0 / (m.gds + 1.0 / 20.0e3));
        let resp = ac_sweep(&ckt, &op, &[1.0e3], o).unwrap();
        let got = resp.h[0].norm();
        assert!(
            (got - expect).abs() / expect < 1e-3,
            "gain {got} vs gm*rout {expect}"
        );
        // Inverting stage: phase near 180 degrees.
        assert!((resp.h[0].arg().to_degrees().abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn linear_step_response_matches_rc_analytic() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let solver = AcSolver::new(&ckt, &op);
        let (t, y) = solver.step_response(o, 5e-6, 2000).unwrap();
        for (ti, yi) in t.iter().zip(&y).skip(10) {
            let expect = 1.0 - (-ti / 1e-6).exp();
            assert!((yi - expect).abs() < 5e-3, "at t={ti}: {yi} vs {expect}");
        }
    }

    #[test]
    fn batched_sweep_matches_scalar_bitwise() {
        // Three same-structure RC variants (the corner-set shape): the
        // lockstep sweep must reproduce each scalar sweep bit for bit.
        let build = |r: f64, c: f64| {
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            let o = ckt.node("out");
            ckt.vsource(i, GND, 0.0, 1.0);
            ckt.resistor(i, o, r);
            ckt.capacitor(o, GND, c);
            (ckt, o)
        };
        let variants = [
            build(1.0e3, 1e-9),
            build(1.3e3, 0.8e-9),
            build(0.7e3, 1.4e-9),
        ];
        let ops: Vec<OpPoint> = variants
            .iter()
            .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).unwrap())
            .collect();
        let solvers: Vec<AcSolver<'_>> = variants
            .iter()
            .zip(&ops)
            .map(|((ckt, _), op)| AcSolver::new(ckt, op))
            .collect();
        let out = variants[0].1;
        let outs = vec![out; solvers.len()];
        let freqs = log_freqs(1e3, 1e8, 5);
        let mut ws = AcBatchWorkspace::new();
        let batch = ac_sweep_batch_solvers(&solvers, &freqs, &outs, &mut ws);
        for ((ckt, _), (op, res)) in variants.iter().zip(ops.iter().zip(&batch)) {
            let scalar = ac_sweep(ckt, op, &freqs, out).unwrap();
            assert_eq!(res.as_ref().unwrap(), &scalar);
        }
        // Workspace reuse across a second batch stays bitwise too.
        let again = ac_sweep_batch_solvers(&solvers, &freqs, &outs, &mut ws);
        assert_eq!(batch, again);
    }

    #[test]
    fn corner_correction_sweep_matches_direct_factorization() {
        // Corner variants that differ only in a "device" conductance at
        // one node — the worst-case-PVT shape: shared mesh, tiny stamp
        // difference. The Woodbury sweep must agree with the direct
        // per-corner factorization to roundoff.
        let build = |g_dev: f64| {
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            ckt.vsource(i, GND, 0.0, 1.0);
            // A 20-segment RC mesh (shared by all corners) between the
            // source and the corner-dependent element, so the system is
            // dense enough for the correction to engage (dim > 16).
            let mut prev = i;
            for s in 0..20 {
                let nn = ckt.node(&format!("m{s}"));
                ckt.resistor(prev, nn, 1.0e3);
                ckt.capacitor(nn, GND, 2e-12);
                prev = nn;
            }
            let o = ckt.node("out");
            ckt.resistor(prev, o, 1.0 / g_dev); // the corner-dependent part
            ckt.capacitor(o, GND, 1e-9);
            (ckt, o)
        };
        let variants = [build(1e-3), build(1.12e-3), build(0.88e-3), build(1e-3)];
        let ops: Vec<OpPoint> = variants
            .iter()
            .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).unwrap())
            .collect();
        let solvers: Vec<AcSolver<'_>> = variants
            .iter()
            .zip(&ops)
            .map(|((ckt, _), op)| AcSolver::new(ckt, op))
            .collect();
        let outs = vec![variants[0].1; variants.len()];
        let freqs = log_freqs(1e3, 1e8, 6);
        let mut ws = AcBatchWorkspace::new();
        let corr = ac_sweep_corners(&solvers, &freqs, &outs, &mut ws);
        for ((ckt, out), (op, res)) in variants.iter().zip(ops.iter().zip(&corr)) {
            let direct = ac_sweep(ckt, op, &freqs, *out).unwrap();
            let got = res.as_ref().unwrap();
            for (a, b) in got.h.iter().zip(&direct.h) {
                assert!(
                    (*a - *b).norm() <= 1e-9 * (1.0 + b.norm()),
                    "correction diverged: {a} vs {b}"
                );
            }
        }
        // Corner 3 is identical to the base: the correction must be a
        // no-op, bit for bit.
        assert_eq!(corr[3].as_ref().unwrap().h, corr[0].as_ref().unwrap().h);
    }

    #[test]
    fn forced_sparse_sweep_matches_dense_within_tolerance() {
        // A 30-segment RC ladder (dim ~32): forced-sparse AC solves must
        // agree with the dense reference to solver tolerance at every
        // frequency, and the forced-dense config must stay bitwise on the
        // default path.
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        ckt.vsource(i, GND, 0.0, 1.0);
        let mut prev = i;
        for s in 0..30 {
            let nn = ckt.node(&format!("m{s}"));
            ckt.resistor(prev, nn, 1.0e3);
            ckt.capacitor(nn, GND, 1e-12);
            prev = nn;
        }
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let freqs = log_freqs(1e3, 1e9, 4);
        let dense = ac_sweep(&ckt, &op, &freqs, prev).unwrap();
        let mut ws = AcWorkspace::new();
        let sparse = ac_sweep_cfg(
            &ckt,
            &op,
            &freqs,
            prev,
            crate::linalg::sparse::SolverConfig::sparse(),
            &mut ws,
        )
        .unwrap();
        for (a, b) in sparse.h.iter().zip(&dense.h) {
            assert!(
                (*a - *b).norm() <= 1e-9 * (1.0 + b.norm()),
                "sparse diverged: {a} vs {b}"
            );
        }
        // Workspace reuse flips cleanly back to the dense backend.
        let again = ac_sweep_cfg(
            &ckt,
            &op,
            &freqs,
            prev,
            crate::linalg::sparse::SolverConfig::dense(),
            &mut ws,
        )
        .unwrap();
        assert_eq!(again, dense);
    }

    #[test]
    fn forced_sparse_step_response_matches_dense() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let dense = AcSolver::new(&ckt, &op);
        let sparse =
            AcSolver::new(&ckt, &op).with_config(crate::linalg::sparse::SolverConfig::sparse());
        let (_, yd) = dense.step_response(o, 5e-6, 500).unwrap();
        let (_, ys) = sparse.step_response(o, 5e-6, 500).unwrap();
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_routed_corner_sweep_matches_dense_corner_sweep() {
        // Forced-sparse corner solvers must route around the lockstep and
        // Woodbury machinery and still agree with the dense batch result.
        let build = |r: f64, c: f64| {
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            let o = ckt.node("out");
            ckt.vsource(i, GND, 0.0, 1.0);
            ckt.resistor(i, o, r);
            ckt.capacitor(o, GND, c);
            (ckt, o)
        };
        let variants = [
            build(1.0e3, 1e-9),
            build(1.3e3, 0.8e-9),
            build(0.7e3, 1.4e-9),
        ];
        let ops: Vec<OpPoint> = variants
            .iter()
            .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).unwrap())
            .collect();
        let freqs = log_freqs(1e3, 1e8, 5);
        let outs = vec![variants[0].1; variants.len()];
        let dense_solvers: Vec<AcSolver<'_>> = variants
            .iter()
            .zip(&ops)
            .map(|((ckt, _), op)| AcSolver::new(ckt, op))
            .collect();
        let sparse_solvers: Vec<AcSolver<'_>> = variants
            .iter()
            .zip(&ops)
            .map(|((ckt, _), op)| {
                AcSolver::new(ckt, op).with_config(crate::linalg::sparse::SolverConfig::sparse())
            })
            .collect();
        let mut ws = AcBatchWorkspace::new();
        let dense = ac_sweep_batch_solvers(&dense_solvers, &freqs, &outs, &mut ws);
        let sparse = ac_sweep_batch_solvers(&sparse_solvers, &freqs, &outs, &mut ws);
        for (d, s) in dense.iter().zip(&sparse) {
            let (d, s) = (d.as_ref().unwrap(), s.as_ref().unwrap());
            for (a, b) in s.h.iter().zip(&d.h) {
                assert!(
                    (*a - *b).norm() <= 1e-9 * (1.0 + b.norm()),
                    "sparse corner diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn current_source_drive_transimpedance() {
        // 1 A AC into a resistor reads R volts.
        let mut ckt = Circuit::new();
        let o = ckt.node("o");
        ckt.isource(GND, o, 0.0, 1.0);
        ckt.resistor(o, GND, 123.0);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let resp = ac_sweep(&ckt, &op, &[1e3], o).unwrap();
        assert!((resp.h[0].norm() - 123.0).abs() < 1e-6);
    }
}
