//! DC operating-point analysis: damped Newton–Raphson over the nonlinear
//! MNA system, with a gmin-stepping homotopy fallback for hard circuits.
//!
//! The unknown vector is `[v(1), ..., v(N-1), i(V1), ..., i(Vk)]` — node
//! voltages excluding ground followed by voltage-source branch currents.

use crate::device::{MosPolarity, MosRegion};
use crate::error::SimError;
use crate::linalg::sparse::{CscMatrix, SolverConfig, SparseLu, StampSink, TripletList};
use crate::linalg::{LuFactors, Matrix, RealLuBatch};
use crate::netlist::{Circuit, Element, Mosfet, Node};

/// Reusable buffers for repeated DC solves of same-dimension circuits:
/// the Newton Jacobian, residual, right-hand side, update vector, and LU
/// factors. One workspace serves any sequence of solves (buffers are
/// resized on dimension change), so an evaluation session allocates the
/// matrices once per environment instead of once per Newton iteration.
#[derive(Debug, Clone)]
pub struct DcWorkspace {
    j: Matrix<f64>,
    f: Vec<f64>,
    rhs: Vec<f64>,
    dx: Vec<f64>,
    lu: LuFactors<f64>,
    /// Sparse-backend buffers: triplet assembly, compressed matrix, and
    /// the sparse factorization whose symbolic analysis — structural
    /// preflight and ordering — persists across Newton iterations (the
    /// stamp pattern is constant per circuit).
    trip: TripletList<f64>,
    csc: CscMatrix<f64>,
    slu: SparseLu<f64>,
}

impl DcWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        DcWorkspace {
            j: Matrix::zeros(0, 0),
            f: Vec::new(),
            rhs: Vec::new(),
            dx: Vec::new(),
            lu: LuFactors::empty(),
            trip: TripletList::new(0),
            csc: CscMatrix::empty(),
            slu: SparseLu::empty(),
        }
    }
}

impl Default for DcWorkspace {
    fn default() -> Self {
        DcWorkspace::new()
    }
}

/// Reusable buffers for corner-batched DC solves
/// ([`dc_operating_point_batch`]): the lockstep batch LU, the per-corner
/// assembly scratch, batch-layout right-hand-side/update buffers, and a
/// scalar workspace for the per-corner homotopy fallback.
#[derive(Debug, Clone)]
pub struct DcBatchWorkspace {
    lu: RealLuBatch,
    j: Matrix<f64>,
    f: Vec<f64>,
    rhs: Vec<f64>,
    dx: Vec<f64>,
    acc: Vec<f64>,
    scalar: DcWorkspace,
}

impl DcBatchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        DcBatchWorkspace {
            lu: RealLuBatch::empty(),
            j: Matrix::zeros(0, 0),
            f: Vec::new(),
            rhs: Vec::new(),
            dx: Vec::new(),
            acc: Vec::new(),
            scalar: DcWorkspace::new(),
        }
    }
}

impl Default for DcBatchWorkspace {
    fn default() -> Self {
        DcBatchWorkspace::new()
    }
}

/// Warm-start state threaded through consecutive DC solves by an
/// evaluation session: the previous MNA solution per *slot* (one slot per
/// circuit variant — e.g. one per PVT corner — since their solution
/// vectors are not interchangeable) plus a shared [`DcWorkspace`].
///
/// RL actions move each parameter at most one grid notch, so the previous
/// operating point is an excellent Newton initial guess for the next one;
/// [`WarmState::solve`] falls back to the cold start + gmin homotopy of
/// [`dc_operating_point`] whenever the warm guess does not converge.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    slots: Vec<Option<Vec<f64>>>,
    ws: DcWorkspace,
    ac: crate::ac::AcWorkspace,
    batch: DcBatchWorkspace,
    ac_batch: crate::ac::AcBatchWorkspace,
}

impl WarmState {
    /// Creates an empty warm state.
    pub fn new() -> Self {
        WarmState::default()
    }

    /// Solves the operating point of `ckt`, seeding Newton with the last
    /// solution stored in `slot` (if any) and storing the new solution
    /// back on success. On failure the slot is cleared so the next solve
    /// starts cold.
    ///
    /// # Errors
    ///
    /// Same contract as [`dc_operating_point`].
    pub fn solve(
        &mut self,
        slot: usize,
        ckt: &Circuit,
        opts: &DcOptions,
    ) -> Result<OpPoint, SimError> {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        let warm = self.slots[slot].take();
        let res = dc_operating_point_warm(ckt, opts, warm.as_deref(), &mut self.ws);
        if let Ok(op) = &res {
            self.slots[slot] = Some(op.mna_vector());
        }
        res
    }

    /// Batched analogue of [`WarmState::solve`]: solves the operating
    /// points of `ckts` in lockstep through [`dc_operating_point_batch`],
    /// one slot per circuit starting at `base_slot`. Each corner's Newton
    /// is seeded from its own slot; solutions are stored back on success
    /// and failed corners' slots are cleared, exactly like the scalar
    /// path, so per-corner results match [`WarmState::solve`] bitwise.
    pub fn solve_batch(
        &mut self,
        base_slot: usize,
        ckts: &[&Circuit],
        opts: &DcOptions,
    ) -> Vec<Result<OpPoint, SimError>> {
        let end = base_slot + ckts.len();
        if self.slots.len() < end {
            self.slots.resize(end, None);
        }
        let taken: Vec<Option<Vec<f64>>> = self.slots[base_slot..end]
            .iter_mut()
            .map(Option::take)
            .collect();
        let warm: Vec<Option<&[f64]>> = taken.iter().map(|o| o.as_deref()).collect();
        let res = dc_operating_point_batch(ckts, opts, &warm, &mut self.batch);
        for (slot, r) in self.slots[base_slot..end].iter_mut().zip(&res) {
            if let Ok(op) = r {
                *slot = Some(op.mna_vector());
            }
        }
        res
    }

    /// Drops all stored solutions (e.g. on episode reset) while keeping
    /// the workspace allocations.
    pub fn reset(&mut self) {
        self.slots.clear();
    }

    /// Whether any slot currently holds a previous solution.
    pub fn is_warm(&self) -> bool {
        self.slots.iter().any(Option::is_some)
    }

    /// Snapshot of the per-slot solutions, for save/restore by a memoizing
    /// evaluation session: restoring the snapshot taken right after a grid
    /// point was solved keeps warm guesses adjacent even when intervening
    /// evaluations were served from a cache.
    pub fn snapshot(&self) -> Vec<Option<Vec<f64>>> {
        self.slots.clone()
    }

    /// Restores a snapshot taken by [`WarmState::snapshot`], reusing the
    /// existing slot allocations (this runs on every memo-cache hit).
    pub fn restore(&mut self, snapshot: &[Option<Vec<f64>>]) {
        self.slots.resize(snapshot.len(), None);
        for (dst, src) in self.slots.iter_mut().zip(snapshot) {
            match src {
                Some(s) => match dst {
                    Some(v) => v.clone_from(s),
                    None => *dst = Some(s.clone()),
                },
                None => *dst = None,
            }
        }
    }

    /// The session's reusable AC-analysis buffers, for routing sweeps and
    /// noise analyses through the allocation-free `_ws` entry points.
    pub fn ac_workspace(&mut self) -> &mut crate::ac::AcWorkspace {
        &mut self.ac
    }

    /// The session's reusable corner-batched AC buffers, for routing
    /// worst-case sweeps through [`crate::ac::ac_sweep_batch_solvers`].
    pub fn ac_batch_workspace(&mut self) -> &mut crate::ac::AcBatchWorkspace {
        &mut self.ac_batch
    }
}

/// Options for the DC solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DcOptions {
    /// Initial guess applied to every non-ground node (typically `vdd/2`).
    pub initial_v: f64,
    /// Maximum Newton iterations per gmin stage.
    pub max_iter: usize,
    /// Convergence tolerance on the update norm (V, A).
    pub tol: f64,
    /// Maximum per-node voltage change per Newton step (damping).
    pub dv_max: f64,
    /// Minimum conductance from every node to ground (aids convergence and
    /// regularizes capacitor-only nodes).
    pub gmin: f64,
    /// Linear-solver backend selection (automatic by dimension unless
    /// forced; see [`SolverConfig`]).
    pub solver: SolverConfig,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            initial_v: 0.5,
            max_iter: 150,
            tol: 1e-9,
            dv_max: 0.3,
            gmin: 1e-12,
            solver: SolverConfig::default(),
        }
    }
}

/// Small-signal data for one MOSFET at the operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOp {
    /// Index of the MOSFET in [`Circuit::elements`].
    pub elem_index: usize,
    /// Drain current magnitude (A).
    pub id: f64,
    /// Transconductance (S).
    pub gm: f64,
    /// Output conductance (S).
    pub gds: f64,
    /// Gate-source capacitance (F), terminals already orientation-resolved.
    pub cgs: f64,
    /// Gate-drain capacitance (F).
    pub cgd: f64,
    /// Drain-bulk junction capacitance (F); bulk is AC ground.
    pub cdb: f64,
    /// Source-bulk junction capacitance (F).
    pub csb: f64,
    /// Operating region.
    pub region: MosRegion,
    /// Effective drain terminal after orientation (channel is symmetric).
    pub a_d: Node,
    /// Effective source terminal after orientation.
    pub a_s: Node,
    /// Gate terminal.
    pub g: Node,
}

/// A solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OpPoint {
    node_v: Vec<f64>,
    branch_i: Vec<f64>,
    mos: Vec<MosOp>,
    iterations: usize,
    warm_started: bool,
}

impl OpPoint {
    /// Voltage at a node (ground reads 0).
    pub fn voltage(&self, n: Node) -> f64 {
        self.node_v[n.index()]
    }

    /// All node voltages indexed by node id (entry 0 is ground).
    pub fn voltages(&self) -> &[f64] {
        &self.node_v
    }

    /// Branch current of the `k`-th voltage source (in insertion order).
    /// Positive current flows from the `p` terminal through the source to
    /// `n`.
    pub fn vsource_current(&self, k: usize) -> f64 {
        self.branch_i[k]
    }

    /// Per-MOSFET small-signal data, in element order.
    pub fn mosfets(&self) -> &[MosOp] {
        &self.mos
    }

    /// Newton iterations spent (across all gmin stages).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the solve converged from a warm initial guess (rather than
    /// the cold `initial_v` start or the gmin homotopy).
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// The raw MNA solution vector — node voltages excluding ground
    /// followed by voltage-source branch currents — usable as the
    /// warm-start guess for a subsequent solve of a same-structure circuit.
    pub fn mna_vector(&self) -> Vec<f64> {
        self.node_v[1..]
            .iter()
            .chain(self.branch_i.iter())
            .copied()
            .collect()
    }
}

/// Orientation-resolved large-signal MOSFET evaluation shared by DC and
/// transient assembly.
///
/// Returns `(a_d, a_s, id_signed_into_ad, gm, gds, region)` where
/// `id_signed_into_ad` is the current *leaving* node `a_d` into the device.
pub(crate) fn eval_mos_oriented(
    m: &Mosfet,
    v: impl Fn(Node) -> f64,
) -> (Node, Node, f64, f64, f64, MosRegion) {
    let s = match m.polarity {
        MosPolarity::Nmos => 1.0,
        MosPolarity::Pmos => -1.0,
    };
    let vds_e = s * (v(m.d) - v(m.s));
    let (a_d, a_s) = if vds_e >= 0.0 { (m.d, m.s) } else { (m.s, m.d) };
    let vgs_e = s * (v(m.g) - v(a_s));
    let vds_e = s * (v(a_d) - v(a_s));
    let e = m.model.eval(vgs_e, vds_e, m.w, m.l, m.mult);
    (a_d, a_s, s * e.id, e.gm, e.gds, e.region)
}

struct Assembler<'a> {
    ckt: &'a Circuit,
    dim: usize,
    nnodes: usize,
}

impl<'a> Assembler<'a> {
    fn new(ckt: &'a Circuit) -> Self {
        Assembler {
            ckt,
            dim: ckt.mna_dim(),
            nnodes: ckt.num_nodes(),
        }
    }

    fn idx(&self, n: Node) -> Option<usize> {
        self.ckt.mna_index(n)
    }

    fn branch_row(&self, k: usize) -> usize {
        self.nnodes - 1 + k
    }

    /// Assembles the Newton Jacobian into `j` — a dense matrix or a
    /// triplet list, one stamping code path for both backends — and the
    /// residual `f` at the point `x`.
    fn assemble<S: StampSink>(&self, x: &[f64], gmin: f64, j: &mut S, f: &mut [f64]) {
        j.reset(self.dim);
        f.iter_mut().for_each(|v| *v = 0.0);
        let volt = |n: Node| -> f64 {
            match self.ckt.mna_index(n) {
                None => 0.0,
                Some(i) => x[i],
            }
        };
        // gmin from every node to ground. Skipped entirely when disabled:
        // an explicit zero would still be a *structural* nonzero to the
        // sparse pattern, hiding a floating node from the structural
        // preflight that `gmin: 0.0` exists to exercise.
        // lint:allow(float-eq) — exact-zero means "disabled" by contract.
        if gmin != 0.0 {
            for i in 0..(self.nnodes - 1) {
                j.add(i, i, gmin);
                f[i] += gmin * x[i];
            }
        }
        let mut vk = 0usize;
        for (ei, e) in self.ckt.elements().iter().enumerate() {
            match e {
                Element::Resistor { p, n, r, .. } => {
                    let g = 1.0 / r;
                    let i = g * (volt(*p) - volt(*n));
                    self.stamp_pair(j, f, *p, *n, g, i);
                }
                Element::Capacitor { .. } => {} // open at DC
                Element::Vsource { p, n, dc, .. } => {
                    let row = self.branch_row(vk);
                    let ibr = x[row];
                    if let Some(ip) = self.idx(*p) {
                        f[ip] += ibr;
                        j.add(ip, row, 1.0);
                        j.add(row, ip, 1.0);
                    }
                    if let Some(in_) = self.idx(*n) {
                        f[in_] -= ibr;
                        j.add(in_, row, -1.0);
                        j.add(row, in_, -1.0);
                    }
                    f[row] += volt(*p) - volt(*n) - dc;
                    vk += 1;
                }
                Element::Isource { p, n, dc, .. } => {
                    if let Some(ip) = self.idx(*p) {
                        f[ip] += dc;
                    }
                    if let Some(in_) = self.idx(*n) {
                        f[in_] -= dc;
                    }
                }
                Element::Vccs { op, on, cp, cn, gm } => {
                    let i = gm * (volt(*cp) - volt(*cn));
                    if let Some(iop) = self.idx(*op) {
                        f[iop] += i;
                        if let Some(icp) = self.idx(*cp) {
                            j.add(iop, icp, *gm);
                        }
                        if let Some(icn) = self.idx(*cn) {
                            j.add(iop, icn, -*gm);
                        }
                    }
                    if let Some(ion) = self.idx(*on) {
                        f[ion] -= i;
                        if let Some(icp) = self.idx(*cp) {
                            j.add(ion, icp, -*gm);
                        }
                        if let Some(icn) = self.idx(*cn) {
                            j.add(ion, icn, *gm);
                        }
                    }
                }
                Element::Mos(m) => {
                    let (a_d, a_s, i_ad, gm, gds, _) = eval_mos_oriented(m, volt);
                    let _ = ei;
                    // Current leaves a_d, enters a_s.
                    // d i_ad / d v(g) = gm ; d/d v(a_d) = gds ; d/d v(a_s) = -(gm+gds)
                    if let Some(id_) = self.idx(a_d) {
                        f[id_] += i_ad;
                        if let Some(ig) = self.idx(m.g) {
                            j.add(id_, ig, gm);
                        }
                        j.add(id_, id_, gds);
                        if let Some(is_) = self.idx(a_s) {
                            j.add(id_, is_, -(gm + gds));
                        }
                    }
                    if let Some(is_) = self.idx(a_s) {
                        f[is_] -= i_ad;
                        if let Some(ig) = self.idx(m.g) {
                            j.add(is_, ig, -gm);
                        }
                        if let Some(id_) = self.idx(a_d) {
                            j.add(is_, id_, -gds);
                        }
                        j.add(is_, is_, gm + gds);
                    }
                }
            }
        }
    }

    /// Stamps a two-terminal conductance `g` carrying current `i` (p -> n).
    fn stamp_pair<S: StampSink>(&self, j: &mut S, f: &mut [f64], p: Node, n: Node, g: f64, i: f64) {
        if let Some(ip) = self.idx(p) {
            f[ip] += i;
            j.add(ip, ip, g);
            if let Some(in_) = self.idx(n) {
                j.add(ip, in_, -g);
            }
        }
        if let Some(in_) = self.idx(n) {
            f[in_] -= i;
            j.add(in_, in_, g);
            if let Some(ip) = self.idx(p) {
                j.add(in_, ip, -g);
            }
        }
    }
}

fn newton_solve(
    asm: &Assembler<'_>,
    x: &mut [f64],
    gmin: f64,
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<usize, SimError> {
    let dim = asm.dim;
    let nv = asm.nnodes - 1;
    let sparse = opts.solver.use_sparse(dim);
    if !sparse && (ws.j.rows() != dim || ws.j.cols() != dim) {
        ws.j = Matrix::zeros(dim, dim);
    }
    ws.f.resize(dim, 0.0);
    ws.rhs.resize(dim, 0.0);
    for it in 0..opts.max_iter {
        if sparse {
            // Same stamps, landing in a triplet list; the compressed
            // pattern is identical every iteration, so the sparse
            // refactor reuses its symbolic analysis throughout.
            asm.assemble(x, gmin, &mut ws.trip, &mut ws.f);
        } else {
            asm.assemble(x, gmin, &mut ws.j, &mut ws.f);
        }
        for (r, v) in ws.rhs.iter_mut().zip(&ws.f) {
            *r = -v;
        }
        if sparse {
            ws.trip.compress_into(&mut ws.csc);
            ws.slu.refactor(&ws.csc, 1e-30)?;
            ws.slu.solve_into(&ws.rhs, &mut ws.dx);
        } else {
            ws.lu.refactor(&ws.j, 1e-30)?;
            ws.lu.solve_into(&ws.rhs, &mut ws.dx);
        }
        let mut maxd = 0.0f64;
        for (i, d) in ws.dx.iter().enumerate() {
            let step = if i < nv {
                d.clamp(-opts.dv_max, opts.dv_max)
            } else {
                *d
            };
            x[i] += step;
            maxd = maxd.max(d.abs());
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SimError::DcNoConvergence {
                iterations: it + 1,
                residual: f64::INFINITY,
            });
        }
        if maxd < opts.tol {
            return Ok(it + 1);
        }
    }
    let residual = ws.f.iter().fold(0.0f64, |a, b| a.max(b.abs()));
    Err(SimError::DcNoConvergence {
        iterations: opts.max_iter,
        residual,
    })
}

/// Solves the DC operating point of `ckt`.
///
/// Plain damped Newton is attempted first; on failure a gmin-stepping
/// homotopy (1e-3 S down to `opts.gmin` in decades) retries, reusing each
/// stage's solution as the next stage's initial guess.
///
/// # Errors
///
/// [`SimError::DcNoConvergence`] if the homotopy also fails, or
/// [`SimError::SingularMatrix`] (respectively [`SimError::SingularSparse`]
/// under the sparse backend) for structurally defective netlists.
///
/// # Examples
///
/// ```
/// use autockt_sim::netlist::{Circuit, GND};
/// use autockt_sim::dc::{dc_operating_point, DcOptions};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.isource(GND, a, 1e-3, 0.0); // push 1 mA into node a
/// ckt.resistor(a, GND, 1.0e3);
/// let op = dc_operating_point(&ckt, &DcOptions::default())?;
/// assert!((op.voltage(a) - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(ckt: &Circuit, opts: &DcOptions) -> Result<OpPoint, SimError> {
    dc_operating_point_warm(ckt, opts, None, &mut DcWorkspace::new())
}

/// Solves the DC operating point of `ckt`, optionally seeding Newton with
/// a previous solution.
///
/// `warm` is a full MNA solution vector (see [`OpPoint::mna_vector`]) from
/// a previous solve of a same-structure circuit; when it converges the
/// cold start is skipped entirely. A warm guess of the wrong dimension is
/// ignored, and warm non-convergence falls back to the cold
/// `initial_v` start followed by the gmin homotopy, so the result contract
/// is identical to [`dc_operating_point`]. `ws` supplies the reusable
/// matrix/LU buffers.
///
/// Caveat: the fallback fires on *non-convergence only*. For a circuit
/// with multiple valid operating points (e.g. cross-coupled loads), a
/// warm guess near a different solution branch than the cold homotopy
/// would settle on converges cleanly to that branch and is accepted.
/// Callers must therefore supply warm vectors from *nearby* solutions —
/// one grid notch away in the sizing environments — where staying on the
/// cold branch is the overwhelmingly likely outcome (property-tested per
/// topology in `autockt_circuits`); arbitrary jumps should solve cold.
///
/// # Errors
///
/// Same contract as [`dc_operating_point`].
pub fn dc_operating_point_warm(
    ckt: &Circuit,
    opts: &DcOptions,
    warm: Option<&[f64]>,
    ws: &mut DcWorkspace,
) -> Result<OpPoint, SimError> {
    let asm = Assembler::new(ckt);
    let dim = asm.dim;
    let nv = asm.nnodes - 1;
    let mut x = vec![0.0; dim];

    let mut total_iters = 0usize;
    let mut warm_started = false;
    if let Some(w) = warm {
        if w.len() == dim && w.iter().all(|v| v.is_finite()) {
            x.copy_from_slice(w);
            if let Ok(it) = newton_solve(&asm, &mut x, opts.gmin, opts, ws) {
                total_iters += it;
                warm_started = true;
            }
        }
    }
    if !warm_started {
        x.iter_mut().for_each(|v| *v = 0.0);
        x[..nv].iter_mut().for_each(|v| *v = opts.initial_v);
        let direct = newton_solve(&asm, &mut x, opts.gmin, opts, ws);
        match direct {
            Ok(it) => total_iters += it,
            // Structural singularity is a property of the topology alone:
            // no gmin value can repair an unmatched column, and with
            // `opts.gmin == 0` the stepping loop below would never
            // terminate. Report it immediately.
            Err(e @ SimError::StructurallySingular { .. }) => return Err(e),
            Err(_) => {
                // gmin stepping homotopy.
                x.iter_mut().for_each(|v| *v = 0.0);
                x[..nv].iter_mut().for_each(|v| *v = opts.initial_v);
                let mut g = 1e-3;
                loop {
                    let it = newton_solve(&asm, &mut x, g, opts, ws)?;
                    total_iters += it;
                    if g <= opts.gmin * 1.0001 {
                        break;
                    }
                    g = (g * 0.1).max(opts.gmin);
                }
            }
        }
    }

    Ok(finish_op(ckt, &x, total_iters, warm_started))
}

/// Builds the [`OpPoint`] from a converged MNA solution vector — shared
/// result extraction of the scalar and batched solve paths.
fn finish_op(ckt: &Circuit, x: &[f64], iterations: usize, warm_started: bool) -> OpPoint {
    let nv = ckt.num_nodes() - 1;
    let volt = |n: Node| -> f64 {
        match ckt.mna_index(n) {
            None => 0.0,
            Some(i) => x[i],
        }
    };
    let mut node_v = vec![0.0; ckt.num_nodes()];
    node_v[1..].copy_from_slice(&x[..nv]);
    let branch_i: Vec<f64> = (0..ckt.num_vsources()).map(|k| x[nv + k]).collect();
    let mut mos = Vec::new();
    for (ei, e) in ckt.elements().iter().enumerate() {
        if let Element::Mos(m) = e {
            let (a_d, a_s, i_ad, gm, gds, region) = eval_mos_oriented(m, volt);
            let (cgs, cgd) = m.model.gate_caps(region, m.w, m.l, m.mult);
            let cj = m.model.junction_cap(m.w, m.mult);
            mos.push(MosOp {
                elem_index: ei,
                id: i_ad.abs(),
                gm,
                gds,
                cgs,
                cgd,
                cdb: cj,
                csb: cj,
                region,
                a_d,
                a_s,
                g: m.g,
            });
        }
    }
    OpPoint {
        node_v,
        branch_i,
        mos,
        iterations,
        warm_started,
    }
}

/// Runs damped Newton on the masked subset of a batch of same-dimension
/// circuits in lockstep: every iteration assembles each live corner's
/// Jacobian, factors all of them as one [`RealLuBatch`] elimination
/// (SIMD over the corner axis), solves, and applies per-corner damped
/// updates. Corners converge independently — a converged corner's lanes
/// are frozen (its slot in the batch is stamped with the identity) while
/// its siblings keep iterating. Returns `Some(iterations)` per corner
/// that converged in this phase; `None` covers both corners outside the
/// mask and corners that failed (singular Jacobian, non-finite update,
/// or `max_iter`).
///
/// Per corner this performs exactly the arithmetic of the scalar
/// `newton_solve`, in the same order, so a corner that converges here
/// produces a bitwise-identical solution vector.
fn newton_batch(
    asms: &[Assembler<'_>],
    xs: &mut [Vec<f64>],
    mask: &[bool],
    gmin: f64,
    opts: &DcOptions,
    ws: &mut DcBatchWorkspace,
) -> Vec<Option<usize>> {
    let bt = asms.len();
    let dim = asms[0].dim;
    let mut active = mask.to_vec();
    let mut out: Vec<Option<usize>> = vec![None; bt];
    let DcBatchWorkspace {
        lu,
        j,
        f,
        rhs,
        dx,
        acc,
        ..
    } = ws;
    if j.rows() != dim || j.cols() != dim {
        *j = Matrix::zeros(dim, dim);
    }
    f.resize(dim, 0.0);
    rhs.clear();
    rhs.resize(dim * bt, 0.0);
    for it in 0..opts.max_iter {
        if !active.iter().any(|a| *a) {
            break;
        }
        rhs.iter_mut().for_each(|v| *v = 0.0);
        lu.refactor_with(dim, bt, 1e-30, |data| {
            for (b, asm) in asms.iter().enumerate() {
                if !active[b] {
                    // Frozen lane: identity keeps the batch elimination
                    // trivially nonsingular without touching the corner.
                    for i in 0..dim {
                        data[(i * dim + i) * bt + b] = 1.0;
                    }
                    continue;
                }
                asm.assemble(&xs[b], gmin, j, f);
                for r in 0..dim {
                    for c in 0..dim {
                        data[(r * dim + c) * bt + b] = j[(r, c)];
                    }
                }
                for (i, v) in f.iter().enumerate() {
                    rhs[i * bt + b] = -v;
                }
            }
        });
        for (b, a) in active.iter_mut().enumerate() {
            if *a && lu.singular(b).is_some() {
                *a = false;
            }
        }
        lu.solve_batch_into(rhs, dx, acc);
        for b in 0..bt {
            if !active[b] {
                continue;
            }
            let nv = asms[b].nnodes - 1;
            let x = &mut xs[b];
            let mut maxd = 0.0f64;
            for i in 0..dim {
                let d = dx[i * bt + b];
                let step = if i < nv {
                    d.clamp(-opts.dv_max, opts.dv_max)
                } else {
                    d
                };
                x[i] += step;
                maxd = maxd.max(d.abs());
            }
            if !x.iter().all(|v| v.is_finite()) {
                active[b] = false;
                continue;
            }
            if maxd < opts.tol {
                out[b] = Some(it + 1);
                active[b] = false;
            }
        }
    }
    out
}

/// Solves the DC operating points of a batch of *same-structure* circuits
/// in lockstep — the corner axis of worst-case-PVT evaluation. Per corner
/// the result is bitwise-identical to
/// [`dc_operating_point_warm`]`(ckts[b], opts, warm[b], ..)`: corners
/// with a usable warm guess first iterate together from their seeds, any
/// that miss join a lockstep cold phase, and a corner that the direct
/// cold Newton cannot crack falls back to the scalar gmin homotopy on its
/// own — one stubborn corner never stalls or perturbs its siblings, and
/// per-corner failures are reported per corner instead of aborting the
/// batch.
///
/// Circuits of mismatched MNA dimension (which the corner engine never
/// produces), single-element batches, and dimensions routed to the sparse
/// backend (whose factorization cost no longer rewards dense lockstep
/// lanes) simply run the scalar path — which preserves the per-corner
/// bitwise contract trivially.
pub fn dc_operating_point_batch(
    ckts: &[&Circuit],
    opts: &DcOptions,
    warm: &[Option<&[f64]>],
    ws: &mut DcBatchWorkspace,
) -> Vec<Result<OpPoint, SimError>> {
    assert_eq!(ckts.len(), warm.len(), "one warm guess per circuit");
    let bt = ckts.len();
    if bt == 0 {
        return Vec::new();
    }
    let dim = ckts[0].mna_dim();
    if bt == 1 || opts.solver.use_sparse(dim) || ckts.iter().any(|c| c.mna_dim() != dim) {
        return ckts
            .iter()
            .zip(warm)
            .map(|(c, w)| dc_operating_point_warm(c, opts, *w, &mut ws.scalar))
            .collect();
    }
    let asms: Vec<Assembler<'_>> = ckts.iter().map(|c| Assembler::new(c)).collect();
    let mut xs: Vec<Vec<f64>> = vec![vec![0.0; dim]; bt];
    let mut iters = vec![0usize; bt];
    let mut warm_started = vec![false; bt];
    let mut done = vec![false; bt];

    // Warm phase: corners whose guess has the right shape iterate from it.
    let warm_mask: Vec<bool> = warm
        .iter()
        .map(|w| matches!(w, Some(w) if w.len() == dim && w.iter().all(|v| v.is_finite())))
        .collect();
    if warm_mask.iter().any(|m| *m) {
        for ((x, w), &masked) in xs.iter_mut().zip(warm).zip(&warm_mask) {
            if let (true, Some(w)) = (masked, w) {
                x.copy_from_slice(w);
            }
        }
        for (b, it) in newton_batch(&asms, &mut xs, &warm_mask, opts.gmin, opts, ws)
            .into_iter()
            .enumerate()
        {
            if let Some(it) = it {
                iters[b] += it;
                warm_started[b] = true;
                done[b] = true;
            }
        }
    }

    // Cold phase: everything not yet converged restarts from `initial_v`.
    let cold_mask: Vec<bool> = done.iter().map(|d| !d).collect();
    if cold_mask.iter().any(|m| *m) {
        for b in 0..bt {
            if cold_mask[b] {
                let nv = asms[b].nnodes - 1;
                xs[b].iter_mut().for_each(|v| *v = 0.0);
                xs[b][..nv].iter_mut().for_each(|v| *v = opts.initial_v);
            }
        }
        for (b, it) in newton_batch(&asms, &mut xs, &cold_mask, opts.gmin, opts, ws)
            .into_iter()
            .enumerate()
        {
            if let Some(it) = it {
                iters[b] += it;
                done[b] = true;
            }
        }
    }

    // Homotopy fallback: stubborn corners leave the lockstep and retry
    // scalar, exactly like the tail of `dc_operating_point_warm`.
    (0..bt)
        .map(|b| {
            if done[b] {
                return Ok(finish_op(ckts[b], &xs[b], iters[b], warm_started[b]));
            }
            let nv = asms[b].nnodes - 1;
            let x = &mut xs[b];
            x.iter_mut().for_each(|v| *v = 0.0);
            x[..nv].iter_mut().for_each(|v| *v = opts.initial_v);
            let mut g = 1e-3;
            loop {
                let it = newton_solve(&asms[b], x, g, opts, &mut ws.scalar)?;
                iters[b] += it;
                if g <= opts.gmin * 1.0001 {
                    break;
                }
                g = (g * 0.1).max(opts.gmin);
            }
            Ok(finish_op(ckts[b], x, iters[b], false))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MosPolarity, Technology};
    use crate::netlist::{Mosfet, GND};

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, GND, 3.0, 0.0);
        ckt.resistor(a, b, 2.0e3);
        ckt.resistor(b, GND, 1.0e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
        // Source current: 3V over 3k = 1 mA flowing p->n inside source
        // means -1 mA (the source delivers current out of its + terminal).
        assert!((op.vsource_current(0) + 1.0e-3).abs() < 1e-8);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource(GND, a, 2e-3, 0.0);
        ckt.resistor(a, GND, 500.0);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_transresistance() {
        // VCCS driven by a divider: i = gm * v(ctrl), into a load resistor.
        let mut ckt = Circuit::new();
        let c = ckt.node("ctrl");
        let o = ckt.node("out");
        ckt.vsource(c, GND, 0.5, 0.0);
        ckt.vccs(GND, o, c, GND, 1e-3); // pushes gm*v into node o
        ckt.resistor(o, GND, 1.0e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(o) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Diode-connected NMOS pulled up through a resistor: solves the
        // classic vgs = f(id) fixed point.
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("gate");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.resistor(vdd, g, 10.0e3);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: g,
            g,
            s: GND,
            w: 2e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.nmos,
        });
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let vg = op.voltage(g);
        assert!(vg > t.nmos.vth0 && vg < 1.0, "vg = {vg}");
        // KCL: resistor current equals device current.
        let ir = (1.0 - vg) / 10.0e3;
        let m = &op.mosfets()[0];
        assert!((m.id - ir).abs() / ir < 1e-5);
        assert_eq!(m.region, MosRegion::Saturation);
    }

    #[test]
    fn pmos_common_source_inverting() {
        // PMOS with source at VDD, gate low -> device on, output pulled up.
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource(g, GND, 0.3, 0.0); // vsg = 0.7 > vth
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Pmos,
            d: o,
            g,
            s: vdd,
            w: 4e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.pmos,
        });
        ckt.resistor(o, GND, 2.0e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let vo = op.voltage(o);
        assert!(vo > 0.2, "pmos should pull output up, vo = {vo}");
        let m = &op.mosfets()[0];
        assert!((m.id - vo / 2.0e3).abs() / m.id < 1e-5);
    }

    #[test]
    fn cmos_inverter_transfer_is_inverting() {
        // Low input -> high output; high input -> low output; and the
        // transfer is monotonically decreasing across the sweep.
        let t = Technology::ptm45();
        let build = |vin: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let g = ckt.node("g");
            let o = ckt.node("o");
            ckt.vsource(vdd, GND, 1.0, 0.0);
            ckt.vsource(g, GND, vin, 0.0);
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
                w: 2.4e-6,
                l: t.lmin,
                mult: 1.0,
                model: t.pmos,
            });
            (ckt, o)
        };
        let mut prev = f64::INFINITY;
        for vin in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let (ckt, o) = build(vin);
            let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let vo = op.voltage(o);
            assert!(
                vo <= prev + 1e-9,
                "inverter transfer must fall: {vo} after {prev}"
            );
            prev = vo;
        }
        let (lo, o1) = build(0.1);
        let vo_hi = dc_operating_point(&lo, &DcOptions::default())
            .unwrap()
            .voltage(o1);
        assert!(vo_hi > 0.9, "low input gives high output, got {vo_hi}");
        let (hi, o2) = build(0.9);
        let vo_lo = dc_operating_point(&hi, &DcOptions::default())
            .unwrap()
            .voltage(o2);
        assert!(vo_lo < 0.1, "high input gives low output, got {vo_lo}");
    }

    #[test]
    fn capacitor_node_regularized_by_gmin() {
        // A node connected only through a capacitor has no DC path; gmin
        // must keep the matrix solvable.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, GND, 1.0, 0.0);
        ckt.capacitor(a, b, 1e-12);
        ckt.capacitor(b, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default());
        assert!(op.is_ok());
    }

    #[test]
    fn no_convergence_is_reported_not_hung() {
        // A pathological circuit: two voltage sources in parallel with
        // conflicting values is singular/inconsistent.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, GND, 1.0, 0.0);
        ckt.vsource(a, GND, 2.0, 0.0);
        let r = dc_operating_point(&ckt, &DcOptions::default());
        assert!(r.is_err());
    }

    fn nmos_diode_circuit(r: f64) -> (Circuit, Node) {
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("gate");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.resistor(vdd, g, r);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: g,
            g,
            s: GND,
            w: 2e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.nmos,
        });
        (ckt, g)
    }

    #[test]
    fn warm_start_matches_cold_solution() {
        let (a, ga) = nmos_diode_circuit(10.0e3);
        let cold_a = dc_operating_point(&a, &DcOptions::default()).unwrap();
        // A slightly different circuit (nudged resistor), solved warm from
        // the first solution, must agree with its own cold solve.
        let (b, gb) = nmos_diode_circuit(11.0e3);
        let mut ws = DcWorkspace::new();
        let warm = cold_a.mna_vector();
        let warm_b =
            dc_operating_point_warm(&b, &DcOptions::default(), Some(&warm), &mut ws).unwrap();
        let cold_b = dc_operating_point(&b, &DcOptions::default()).unwrap();
        assert!(warm_b.warm_started());
        assert!(!cold_b.warm_started());
        assert!((warm_b.voltage(gb) - cold_b.voltage(gb)).abs() < 1e-7);
        assert!(warm_b.iterations() <= cold_b.iterations());
        let _ = ga;
    }

    #[test]
    fn warm_guess_of_wrong_dimension_is_ignored() {
        let (ckt, g) = nmos_diode_circuit(10.0e3);
        let mut ws = DcWorkspace::new();
        let bogus = vec![0.5; 99];
        let op =
            dc_operating_point_warm(&ckt, &DcOptions::default(), Some(&bogus), &mut ws).unwrap();
        assert!(!op.warm_started());
        let cold = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(g) - cold.voltage(g)).abs() < 1e-12);
    }

    #[test]
    fn warm_state_slots_round_trip() {
        let (ckt, _) = nmos_diode_circuit(10.0e3);
        let mut state = WarmState::new();
        assert!(!state.is_warm());
        let first = state.solve(0, &ckt, &DcOptions::default()).unwrap();
        assert!(!first.warm_started());
        assert!(state.is_warm());
        let second = state.solve(0, &ckt, &DcOptions::default()).unwrap();
        assert!(second.warm_started());
        // Warm revisit of the identical circuit converges immediately.
        assert!(second.iterations() <= first.iterations());
        state.reset();
        assert!(!state.is_warm());
        let third = state.solve(0, &ckt, &DcOptions::default()).unwrap();
        assert!(!third.warm_started());
    }

    #[test]
    fn warm_state_failure_clears_slot() {
        // An inconsistent netlist fails to solve; the slot must not retain
        // stale state afterwards.
        let mut bad = Circuit::new();
        let a = bad.node("a");
        bad.vsource(a, GND, 1.0, 0.0);
        bad.vsource(a, GND, 2.0, 0.0);
        let mut state = WarmState::new();
        let (good, _) = nmos_diode_circuit(10.0e3);
        state.solve(0, &good, &DcOptions::default()).unwrap();
        assert!(state.is_warm());
        assert!(state.solve(0, &bad, &DcOptions::default()).is_err());
        assert!(!state.is_warm());
    }

    #[test]
    fn batch_cold_matches_scalar_bitwise() {
        // Three same-structure circuits (same MNA dim, different values):
        // the lockstep cold solve must reproduce the scalar solutions
        // bit for bit.
        let ckts: Vec<(Circuit, Node)> = [8.0e3, 10.0e3, 13.0e3]
            .iter()
            .map(|r| nmos_diode_circuit(*r))
            .collect();
        let refs: Vec<&Circuit> = ckts.iter().map(|(c, _)| c).collect();
        let mut ws = DcBatchWorkspace::new();
        let warm = vec![None; refs.len()];
        let batch = dc_operating_point_batch(&refs, &DcOptions::default(), &warm, &mut ws);
        for ((ckt, _), res) in ckts.iter().zip(&batch) {
            let scalar = dc_operating_point(ckt, &DcOptions::default()).unwrap();
            let got = res.as_ref().unwrap();
            assert!(!got.warm_started());
            assert_eq!(got.mna_vector(), scalar.mna_vector());
            assert_eq!(got.iterations(), scalar.iterations());
        }
    }

    #[test]
    fn batch_singular_sibling_is_masked_not_contagious() {
        // The middle system is inconsistent (two conflicting voltage
        // sources in parallel — singular at every gmin stage); its error
        // must be reported for it alone, with the siblings' solutions
        // still bitwise-equal to their scalar solves.
        let (good_a, _) = nmos_diode_circuit(10.0e3);
        let (good_b, _) = nmos_diode_circuit(12.0e3);
        // One node + two conflicting sources has dim 3, matching the
        // diode circuits (2 nodes + 1 source).
        let mut bad = Circuit::new();
        let a = bad.node("a");
        bad.vsource(a, GND, 1.0, 0.0);
        bad.vsource(a, GND, 2.0, 0.0);
        assert_eq!(bad.mna_dim(), good_a.mna_dim());
        let refs: Vec<&Circuit> = vec![&good_a, &bad, &good_b];
        let mut ws = DcBatchWorkspace::new();
        let warm = vec![None; 3];
        let res = dc_operating_point_batch(&refs, &DcOptions::default(), &warm, &mut ws);
        let scalar_bad = dc_operating_point(&bad, &DcOptions::default());
        assert!(matches!(res[1], Err(SimError::SingularMatrix { .. })));
        assert_eq!(
            res[1].as_ref().err().unwrap(),
            scalar_bad.as_ref().err().unwrap(),
            "masked corner reports the scalar path's error"
        );
        for (ckt, r) in [(&good_a, &res[0]), (&good_b, &res[2])] {
            let scalar = dc_operating_point(ckt, &DcOptions::default()).unwrap();
            assert_eq!(r.as_ref().unwrap().mna_vector(), scalar.mna_vector());
        }
    }

    #[test]
    fn batch_poisoned_warm_guess_falls_back_to_cold() {
        // A finite but absurd warm guess cannot converge within the
        // damped iteration budget; that corner must fall back to the
        // cold start without stalling the sibling that converges warm.
        let (a, _) = nmos_diode_circuit(10.0e3);
        let (b, _) = nmos_diode_circuit(11.0e3);
        let cold_a = dc_operating_point(&a, &DcOptions::default()).unwrap();
        let cold_b = dc_operating_point(&b, &DcOptions::default()).unwrap();
        let good_warm = cold_b.mna_vector();
        let poisoned = vec![1.0e3; cold_a.mna_vector().len()];
        let refs: Vec<&Circuit> = vec![&a, &b];
        let mut ws = DcBatchWorkspace::new();
        let warm: Vec<Option<&[f64]>> = vec![Some(&poisoned), Some(&good_warm)];
        let res = dc_operating_point_batch(&refs, &DcOptions::default(), &warm, &mut ws);
        let ra = res[0].as_ref().unwrap();
        let rb = res[1].as_ref().unwrap();
        assert!(!ra.warm_started(), "poisoned guess must not 'converge'");
        assert!(rb.warm_started());
        assert_eq!(ra.mna_vector(), cold_a.mna_vector());
        // The scalar warm path does the same dance; bitwise agreement.
        let mut sws = DcWorkspace::new();
        let scalar_a =
            dc_operating_point_warm(&a, &DcOptions::default(), Some(&poisoned), &mut sws).unwrap();
        let scalar_b =
            dc_operating_point_warm(&b, &DcOptions::default(), Some(&good_warm), &mut sws).unwrap();
        assert_eq!(ra.mna_vector(), scalar_a.mna_vector());
        assert_eq!(rb.mna_vector(), scalar_b.mna_vector());
    }

    #[test]
    fn warm_state_solve_batch_matches_serial_slots() {
        let ckts: Vec<(Circuit, Node)> = [8.0e3, 10.0e3, 13.0e3]
            .iter()
            .map(|r| nmos_diode_circuit(*r))
            .collect();
        let refs: Vec<&Circuit> = ckts.iter().map(|(c, _)| c).collect();
        let opts = DcOptions::default();
        let mut serial = WarmState::new();
        let mut batched = WarmState::new();
        // Two passes: the second is warm in every slot on both paths.
        for pass in 0..2 {
            let batch = batched.solve_batch(0, &refs, &opts);
            for (slot, ckt) in refs.iter().enumerate() {
                let s = serial.solve(slot, ckt, &opts).unwrap();
                let b = batch[slot].as_ref().unwrap();
                assert_eq!(s.mna_vector(), b.mna_vector(), "pass {pass} slot {slot}");
                assert_eq!(s.warm_started(), b.warm_started());
                assert_eq!(s.warm_started(), pass > 0);
            }
        }
        assert!(batched.is_warm());
    }

    #[test]
    fn forced_sparse_backend_matches_dense_within_tolerance() {
        let (ckt, g) = nmos_diode_circuit(10.0e3);
        let dense = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let opts = DcOptions {
            solver: SolverConfig::sparse(),
            ..DcOptions::default()
        };
        let sparse = dc_operating_point(&ckt, &opts).unwrap();
        assert!((sparse.voltage(g) - dense.voltage(g)).abs() < 1e-9);
        // Batched entry under a sparse config routes through the scalar
        // path, so batch and scalar stay bitwise-equal.
        let (b, _) = nmos_diode_circuit(12.0e3);
        let refs: Vec<&Circuit> = vec![&ckt, &b];
        let mut ws = DcBatchWorkspace::new();
        let batch = dc_operating_point_batch(&refs, &opts, &[None, None], &mut ws);
        for (c, r) in refs.iter().zip(&batch) {
            let scalar = dc_operating_point(c, &opts).unwrap();
            assert_eq!(r.as_ref().unwrap().mna_vector(), scalar.mna_vector());
        }
    }

    #[test]
    fn iterations_counted() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, GND, 1.0, 0.0);
        ckt.resistor(a, GND, 1e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!(op.iterations() >= 1);
    }
}
