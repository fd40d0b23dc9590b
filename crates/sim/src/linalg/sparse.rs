//! Sparse linear-algebra backend: CSC storage, triplet assembly with
//! duplicate merging, a fill-reducing minimum-degree ordering, and a
//! left-looking sparse LU with partial pivoting and a same-pattern
//! `refactor` fast path.
//!
//! Post-layout extraction meshes push the MNA dimension into the hundreds,
//! where the dense O(n³) elimination in [`super`] loses to a factorization
//! that only touches structural nonzeros. The kernel here is the classic
//! Gilbert–Peierls left-looking LU: for each column, a depth-first search
//! over the partially built `L` discovers the column's fill pattern in
//! time proportional to the work, then the numeric elimination scatters
//! into a dense accumulator over exactly that pattern. Columns are
//! pre-permuted by a minimum-degree ordering ([`amd_order`]) computed on
//! the symmetrized pattern; rows are pivoted for stability during the
//! numeric phase, so the factorization is `PAQ = LU`.
//!
//! [`SparseLu::refactor`] mirrors [`super::LuFactors::refactor`]: it
//! reuses every allocation *and* the fill-reducing column order whenever
//! the nonzero pattern is unchanged — the common case for Newton
//! re-solves, where only values move between iterations — and is
//! bitwise-equal to a fresh factorization on the same pattern.
//!
//! Backend choice between the dense kernels and this module is expressed
//! by [`SolverConfig`]: automatic by dimension with a crossover, or
//! forced either way (the CI smoke gate diffs the two backends on the
//! same designs by forcing each in turn).

use super::{LinearSolver, Matrix, Scalar};
use crate::error::SimError;
use crate::par::Parallelism;

/// Sentinel for "row not yet chosen as a pivot" in `pinv`.
const UNPIVOTED: usize = usize::MAX;

/// Default dimension at or above which [`SolverBackend::Auto`] switches
/// from the dense kernels to the sparse backend.
///
/// Schematic-level MNA systems in this repo are well below this (the
/// deepest pre-existing bench mesh was dim ~38), so automatic selection
/// leaves every schematic path on the dense kernels it was tuned on;
/// extraction meshes with hundreds of nodes land on the sparse side.
pub const DEFAULT_CROSSOVER: usize = 64;

/// Which factorization backend a solve path should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Pick by dimension: dense below [`SolverConfig::crossover`], sparse
    /// at or above it.
    #[default]
    Auto,
    /// Always the dense kernels.
    Dense,
    /// Always the sparse kernels.
    Sparse,
}

/// Backend-selection policy threaded from the evaluation session down to
/// the individual DC/AC/noise/transient solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Backend choice (automatic by default).
    pub backend: SolverBackend,
    /// Dimension at which [`SolverBackend::Auto`] switches to sparse.
    pub crossover: usize,
    /// Fill-ratio escape hatch for [`SolverBackend::Auto`]: once a system
    /// has been factored sparsely, workspaces compare the measured factor
    /// nnz against `fill_limit_pct` percent of the dense `n²` and drop
    /// back to the dense kernels when the factors are no longer sparse
    /// enough to pay for the indirection (ROADMAP: "tuning the crossover
    /// by fill rather than dim alone"). `0` disables the check. Stored as
    /// an integer percentage so the config stays `Eq`/hashable.
    pub fill_limit_pct: u8,
    /// How frequency sweeps and corner grids under this config may use
    /// the scoped-thread tile scheduler in [`crate::par`]: serial
    /// ([`Parallelism::Off`]), budget-governed ([`Parallelism::Auto`],
    /// the default — degrades to serial on a spent budget or where
    /// threading measures as a loss), or an explicit lane count
    /// ([`Parallelism::Threads`]). Threaded schedules are bitwise-equal
    /// to serial, so this knob is pure performance policy.
    pub par: Parallelism,
}

/// Default [`SolverConfig::fill_limit_pct`]: past ~35% structural fill the
/// left-looking sparse kernels lose their traversal advantage over the
/// vectorized dense elimination (measured on randomized near-dense meshes
/// in the crossover unit tests).
pub const DEFAULT_FILL_LIMIT_PCT: u8 = 35;

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            backend: SolverBackend::Auto,
            crossover: DEFAULT_CROSSOVER,
            fill_limit_pct: DEFAULT_FILL_LIMIT_PCT,
            par: Parallelism::Auto,
        }
    }
}

impl SolverConfig {
    /// A config that always uses the dense kernels.
    pub const fn dense() -> Self {
        SolverConfig {
            backend: SolverBackend::Dense,
            crossover: DEFAULT_CROSSOVER,
            fill_limit_pct: DEFAULT_FILL_LIMIT_PCT,
            par: Parallelism::Auto,
        }
    }

    /// A config that always uses the sparse kernels.
    pub const fn sparse() -> Self {
        SolverConfig {
            backend: SolverBackend::Sparse,
            crossover: DEFAULT_CROSSOVER,
            fill_limit_pct: DEFAULT_FILL_LIMIT_PCT,
            par: Parallelism::Auto,
        }
    }

    /// The same config with the tile-scheduler policy switched as given
    /// (see [`SolverConfig::par`]).
    pub const fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// The same config with the fill-ratio limit switched as given
    /// (`0` disables the fill-based dense fallback).
    pub const fn with_fill_limit_pct(mut self, pct: u8) -> Self {
        self.fill_limit_pct = pct;
        self
    }

    /// Whether a system of dimension `dim` should use the sparse backend.
    pub fn use_sparse(&self, dim: usize) -> bool {
        match self.backend {
            SolverBackend::Dense => false,
            SolverBackend::Sparse => true,
            SolverBackend::Auto => dim >= self.crossover,
        }
    }

    /// Whether an `Auto`-selected sparse factorization whose measured
    /// factor holds `factor_nnz` structural nonzeros should fall back to
    /// the dense kernels: true once the fill ratio reaches
    /// `fill_limit_pct` percent of the dense `dim²`. Forced
    /// [`SolverBackend::Sparse`] (and `Dense`) configs never flip, and
    /// `fill_limit_pct == 0` disables the check.
    pub fn dense_by_fill(&self, dim: usize, factor_nnz: usize) -> bool {
        self.backend == SolverBackend::Auto
            && self.fill_limit_pct > 0
            && dim > 0
            && factor_nnz * 100 >= usize::from(self.fill_limit_pct) * dim * dim
    }
}

/// Destination for MNA stamps: either a dense matrix (`+=` into the
/// entry) or a [`TripletList`] (append; duplicates are merged at
/// compression time). Assembly code is generic over this trait so both
/// backends are fed from one stamping code path.
pub trait StampSink {
    /// Prepares the sink for a fresh `n x n` assembly, reusing its
    /// allocations (zero the dense matrix, clear the triplet list).
    fn reset(&mut self, n: usize);

    /// Accumulates `v` into entry `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

impl StampSink for Matrix<f64> {
    fn reset(&mut self, n: usize) {
        if self.rows() != n || self.cols() != n {
            *self = Matrix::zeros(n, n);
        } else {
            self.fill_zero();
        }
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }
}

impl StampSink for TripletList<f64> {
    fn reset(&mut self, n: usize) {
        self.clear(n);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.push(r, c, v);
    }
}

/// Unordered coordinate-format assembly buffer.
///
/// MNA stamping appends `(row, col, value)` entries freely — the same
/// entry any number of times — and [`TripletList::compress_into`] sorts
/// and *merges duplicates by accumulation* into well-formed CSC. This is
/// the sparse analogue of the dense path's `+=` on a zeroed matrix.
#[derive(Debug, Clone, Default)]
pub struct TripletList<T> {
    n: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletList<T> {
    /// Creates an empty list for an `n x n` system.
    pub fn new(n: usize) -> Self {
        TripletList {
            n,
            entries: Vec::new(),
        }
    }

    /// Clears the entries and resets the dimension, keeping the
    /// allocation (Newton loops re-stamp every iteration).
    pub fn clear(&mut self, n: usize) {
        self.n = n;
        self.entries.clear();
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of (unmerged) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry; duplicates of the same `(r, c)` accumulate at
    /// compression time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `r` or `c` is out of range.
    #[inline]
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.n && c < self.n, "triplet ({r}, {c}) out of range");
        self.entries.push((r, c, v));
    }

    /// Sorts the entries column-major and merges duplicate `(r, c)`
    /// coordinates by accumulation, writing well-formed CSC into `out`
    /// (allocations reused). The list itself is left sorted but intact.
    pub fn compress_into(&mut self, out: &mut CscMatrix<T>) {
        self.entries.sort_unstable_by_key(|e| (e.1, e.0));
        out.n = self.n;
        out.col_ptr.clear();
        out.row_idx.clear();
        out.values.clear();
        out.col_ptr.push(0);
        let mut col = 0usize;
        let mut prev: Option<(usize, usize)> = None;
        for &(r, c, v) in &self.entries {
            if prev == Some((r, c)) {
                // lint:allow(panic) — `prev` is only `Some` after a prior
                // iteration pushed a value, so `values` is nonempty here.
                *out.values.last_mut().expect("merge follows a push") += v;
                continue;
            }
            while col < c {
                out.col_ptr.push(out.row_idx.len());
                col += 1;
            }
            out.row_idx.push(r);
            out.values.push(v);
            prev = Some((r, c));
        }
        while col < self.n {
            out.col_ptr.push(out.row_idx.len());
            col += 1;
        }
    }

    /// Accumulates every entry into a dense matrix with `+=` — the
    /// reference semantics the compressed form must reproduce
    /// (equivalence-tested against [`TripletList::compress_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `m` is smaller than the triplet dimension.
    pub fn scatter_add(&self, m: &mut Matrix<T>) {
        for &(r, c, v) in &self.entries {
            m[(r, c)] += v;
        }
    }
}

/// Compressed-sparse-column matrix: column `j`'s entries live at
/// `col_ptr[j]..col_ptr[j+1]` in `row_idx`/`values`, rows ascending
/// within a column, no duplicates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CscMatrix<T> {
    pub(crate) n: usize,
    pub(crate) col_ptr: Vec<usize>,
    pub(crate) row_idx: Vec<usize>,
    pub(crate) values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// An empty 0-dimensional matrix whose buffers
    /// [`TripletList::compress_into`] or [`CscMatrix::from_dense_into`]
    /// fill.
    pub fn empty() -> Self {
        CscMatrix {
            n: 0,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column pointer array (`n + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column-major.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Values, column-major, parallel to [`CscMatrix::row_idx`].
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable values — rewrite in place when only numbers change and the
    /// pattern is fixed (the AC sweep rewrites `G + jwC` per frequency).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Gathers the structural nonzeros of a dense matrix (exact zeros are
    /// dropped) into this matrix, reusing its allocations. The transient
    /// Newton loop rescans its dense Jacobian through this every
    /// iteration; an unchanged pattern then hits the
    /// [`SparseLu::refactor`] symbolic fast path.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square.
    pub fn from_dense_into(&mut self, m: &Matrix<T>) {
        assert_eq!(m.rows(), m.cols(), "CSC conversion requires square");
        let n = m.rows();
        self.n = n;
        self.col_ptr.clear();
        self.row_idx.clear();
        self.values.clear();
        self.col_ptr.push(0);
        for c in 0..n {
            for r in 0..n {
                let v = m[(r, c)];
                if v != T::zero() {
                    self.row_idx.push(r);
                    self.values.push(v);
                }
            }
            self.col_ptr.push(self.row_idx.len());
        }
    }

    /// [`CscMatrix::from_dense_into`] into a fresh matrix.
    pub fn from_dense(m: &Matrix<T>) -> Self {
        let mut out = CscMatrix::empty();
        out.from_dense_into(m);
        out
    }

    /// Expands to a dense matrix (tests and diagnostics).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                m[(self.row_idx[p], j)] += self.values[p];
            }
        }
        m
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the dimension.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![T::zero(); self.n];
        for (j, &xj) in x.iter().enumerate() {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[p]] += self.values[p] * xj;
            }
        }
        y
    }
}

/// Fill-reducing column ordering: minimum degree on the symmetrized
/// pattern `A + Aᵀ` (the AMD family, without the "approximate" degree
/// update — exact degrees are affordable at the few-hundred dimensions
/// this backend targets).
///
/// Deterministic: ties break toward the smallest node index, so the same
/// pattern always yields the same ordering. Returns `q` with `q[k]` the
/// original column eliminated at step `k` — always a valid permutation,
/// even for patterns with empty columns.
pub fn amd_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    use std::collections::BTreeSet;
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if i != j {
                adj[i].insert(j);
                adj[j].insert(i);
            }
        }
    }
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| (adj[v].len(), v))
            // lint:allow(panic) — exactly one node is retired per step, so
            // after `k < n` steps `n - k > 0` nodes remain alive.
            .expect("one alive node per step");
        order.push(v);
        alive[v] = false;
        let neighbors: Vec<usize> = adj[v].iter().copied().collect();
        // Eliminating v turns its neighborhood into a clique.
        for (ai, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[ai + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &u in &neighbors {
            adj[u].remove(&v);
        }
        adj[v].clear();
    }
    order
}

/// Sparse LU factorization `PAQ = LU` with partial pivoting.
///
/// Columns are pre-permuted by the fill-reducing [`amd_order`] (`Q`);
/// rows are pivoted for stability during the numeric phase (`P`). The
/// factorization is the Gilbert–Peierls left-looking algorithm: each
/// column's fill pattern is discovered by a depth-first search over the
/// partially built `L`, then eliminated through a dense accumulator over
/// exactly that pattern.
///
/// [`SparseLu::refactor`] is the same-pattern fast path mirroring
/// [`super::LuFactors::refactor`]: when the input pattern is unchanged it
/// reuses the cached column ordering and every allocation, and its result
/// is bitwise-equal to a fresh [`SparseLu::factor`] of the same matrix
/// (property-tested in `tests/proptest_sparse.rs`).
#[derive(Debug, Clone, Default)]
pub struct SparseLu<T> {
    n: usize,
    /// Fill-reducing column order: column `q[k]` eliminated at step `k`.
    q: Vec<usize>,
    /// Row pivots: original row `p[k]` pivoted at step `k`.
    p: Vec<usize>,
    /// Inverse row pivots: `pinv[i]` = step at which original row `i`
    /// became pivotal ([`UNPIVOTED`] during factorization).
    pinv: Vec<usize>,
    l_colptr: Vec<usize>,
    l_rowidx: Vec<usize>,
    l_values: Vec<T>,
    u_colptr: Vec<usize>,
    u_rowidx: Vec<usize>,
    u_values: Vec<T>,
    /// Pattern of the last factored matrix, for the refactor fast path.
    a_colptr: Vec<usize>,
    a_rowidx: Vec<usize>,
    /// Dense accumulator for the current column.
    xw: Vec<T>,
    /// DFS visited marks, keyed by elimination step.
    flag: Vec<usize>,
    /// Reach of the current column in topological order (`xi[top..n]`).
    xi: Vec<usize>,
    /// DFS node stack.
    stack: Vec<usize>,
    /// DFS per-node child cursor stack.
    pstack: Vec<usize>,
}

impl<T: Scalar> SparseLu<T> {
    /// Creates an empty factorization whose buffers
    /// [`SparseLu::refactor`] fills; solving before a successful refactor
    /// panics on the dimension check.
    pub fn empty() -> Self {
        SparseLu::default()
    }

    /// Dimension of the factored system (0 before the first factor).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros in the computed factors `L + U` (fill metric;
    /// the AMD proptests compare this against a natural-order
    /// factorization).
    pub fn factor_nnz(&self) -> usize {
        self.l_values.len() + self.u_values.len()
    }

    /// The fill-reducing column order of the last factorization.
    pub fn col_order(&self) -> &[usize] {
        &self.q
    }

    /// Factors `a` with an [`amd_order`] column permutation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularSparse`] with the failing column in
    /// *original* numbering if no acceptable pivot survives, matching the
    /// dense kernels' singular reporting.
    pub fn factor(a: &CscMatrix<T>, pivot_floor: f64) -> Result<Self, SimError> {
        let mut f = SparseLu::empty();
        f.refactor(a, pivot_floor)?;
        Ok(f)
    }

    /// Factors `a` under a caller-supplied column order (the AMD
    /// proptests use this to compare fill against the natural order).
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor`].
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..a.dim()`.
    pub fn factor_with_order(
        a: &CscMatrix<T>,
        order: &[usize],
        pivot_floor: f64,
    ) -> Result<Self, SimError> {
        assert_eq!(order.len(), a.n, "order length mismatch");
        let mut seen = vec![false; a.n];
        for &j in order {
            assert!(j < a.n && !seen[j], "order is not a permutation");
            seen[j] = true;
        }
        let mut f = SparseLu::empty();
        f.n = a.n;
        f.q = order.to_vec();
        f.a_colptr.clone_from(&a.col_ptr);
        f.a_rowidx.clone_from(&a.row_idx);
        f.factor_numeric(a, pivot_floor)?;
        Ok(f)
    }

    /// Re-factors `a` into this object's buffers. When `a` has the same
    /// nonzero pattern as the previous factorization the cached
    /// fill-reducing column order is reused and no symbolic-analysis
    /// allocation happens — the Newton fast path. A changed pattern
    /// transparently recomputes the ordering *after* a structural
    /// preflight ([`super::structure::structural_check`]): a pattern
    /// whose structural rank falls short of the dimension is rejected
    /// before any factorization work, once per pattern (the same-pattern
    /// fast path never re-runs the check).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StructurallySingular`] from the preflight on a
    /// rank-deficient pattern, or [`SimError::SingularSparse`] like
    /// [`SparseLu::factor`] for a numerically singular system; on error
    /// the stored factorization is garbage and must be refactored before
    /// the next solve.
    pub fn refactor(&mut self, a: &CscMatrix<T>, pivot_floor: f64) -> Result<(), SimError> {
        let same_pattern =
            self.n == a.n && self.a_colptr == a.col_ptr && self.a_rowidx == a.row_idx;
        if !same_pattern {
            // The pattern cache below is only updated once the preflight
            // passes, so a structurally singular pattern is re-diagnosed on
            // every attempt instead of slipping through the fast path.
            super::structure::structural_check(a.n, &a.col_ptr, &a.row_idx)?;
            self.q = amd_order(a.n, &a.col_ptr, &a.row_idx);
            self.a_colptr.clone_from(&a.col_ptr);
            self.a_rowidx.clone_from(&a.row_idx);
            self.n = a.n;
        }
        self.factor_numeric(a, pivot_floor)
    }

    fn factor_numeric(&mut self, a: &CscMatrix<T>, pivot_floor: f64) -> Result<(), SimError> {
        let n = self.n;
        self.l_colptr.clear();
        self.l_colptr.push(0);
        self.l_rowidx.clear();
        self.l_values.clear();
        self.u_colptr.clear();
        self.u_colptr.push(0);
        self.u_rowidx.clear();
        self.u_values.clear();
        self.pinv.clear();
        self.pinv.resize(n, UNPIVOTED);
        self.p.clear();
        self.p.resize(n, 0);
        self.xw.clear();
        self.xw.resize(n, T::zero());
        self.flag.clear();
        self.flag.resize(n, 0);
        self.xi.clear();
        self.xi.resize(n, 0);
        self.stack.clear();
        self.pstack.clear();
        for k in 0..n {
            let col = self.q[k];
            let mark = k + 1;
            // Symbolic phase: depth-first search from the pattern of
            // A[:, col] through the columns of the partially built L
            // discovers the fill pattern, emitted in topological order
            // into xi[top..n] (dependencies first).
            let mut top = n;
            for &root in a.col_rows(col) {
                if self.flag[root] == mark {
                    continue;
                }
                self.flag[root] = mark;
                self.stack.push(root);
                self.pstack.push(match self.pinv[root] {
                    UNPIVOTED => 0,
                    kp => self.l_colptr[kp],
                });
                while let Some(&node) = self.stack.last() {
                    let depth = self.stack.len() - 1;
                    let end = match self.pinv[node] {
                        UNPIVOTED => 0,
                        kp => self.l_colptr[kp + 1],
                    };
                    let mut cursor = self.pstack[depth];
                    let mut descended = false;
                    while cursor < end {
                        let child = self.l_rowidx[cursor];
                        cursor += 1;
                        if self.flag[child] != mark {
                            self.pstack[depth] = cursor;
                            self.flag[child] = mark;
                            self.stack.push(child);
                            self.pstack.push(match self.pinv[child] {
                                UNPIVOTED => 0,
                                kp => self.l_colptr[kp],
                            });
                            descended = true;
                            break;
                        }
                    }
                    if descended {
                        continue;
                    }
                    self.pstack[depth] = cursor;
                    self.stack.pop();
                    self.pstack.pop();
                    top -= 1;
                    self.xi[top] = node;
                }
            }
            // Numeric phase: scatter A[:, col] into the dense
            // accumulator, then eliminate in topological order.
            for idx in top..n {
                self.xw[self.xi[idx]] = T::zero();
            }
            let (rows, vals) = {
                let s = a.col_ptr[col];
                let e = a.col_ptr[col + 1];
                (&a.row_idx[s..e], &a.values[s..e])
            };
            for (&r, &v) in rows.iter().zip(vals) {
                self.xw[r] += v;
            }
            for idx in top..n {
                let i = self.xi[idx];
                let kp = self.pinv[i];
                if kp == UNPIVOTED {
                    continue;
                }
                // L's unit diagonal is stored first in each column; the
                // update loop skips it.
                let xj = self.xw[i];
                for pp in self.l_colptr[kp] + 1..self.l_colptr[kp + 1] {
                    let upd = self.l_values[pp] * xj;
                    self.xw[self.l_rowidx[pp]] -= upd;
                }
            }
            // Partial pivoting over the not-yet-pivotal rows of the
            // pattern: same strict `>` magnitude comparison as the dense
            // kernels. Already-pivotal rows are this column of U.
            let mut ipiv = UNPIVOTED;
            let mut best = -1.0f64;
            for idx in top..n {
                let i = self.xi[idx];
                let kp = self.pinv[i];
                if kp == UNPIVOTED {
                    let t = self.xw[i].abs();
                    if t > best {
                        best = t;
                        ipiv = i;
                    }
                } else {
                    self.u_rowidx.push(kp);
                    self.u_values.push(self.xw[i]);
                }
            }
            if ipiv == UNPIVOTED || best <= pivot_floor || !best.is_finite() {
                return Err(SimError::SingularSparse { column: col });
            }
            let pivot = self.xw[ipiv];
            self.u_rowidx.push(k);
            self.u_values.push(pivot);
            self.u_colptr.push(self.u_rowidx.len());
            self.pinv[ipiv] = k;
            self.p[k] = ipiv;
            self.l_rowidx.push(ipiv);
            self.l_values.push(T::one());
            for idx in top..n {
                let i = self.xi[idx];
                if self.pinv[i] == UNPIVOTED {
                    self.l_rowidx.push(i);
                    self.l_values.push(self.xw[i] / pivot);
                }
                self.xw[i] = T::zero();
            }
            self.l_colptr.push(self.l_rowidx.len());
        }
        // Finalize: remap the factors' row indices straight into
        // *solution* coordinates (original row i at pivot step pinv[i]
        // lands at output slot q[pinv[i]]), so the substitution passes
        // read and write the caller-visible solution buffer directly with
        // no scratch permutation vector.
        for ri in &mut self.l_rowidx {
            *ri = self.q[self.pinv[*ri]];
        }
        for ri in &mut self.u_rowidx {
            *ri = self.q[*ri];
        }
        Ok(())
    }

    /// Solves `A x = b` for the factored `A`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        x.clear();
        x.resize(n, T::zero());
        // Permuted right-hand side: pivot step k reads original row p[k]
        // and lives at solution slot q[k].
        for k in 0..n {
            x[self.q[k]] = b[self.p[k]];
        }
        // Forward substitution; L's unit diagonal is stored first in each
        // column and skipped.
        for j in 0..n {
            let xj = x[self.q[j]];
            for pp in self.l_colptr[j] + 1..self.l_colptr[j + 1] {
                let upd = self.l_values[pp] * xj;
                x[self.l_rowidx[pp]] -= upd;
            }
        }
        // Back substitution; U's diagonal is stored last in each column.
        for j in (0..n).rev() {
            let s = self.u_colptr[j];
            let e = self.u_colptr[j + 1];
            let xj = x[self.q[j]] / self.u_values[e - 1];
            x[self.q[j]] = xj;
            for pp in s..e - 1 {
                let upd = self.u_values[pp] * xj;
                x[self.u_rowidx[pp]] -= upd;
            }
        }
    }

    /// Solves `A X = B` for `lanes` right-hand sides in one traversal of
    /// the sparse factors, with `b` and `x` in lane-innermost layout
    /// (`[i * lanes + lane]`). Each lane performs the exact arithmetic of
    /// [`SparseLu::solve_into`] in the exact order (permutation, forward
    /// over L's columns, backward over U's columns), so every lane's
    /// solution is bitwise-equal to a scalar solve of that lane; the
    /// fusion shares the single walk over the factor indices/values
    /// across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim * lanes`.
    pub fn solve_multi_into(&self, b: &[T], lanes: usize, x: &mut Vec<T>) {
        let n = self.n;
        assert_eq!(b.len(), n * lanes, "dimension mismatch");
        x.clear();
        x.resize(n * lanes, T::zero());
        for k in 0..n {
            let (src, dst) = (self.p[k] * lanes, self.q[k] * lanes);
            x[dst..dst + lanes].copy_from_slice(&b[src..src + lanes]);
        }
        // Per-column pivot values, copied out so the scatter updates can
        // borrow `x` mutably.
        let mut xj = vec![T::zero(); lanes];
        // Forward substitution; L's unit diagonal is stored first in each
        // column and skipped.
        for j in 0..n {
            let base = self.q[j] * lanes;
            xj.copy_from_slice(&x[base..base + lanes]);
            for pp in self.l_colptr[j] + 1..self.l_colptr[j + 1] {
                let l = self.l_values[pp];
                let rb = self.l_rowidx[pp] * lanes;
                for (lane, &v) in xj.iter().enumerate() {
                    let upd = l * v;
                    x[rb + lane] -= upd;
                }
            }
        }
        // Back substitution; U's diagonal is stored last in each column.
        for j in (0..n).rev() {
            let s = self.u_colptr[j];
            let e = self.u_colptr[j + 1];
            let d = self.u_values[e - 1];
            let base = self.q[j] * lanes;
            for (lane, slot) in xj.iter_mut().enumerate() {
                *slot = x[base + lane] / d;
                x[base + lane] = *slot;
            }
            for pp in s..e - 1 {
                let u = self.u_values[pp];
                let rb = self.u_rowidx[pp] * lanes;
                for (lane, &v) in xj.iter().enumerate() {
                    let upd = u * v;
                    x[rb + lane] -= upd;
                }
            }
        }
    }

    /// Solves the *transposed* system `Aᵀ z = c` (plain transpose, no
    /// conjugation) against the stored factors, with `work` as scratch.
    /// With `P A Q = L U` this is `Uᵀ w = Qᵀ c`, then `Lᵀ v = w`, then
    /// `z = Pᵀ v`. A column of `U` (or `L`) is a row of its transpose, so
    /// both passes are gathers over the stored columns; step `k` lives at
    /// slot `q[k]` of `work`, where the factors' remapped row indices
    /// point, which makes the `Qᵀ c` permutation a plain copy.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` does not match the factored dimension.
    pub fn solve_transpose_into(&self, c: &[T], z: &mut Vec<T>, work: &mut Vec<T>) {
        let n = self.n;
        assert_eq!(c.len(), n, "dimension mismatch");
        work.clear();
        work.extend_from_slice(c);
        // Forward substitution with Uᵀ; U's diagonal is stored last in
        // each column.
        for j in 0..n {
            let s = self.u_colptr[j];
            let e = self.u_colptr[j + 1];
            let mut acc = work[self.q[j]];
            for pp in s..e - 1 {
                acc -= self.u_values[pp] * work[self.u_rowidx[pp]];
            }
            work[self.q[j]] = acc / self.u_values[e - 1];
        }
        // Back substitution with Lᵀ; L's unit diagonal is stored first in
        // each column and skipped.
        for j in (0..n).rev() {
            let mut acc = work[self.q[j]];
            for pp in self.l_colptr[j] + 1..self.l_colptr[j + 1] {
                acc -= self.l_values[pp] * work[self.l_rowidx[pp]];
            }
            work[self.q[j]] = acc;
        }
        z.clear();
        z.resize(n, T::zero());
        for k in 0..n {
            z[self.p[k]] = work[self.q[k]];
        }
    }
}

impl<T: Scalar> LinearSolver<T> for SparseLu<T> {
    fn dim(&self) -> usize {
        self.n
    }
    fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        SparseLu::solve_into(self, b, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::linalg::LuFactors;

    fn csc_of(rows: &[Vec<f64>]) -> CscMatrix<f64> {
        CscMatrix::from_dense(&Matrix::from_rows(rows))
    }

    #[test]
    fn triplet_compress_merges_duplicates() {
        let mut t = TripletList::new(3);
        t.push(0, 0, 1.0);
        t.push(2, 1, 5.0);
        t.push(0, 0, 2.0); // duplicate of (0, 0)
        t.push(1, 2, -1.0);
        t.push(2, 1, 0.5); // duplicate of (2, 1)
        let mut csc = CscMatrix::empty();
        t.compress_into(&mut csc);
        assert_eq!(csc.dim(), 3);
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csc.col_ptr(), &[0, 1, 2, 3]);
        assert_eq!(csc.row_idx(), &[0, 2, 1]);
        assert_eq!(csc.values(), &[3.0, 5.5, -1.0]);
    }

    #[test]
    fn triplet_compress_matches_dense_scatter() {
        let mut t = TripletList::new(4);
        for (r, c, v) in [
            (3, 0, 2.0),
            (0, 0, 1.0),
            (3, 0, -0.5),
            (1, 3, 4.0),
            (2, 2, 1.5),
            (1, 3, 1.0),
            (0, 1, -2.0),
        ] {
            t.push(r, c, v);
        }
        let mut dense = Matrix::zeros(4, 4);
        t.scatter_add(&mut dense);
        let mut csc = CscMatrix::empty();
        t.compress_into(&mut csc);
        assert_eq!(csc.to_dense(), dense);
    }

    #[test]
    fn empty_trailing_columns_are_well_formed() {
        let mut t = TripletList::new(3);
        t.push(1, 0, 7.0);
        let mut csc = CscMatrix::empty();
        t.compress_into(&mut csc);
        assert_eq!(csc.col_ptr(), &[0, 1, 1, 1]);
    }

    #[test]
    fn sparse_solve_matches_dense_on_known_system() {
        let rows = vec![
            vec![4.0, 1.0, 0.0, 0.0],
            vec![1.0, 5.0, 2.0, 0.0],
            vec![0.0, 2.0, 6.0, 1.0],
            vec![0.0, 0.0, 1.0, 3.0],
        ];
        let a = csc_of(&rows);
        let lu = SparseLu::factor(&a, 1e-300).unwrap();
        let b = [1.0, -2.0, 3.0, 0.5];
        let x = lu.solve(&b);
        let dense = LuFactors::factor(Matrix::from_rows(&rows), 1e-300).unwrap();
        let xd = dense.solve(&b);
        for (s, d) in x.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12, "{s} vs {d}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = csc_of(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = SparseLu::factor(&a, 1e-300).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_reports_original_column() {
        // Column 1 is a scaled copy of column 0: elimination must fail on
        // whichever of the pair is eliminated second, in original
        // numbering.
        let a = csc_of(&[
            vec![1.0, 2.0, 0.0],
            vec![2.0, 4.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        match SparseLu::factor(&a, 1e-300) {
            Err(SimError::SingularSparse { column }) => assert!(column < 2),
            other => panic!("expected SingularSparse, got {other:?}"),
        }
    }

    #[test]
    fn refactor_same_pattern_keeps_order_and_matches_fresh_factor() {
        let mut rows = vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 5.0, 2.0],
            vec![0.0, 2.0, 6.0],
        ];
        let a = csc_of(&rows);
        let mut lu = SparseLu::factor(&a, 1e-300).unwrap();
        let q0 = lu.col_order().to_vec();
        // New values, same pattern.
        rows[0][0] = 7.0;
        rows[1][2] = -3.0;
        let a2 = csc_of(&rows);
        lu.refactor(&a2, 1e-300).unwrap();
        assert_eq!(lu.col_order(), &q0[..], "symbolic order must be reused");
        let fresh = SparseLu::factor(&a2, 1e-300).unwrap();
        let b = [1.0, 2.0, 3.0];
        assert_eq!(lu.solve(&b), fresh.solve(&b), "refactor must be bitwise");
    }

    #[test]
    fn structurally_singular_is_rediagnosed() {
        // An empty column fails the preflight on *every* refactor attempt
        // (the pattern cache must not absorb a failing pattern), including
        // after a successful factorization of another pattern.
        let mut t = TripletList::new(2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let mut a = CscMatrix::empty();
        t.compress_into(&mut a);
        let mut lu = SparseLu::factor(&csc_of(&[vec![2.0, 0.0], vec![0.0, 3.0]]), 1e-300).unwrap();
        for _ in 0..2 {
            match lu.refactor(&a, 1e-300) {
                Err(SimError::StructurallySingular { column, .. }) => assert_eq!(column, 1),
                other => panic!("expected StructurallySingular, got {other:?}"),
            }
        }
    }

    #[test]
    fn refactor_detects_pattern_change() {
        let a = csc_of(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
        let mut lu = SparseLu::factor(&a, 1e-300).unwrap();
        let b = csc_of(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        lu.refactor(&b, 1e-300).unwrap();
        let x = lu.solve(&[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn complex_sparse_solve_roundtrip() {
        let mut t = TripletList::new(3);
        t.push(0, 0, Complex::new(2.0, 1.0));
        t.push(1, 0, Complex::new(0.0, -1.0));
        t.push(1, 1, Complex::new(3.0, 0.0));
        t.push(2, 1, Complex::new(0.5, 0.5));
        t.push(2, 2, Complex::new(1.0, -2.0));
        t.push(0, 2, Complex::new(0.0, 0.3));
        let mut a = CscMatrix::empty();
        t.compress_into(&mut a);
        let xt = vec![
            Complex::new(1.0, -1.0),
            Complex::new(2.0, 0.5),
            Complex::new(-0.3, 0.9),
        ];
        let b = a.mul_vec(&xt);
        let lu = SparseLu::factor(&a, 1e-300).unwrap();
        let x = lu.solve(&b);
        for (g, t) in x.iter().zip(&xt) {
            assert!((*g - *t).norm() < 1e-10);
        }
    }

    #[test]
    fn amd_order_is_permutation_and_defers_hub() {
        // Star graph: hub node 0 touches every leaf. Natural order
        // eliminates the hub first and fills the whole leaf clique; a
        // minimum-degree order peels leaves until the hub's degree decays
        // to a leaf's, so the hub lands in the last two positions.
        let n = 6;
        let mut t = TripletList::new(n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for leaf in 1..n {
            t.push(0, leaf, 1.0);
            t.push(leaf, 0, 1.0);
        }
        let mut a = CscMatrix::empty();
        t.compress_into(&mut a);
        let q = amd_order(n, a.col_ptr(), a.row_idx());
        let mut seen = vec![false; n];
        for &j in &q {
            assert!(j < n && !seen[j]);
            seen[j] = true;
        }
        let hub_at = q.iter().position(|&j| j == 0).unwrap();
        assert!(hub_at >= n - 2, "hub eliminated too early: step {hub_at}");
    }

    #[test]
    fn stamp_sink_routes_to_both_backends() {
        fn stamp<S: StampSink>(s: &mut S) {
            s.reset(2);
            s.add(0, 0, 1.0);
            s.add(0, 0, 0.5);
            s.add(1, 0, -1.0);
            s.add(1, 1, 2.0);
        }
        let mut dense = Matrix::<f64>::zeros(2, 2);
        stamp(&mut dense);
        let mut trip = TripletList::new(2);
        stamp(&mut trip);
        let mut csc = CscMatrix::empty();
        trip.compress_into(&mut csc);
        assert_eq!(csc.to_dense(), dense);
    }

    #[test]
    fn solver_config_crossover() {
        let auto = SolverConfig::default();
        assert!(!auto.use_sparse(DEFAULT_CROSSOVER - 1));
        assert!(auto.use_sparse(DEFAULT_CROSSOVER));
        assert!(!SolverConfig::dense().use_sparse(10_000));
        assert!(SolverConfig::sparse().use_sparse(1));
    }

    #[test]
    fn dense_by_fill_threshold_sides() {
        let auto = SolverConfig::default();
        let n = 40;
        // Exactly at the threshold counts as dense-worthy (>=), one
        // nonzero below it does not.
        let at = usize::from(DEFAULT_FILL_LIMIT_PCT) * n * n / 100;
        assert!(auto.dense_by_fill(n, at));
        assert!(!auto.dense_by_fill(n, at - 1));
        // A mesh-like factor (a few percent fill) never trips it.
        assert!(!auto.dense_by_fill(n, 6 * n));
        // Forced backends and a disabled limit never flip.
        assert!(!SolverConfig::sparse().dense_by_fill(n, n * n));
        assert!(!SolverConfig::dense().dense_by_fill(n, n * n));
        assert!(!auto.with_fill_limit_pct(0).dense_by_fill(n, n * n));
        assert!(!auto.dense_by_fill(0, 0));
    }

    /// The default fill limit separates the structures the simulator
    /// actually meets: near-dense randomized patterns (broad coupling,
    /// the shape a dense kernel beats sparse on) land above it, while
    /// 2D-mesh factors (PEX extraction shape) stay far below it.
    #[test]
    fn default_fill_limit_separates_mesh_from_near_dense() {
        // Near-dense: a banded matrix whose band spans most of the
        // system fills in past the limit.
        let n = 24;
        let mut dense_ish = Matrix::<f64>::zeros(n, n);
        let mut seed = 88172645463325252u64;
        let mut next = move || {
            // xorshift64 — deterministic, no external RNG.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for r in 0..n {
            for c in 0..n {
                if r != c && r.abs_diff(c) < 3 * n / 4 {
                    dense_ish[(r, c)] = next() - 0.5;
                }
            }
        }
        for r in 0..n {
            let rowsum: f64 = (0..n).map(|c| dense_ish[(r, c)].abs()).sum();
            dense_ish[(r, r)] = rowsum + 1.0;
        }
        let lu = SparseLu::factor(&CscMatrix::from_dense(&dense_ish), 1e-300).expect("dominant");
        let auto = SolverConfig::default();
        assert!(
            auto.dense_by_fill(n, lu.factor_nnz()),
            "near-dense band fill {} below limit at n={n}",
            lu.factor_nnz()
        );

        // Mesh: k x k grid Laplacian stays well under the limit.
        let k = 8;
        let m = k * k;
        let mut mesh = Matrix::<f64>::zeros(m, m);
        for r in 0..k {
            for c in 0..k {
                let i = r * k + c;
                if c + 1 < k {
                    mesh[(i, i + 1)] = -1.0;
                    mesh[(i + 1, i)] = -1.0;
                }
                if r + 1 < k {
                    mesh[(i, i + k)] = -1.0;
                    mesh[(i + k, i)] = -1.0;
                }
            }
        }
        for i in 0..m {
            mesh[(i, i)] = 5.0;
        }
        let mlu = SparseLu::factor(&CscMatrix::from_dense(&mesh), 1e-300).expect("dominant");
        assert!(
            !auto.dense_by_fill(m, mlu.factor_nnz()),
            "mesh fill {} trips limit at n={m}",
            mlu.factor_nnz()
        );
    }
}
