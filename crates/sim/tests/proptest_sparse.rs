//! Property-based tests for the sparse (CSC + AMD + left-looking LU)
//! backend: it must agree with the dense reference kernels on any
//! well-conditioned system, its `refactor` fast path must be bitwise
//! equal to a fresh factorization, its transposed solve must invert the
//! transpose, and the AMD ordering must be a valid permutation that never
//! *increases* fill on mesh-structured patterns.

use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions};
use autockt_sim::linalg::sparse::{amd_order, CscMatrix, SparseLu, TripletList};
use autockt_sim::linalg::{LuFactors, Matrix, Scalar};
use autockt_sim::netlist::{Circuit, GND};
use autockt_sim::{SolverBackend, SolverConfig};
use proptest::prelude::*;

/// A banded, symmetric, diagonally dominant matrix: nonsingular by
/// construction, and the column-dominant diagonal keeps partial pivoting
/// on the natural pivots so sparse and dense eliminations stay
/// numerically comparable.
fn banded_dominant(n: usize, band: usize, entries: &[f64]) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for r in 0..n {
        for c in (r + 1)..n.min(r + band + 1) {
            let v = entries[k % entries.len()].clamp(-10.0, 10.0);
            k += 1;
            m[(r, c)] = v;
            m[(c, r)] = v;
        }
    }
    for r in 0..n {
        let rowsum: f64 = (0..n).filter(|&c| c != r).map(|c| m[(r, c)].abs()).sum();
        let sign = if entries[(k + r) % entries.len()] >= 0.0 {
            1.0
        } else {
            -1.0
        };
        m[(r, r)] = sign * (rowsum + 1.0);
    }
    m
}

/// The sparsity pattern of a `k x k` 2D grid Laplacian (the RC-mesh
/// shape PEX extraction produces), with diagonally dominant values.
fn mesh_dominant(k: usize, entries: &[f64]) -> Matrix<f64> {
    let n = k * k;
    let mut m = Matrix::zeros(n, n);
    let mut e = 0;
    let mut couple = |m: &mut Matrix<f64>, a: usize, b: usize| {
        let v = 0.1 + entries[e % entries.len()].abs().clamp(0.0, 10.0);
        e += 1;
        m[(a, b)] = -v;
        m[(b, a)] = -v;
    };
    for r in 0..k {
        for c in 0..k {
            let i = r * k + c;
            if c + 1 < k {
                couple(&mut m, i, i + 1);
            }
            if r + 1 < k {
                couple(&mut m, i, i + k);
            }
        }
    }
    for i in 0..n {
        let rowsum: f64 = (0..n).filter(|&c| c != i).map(|c| m[(i, c)].abs()).sum();
        m[(i, i)] = rowsum + 1.0;
    }
    m
}

/// A nonsymmetric `k x k` grid system with fill under elimination: the
/// grid Laplacian's pattern, different couplings in the two directions of
/// each edge, an imaginary part scaled by `im_scale` (0 gives a
/// real-valued system), and rows shuffled by `keys` so the factorization
/// has to pivot off the diagonal.
fn shuffled_mesh(k: usize, entries: &[f64], keys: &[f64], im_scale: f64) -> Matrix<Complex> {
    let n = k * k;
    let mut m = Matrix::<Complex>::zeros(n, n);
    let mut e = 0;
    let mut val = || {
        let v = entries[e % entries.len()];
        e += 1;
        Complex::new(-0.1 - v.abs().clamp(0.0, 10.0), im_scale * v)
    };
    for r in 0..k {
        for c in 0..k {
            let i = r * k + c;
            let right = (c + 1 < k).then_some(i + 1);
            let down = (r + 1 < k).then_some(i + k);
            for j in right.into_iter().chain(down) {
                m[(i, j)] = val();
                m[(j, i)] = val();
            }
        }
    }
    for i in 0..n {
        let rowsum: f64 = (0..n).filter(|&c| c != i).map(|c| m[(i, c)].norm()).sum();
        m[(i, i)] = Complex::new(rowsum + 1.0, im_scale);
    }
    let mut rows: Vec<usize> = (0..n).collect();
    rows.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    let mut out = Matrix::zeros(n, n);
    for (r, &src) in rows.iter().enumerate() {
        for c in 0..n {
            out[(r, c)] = m[(src, c)];
        }
    }
    out
}

fn transpose<T: Scalar>(m: &Matrix<T>) -> Matrix<T> {
    let n = m.rows();
    let mut t = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            t[(c, r)] = m[(r, c)];
        }
    }
    t
}

/// Max-norm of `a - b` relative to the max-norm of `b`.
fn rel_diff<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    let scale = b.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    let diff = a
        .iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0f64, f64::max);
    diff / scale.max(f64::MIN_POSITIVE)
}

/// Transposed sparse solve of `a` against `c`: residual at roundoff and
/// agreement with a forward sparse solve of the explicit transpose.
fn check_transpose_solve<T: Scalar>(a: &Matrix<T>, c: &[T]) -> Result<(), String> {
    let at = transpose(a);
    let lu = SparseLu::factor(&CscMatrix::from_dense(a), 1e-300).map_err(|e| e.to_string())?;
    let (mut z, mut work) = (Vec::new(), Vec::new());
    lu.solve_transpose_into(c, &mut z, &mut work);
    let residual = rel_diff(&at.mul_vec(&z), c);
    if residual >= 1e-12 {
        return Err(format!("residual {residual:e}"));
    }
    let direct = SparseLu::factor(&CscMatrix::from_dense(&at), 1e-300)
        .map_err(|e| e.to_string())?
        .solve(c);
    let diff = rel_diff(&z, &direct);
    if diff >= 1e-12 {
        return Err(format!(
            "transposed vs explicit transpose differ by {diff:e}"
        ));
    }
    Ok(())
}

/// An `n`-segment RC ladder driven by a voltage source: MNA dimension
/// `n + 1`, the shape whose DC solve exercises the crossover dispatch.
fn rc_ladder(n: usize, r_scale: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("drive");
    ckt.vsource(prev, GND, 1.0, 0.0);
    for i in 0..n {
        let node = ckt.node(&format!("n{i}"));
        ckt.resistor(prev, node, r_scale * (1.0 + i as f64));
        ckt.capacitor(node, GND, 1e-12);
        prev = node;
    }
    // A resistive path to ground so the DC solution is nontrivial.
    ckt.resistor(prev, GND, 10.0 * r_scale);
    ckt
}

proptest! {
    /// Cold sparse solves match the dense kernel on banded dominant
    /// systems to solver tolerance.
    #[test]
    fn sparse_matches_dense_on_banded_systems(
        n in 2usize..24,
        band in 1usize..5,
        entries in prop::collection::vec(-10.0..10.0f64, 64),
        x in prop::collection::vec(-100.0..100.0f64, 24),
    ) {
        let a = banded_dominant(n, band, &entries);
        let xt = &x[..n];
        let b = a.mul_vec(xt);
        let dense = LuFactors::factor(a.clone(), 1e-300).expect("dominant");
        let slu = SparseLu::factor(&CscMatrix::from_dense(&a), 1e-300).expect("dominant");
        let xd = dense.solve(&b);
        let xs = slu.solve(&b);
        for ((d, s), t) in xd.iter().zip(&xs).zip(xt) {
            prop_assert!((d - s).abs() <= 1e-9 * (1.0 + t.abs()), "{d} vs {s}");
            prop_assert!((s - t).abs() <= 1e-7 * (1.0 + t.abs()), "{s} vs {t}");
        }
    }

    /// `refactor` on a same-pattern matrix is bitwise identical to a
    /// fresh `factor` of the new values.
    #[test]
    fn sparse_refactor_is_bitwise_equal_to_fresh_factor(
        n in 2usize..16,
        band in 1usize..4,
        ea in prop::collection::vec(-10.0..10.0f64, 64),
        eb in prop::collection::vec(-10.0..10.0f64, 64),
        b in prop::collection::vec(-100.0..100.0f64, 16),
    ) {
        let a1 = banded_dominant(n, band, &ea);
        // Same zero/nonzero structure, different values: scale `a1`'s
        // off-diagonals by a strictly positive factor and rebuild the
        // dominant diagonal.
        let mut a2 = a1.clone();
        for r in 0..n {
            for c in 0..n {
                if r != c && a2[(r, c)] != 0.0 {
                    a2[(r, c)] *= 1.0 + 0.05 * eb[(r * n + c) % eb.len()].abs();
                }
            }
        }
        for r in 0..n {
            let rowsum: f64 = (0..n).filter(|&c| c != r).map(|c| a2[(r, c)].abs()).sum();
            a2[(r, r)] = rowsum + 1.0;
        }
        let c1 = CscMatrix::from_dense(&a1);
        let c2 = CscMatrix::from_dense(&a2);
        assert_eq!(c1.col_ptr(), c2.col_ptr());
        assert_eq!(c1.row_idx(), c2.row_idx());
        let fresh = SparseLu::factor(&c2, 1e-300).expect("dominant");
        let mut warm = SparseLu::factor(&c1, 1e-300).expect("dominant");
        warm.refactor(&c2, 1e-300).expect("dominant");
        let rhs = &b[..n];
        prop_assert_eq!(warm.solve(rhs), fresh.solve(rhs));
        prop_assert_eq!(warm.factor_nnz(), fresh.factor_nnz());
        prop_assert_eq!(warm.col_order(), fresh.col_order());
    }

    /// AMD returns a valid permutation, and on mesh patterns its fill
    /// never exceeds the natural (identity) ordering's.
    #[test]
    fn amd_is_a_permutation_and_does_not_increase_mesh_fill(
        k in 2usize..7,
        entries in prop::collection::vec(-10.0..10.0f64, 64),
    ) {
        let a = mesh_dominant(k, &entries);
        let n = k * k;
        let csc = CscMatrix::from_dense(&a);
        let order = amd_order(n, csc.col_ptr(), csc.row_idx());
        prop_assert_eq!(order.len(), n);
        let mut seen = vec![false; n];
        for &j in &order {
            prop_assert!(j < n && !seen[j], "not a permutation: {:?}", order);
            seen[j] = true;
        }
        let natural: Vec<usize> = (0..n).collect();
        let amd = SparseLu::factor_with_order(&csc, &order, 1e-300).expect("dominant");
        let nat = SparseLu::factor_with_order(&csc, &natural, 1e-300).expect("dominant");
        prop_assert!(
            amd.factor_nnz() <= nat.factor_nnz(),
            "AMD fill {} vs natural {}",
            amd.factor_nnz(),
            nat.factor_nnz()
        );
        // Both factorizations still solve the system.
        let b = a.mul_vec(&vec![1.0; n]);
        for (x, y) in amd.solve(&b).iter().zip(nat.solve(&b)) {
            prop_assert!((x - 1.0).abs() < 1e-7 && (y - 1.0).abs() < 1e-7, "{x} {y}");
        }
    }

    /// Duplicate (row, col) triplets merge at compression time: pushing
    /// a stamp in arbitrary split pieces compresses to the same CSC
    /// matrix as pushing it whole.
    #[test]
    fn triplet_duplicates_merge_like_dense_accumulation(
        n in 2usize..10,
        m in 1usize..40,
        slots in prop::collection::vec(0usize..100, 40),
        vals in prop::collection::vec(-10.0..10.0f64, 40),
        pieces in prop::collection::vec(2usize..5, 40),
    ) {
        let mut dense: Matrix<f64> = Matrix::zeros(n, n);
        let mut trip: TripletList<f64> = TripletList::new(n);
        for i in 0..m {
            let (r, c) = (slots[i] / 10 % n, slots[i] % n);
            let (v, p) = (vals[i], pieces[i]);
            dense[(r, c)] += v;
            // Same total, pushed as `p` separate triplets.
            for _ in 0..p {
                trip.push(r, c, v / p as f64);
            }
        }
        let mut csc = CscMatrix::empty();
        trip.compress_into(&mut csc);
        let got = csc.to_dense();
        for r in 0..n {
            for c in 0..n {
                let (g, d) = (got[(r, c)], dense[(r, c)]);
                prop_assert!((g - d).abs() <= 1e-12 * (1.0 + d.abs()), "{g} vs {d}");
            }
        }
    }

    /// `solve_transpose_into` solves `Aᵀ z = c` (no conjugation) on
    /// shuffled nonsymmetric grid systems whose factors fill in, real and
    /// complex.
    #[test]
    fn sparse_transpose_solve_matches_explicit_transpose(
        k in 2usize..7,
        entries in prop::collection::vec(-10.0..10.0f64, 64),
        keys in prop::collection::vec(0.0..1.0f64, 36),
        cre in prop::collection::vec(-10.0..10.0f64, 36),
        cim in prop::collection::vec(-10.0..10.0f64, 36),
    ) {
        let n = k * k;
        let a = shuffled_mesh(k, &entries, &keys[..n], 1.0);
        let c: Vec<Complex> = cre[..n]
            .iter()
            .zip(&cim[..n])
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        let r = check_transpose_solve(&a, &c);
        prop_assert!(r.is_ok(), "complex: {}", r.unwrap_err());
        let real = shuffled_mesh(k, &entries, &keys[..n], 0.0);
        let mut a_re: Matrix<f64> = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a_re[(i, j)] = real[(i, j)].re;
            }
        }
        let r = check_transpose_solve(&a_re, &cre[..n]);
        prop_assert!(r.is_ok(), "real: {}", r.unwrap_err());
    }

    /// The Auto backend dispatches bitwise-identically to whichever
    /// forced backend its crossover selects, end to end through the DC
    /// operating-point solve.
    #[test]
    fn auto_crossover_dispatch_is_bitwise(
        segs in 3usize..12,
        crossover in 2usize..20,
        r_scale in 10.0..1e4f64,
    ) {
        let ckt = rc_ladder(segs, r_scale);
        let dim = segs + 2; // segs internal nodes + drive node + vsource branch
        let solve_with = |backend: SolverBackend| {
            let opts = DcOptions {
                solver: SolverConfig {
                    backend,
                    crossover,
                    ..SolverConfig::default()
                },
                ..DcOptions::default()
            };
            dc_operating_point(&ckt, &opts).expect("rc ladder solves").mna_vector()
        };
        let auto = solve_with(SolverBackend::Auto);
        let forced = if dim >= crossover {
            solve_with(SolverBackend::Sparse)
        } else {
            solve_with(SolverBackend::Dense)
        };
        prop_assert_eq!(auto, forced);
    }
}
