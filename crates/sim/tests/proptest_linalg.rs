//! Property-based tests for the linear-algebra kernel: LU solves must
//! invert `mul_vec` for any well-conditioned system, real or complex, and
//! the transposed solve must invert the transpose.

use autockt_sim::complex::Complex;
use autockt_sim::linalg::{solve, ComplexLuBatch, ComplexLuSoa, LuFactors, Matrix, RealLuBatch};
use proptest::prelude::*;

/// Builds a diagonally dominant matrix from arbitrary entries — guaranteed
/// nonsingular, so the roundtrip property is well-posed.
fn dominant_from(entries: Vec<f64>, n: usize) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut rowsum = 0.0;
        for c in 0..n {
            if r != c {
                let v = entries[r * n + c].clamp(-10.0, 10.0);
                m[(r, c)] = v;
                rowsum += v.abs();
            }
        }
        let sign = if entries[r * n + r] >= 0.0 { 1.0 } else { -1.0 };
        m[(r, r)] = sign * (rowsum + 1.0 + entries[r * n + r].abs().clamp(0.0, 10.0));
    }
    m
}

/// Row order that sorts `keys`: a random permutation from random keys.
fn argsort(keys: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    idx
}

/// Max-norm of `a - b` relative to the max-norm of `b`.
fn rel_diff(a: &[Complex], b: &[Complex]) -> f64 {
    let scale = b.iter().map(|v| v.norm()).fold(0.0f64, f64::max);
    let diff = a
        .iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0f64, f64::max);
    diff / scale.max(f64::MIN_POSITIVE)
}

proptest! {
    #[test]
    fn lu_roundtrip_real(
        n in 1usize..8,
        entries in prop::collection::vec(-10.0..10.0f64, 64),
        x in prop::collection::vec(-100.0..100.0f64, 8),
    ) {
        let a = dominant_from(entries, n);
        let xt = &x[..n];
        let b = a.mul_vec(xt);
        let got = solve(a, &b).expect("dominant matrix is nonsingular");
        for (g, t) in got.iter().zip(xt) {
            prop_assert!((g - t).abs() < 1e-7 * (1.0 + t.abs()), "{g} vs {t}");
        }
    }

    #[test]
    fn lu_roundtrip_complex(
        n in 1usize..6,
        re in prop::collection::vec(-5.0..5.0f64, 36),
        im in prop::collection::vec(-5.0..5.0f64, 36),
        xre in prop::collection::vec(-10.0..10.0f64, 6),
    ) {
        let mut a = Matrix::<Complex>::zeros(n, n);
        for r in 0..n {
            let mut rowsum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = Complex::new(re[r * n + c], im[r * n + c]);
                    a[(r, c)] = v;
                    rowsum += v.norm();
                }
            }
            a[(r, r)] = Complex::new(rowsum + 1.0, im[r * n + r]);
        }
        let xt: Vec<Complex> = xre[..n].iter().map(|v| Complex::new(*v, -v * 0.5)).collect();
        let b = a.mul_vec(&xt);
        let got = solve(a, &b).expect("dominant complex matrix");
        for (g, t) in got.iter().zip(&xt) {
            prop_assert!((*g - *t).norm() < 1e-7 * (1.0 + t.norm()));
        }
    }

    /// The structure-of-arrays complex LU performs the same operations in
    /// the same order as the generic `LuFactors<Complex>` kernel, so its
    /// factors and solutions are *bitwise* equal — not merely within
    /// tolerance — for any solvable system, including ill-scaled ones
    /// (no diagonal-dominance conditioning here: whenever the generic
    /// kernel factors, the SoA kernel must agree exactly).
    #[test]
    fn soa_complex_lu_matches_generic_kernel_bitwise(
        n in 1usize..8,
        re in prop::collection::vec(-50.0..50.0f64, 64),
        im in prop::collection::vec(-50.0..50.0f64, 64),
        bre in prop::collection::vec(-10.0..10.0f64, 8),
        bim in prop::collection::vec(-10.0..10.0f64, 8),
    ) {
        let mut a = Matrix::<Complex>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = Complex::new(re[r * n + c], im[r * n + c]);
            }
        }
        let b: Vec<Complex> = bre[..n]
            .iter()
            .zip(&bim[..n])
            .map(|(&br, &bi)| Complex::new(br, bi))
            .collect();
        let aos = LuFactors::factor(a.clone(), 1e-300);
        let soa = ComplexLuSoa::factor(&a, 1e-300);
        match (aos, soa) {
            (Ok(aos), Ok(soa)) => {
                let xa = aos.solve(&b);
                let xs = soa.solve(&b);
                prop_assert_eq!(xa, xs);
            }
            (Err(ea), Err(es)) => prop_assert_eq!(ea, es),
            (a, s) => prop_assert!(false, "kernels disagree on solvability: {a:?} vs {s:?}"),
        }
    }

    /// Each system of a real lockstep batch performs the same operations
    /// in the same order as the scalar `LuFactors<f64>` kernel, so its
    /// factors and solutions are *bitwise* equal — including batches that
    /// mix solvable and singular systems (a singular sibling must be
    /// masked off without perturbing anyone else's lanes).
    #[test]
    fn real_lu_batch_matches_scalar_kernel_bitwise(
        n in 1usize..7,
        batch in 1usize..6,
        entries in prop::collection::vec(-50.0..50.0f64, 6 * 49),
        rhs in prop::collection::vec(-10.0..10.0f64, 6 * 7),
        degenerate in prop::collection::vec(0usize..5, 6),
    ) {
        // Per-system dense matrices; some systems are deliberately made
        // rank-deficient by duplicating a row.
        let mats: Vec<Matrix<f64>> = (0..batch)
            .map(|b| {
                let mut m = Matrix::zeros(n, n);
                for r in 0..n {
                    for c in 0..n {
                        m[(r, c)] = entries[(b * n + r) * n + c];
                    }
                }
                if degenerate[b] == 0 && n > 1 {
                    for c in 0..n {
                        let v = m[(0, c)];
                        m[(1, c)] = v;
                    }
                }
                m
            })
            .collect();
        let mut lu = RealLuBatch::empty();
        lu.refactor_with(n, batch, 1e-300, |data| {
            for (b, m) in mats.iter().enumerate() {
                for r in 0..n {
                    for c in 0..n {
                        data[(r * n + c) * batch + b] = m[(r, c)];
                    }
                }
            }
        });
        let mut brhs = vec![0.0; n * batch];
        for i in 0..n {
            for b in 0..batch {
                brhs[i * batch + b] = rhs[b * n + i];
            }
        }
        let (mut x, mut acc) = (Vec::new(), Vec::new());
        lu.solve_batch_into(&brhs, &mut x, &mut acc);
        for (b, m) in mats.iter().enumerate() {
            let scalar = LuFactors::factor(m.clone(), 1e-300);
            match (scalar, lu.singular(b)) {
                (Ok(f), None) => {
                    let xs = f.solve(&rhs[b * n..(b + 1) * n]);
                    let xb: Vec<f64> = (0..n).map(|i| x[i * batch + b]).collect();
                    prop_assert_eq!(xs, xb, "system {} diverged", b);
                }
                (Err(autockt_sim::SimError::SingularMatrix { column }), Some(col)) => {
                    prop_assert_eq!(column, col, "system {} failing column", b);
                }
                (s, bs) => prop_assert!(
                    false,
                    "system {} disagrees on solvability: {:?} vs {:?}",
                    b, s, bs
                ),
            }
        }
    }

    /// The complex lockstep batch against the SoA kernel (itself bitwise
    /// against the generic kernel): per-system bitwise equality, mixed
    /// solvable/singular batches included.
    #[test]
    fn complex_lu_batch_matches_soa_kernel_bitwise(
        n in 1usize..6,
        batch in 1usize..6,
        re in prop::collection::vec(-50.0..50.0f64, 6 * 36),
        im in prop::collection::vec(-50.0..50.0f64, 6 * 36),
        bre in prop::collection::vec(-10.0..10.0f64, 6 * 6),
        bim in prop::collection::vec(-10.0..10.0f64, 6 * 6),
        degenerate in prop::collection::vec(0usize..5, 6),
    ) {
        let mats: Vec<Matrix<Complex>> = (0..batch)
            .map(|b| {
                let mut m = Matrix::zeros(n, n);
                for r in 0..n {
                    for c in 0..n {
                        let i = (b * n + r) * n + c;
                        m[(r, c)] = Complex::new(re[i], im[i]);
                    }
                }
                if degenerate[b] == 0 && n > 1 {
                    for c in 0..n {
                        let v = m[(0, c)];
                        m[(1, c)] = v;
                    }
                }
                m
            })
            .collect();
        let mut lu = ComplexLuBatch::empty();
        lu.refactor_with(n, batch, 1e-300, |dre, dim| {
            for (b, m) in mats.iter().enumerate() {
                for r in 0..n {
                    for c in 0..n {
                        dre[(r * n + c) * batch + b] = m[(r, c)].re;
                        dim[(r * n + c) * batch + b] = m[(r, c)].im;
                    }
                }
            }
        });
        let mut rhs_re = vec![0.0; n * batch];
        let mut rhs_im = vec![0.0; n * batch];
        for i in 0..n {
            for b in 0..batch {
                rhs_re[i * batch + b] = bre[b * n + i];
                rhs_im[i * batch + b] = bim[b * n + i];
            }
        }
        let (mut xr, mut xi) = (Vec::new(), Vec::new());
        let (mut ar, mut ai) = (Vec::new(), Vec::new());
        lu.solve_batch_into(&rhs_re, &rhs_im, &mut xr, &mut xi, &mut ar, &mut ai);
        for (b, m) in mats.iter().enumerate() {
            let rhs: Vec<Complex> = (0..n)
                .map(|i| Complex::new(bre[b * n + i], bim[b * n + i]))
                .collect();
            match (ComplexLuSoa::factor(m, 1e-300), lu.singular(b)) {
                (Ok(f), None) => {
                    let xs = f.solve(&rhs);
                    let xb: Vec<Complex> = (0..n)
                        .map(|i| Complex::new(xr[i * batch + b], xi[i * batch + b]))
                        .collect();
                    prop_assert_eq!(xs, xb, "system {} diverged", b);
                }
                (Err(autockt_sim::SimError::SingularMatrix { column }), Some(col)) => {
                    prop_assert_eq!(column, col, "system {} failing column", b);
                }
                (s, bs) => prop_assert!(
                    false,
                    "system {} disagrees on solvability: {:?} vs {:?}",
                    b, s, bs
                ),
            }
        }
    }

    /// `solve_transpose_into` solves `Aᵀ z = c` with the plain transpose
    /// (no conjugation), for real-valued and complex systems: the residual
    /// is at roundoff, and the result agrees with a forward solve of the
    /// explicitly transposed matrix. The rows of a dominant matrix are
    /// shuffled so partial pivoting has to swap on almost every column.
    #[test]
    fn soa_transpose_solve_matches_explicit_transpose(
        n in 1usize..12,
        real in 0usize..2,
        re in prop::collection::vec(-10.0..10.0f64, 144),
        im in prop::collection::vec(-10.0..10.0f64, 144),
        keys in prop::collection::vec(0.0..1.0f64, 12),
        cre in prop::collection::vec(-10.0..10.0f64, 12),
        cim in prop::collection::vec(-10.0..10.0f64, 12),
    ) {
        let im_scale = if real == 1 { 0.0 } else { 1.0 };
        let mut d = Matrix::<Complex>::zeros(n, n);
        for r in 0..n {
            let mut rowsum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = Complex::new(re[r * n + c], im_scale * im[r * n + c]);
                    d[(r, c)] = v;
                    rowsum += v.norm();
                }
            }
            d[(r, r)] = Complex::new(rowsum + 1.0, im_scale * im[r * n + r]);
        }
        let rows = argsort(&keys[..n]);
        let mut a = Matrix::<Complex>::zeros(n, n);
        let mut at = Matrix::<Complex>::zeros(n, n);
        for (r, &src) in rows.iter().enumerate() {
            for c in 0..n {
                a[(r, c)] = d[(src, c)];
                at[(c, r)] = d[(src, c)];
            }
        }
        let c: Vec<Complex> = cre[..n]
            .iter()
            .zip(&cim[..n])
            .map(|(&r, &i)| Complex::new(r, im_scale * i))
            .collect();
        let lu = ComplexLuSoa::factor(&a, 1e-300).expect("shuffled dominant matrix");
        let (mut z, mut work) = (Vec::new(), Vec::new());
        lu.solve_transpose_into(&c, &mut z, &mut work);
        prop_assert!(rel_diff(&at.mul_vec(&z), &c) < 1e-12, "residual too large");
        let direct = ComplexLuSoa::factor(&at, 1e-300).expect("transpose factors").solve(&c);
        prop_assert!(rel_diff(&z, &direct) < 1e-12, "{z:?} vs {direct:?}");
        if real == 1 {
            prop_assert!(z.iter().all(|v| v.im == 0.0), "real system, complex result");
        }
    }

    #[test]
    fn complex_field_axioms(
        ar in -100.0..100.0f64, ai in -100.0..100.0f64,
        br in -100.0..100.0f64, bi in -100.0..100.0f64,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity.
        let d1 = a * b - b * a;
        prop_assert!(d1.norm() < 1e-9);
        // |ab| = |a||b| up to rounding.
        prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() < 1e-6 * (1.0 + a.norm() * b.norm()));
        // Conjugate product is the squared norm.
        let c = a * a.conj();
        prop_assert!((c.re - a.norm_sqr()).abs() < 1e-9 * (1.0 + a.norm_sqr()));
        prop_assert!(c.im.abs() < 1e-9 * (1.0 + a.norm_sqr()));
    }
}
