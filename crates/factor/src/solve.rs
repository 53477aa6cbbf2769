//! Sequential reference triangular solves on the supernodal factors.
//!
//! These implement Eq. (1) and Eq. (2) of the paper directly (with the
//! precomputed diagonal inverses) and serve as the ground truth every
//! distributed algorithm is verified against.

use crate::numeric::LuFactors;
use sparse::dense::gemv;

/// `y_c ← y_c + alpha · A x_c` for four vectors at once, so `A` (col-major
/// `m × n`) is read once for the four: `x` is `n × 4` and `y` is `m × 4`,
/// both col-major.
fn gemv4(alpha: f64, a: &[f64], m: usize, n: usize, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), 4 * n);
    debug_assert_eq!(y.len(), 4 * m);
    let (y0, rest) = y.split_at_mut(m);
    let (y1, rest) = rest.split_at_mut(m);
    let (y2, y3) = rest.split_at_mut(m);
    for j in 0..n {
        let v = [
            alpha * x[j],
            alpha * x[n + j],
            alpha * x[2 * n + j],
            alpha * x[3 * n + j],
        ];
        if v == [0.0; 4] {
            continue;
        }
        let col = &a[j * m..(j + 1) * m];
        for ((((&c, y0), y1), y2), y3) in col
            .iter()
            .zip(y0.iter_mut())
            .zip(y1.iter_mut())
            .zip(y2.iter_mut())
            .zip(y3.iter_mut())
        {
            *y0 += c * v[0];
            *y1 += c * v[1];
            *y2 += c * v[2];
            *y3 += c * v[3];
        }
    }
}

/// `Y ← Y + alpha · A X` with `A` col-major `m × n`, `X` `n × nrhs` and
/// `Y` `m × nrhs` col-major: columns four at a time, the rest singly.
fn gemv_cols(alpha: f64, a: &[f64], m: usize, n: usize, x: &[f64], y: &mut [f64], nrhs: usize) {
    let quads = nrhs / 4;
    for c in 0..quads {
        let (c0, c1) = (4 * c, 4 * c + 4);
        gemv4(alpha, a, m, n, &x[c0 * n..c1 * n], &mut y[c0 * m..c1 * m]);
    }
    for c in 4 * quads..nrhs {
        gemv(
            alpha,
            a,
            m,
            n,
            &x[c * n..(c + 1) * n],
            &mut y[c * m..(c + 1) * m],
        );
    }
}

/// Empty `v` and refill it with `len` zeros (no reallocation once `v` has
/// reached its largest size).
fn zeroed(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
}

impl LuFactors {
    /// In-place lower-triangular solve `L y = b` for `nrhs` column-major
    /// right-hand sides (`b` is overwritten with `y`).
    pub fn solve_l(&self, b: &mut [f64], nrhs: usize) {
        let n = self.n();
        assert_eq!(b.len(), n * nrhs);
        let sym = self.sym();
        // b(K), y(K) and the update L(R_K, K)·y(K), each contiguous per
        // right-hand side.
        let (mut bk, mut yk, mut upd) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..sym.n_supernodes() {
            let cols = sym.sup_cols(k);
            let (s, w) = (cols.start, cols.len());
            let rows = sym.rows_below(k);
            let ri = rows.len();
            let p = self.panel(k);
            // y(K) = L(K,K)⁻¹ · b(K)
            bk.clear();
            for r in 0..nrhs {
                bk.extend_from_slice(&b[r * n + s..r * n + s + w]);
            }
            zeroed(&mut yk, w * nrhs);
            gemv_cols(1.0, &p.dinv_l, w, w, &bk, &mut yk, nrhs);
            for r in 0..nrhs {
                b[r * n + s..r * n + s + w].copy_from_slice(&yk[r * w..(r + 1) * w]);
            }
            // b(R_K) −= L(R_K, K) · y(K): one dense product, one scatter.
            zeroed(&mut upd, ri * nrhs);
            gemv_cols(1.0, &p.l_below, ri, w, &yk, &mut upd, nrhs);
            for r in 0..nrhs {
                let br = &mut b[r * n..(r + 1) * n];
                for (&gi, &u) in rows.iter().zip(&upd[r * ri..(r + 1) * ri]) {
                    br[gi as usize] -= u;
                }
            }
        }
    }

    /// In-place upper-triangular solve `U x = y` for `nrhs` column-major
    /// right-hand sides (`b` is overwritten with `x`).
    pub fn solve_u(&self, b: &mut [f64], nrhs: usize) {
        let n = self.n();
        assert_eq!(b.len(), n * nrhs);
        let sym = self.sym();
        // x(R_K) gathered, the right-hand side t and x(K), each contiguous
        // per right-hand side.
        let (mut xr, mut acc, mut xk) = (Vec::new(), Vec::new(), Vec::new());
        for k in (0..sym.n_supernodes()).rev() {
            let cols = sym.sup_cols(k);
            let (s, w) = (cols.start, cols.len());
            let rows = sym.rows_below(k);
            let ri = rows.len();
            let p = self.panel(k);
            // t = y(K) − U(K, R_K) · x(R_K): one gather, one dense product.
            xr.clear();
            acc.clear();
            for r in 0..nrhs {
                let br = &b[r * n..(r + 1) * n];
                xr.extend(rows.iter().map(|&gi| br[gi as usize]));
                acc.extend_from_slice(&br[s..s + w]);
            }
            gemv_cols(-1.0, &p.u_right, w, ri, &xr, &mut acc, nrhs);
            // x(K) = U(K,K)⁻¹ · t
            zeroed(&mut xk, w * nrhs);
            gemv_cols(1.0, &p.dinv_u, w, w, &acc, &mut xk, nrhs);
            for r in 0..nrhs {
                b[r * n + s..r * n + s + w].copy_from_slice(&xk[r * w..(r + 1) * w]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{factorize, LuFactors};
    use ordering::SymbolicOptions;
    use sparse::dense::gemv;
    use sparse::gen;

    fn roundtrip(a: &sparse::CsrMatrix, pz: usize, nrhs: usize, tol: f64) {
        let f = factorize(a, pz, &SymbolicOptions::default()).expect("factorizes");
        let b = gen::standard_rhs(a.nrows(), nrhs);
        let x = f.solve(&b, nrhs);
        let res = sparse::rel_residual_inf(a, &x, &b, nrhs);
        assert!(res < tol, "residual {res} too large");
    }

    /// `L y = b` one column and one row at a time: the summation order
    /// the blocked solve replaced.
    fn solve_l_scalar(lu: &LuFactors, b: &mut [f64], nrhs: usize) {
        let (n, sym) = (lu.n(), lu.sym());
        for k in 0..sym.n_supernodes() {
            let (s, w) = (sym.sup_cols(k).start, sym.sup_width(k));
            let rows = sym.rows_below(k);
            let p = lu.panel(k);
            for r in 0..nrhs {
                let mut yk = vec![0.0; w];
                gemv(1.0, &p.dinv_l, w, w, &b[r * n + s..r * n + s + w], &mut yk);
                b[r * n + s..r * n + s + w].copy_from_slice(&yk);
                for (j, &yv) in yk.iter().enumerate() {
                    let lcol = &p.l_below[j * rows.len()..(j + 1) * rows.len()];
                    for (q, &gi) in rows.iter().enumerate() {
                        b[r * n + gi as usize] -= lcol[q] * yv;
                    }
                }
            }
        }
    }

    /// `U x = y` in the same style.
    fn solve_u_scalar(lu: &LuFactors, b: &mut [f64], nrhs: usize) {
        let (n, sym) = (lu.n(), lu.sym());
        for k in (0..sym.n_supernodes()).rev() {
            let (s, w) = (sym.sup_cols(k).start, sym.sup_width(k));
            let p = lu.panel(k);
            for r in 0..nrhs {
                let mut acc = b[r * n + s..r * n + s + w].to_vec();
                for (q, &gi) in sym.rows_below(k).iter().enumerate() {
                    let xv = b[r * n + gi as usize];
                    for (a, &u) in acc.iter_mut().zip(&p.u_right[q * w..(q + 1) * w]) {
                        *a -= u * xv;
                    }
                }
                let dst = &mut b[r * n + s..r * n + s + w];
                dst.fill(0.0);
                gemv(1.0, &p.dinv_u, w, w, &acc, dst);
            }
        }
    }

    /// Every width takes its own mix of the four-wide and single-column
    /// paths; all must agree with the scalar order to rounding.
    #[test]
    fn blocked_solves_match_the_scalar_order() {
        for a in [gen::poisson2d_9pt(12, 12), gen::kkt3d(3, 3, 3)] {
            let f = factorize(&a, 2, &SymbolicOptions::default()).expect("factorizes");
            for nrhs in [1usize, 2, 3, 4, 5, 8] {
                let mut got = gen::standard_rhs(a.nrows(), nrhs);
                let mut want = got.clone();
                f.lu.solve_l(&mut got, nrhs);
                solve_l_scalar(&f.lu, &mut want, nrhs);
                let dl = sparse::max_abs_diff(&got, &want);
                assert!(dl < 1e-12, "L solve, nrhs {nrhs}: off by {dl:e}");
                f.lu.solve_u(&mut got, nrhs);
                solve_u_scalar(&f.lu, &mut want, nrhs);
                let du = sparse::max_abs_diff(&got, &want);
                assert!(du < 1e-12, "U solve, nrhs {nrhs}: off by {du:e}");
            }
        }
    }

    #[test]
    fn poisson2d_single_rhs() {
        roundtrip(&gen::poisson2d_9pt(10, 10), 1, 1, 1e-11);
    }

    #[test]
    fn poisson2d_multi_rhs() {
        roundtrip(&gen::poisson2d_9pt(9, 7), 2, 5, 1e-11);
    }

    #[test]
    fn poisson3d() {
        roundtrip(&gen::poisson3d_7pt(4, 4, 4), 4, 2, 1e-11);
    }

    #[test]
    fn kkt_matrix() {
        roundtrip(&gen::kkt3d(3, 3, 3), 2, 1, 1e-11);
    }

    #[test]
    fn elasticity_matrix() {
        roundtrip(&gen::elasticity3d(3, 3, 2, 5), 2, 3, 1e-11);
    }

    #[test]
    fn wave_matrix() {
        roundtrip(&gen::wave3d_27pt(4, 3, 3), 2, 1, 1e-11);
    }

    #[test]
    fn chem_matrix() {
        roundtrip(&gen::chem_cliques(80, 40, 10, 2), 2, 2, 1e-10);
    }

    #[test]
    fn fusion_matrix() {
        roundtrip(&gen::fusion_band(120, 5, 15, 3), 4, 1, 1e-10);
    }

    #[test]
    fn tiny_supernodes_still_solve() {
        let a = gen::poisson2d_5pt(8, 8);
        let (nd, sym) = ordering::analyze(
            &a,
            2,
            &SymbolicOptions {
                max_supernode: 1,
                relax_size: 0,
            },
        );
        let pa = a.permute_sym(&nd.perm);
        let lu = crate::factorize_numeric(&pa, sym).unwrap();
        let b = gen::standard_rhs(64, 1);
        // permute
        let mut pb = vec![0.0; 64];
        for i in 0..64 {
            pb[i] = b[nd.perm[i]];
        }
        lu.solve_l(&mut pb, 1);
        lu.solve_u(&mut pb, 1);
        let mut x = vec![0.0; 64];
        for i in 0..64 {
            x[nd.perm[i]] = pb[i];
        }
        assert!(sparse::rel_residual_inf(&a, &x, &b, 1) < 1e-11);
    }
}
