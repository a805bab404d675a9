//! Dense exact-rational matrices: reduced row-echelon form.
//!
//! Used by the affine-equalities domain to row-reduce the condition matrix
//! of an affine hull (Karr's join), whose null space is the hull's
//! equalities.

use cai_num::Rat;

/// A dense matrix of rationals (row major).
pub type Matrix = Vec<Vec<Rat>>;

/// Brings `m` into reduced row-echelon form in place and returns the pivot
/// column of each (nonzero) row, in order. Zero rows are removed.
pub fn rref(m: &mut Matrix) -> Vec<usize> {
    let rows = m.len();
    if rows == 0 {
        return Vec::new();
    }
    let cols = m[0].len();
    let mut pivots = Vec::new();
    let mut r = 0;
    for c in 0..cols {
        // Find a row at or below r with a nonzero entry in column c.
        let Some(sel) = (r..rows).find(|&i| !m[i][c].is_zero()) else {
            continue;
        };
        m.swap(r, sel);
        // Row r is zero left of column c, and a zero entry leaves the
        // update unchanged, so only its nonzero entries from c on are used.
        let inv = m[r][c].recip();
        for x in &mut m[r][c..] {
            if !x.is_zero() {
                *x = &*x * &inv;
            }
        }
        for i in 0..rows {
            if i != r && !m[i][c].is_zero() {
                let f = m[i][c].clone();
                // Indexing: the update reads row r while writing row i.
                #[allow(clippy::needless_range_loop)]
                for j in c..cols {
                    if !m[r][j].is_zero() {
                        let delta = &m[r][j] * &f;
                        m[i][j] = &m[i][j] - &delta;
                    }
                }
            }
        }
        pivots.push(c);
        r += 1;
        if r == rows {
            break;
        }
    }
    m.truncate(r);
    pivots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from(v)
    }

    fn mat(rows: &[&[i64]]) -> Matrix {
        rows.iter()
            .map(|row| row.iter().map(|&x| r(x)).collect())
            .collect()
    }

    #[test]
    fn rref_identifies_rank() {
        let mut m = mat(&[&[1, 2, 3], &[2, 4, 6], &[1, 0, 1]]);
        let pivots = rref(&mut m);
        assert_eq!(pivots, vec![0, 1]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn rref_of_identity_is_identity() {
        let mut m = mat(&[&[0, 1], &[1, 0]]);
        let pivots = rref(&mut m);
        assert_eq!(pivots, vec![0, 1]);
        assert_eq!(m, mat(&[&[1, 0], &[0, 1]]));
    }
}
