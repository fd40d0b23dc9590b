//! Static structural analysis of sparse MNA patterns: maximum bipartite
//! matching and the structural-rank preflight of [`SparseLu`].
//!
//! Everything in this module runs purely on the CSC *pattern* — the
//! `col_ptr`/`row_idx` arrays — never the values.
//! [`maximum_matching`] pairs each column with a distinct row holding one
//! of its structural nonzeros (Kuhn's augmenting-path algorithm). The
//! matching size is the **structural rank**: an upper bound on the
//! numeric rank that holds for *every* assignment of values. A column
//! left unmatched can never be eliminated, so [`structural_check`]
//! rejects the system with [`SimError::StructurallySingular`] before any
//! factorization work — this is the preflight [`SparseLu::refactor`] runs
//! once per pattern, turning a post-Newton numeric failure (a floating
//! PEX mesh node, a dangling net) into an immediate, explainable
//! diagnosis.
//!
//! [`SparseLu`]: super::sparse::SparseLu
//! [`SparseLu::refactor`]: super::sparse::SparseLu::refactor

use crate::error::SimError;

/// Sentinel for "no partner" in matching vectors.
pub const UNMATCHED: usize = usize::MAX;

/// Maximum bipartite matching between the columns and rows of an
/// `n x n` sparsity pattern, via Kuhn's augmenting-path algorithm.
///
/// Returns `(rank, match_row)` where `rank` is the matching size (the
/// structural rank of the pattern) and `match_row[j]` is the row matched
/// to column `j`, or [`UNMATCHED`] for a structurally deficient column.
/// Deterministic: columns are processed in ascending order and each
/// column's candidate rows in stored (ascending) order, so the same
/// pattern always yields the same matching.
///
/// Worst case `O(n * nnz)`, which is comfortable at the few-hundred
/// dimensions of extracted MNA meshes; typical MNA patterns (every node
/// column carries its gmin/diagonal stamp) match almost entirely in the
/// first greedy pass.
pub fn maximum_matching(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> (usize, Vec<usize>) {
    let mut match_row = vec![UNMATCHED; n]; // column -> row
    let mut match_col = vec![UNMATCHED; n]; // row -> column
                                            // Stamp-based visited marks: O(1) clear per augmentation attempt.
    let mut visited = vec![0usize; n];
    let mut rank = 0usize;
    for j in 0..n {
        let stamp = j + 1;
        if augment(
            j,
            col_ptr,
            row_idx,
            &mut match_row,
            &mut match_col,
            &mut visited,
            stamp,
        ) {
            rank += 1;
        }
    }
    (rank, match_row)
}

/// One augmenting-path DFS from column `j`: claims a free row or
/// recursively re-routes the column currently holding one. Recursion
/// depth is bounded by the augmenting path length (at most `n`), which is
/// fine at this module's few-hundred-dimension scale.
fn augment(
    j: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
    match_row: &mut [usize],
    match_col: &mut [usize],
    visited: &mut [usize],
    stamp: usize,
) -> bool {
    for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
        if visited[i] == stamp {
            continue;
        }
        visited[i] = stamp;
        let owner = match_col[i];
        if owner == UNMATCHED
            || augment(
                owner, col_ptr, row_idx, match_row, match_col, visited, stamp,
            )
        {
            match_col[i] = j;
            match_row[j] = i;
            return true;
        }
    }
    false
}

/// Structural preflight: verifies the pattern has full structural rank,
/// returning the matching.
///
/// # Errors
///
/// [`SimError::StructurallySingular`] naming the first unmatched column
/// (original numbering), the structural rank, and the dimension.
pub fn structural_check(
    n: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
) -> Result<Vec<usize>, SimError> {
    let (rank, match_row) = maximum_matching(n, col_ptr, row_idx);
    if rank < n {
        let column = match_row
            .iter()
            .position(|&r| r == UNMATCHED)
            .unwrap_or(n - 1);
        return Err(SimError::StructurallySingular {
            column,
            structural_rank: rank,
            dim: n,
        });
    }
    Ok(match_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::sparse::{CscMatrix, TripletList};
    use crate::linalg::Matrix;

    fn csc_of(rows: &[Vec<f64>]) -> CscMatrix<f64> {
        CscMatrix::from_dense(&Matrix::from_rows(rows))
    }

    #[test]
    fn matching_full_rank_on_diagonal() {
        let a = csc_of(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let (rank, mr) = maximum_matching(2, a.col_ptr(), a.row_idx());
        assert_eq!(rank, 2);
        assert!(mr.iter().all(|&r| r != UNMATCHED));
    }

    #[test]
    fn matching_detects_empty_column() {
        // Column 2 has no structural entries at all.
        let mut t = TripletList::new(3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 1, 1.0);
        let mut a = CscMatrix::empty();
        t.compress_into(&mut a);
        let (rank, mr) = maximum_matching(3, a.col_ptr(), a.row_idx());
        assert_eq!(rank, 2);
        assert_eq!(mr[2], UNMATCHED);
        match structural_check(3, a.col_ptr(), a.row_idx()) {
            Err(SimError::StructurallySingular {
                column,
                structural_rank,
                dim,
            }) => {
                assert_eq!(column, 2);
                assert_eq!(structural_rank, 2);
                assert_eq!(dim, 3);
            }
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
    }

    #[test]
    fn matching_needs_augmentation() {
        // Columns 0 and 1 both only reach row 0 and row 1, column 2 only
        // row 0: structurally rank 2 no matter the greedy choices.
        let mut t = TripletList::new(3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 1.0);
        t.push(0, 2, 1.0);
        let mut a = CscMatrix::empty();
        t.compress_into(&mut a);
        let (rank, _) = maximum_matching(3, a.col_ptr(), a.row_idx());
        assert_eq!(rank, 2);
    }
}
