//! The scalar reference for top-1 utility scans over row-major buffers.
//!
//! The per-round hot loop of every interactive algorithm in this workspace
//! is "for each utility vector, find the top-1 point": EA runs it over a
//! hundred-plus sampled vectors per round, the max-regret estimator over
//! thousands. [`top1_scalar`] and [`row_dots`] are the reference semantics
//! of that scan — [`vector::dot`] per row, rows in order, strict `>` so the
//! first index wins ties — and [`top1_batch`] is [`top1_scalar`] per
//! utility vector. The fast kernel is the structure-of-arrays scan in
//! [`crate::soa`], which `Dataset` scans always run; it is
//! differential-tested bit for bit against these references
//! (`tests/scan_backends.rs`).
//!
//! # Non-finite semantics
//!
//! NaN scores never win: `v > best` is false for NaN, so a NaN-scored row
//! is skipped and the best finite (or `±inf`) row is returned. When *no*
//! score compares greater than `-inf` — every score is NaN or `-inf` —
//! the kernels return the sentinel `Top1 { index: 0, value: -inf }`, and
//! when at least one score is NaN they additionally bump the
//! [`TOP1_NAN_COUNTER`] warning counter (`scan.top1_nan`), which
//! `trace-validate` treats as a hard failure. NaN in a *utility vector*
//! is a caller bug and trips a `debug_assert`; NaN in the point buffer is
//! tolerated under the semantics above. The reference and the SoA kernel
//! agree bit-for-bit on these cases — pinned by `tests/scan_backends.rs`.

use crate::vector;

/// Result of a top-1 scan for one utility vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Top1 {
    /// Index of the winning point (first index wins ties).
    pub index: usize,
    /// The winning utility value `u · p`.
    pub value: f64,
}

/// Warning counter bumped when a utility vector's scan produced only
/// NaN/`-inf` scores with at least one NaN (`trace-validate` fails on it).
pub const TOP1_NAN_COUNTER: &str = "scan.top1_nan";

/// Debug-build check that a utility vector is NaN-free (NaN utilities are
/// caller bugs; NaN *points* take the documented sentinel path instead).
#[inline]
pub(crate) fn debug_assert_utilities_finite(u: &[f64]) {
    debug_assert!(
        u.iter().all(|x| !x.is_nan()),
        "top1 scan: NaN in utility vector"
    );
}

/// Bumps [`TOP1_NAN_COUNTER`] for every utility whose result is the
/// `{index: 0, value: -inf}` sentinel *and* whose scores contain a NaN
/// (`any_nan_score` is only consulted for sentinel results, keeping the
/// happy path free).
pub(crate) fn apply_nan_sentinel<U: AsRef<[f64]>>(
    utilities: &[U],
    best: &[Top1],
    any_nan_score: impl Fn(&[f64]) -> bool,
) {
    for (u, b) in utilities.iter().zip(best) {
        if b.value == f64::NEG_INFINITY && any_nan_score(u.as_ref()) {
            isrl_obs::add(TOP1_NAN_COUNTER, 1);
        }
    }
}

/// The reference scalar scan: one pass over the buffer for one utility
/// vector, first index wins ties. Every other backend is differential-
/// tested against this.
///
/// # Panics
/// Panics when the buffer is not a multiple of `dim` or is empty.
pub fn top1_scalar(u: &[f64], points: &[f64], dim: usize) -> Top1 {
    assert!(dim > 0, "top1_scalar needs a positive dimension");
    assert_eq!(points.len() % dim, 0, "point buffer length must be n * dim");
    assert!(!points.is_empty(), "top1_scalar over an empty point buffer");
    assert_eq!(u.len(), dim, "utility vector dimension mismatch");
    debug_assert_utilities_finite(u);
    let mut best = Top1 {
        index: 0,
        value: f64::NEG_INFINITY,
    };
    for (i, p) in points.chunks_exact(dim).enumerate() {
        let v = vector::dot(p, u);
        if v > best.value {
            best = Top1 { index: i, value: v };
        }
    }
    apply_nan_sentinel(&[u], std::slice::from_ref(&best), |u| {
        points.chunks_exact(dim).any(|p| vector::dot(p, u).is_nan())
    });
    best
}

/// Top-1 point per utility vector over a row-major point buffer:
/// [`top1_scalar`] per utility vector, plus the `scan.top1_*` call
/// counters the SoA kernel also keeps (the whole buffer counts as one
/// block).
///
/// `points` holds `n = points.len() / dim` rows; every utility slice must
/// have length `dim`. Returns one [`Top1`] per utility vector, in order.
/// See the module docs for the NaN sentinel semantics.
///
/// # Panics
/// Panics when the buffer is not a multiple of `dim`, when the buffer is
/// empty, or when a utility vector's length differs from `dim`.
pub fn top1_batch<U: AsRef<[f64]>>(utilities: &[U], points: &[f64], dim: usize) -> Vec<Top1> {
    assert!(dim > 0, "top1_batch needs a positive dimension");
    assert_eq!(points.len() % dim, 0, "point buffer length must be n * dim");
    assert!(!points.is_empty(), "top1_batch over an empty point buffer");
    isrl_obs::add("scan.top1_calls", 1);
    isrl_obs::add("scan.top1_utilities", utilities.len() as u64);
    isrl_obs::add("scan.top1_blocks", 1);
    utilities
        .iter()
        .map(|u| top1_scalar(u.as_ref(), points, dim))
        .collect()
}

/// All dot products `points[i] · u`, appended to `out` (cleared first;
/// reservation accounts for existing capacity, so a retained buffer is
/// never re-grown). The single-utility companion of [`top1_batch`] for
/// callers that need every score (top-k selection, sorting) rather than
/// just the winner.
///
/// # Panics
/// Panics when the buffer is not a multiple of `dim` or `u.len() != dim`.
pub fn row_dots(points: &[f64], dim: usize, u: &[f64], out: &mut Vec<f64>) {
    assert!(dim > 0, "row_dots needs a positive dimension");
    assert_eq!(points.len() % dim, 0, "point buffer length must be n * dim");
    assert_eq!(u.len(), dim, "utility vector dimension mismatch");
    out.clear();
    let n = points.len() / dim;
    // Only grow when the existing allocation is too small — repeat calls
    // with a retained buffer must not re-reserve (capacity stability).
    if out.capacity() < n {
        out.reserve_exact(n);
    }
    out.extend(points.chunks_exact(dim).map(|p| vector::dot(p, u)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random fill (SplitMix64) — no RNG dep here.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        (0..n * dim).map(|_| next()).collect()
    }

    #[test]
    fn matches_scalar_scan_exactly() {
        for &(n, dim, k) in &[
            (1usize, 2usize, 1usize),
            (7, 3, 5),
            (100, 4, 9),
            (1000, 20, 17),
        ] {
            let points = pseudo_points(n, dim, 42 + n as u64);
            let utilities: Vec<Vec<f64>> = (0..k)
                .map(|i| pseudo_points(1, dim, 1000 + i as u64))
                .collect();
            let batched = top1_batch(&utilities, &points, dim);
            let soa = crate::top1_soa(&utilities, &crate::SoaBuffer::from_flat(&points, dim));
            for ((u, b), s_) in utilities.iter().zip(&batched).zip(&soa) {
                let s = top1_scalar(u, &points, dim);
                assert_eq!(b.index, s.index, "n={n} dim={dim}");
                assert_eq!(b.value, s.value, "bit-exact value expected");
                assert_eq!(*s_, s, "soa path n={n} dim={dim}");
            }
        }
    }

    #[test]
    fn first_index_wins_ties() {
        let points = vec![0.5, 0.5, 0.5, 0.5, 0.9, 0.1];
        let out = top1_batch(&[vec![0.5, 0.5]], &points, 2);
        assert_eq!(out[0].index, 0, "tie between rows 0 and 1 goes to 0");
    }

    #[test]
    fn crosses_block_boundaries() {
        // More rows than one SoA block so the winner sits in a later block.
        let dim = 3;
        let n = crate::soa::SOA_BLOCK_ROWS * 2 + 5;
        let mut points = pseudo_points(n, dim, 7);
        let winner = n - 2;
        for x in &mut points[winner * dim..(winner + 1) * dim] {
            *x = 10.0;
        }
        let utilities = [vec![1.0, 1.0, 1.0]];
        let out = top1_batch(&utilities, &points, dim);
        assert_eq!(out[0].index, winner);
        let soa = crate::top1_soa(&utilities, &crate::SoaBuffer::from_flat(&points, dim));
        assert_eq!(soa, out);
    }

    #[test]
    fn empty_utility_list_is_fine() {
        let points = vec![0.1, 0.2];
        assert!(top1_batch::<Vec<f64>>(&[], &points, 2).is_empty());
    }

    #[test]
    fn row_dots_matches_per_row_dot() {
        let dim = 5;
        let points = pseudo_points(33, dim, 3);
        let u = pseudo_points(1, dim, 4);
        let mut out = Vec::new();
        row_dots(&points, dim, &u, &mut out);
        assert_eq!(out.len(), 33);
        for (i, p) in points.chunks_exact(dim).enumerate() {
            assert_eq!(out[i], vector::dot(p, &u));
        }
        let mut out2 = Vec::new();
        crate::row_dots_soa(&crate::SoaBuffer::from_flat(&points, dim), &u, &mut out2);
        assert_eq!(out, out2);
    }

    #[test]
    fn row_dots_capacity_is_stable_across_repeat_calls() {
        let dim = 4;
        let points = pseudo_points(100, dim, 5);
        let u = pseudo_points(1, dim, 6);
        let mut out = Vec::new();
        row_dots(&points, dim, &u, &mut out);
        let cap = out.capacity();
        assert!(cap >= 100);
        for _ in 0..5 {
            row_dots(&points, dim, &u, &mut out);
            assert_eq!(out.capacity(), cap, "retained buffer must not regrow");
        }
        // A pre-sized buffer is honored, not doubled past.
        let mut pre = Vec::with_capacity(128);
        row_dots(&points, dim, &u, &mut pre);
        assert_eq!(pre.capacity(), 128);
    }

    #[test]
    #[should_panic(expected = "n * dim")]
    fn ragged_buffer_rejected() {
        top1_batch(&[vec![1.0, 0.0]], &[0.1, 0.2, 0.3], 2);
    }

    #[test]
    fn nan_points_are_skipped_not_winners() {
        // Row 1 has the largest finite score; row 0's score is NaN.
        let points = vec![f64::NAN, 0.5, 0.9, 0.9, 0.1, 0.1];
        let out = top1_batch(&[vec![1.0, 1.0]], &points, 2);
        assert_eq!(out[0].index, 1);
        assert_eq!(out[0].value, 1.8);
    }

    #[test]
    fn all_nan_scores_return_sentinel() {
        let points = vec![f64::NAN, f64::NAN, f64::NAN, f64::NAN];
        let out = top1_batch(&[vec![1.0, 1.0]], &points, 2);
        assert_eq!(out[0].index, 0);
        assert_eq!(out[0].value, f64::NEG_INFINITY);
        let s = top1_scalar(&[1.0, 1.0], &points, 2);
        assert_eq!(s, out[0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN in utility vector")]
    fn nan_utility_vector_is_a_caller_bug() {
        top1_batch(&[vec![f64::NAN, 1.0]], &[0.1, 0.2], 2);
    }
}
