//! The tuple store.
//!
//! A [`Dataset`] is the paper's `D`: `n` tuples over `d` attributes, each
//! normalized to `(0, 1]` with larger-is-better semantics (§III). Points are
//! stored row-major in one flat buffer so utility scans (`argmax_utility`)
//! stream linearly through memory — those scans dominate per-round cost for
//! the EA terminal machinery and every baseline. A column-major
//! (structure-of-arrays) mirror is built lazily on first use so the batched
//! scans can stream each dimension contiguously (see
//! [`Dataset::top1_batch`] and DESIGN.md §15).

use isrl_linalg::{vector, SoaBuffer};
use std::sync::OnceLock;

/// A dataset of `d`-dimensional points in `(0, 1]^d`.
#[derive(Debug, Clone)]
pub struct Dataset {
    dim: usize,
    /// Row-major point buffer, `len == n * dim`.
    data: Vec<f64>,
    /// Optional human-readable attribute names (len == dim when present).
    attributes: Vec<String>,
    /// Lazily-built column-major mirror backing the batched scans.
    soa: OnceLock<SoaBuffer>,
}

impl Dataset {
    /// Builds a dataset from explicit points.
    ///
    /// # Panics
    /// Panics if points disagree on dimension or `dim == 0`.
    pub fn from_points(points: Vec<Vec<f64>>, dim: usize) -> Self {
        assert!(dim > 0, "dataset dimension must be positive");
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
            data.extend_from_slice(p);
        }
        Self {
            dim,
            data,
            attributes: Vec::new(),
            soa: OnceLock::new(),
        }
    }

    /// Builds a dataset directly from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dataset dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer length must be n * dim");
        Self {
            dim,
            data,
            attributes: Vec::new(),
            soa: OnceLock::new(),
        }
    }

    /// Attaches attribute names (for reporting; ignored by the algorithms).
    ///
    /// # Panics
    /// Panics if the name count differs from the dimension.
    pub fn with_attributes(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.dim, "attribute name count mismatch");
        self.attributes = names;
        self
    }

    /// Number of tuples `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` iff the dataset holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Attribute names, empty if never set.
    #[inline]
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Borrow of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over all points.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Utility `f_u(p_i) = u · p_i`.
    #[inline]
    pub fn utility(&self, i: usize, u: &[f64]) -> f64 {
        vector::dot(self.point(i), u)
    }

    /// Index of the tuple with the highest utility w.r.t. `u`
    /// (the user's favorite point under `u`). First index wins ties.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn argmax_utility(&self, u: &[f64]) -> usize {
        assert!(!self.is_empty(), "argmax over empty dataset");
        let mut best = 0usize;
        let mut best_val = f64::NEG_INFINITY;
        for (i, p) in self.iter().enumerate() {
            let v = vector::dot(p, u);
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        best
    }

    /// The highest utility value over the dataset w.r.t. `u`.
    pub fn max_utility(&self, u: &[f64]) -> f64 {
        self.utility(self.argmax_utility(u), u)
    }

    /// The flat row-major point buffer (for batched kernels).
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The column-major (structure-of-arrays) mirror of the point buffer,
    /// built on first use and retained for the dataset's lifetime. Backs
    /// the batched scans; see [`isrl_linalg::soa`].
    pub fn soa(&self) -> &SoaBuffer {
        self.soa
            .get_or_init(|| SoaBuffer::from_flat(&self.data, self.dim))
    }

    /// Top-1 point per utility vector in one pass over the column-major
    /// mirror ([`isrl_linalg::top1_soa`]). Identical results, bit for bit,
    /// to calling [`Dataset::argmax_utility`] / [`Dataset::max_utility`]
    /// (or [`isrl_linalg::top1_scalar`]) per vector. This is the scan
    /// entry point for the max-regret estimator, EA terminal/candidate
    /// scans, and `SessionRegistry`'s coalesced serve batches.
    ///
    /// # Panics
    /// Panics on an empty dataset or a utility-vector dimension mismatch.
    pub fn top1_batch<U: AsRef<[f64]>>(&self, utilities: &[U]) -> Vec<isrl_linalg::Top1> {
        isrl_linalg::top1_soa(utilities, self.soa())
    }

    /// Every point's utility w.r.t. `u`, written into `out` (cleared
    /// first) — the single pass backing top-k selection (AA's candidate
    /// actions). Bit-identical to [`isrl_linalg::row_dots`] over the
    /// row-major buffer.
    ///
    /// # Panics
    /// Panics on a utility-vector dimension mismatch.
    pub fn utilities_into(&self, u: &[f64], out: &mut Vec<f64>) {
        isrl_linalg::row_dots_soa(self.soa(), u, out)
    }

    /// A new dataset keeping only the given indices (preserving order).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            data.extend_from_slice(self.point(i));
        }
        Dataset {
            dim: self.dim,
            data,
            attributes: self.attributes.clone(),
            soa: OnceLock::new(),
        }
    }

    /// Verifies every coordinate lies in `(0, 1]` (the paper's normalization
    /// contract). Returns the first violating `(index, axis)` if any.
    pub fn check_normalized(&self) -> Option<(usize, usize)> {
        for (i, p) in self.iter().enumerate() {
            for (j, &x) in p.iter().enumerate() {
                if !(x > 0.0 && x <= 1.0) {
                    return Some((i, j));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table3() -> Dataset {
        // Table III of the paper (u = (0.3, 0.7)).
        Dataset::from_points(
            vec![
                vec![0.001, 1.0], // the paper uses 0; we keep (0,1] with a tiny floor
                vec![0.3, 0.7],
                vec![0.5, 0.8],
                vec![0.7, 0.4],
                vec![1.0, 0.001],
            ],
            2,
        )
    }

    #[test]
    fn utilities_match_table_iii() {
        let d = paper_table3();
        let u = [0.3, 0.7];
        assert!((d.utility(1, &u) - 0.58).abs() < 1e-9);
        assert!((d.utility(2, &u) - 0.71).abs() < 1e-9);
        assert_eq!(d.argmax_utility(&u), 2, "p3 is the favorite");
    }

    #[test]
    fn from_flat_round_trips() {
        let d = Dataset::from_flat(vec![0.1, 0.2, 0.3, 0.4], 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[0.3, 0.4][..]);
    }

    #[test]
    #[should_panic(expected = "n * dim")]
    fn from_flat_rejects_ragged() {
        Dataset::from_flat(vec![0.1, 0.2, 0.3], 2);
    }

    #[test]
    fn subset_preserves_points() {
        let d = paper_table3();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), d.point(2));
        assert_eq!(s.point(1), d.point(0));
    }

    #[test]
    fn check_normalized_accepts_unit_interval() {
        assert!(paper_table3().check_normalized().is_none());
        let bad = Dataset::from_points(vec![vec![0.0, 0.5]], 2);
        assert_eq!(bad.check_normalized(), Some((0, 0)));
        let big = Dataset::from_points(vec![vec![0.5, 1.5]], 2);
        assert_eq!(big.check_normalized(), Some((0, 1)));
    }

    #[test]
    fn argmax_breaks_ties_by_first_index() {
        let d = Dataset::from_points(vec![vec![0.5, 0.5], vec![0.5, 0.5]], 2);
        assert_eq!(d.argmax_utility(&[0.5, 0.5]), 0);
    }

    #[test]
    fn iter_yields_all_points() {
        let d = paper_table3();
        assert_eq!(d.iter().count(), 5);
        assert_eq!(d.iter().next().unwrap(), d.point(0));
    }

    #[test]
    fn top1_batch_agrees_with_scalar_argmax() {
        let d = paper_table3();
        let utilities = vec![
            vec![0.3, 0.7],
            vec![0.9, 0.1],
            vec![0.5, 0.5],
            vec![0.05, 0.95],
        ];
        let batched = d.top1_batch(&utilities);
        for (u, t) in utilities.iter().zip(&batched) {
            assert_eq!(t.index, d.argmax_utility(u));
            assert_eq!(t.value, d.max_utility(u));
        }
    }

    #[test]
    fn utilities_into_matches_per_index_utility() {
        let d = paper_table3();
        let u = [0.3, 0.7];
        let mut out = Vec::new();
        d.utilities_into(&u, &mut out);
        assert_eq!(out.len(), d.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, d.utility(i, &u));
        }
    }

    #[test]
    fn attributes_attach() {
        let d = paper_table3().with_attributes(vec!["price".into(), "hp".into()]);
        assert_eq!(d.attributes(), &["price".to_string(), "hp".to_string()][..]);
    }
}
