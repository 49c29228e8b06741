//! Structure-of-arrays point store and the scan kernels built on it.
//!
//! A row-major scan streams `dim`-length rows and pays a horizontal
//! reduction per point. [`SoaBuffer`] transposes the point
//! buffer into column-major form (`cols[j * n + i]` = attribute `j` of
//! point `i`) so a scan can stream one *dimension* contiguously across a
//! register tile of points: the inner loop keeps each lane's partial sums
//! for [`ROW_TILE`] rows in registers and loads every column element
//! exactly once — vertical SIMD across rows, no horizontal reduction and
//! no intermediate stores until the final lane combine. See DESIGN.md §15.
//!
//! # Bit-exactness
//!
//! [`top1_soa`] reproduces [`crate::vector::dot`]'s evaluation order
//! per row: four f64 accumulator chains take dimensions `4c + l` (lane
//! `l` of chunk `c`), a tail chain takes the remaining dimensions in
//! order, and the combine is `(s0 + s1) + (s2 + s3) + tail`. The SIMD
//! runs *across rows* (independent accumulation chains — vector width
//! only changes how many rows advance together), so per-row arithmetic
//! is identical to the scalar kernel bit for bit.

use crate::scan::{self, Top1};
use crate::vector;

/// Rows per scan block: the score buffer for one block is 8 KB, and the
/// block loop bounds how much column data is in flight per `best` update
/// sweep.
pub const SOA_BLOCK_ROWS: usize = 1024;

/// Rows advanced together by the column-scan inner loop: 8 f64 lanes is
/// two AVX2 vectors per accumulator chain, enough independent chains to
/// hide the FP-add latency that pins a single `dot`.
pub const ROW_TILE: usize = 8;

/// Column-major (structure-of-arrays) mirror of a row-major point buffer.
#[derive(Debug, Clone)]
pub struct SoaBuffer {
    n: usize,
    dim: usize,
    /// Column-major values: `cols[j * n + i]` is attribute `j` of point `i`.
    cols: Vec<f64>,
}

impl SoaBuffer {
    /// Transposes a row-major buffer (`n = points.len() / dim` rows).
    ///
    /// # Panics
    /// Panics when `dim == 0` or the buffer is not a multiple of `dim`.
    pub fn from_flat(points: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "SoaBuffer needs a positive dimension");
        assert_eq!(points.len() % dim, 0, "point buffer length must be n * dim");
        let n = points.len() / dim;
        let mut cols = vec![0.0f64; points.len()];
        for (i, row) in points.chunks_exact(dim).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                cols[j * n + i] = x;
            }
        }
        Self { n, dim, cols }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the buffer holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Column `j` as a contiguous slice (one value per point).
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.cols[j * self.n..(j + 1) * self.n]
    }

    /// Gathers row `i` into `buf` (cleared first).
    fn gather_row(&self, i: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend((0..self.dim).map(|j| self.cols[j * self.n + i]));
    }

    /// `true` when any point's score `u · p` is NaN, using the same
    /// summation order as the scan kernels ([`vector::dot`]) so the
    /// verdict matches the row-major reference exactly.
    fn any_nan_score(&self, u: &[f64]) -> bool {
        let mut row = Vec::with_capacity(self.dim);
        for i in 0..self.n {
            self.gather_row(i, &mut row);
            if vector::dot(&row, u).is_nan() {
                return true;
            }
        }
        false
    }
}

/// Scores `W` consecutive rows starting at absolute row `off` against
/// `u`, writing the finished values to `out[..W]`. Evaluation order per
/// row is exactly `vector::dot`'s: lane `l` accumulates dimensions
/// `4c + l`, the tail accumulates leftover dimensions in order, and the
/// combine is `(s0 + s1) + (s2 + s3) + tail`. All partial sums live in
/// registers, so each column element is loaded once and nothing is
/// stored until the combine.
#[inline(always)]
fn scores_tile<const W: usize>(u: &[f64], cols: &[f64], n: usize, off: usize, out: &mut [f64]) {
    let dim = u.len();
    let mut l0 = [0.0f64; W];
    let mut l1 = [0.0f64; W];
    let mut l2 = [0.0f64; W];
    let mut l3 = [0.0f64; W];
    let mut tl = [0.0f64; W];
    let mut j = 0;
    while j + 4 <= dim {
        let c0 = &cols[j * n + off..][..W];
        let c1 = &cols[(j + 1) * n + off..][..W];
        let c2 = &cols[(j + 2) * n + off..][..W];
        let c3 = &cols[(j + 3) * n + off..][..W];
        for k in 0..W {
            l0[k] += u[j] * c0[k];
            l1[k] += u[j + 1] * c1[k];
            l2[k] += u[j + 2] * c2[k];
            l3[k] += u[j + 3] * c3[k];
        }
        j += 4;
    }
    while j < dim {
        let c = &cols[j * n + off..][..W];
        for k in 0..W {
            tl[k] += u[j] * c[k];
        }
        j += 1;
    }
    for k in 0..W {
        out[k] = (l0[k] + l1[k]) + (l2[k] + l3[k]) + tl[k];
    }
}

/// Scores `rows` points starting at `base` into `out[..rows]`:
/// [`ROW_TILE`]-row tiles, then a one-row tile per leftover row (same
/// arithmetic, `W = 1`).
#[inline(always)]
fn block_scores_body(u: &[f64], cols: &[f64], n: usize, base: usize, rows: usize, out: &mut [f64]) {
    let mut r = 0;
    while r + ROW_TILE <= rows {
        scores_tile::<ROW_TILE>(u, cols, n, base + r, &mut out[r..r + ROW_TILE]);
        r += ROW_TILE;
    }
    while r < rows {
        scores_tile::<1>(u, cols, n, base + r, &mut out[r..r + 1]);
        r += 1;
    }
}

/// `true` when the running CPU supports AVX2 (detected once per process
/// and cached).
#[cfg(target_arch = "x86_64")]
#[inline]
fn have_avx2() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// The tile body compiled with AVX2 enabled, so LLVM vectorizes the
/// per-lane `W`-row loops at 256-bit width. The arithmetic *sequence* per
/// row is the portable body's — vector width only batches independent
/// rows — and `target_feature` never licenses FMA contraction, so the
/// result is bit-identical to [`block_scores_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_scores_avx2(
    u: &[f64],
    cols: &[f64],
    n: usize,
    base: usize,
    rows: usize,
    out: &mut [f64],
) {
    block_scores_body(u, cols, n, base, rows, out)
}

fn block_scores(soa: &SoaBuffer, u: &[f64], base: usize, rows: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 support was verified at runtime.
        unsafe { block_scores_avx2(u, &soa.cols, soa.n, base, rows, out) };
        return;
    }
    block_scores_body(u, &soa.cols, soa.n, base, rows, out)
}

/// Top-1 point per utility vector over a column-major buffer. Bit-exact
/// with [`crate::scan::top1_batch`] (index *and* value), including the
/// `{index: 0, value: -inf}` NaN sentinel semantics documented there.
///
/// # Panics
/// Panics on an empty buffer or a utility-vector dimension mismatch.
/// `debug_assert`s that no utility vector contains NaN.
pub fn top1_soa<U: AsRef<[f64]>>(utilities: &[U], soa: &SoaBuffer) -> Vec<Top1> {
    assert!(!soa.is_empty(), "top1_soa over an empty point buffer");
    for u in utilities {
        let u = u.as_ref();
        assert_eq!(u.len(), soa.dim, "utility vector dimension mismatch");
        scan::debug_assert_utilities_finite(u);
    }
    isrl_obs::add("scan.top1_calls", 1);
    isrl_obs::add("scan.top1_utilities", utilities.len() as u64);
    isrl_obs::add("scan.top1_blocks", soa.n.div_ceil(SOA_BLOCK_ROWS) as u64);

    let mut best = vec![
        Top1 {
            index: 0,
            value: f64::NEG_INFINITY
        };
        utilities.len()
    ];
    let mut scores = vec![0.0f64; SOA_BLOCK_ROWS.min(soa.n)];
    let mut base = 0;
    while base < soa.n {
        let rows = SOA_BLOCK_ROWS.min(soa.n - base);
        for (u, b) in utilities.iter().zip(best.iter_mut()) {
            block_scores(soa, u.as_ref(), base, rows, &mut scores[..rows]);
            for (r, &v) in scores[..rows].iter().enumerate() {
                if v > b.value {
                    b.value = v;
                    b.index = base + r;
                }
            }
        }
        base += rows;
    }
    scan::apply_nan_sentinel(utilities, &best, |u| soa.any_nan_score(u));
    best
}

/// All scores `points[i] · u` over the column mirror, appended to `out`
/// (cleared first; reservation respects existing capacity). Bit-exact
/// with [`crate::scan::row_dots`].
///
/// # Panics
/// Panics on a utility-vector dimension mismatch.
pub fn row_dots_soa(soa: &SoaBuffer, u: &[f64], out: &mut Vec<f64>) {
    assert_eq!(u.len(), soa.dim, "utility vector dimension mismatch");
    out.clear();
    if out.capacity() < soa.n {
        out.reserve_exact(soa.n - out.len());
    }
    out.resize(soa.n, 0.0);
    let mut base = 0;
    while base < soa.n {
        let rows = SOA_BLOCK_ROWS.min(soa.n - base);
        block_scores(soa, u, base, rows, &mut out[base..base + rows]);
        base += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            })
            .collect()
    }

    #[test]
    fn transpose_round_trips() {
        let dim = 3;
        let flat = pseudo(7 * dim, 9);
        let soa = SoaBuffer::from_flat(&flat, dim);
        assert_eq!(soa.len(), 7);
        let mut row = Vec::new();
        for i in 0..7 {
            soa.gather_row(i, &mut row);
            assert_eq!(&row[..], &flat[i * dim..(i + 1) * dim]);
        }
    }

    #[test]
    fn soa_matches_rowmajor_bitwise() {
        for &(n, dim) in &[(1usize, 1usize), (5, 3), (40, 4), (129, 7), (300, 20)] {
            let flat = pseudo(n * dim, 100 + n as u64);
            let soa = SoaBuffer::from_flat(&flat, dim);
            let utilities: Vec<Vec<f64>> = (0..6).map(|i| pseudo(dim, 7 + i)).collect();
            let reference = scan::top1_batch(&utilities, &flat, dim);
            let got = top1_soa(&utilities, &soa);
            assert_eq!(got, reference, "n={n} dim={dim}");
        }
    }

    #[test]
    fn row_dots_soa_matches_rowmajor_bitwise() {
        let dim = 5;
        let flat = pseudo(77 * dim, 3);
        let soa = SoaBuffer::from_flat(&flat, dim);
        let u = pseudo(dim, 4);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scan::row_dots(&flat, dim, &u, &mut a);
        row_dots_soa(&soa, &u, &mut b);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "i={i}");
        }
    }
}
