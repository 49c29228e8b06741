//! Differential battery for the scan kernel: the batched reference
//! (`top1_batch`) and the structure-of-arrays scan must both be
//! **bit-exact** against the reference scalar scan — same winning index,
//! same winning value down to the bit pattern — on finite data,
//! adversarially close scores, exact ties, block-boundary crossings, and
//! non-finite inputs.

use isrl_linalg::{
    row_dots, row_dots_soa, soa::SOA_BLOCK_ROWS, top1_batch, top1_scalar, top1_soa, SoaBuffer, Top1,
};
use proptest::prelude::*;

/// Runs the batched reference and the SoA kernel and asserts
/// bit-identical `Top1` results against per-vector `top1_scalar`.
fn assert_all_backends_bit_exact(utilities: &[Vec<f64>], points: &[f64], dim: usize) {
    let reference: Vec<Top1> = utilities
        .iter()
        .map(|u| top1_scalar(u, points, dim))
        .collect();
    let soa = SoaBuffer::from_flat(points, dim);
    let runs: [(&str, Vec<Top1>); 2] = [
        ("batched", top1_batch(utilities, points, dim)),
        ("soa", top1_soa(utilities, &soa)),
    ];
    for (name, got) in &runs {
        assert_eq!(got.len(), reference.len(), "{name}: result count");
        for (k, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g.index, r.index, "{name}: index diverged for utility {k}");
            assert_eq!(
                g.value.to_bits(),
                r.value.to_bits(),
                "{name}: value diverged for utility {k}: {} vs {}",
                g.value,
                r.value
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_backends_agree_on_finite_data(
        dim in 1usize..=24,
        raw_points in prop::collection::vec(-1.0f64..1.0, 24..4096),
        raw_utils in prop::collection::vec(
            prop::collection::vec(-1.0f64..1.0, 24),
            1..8,
        )
    ) {
        let n = (raw_points.len() / dim).max(1);
        let points = &raw_points[..n * dim];
        let utilities: Vec<Vec<f64>> =
            raw_utils.iter().map(|u| u[..dim].to_vec()).collect();
        assert_all_backends_bit_exact(&utilities, points, dim);
    }

    #[test]
    fn all_backends_agree_on_nonfinite_points(
        dim in 1usize..=12,
        raw_points in prop::collection::vec(-1.0f64..1.0, 12..512),
        raw_utils in prop::collection::vec(
            prop::collection::vec(-1.0f64..1.0, 12),
            1..5,
        ),
        // (position, kind) pairs spliced into the point buffer: NaN,
        // infinities, and extreme magnitudes whose products overflow or
        // underflow.
        splices in prop::collection::vec((0usize..512, 0usize..6), 0..12)
    ) {
        let n = (raw_points.len() / dim).max(1);
        let mut points = raw_points[..n * dim].to_vec();
        for &(pos, kind) in &splices {
            let v = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 1e300,
                4 => -1e300,
                _ => 1e-300,
            };
            let len = points.len();
            points[pos % len] = v;
        }
        let utilities: Vec<Vec<f64>> =
            raw_utils.iter().map(|u| u[..dim].to_vec()).collect();
        assert_all_backends_bit_exact(&utilities, &points, dim);
    }

    #[test]
    fn ulp_close_scores_stay_bit_exact(
        dim in 1usize..=8,
        base in prop::collection::vec(0.1f64..1.0, 8),
        // Tiny per-row perturbations, far below f32 resolution.
        bumps in prop::collection::vec(-1.0f64..1.0, 4..64),
        u in prop::collection::vec(0.1f64..1.0, 8)
    ) {
        // Every row is the same point nudged by ~1e-12, so the winner is
        // decided in the last few bits of each score: any difference in
        // summation order between the kernels would pick another row.
        let base = &base[..dim];
        let mut points = Vec::with_capacity(bumps.len() * dim);
        for (i, b) in bumps.iter().enumerate() {
            for (j, &x) in base.iter().enumerate() {
                points.push(x + b * 1e-12 * ((i + j) % 3) as f64);
            }
        }
        let utilities = vec![u[..dim].to_vec()];
        assert_all_backends_bit_exact(&utilities, &points, dim);
    }
}

#[test]
fn exact_ties_break_to_first_index_in_every_backend() {
    // Rows 3 and 7 are identical and maximal; everyone must return 3.
    let dim = 4;
    let mut points = vec![0.25f64; 12 * dim];
    for (i, row) in points.chunks_exact_mut(dim).enumerate() {
        let v = if i == 3 || i == 7 {
            0.9
        } else {
            0.1 * (i % 3) as f64
        };
        row.fill(v);
    }
    let utilities = vec![vec![0.3, 0.2, 0.4, 0.1]];
    assert_all_backends_bit_exact(&utilities, &points, dim);
    assert_eq!(top1_scalar(&utilities[0], &points, dim).index, 3);
}

#[test]
fn winner_in_final_partial_block_is_found_by_every_backend() {
    // n crosses SOA_BLOCK_ROWS twice, with the winner in the final
    // (partial) block.
    let dim = 5;
    let n = 2 * SOA_BLOCK_ROWS + 3;
    let mut points: Vec<f64> = (0..n * dim)
        .map(|i| 0.1 + 0.8 * ((i * 2654435761) % 1000) as f64 / 1000.0)
        .collect();
    let winner = n - 2;
    for x in &mut points[winner * dim..(winner + 1) * dim] {
        *x = 5.0;
    }
    let utilities = vec![vec![0.2; dim], vec![1.0, 0.0, 0.0, 0.0, 0.0]];
    assert_all_backends_bit_exact(&utilities, &points, dim);
    assert_eq!(top1_scalar(&utilities[0], &points, dim).index, winner);
}

#[test]
fn all_nan_scores_yield_the_sentinel_in_every_backend() {
    let dim = 3;
    let points = vec![f64::NAN; 7 * dim];
    let utilities = vec![vec![0.5, 0.25, 0.25]];
    assert_all_backends_bit_exact(&utilities, &points, dim);
    let s = top1_scalar(&utilities[0], &points, dim);
    assert_eq!(s.index, 0);
    assert_eq!(s.value, f64::NEG_INFINITY);
}

#[test]
fn mixed_nan_rows_lose_to_the_best_finite_row() {
    let dim = 2;
    let points = vec![f64::NAN, 1.0, 0.4, 0.4, 0.9, 0.9, f64::INFINITY, 0.0];
    let utilities = vec![vec![0.5, 0.5], vec![0.0, 1.0]];
    assert_all_backends_bit_exact(&utilities, &points, dim);
    // +inf·0.0 = NaN score for the last row under the second utility; the
    // finite row 1 must win there.
    assert_eq!(top1_scalar(&utilities[1], &points, dim).index, 2);
}

#[test]
fn row_dots_variants_are_bitwise_identical_and_capacity_stable() {
    let dim = 7;
    let n = SOA_BLOCK_ROWS + 11;
    let points: Vec<f64> = (0..n * dim)
        .map(|i| ((i * 1103515245) % 997) as f64 / 997.0 - 0.5)
        .collect();
    let u: Vec<f64> = (0..dim).map(|j| 0.1 + 0.1 * j as f64).collect();
    let soa = SoaBuffer::from_flat(&points, dim);

    let (mut a, mut c) = (Vec::new(), Vec::new());
    row_dots(&points, dim, &u, &mut a);
    row_dots_soa(&soa, &u, &mut c);
    assert_eq!(a.len(), n);
    for i in 0..n {
        assert_eq!(a[i].to_bits(), c[i].to_bits(), "soa i={i}");
    }

    // Capacity stability on repeat calls, for both variants.
    let cap = (a.capacity(), c.capacity());
    for _ in 0..3 {
        row_dots(&points, dim, &u, &mut a);
        row_dots_soa(&soa, &u, &mut c);
        assert_eq!((a.capacity(), c.capacity()), cap);
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "NaN in utility vector")]
fn soa_backend_rejects_nan_utilities_in_debug_builds() {
    let points = vec![0.1, 0.2, 0.3, 0.4];
    let soa = SoaBuffer::from_flat(&points, 2);
    top1_soa(&[vec![f64::NAN, 0.5]], &soa);
}
