//! Dataset-level scans: `Dataset::top1_batch` and `Dataset::utilities_into`
//! run the SoA kernel and must return results bit-identical to the scalar
//! reference (`top1_scalar` / `row_dots` over the row-major buffer).

use isrl_data::{generate, Distribution};
use isrl_linalg::Top1;

#[test]
fn dataset_scans_are_bit_identical_to_the_scalar_reference() {
    let data = generate(3000, 7, Distribution::AntiCorrelated, 42);
    let utilities: Vec<Vec<f64>> = (0..9)
        .map(|i| {
            let mut u = vec![0.0; 7];
            for (j, x) in u.iter_mut().enumerate() {
                *x = 0.05 + ((i * 7 + j) % 13) as f64 / 13.0;
            }
            u
        })
        .collect();

    let reference: Vec<Top1> = utilities
        .iter()
        .map(|u| isrl_linalg::top1_scalar(u, data.as_flat(), data.dim()))
        .collect();
    let got = data.top1_batch(&utilities);
    assert_eq!(got.len(), reference.len(), "result count");
    for (k, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(g.index, r.index, "index, utility {k}");
        assert_eq!(g.value.to_bits(), r.value.to_bits(), "value, utility {k}");
    }

    let mut ref_dots = Vec::new();
    isrl_linalg::row_dots(data.as_flat(), data.dim(), &utilities[0], &mut ref_dots);
    let mut dots = Vec::new();
    data.utilities_into(&utilities[0], &mut dots);
    assert_eq!(dots.len(), ref_dots.len(), "score count");
    for (i, (a, b)) in dots.iter().zip(&ref_dots).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "score {i}");
    }

    // The scans agree with the per-vector scalar entry points too.
    assert_eq!(got[0].index, data.argmax_utility(&utilities[0]));
    assert_eq!(got[0].value, data.max_utility(&utilities[0]));
}

#[test]
fn soa_mirror_is_lazy_and_consistent_with_rows() {
    let data = generate(500, 5, Distribution::Independent, 7);
    let soa = data.soa();
    assert_eq!(soa.len(), data.len());
    assert_eq!(soa.dim(), data.dim());
    for j in 0..data.dim() {
        let col = soa.col(j);
        for (i, &cell) in col.iter().enumerate() {
            assert_eq!(cell.to_bits(), data.point(i)[j].to_bits(), "({i},{j})");
        }
    }
}
