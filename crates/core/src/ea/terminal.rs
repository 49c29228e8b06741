//! Terminal-polyhedron machinery (Lemmas 4–6 of the paper).
//!
//! A *terminal polyhedron* `T` is a sub-region of the utility range in which
//! one dataset point `p_T` has regret ratio below ε for every utility vector
//! (Lemma 4: `T = R ∩ ⋂_j εh⁺`). Algorithm EA uses them twice:
//!
//! * **action construction** — the points `P_R` anchoring the terminal
//!   polyhedrons built from sampled/extreme utility vectors become the
//!   question pool (Lemma 7 then guarantees strict narrowing);
//! * **stopping** — if the terminal polyhedrons constructed from the extreme
//!   utility vectors of `R` collapse to a single one, `R` itself is terminal
//!   (Lemma 6) and the interaction can stop.
//!
//! A key computational shortcut, derived from Lemma 4 in DESIGN.md: a
//! utility vector `u` whose top-1 point is `p_i` always lies inside `T_i`
//! (since `u·p_i ≥ u·p_j` implies `u·(p_i − (1−ε)p_j) ≥ ε·u·p_j > 0`), so
//! "construct the terminal polyhedron containing `u`" reduces to a single
//! utility scan, and only cross-membership tests need the full ε-hyperplane
//! sweep.

use isrl_data::Dataset;
use isrl_linalg::vector;

/// `true` iff `u` lies in the terminal polyhedron `T_i` anchored at point
/// `i` (Lemma 4): `u · (p_i − (1 − ε) p_j) > 0` for every other point `j`.
/// Exits on the first violated ε-hyperplane.
pub fn in_terminal_polyhedron(data: &Dataset, i: usize, u: &[f64], eps: f64) -> bool {
    let p_i = data.point(i);
    let base = vector::dot(u, p_i);
    let scale = 1.0 - eps;
    for (j, p_j) in data.iter().enumerate() {
        if j == i {
            continue;
        }
        if base - scale * vector::dot(u, p_j) <= 0.0 {
            return false;
        }
    }
    true
}

/// The anchor points `P_R` of the terminal polyhedrons constructed from the
/// given utility vectors: the distinct top-1 indices (each utility vector's
/// polyhedron is `T_{argmax(u)}` by the shortcut above). Order follows
/// first appearance.
///
/// All argmaxes come from one [`Dataset::top1_batch`] call (the SoA scan
/// kernel) — bit-identical to a per-vector [`Dataset::argmax_utility`]
/// scan.
pub fn terminal_points<'a>(
    data: &Dataset,
    utilities: impl Iterator<Item = &'a Vec<f64>>,
) -> Vec<usize> {
    let us: Vec<&[f64]> = utilities.map(Vec::as_slice).collect();
    if us.is_empty() {
        return Vec::new();
    }
    distinct(data.top1_batch(&us).iter().map(|t| t.index))
}

/// The distinct indices of `indices`, in first-appearance order.
pub(crate) fn distinct(indices: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut seen: Vec<usize> = Vec::new();
    for idx in indices {
        if !seen.contains(&idx) {
            seen.push(idx);
        }
    }
    seen
}

/// Lemma 6 stopping test over the extreme utility vectors of `R`: `R` is
/// terminal when a single terminal polyhedron covers every vertex (then,
/// by convexity, all of `R`), and that polyhedron's anchor point — whose
/// regret ratio is below ε everywhere in `R` — is returned.
///
/// The paper's one-pass construction ("build a polyhedron per uncovered
/// vertex, succeed iff exactly one gets built") is only a *sufficient*
/// test: on a vertex where several points tie for the top, the arbitrary
/// argmax tie-break can anchor the first polyhedron at a point that fails
/// to cover the other vertices even though a sibling anchor covers them
/// all — stalling the interaction on boundary ties. We therefore try every
/// distinct vertex argmax as a candidate anchor, which is exactly as sound
/// (each candidate is a genuine Lemma 4 polyhedron) and strictly more
/// complete.
pub fn check_terminal(data: &Dataset, vertices: &[Vec<f64>], eps: f64) -> Option<usize> {
    if vertices.is_empty() {
        return None;
    }
    terminal_anchor(data, &terminal_points(data, vertices.iter()), vertices, eps)
}

/// The Lemma 6 test of [`check_terminal`] given the points' distinct
/// argmaxes `anchors`: a unique argmax across the points is always
/// terminal (every point lies in its own argmax's polyhedron); otherwise
/// the first anchor whose polyhedron covers every point.
pub(crate) fn terminal_anchor(
    data: &Dataset,
    anchors: &[usize],
    points: &[Vec<f64>],
    eps: f64,
) -> Option<usize> {
    if anchors.len() == 1 {
        return Some(anchors[0]);
    }
    anchors.iter().copied().find(|&a| {
        points
            .iter()
            .all(|e| in_terminal_polyhedron(data, a, e, eps))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated specialists plus an all-rounder.
    fn data() -> Dataset {
        Dataset::from_points(vec![vec![0.95, 0.1], vec![0.1, 0.95], vec![0.6, 0.6]], 2)
    }

    #[test]
    fn top1_vector_is_inside_its_own_polyhedron() {
        // The DESIGN.md shortcut, verified directly.
        let d = data();
        for u in [vec![0.9, 0.1], vec![0.1, 0.9], vec![0.5, 0.5]] {
            let best = d.argmax_utility(&u);
            assert!(
                in_terminal_polyhedron(&d, best, &u, 0.1),
                "u = {u:?} must lie in T_argmax"
            );
        }
    }

    #[test]
    fn bad_point_is_outside_for_small_eps() {
        let d = data();
        // For a user loving attribute 1, the attribute-2 specialist has
        // regret near 0.9 — far above ε = 0.1.
        assert!(!in_terminal_polyhedron(&d, 1, &[0.95, 0.05], 0.1));
    }

    #[test]
    fn larger_eps_grows_the_polyhedron() {
        let d = data();
        let u = vec![0.55, 0.45];
        // The all-rounder point 2 w.r.t. u: utility 0.6; best is point 0
        // with 0.5675… — actually compute: p0 = 0.95·0.55 + 0.1·0.45 = 0.5675,
        // p2 = 0.6. So point 2 is already best here; take a u favoring p0.
        let u2 = vec![0.8, 0.2];
        // p0 = 0.78, p2 = 0.6 → regret of p2 = 0.18/0.78 ≈ 0.23.
        assert!(!in_terminal_polyhedron(&d, 2, &u2, 0.1));
        assert!(in_terminal_polyhedron(&d, 2, &u2, 0.3));
        let _ = u;
    }

    #[test]
    fn terminal_points_dedupe_by_argmax() {
        let d = data();
        let us = [
            vec![0.9, 0.1],
            vec![0.85, 0.15], // same argmax as above
            vec![0.1, 0.9],
            vec![0.5, 0.5],
        ];
        let pts = terminal_points(&d, us.iter());
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], 0);
    }

    #[test]
    fn check_terminal_on_tight_vertex_cluster() {
        let d = data();
        // Vertices all deep inside attribute-1 territory → single terminal
        // polyhedron anchored at point 0.
        let vs = vec![vec![0.95, 0.05], vec![0.9, 0.1]];
        assert_eq!(check_terminal(&d, &vs, 0.1), Some(0));
    }

    #[test]
    fn check_terminal_fails_across_the_whole_simplex() {
        let d = data();
        // The full simplex's vertices span both specialists.
        let vs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(check_terminal(&d, &vs, 0.1), None);
    }

    #[test]
    fn check_terminal_passes_with_loose_eps() {
        let d = data();
        let vs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        // With ε near 1 any point is acceptable everywhere.
        assert!(check_terminal(&d, &vs, 0.95).is_some());
    }

    #[test]
    fn returned_point_really_has_low_regret_on_vertices() {
        // End-to-end property: when check_terminal succeeds, the anchor's
        // regret at every vertex is below ε (Lemma 4 ⇒ below ε on all of R
        // by convexity).
        let d = data();
        let vs = vec![vec![0.52, 0.48], vec![0.48, 0.52], vec![0.5, 0.5]];
        if let Some(p) = check_terminal(&d, &vs, 0.15) {
            for v in &vs {
                let r = crate::regret::regret_ratio_of_index(&d, p, v);
                assert!(r < 0.15, "regret {r} at vertex {v:?}");
            }
        } else {
            panic!("balanced cluster should be terminal at eps = 0.15");
        }
    }
}
