//! Property-based suite spanning all crates: the invariants the paper's
//! correctness rests on, exercised on randomized inputs via proptest.
//!
//! Organisation mirrors the dependency stack — geometry metrics, dual
//! transform, intervals, grids, LP, then the end-to-end 2-D and
//! multi-dimensional pipelines.

use proptest::prelude::*;

use fairrank::md::{
    closest_satisfactory_validated, sat_regions, slice, SatRegionsOptions, TIE_STEP,
};
use fairrank::twod::{online_2d, ray_sweep, TwoDAnswer};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, Proportionality};
use fairrank_geometry::dual::{dominates, exchange_angle_2d};
use fairrank_geometry::grid::{AngleGrid, PartitionScheme};
use fairrank_geometry::interval::AngularIntervals;
use fairrank_geometry::polar::{
    angular_distance, angular_distance_cartesian, cos_angle_paper_formula, to_cartesian, to_polar,
    weights_to_angles,
};
use fairrank_geometry::{GEOM_EPS, HALF_PI};
use fairrank_lp::{simplex, Constraint, LinearProgram, LpOutcome};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A strictly positive weight vector of the given dimension.
fn positive_weights(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..10.0, d)
}

/// An item with non-negative attribute values.
fn item(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, d)
}

// ---------------------------------------------------------------------
// Polar coordinates and the angular metric (paper §2, Appendix A.1)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// weights → (r, Θ) → weights is the identity on the positive orthant.
    #[test]
    fn polar_round_trip(w in positive_weights(4)) {
        let (r, angles) = to_polar(&w);
        prop_assert!(r > 0.0);
        for &a in &angles {
            prop_assert!((-GEOM_EPS..=HALF_PI + GEOM_EPS).contains(&a));
        }
        let back = to_cartesian(r, &angles);
        for (orig, rec) in w.iter().zip(&back) {
            prop_assert!((orig - rec).abs() < 1e-9, "{w:?} -> {back:?}");
        }
    }

    /// The angular distance ignores positive scaling of either argument —
    /// the core claim that rays, not weight vectors, are the query space.
    #[test]
    fn angular_distance_scale_invariant(
        w in positive_weights(3),
        c in 0.01f64..100.0,
    ) {
        let scaled: Vec<f64> = w.iter().map(|v| v * c).collect();
        let dist = angular_distance_cartesian(&w, &scaled);
        prop_assert!(dist.abs() < 1e-6, "distance to own scaling = {dist}");
    }

    /// Symmetry and identity of the angular metric.
    #[test]
    fn angular_distance_symmetric(a in positive_weights(4), b in positive_weights(4)) {
        let ab = angular_distance_cartesian(&a, &b);
        let ba = angular_distance_cartesian(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(angular_distance_cartesian(&a, &a) < 1e-6);
        prop_assert!((0.0..=HALF_PI + 1e-9).contains(&ab));
    }

    /// Triangle inequality on the sphere restricted to the first orthant.
    #[test]
    fn angular_distance_triangle(
        a in positive_weights(3),
        b in positive_weights(3),
        c in positive_weights(3),
    ) {
        let ab = angular_distance_cartesian(&a, &b);
        let bc = angular_distance_cartesian(&b, &c);
        let ac = angular_distance_cartesian(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9, "{ac} > {ab} + {bc}");
    }

    /// Equation 9 (the paper's product-form cosine in angle coordinates)
    /// agrees with the plain cartesian cosine similarity.
    #[test]
    fn paper_cosine_formula_matches_cartesian(
        a in positive_weights(4),
        b in positive_weights(4),
    ) {
        let (_, ta) = to_polar(&a);
        let (_, tb) = to_polar(&b);
        let paper = cos_angle_paper_formula(&ta, &tb);
        let na: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert!((paper - dot / (na * nb)).abs() < 1e-9);
    }

    /// `angular_distance` (angle-vector form) equals the cartesian form.
    #[test]
    fn angle_and_cartesian_distances_agree(
        a in positive_weights(3),
        b in positive_weights(3),
    ) {
        let (_, ta) = to_polar(&a);
        let (_, tb) = to_polar(&b);
        let via_angles = angular_distance(&ta, &tb);
        let via_cartesian = angular_distance_cartesian(&a, &b);
        prop_assert!((via_angles - via_cartesian).abs() < 1e-9);
    }

    /// `weights_to_angles` rejects the zero vector but accepts any other
    /// non-negative vector, and its output reconstructs the input ray.
    #[test]
    fn weights_to_angles_reconstructs_ray(w in positive_weights(5)) {
        let angles = weights_to_angles(&w).expect("positive weights are a valid ray");
        let back = to_cartesian(1.0, &angles);
        let dist = angular_distance_cartesian(&w, &back);
        // arccos loses ~√ε precision near zero distance, so 1e-7 is the
        // honest bound here, not 1e-9.
        prop_assert!(dist < 1e-7, "ray not reconstructed: {dist}");
    }
}

// ---------------------------------------------------------------------
// Ordering exchanges in 2-D (paper §3.1, Eq. 2)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// At the exchange angle both items score identically; strictly on
    /// either side the ordering is strict and opposite.
    #[test]
    fn exchange_angle_ties_scores(ti in item(2), tj in item(2)) {
        let score = |t: &[f64], theta: f64| t[0] * theta.cos() + t[1] * theta.sin();
        match exchange_angle_2d(&ti, &tj) {
            Some(theta) => {
                prop_assert!((0.0..=HALF_PI).contains(&theta));
                let diff = score(&ti, theta) - score(&tj, theta);
                prop_assert!(diff.abs() < 1e-9, "tie violated: {diff}");
                // The orderings at the two axis extremes differ.
                let at_x = score(&ti, 0.0) - score(&tj, 0.0);
                let at_y = score(&ti, HALF_PI) - score(&tj, HALF_PI);
                if theta > 1e-6 && theta < HALF_PI - 1e-6
                    && at_x.abs() > 1e-9 && at_y.abs() > 1e-9 {
                    prop_assert!(at_x.signum() != at_y.signum());
                }
            }
            None => {
                // No interior exchange ⇔ one ordering everywhere: verify on
                // a fan of rays.
                let mut signs = Vec::new();
                for s in 0..20 {
                    let theta = s as f64 / 19.0 * HALF_PI;
                    let diff = score(&ti, theta) - score(&tj, theta);
                    if diff.abs() > 1e-9 {
                        signs.push(diff.signum());
                    }
                }
                prop_assert!(
                    signs.windows(2).all(|w| w[0] == w[1]),
                    "ordering flipped without an exchange angle"
                );
            }
        }
    }

    /// Dominance kills the exchange: a dominating item wins under every
    /// non-negative weight vector.
    #[test]
    fn dominance_implies_no_exchange(ti in item(3), tj in item(3)) {
        if dominates(&ti, &tj) {
            for s in 0..8 {
                for t in 0..8 {
                    let angles = [
                        s as f64 / 7.0 * HALF_PI * 0.96 + 0.02,
                        t as f64 / 7.0 * HALF_PI * 0.96 + 0.02,
                    ];
                    let w = to_cartesian(1.0, &angles);
                    let si: f64 = ti.iter().zip(&w).map(|(a, b)| a * b).sum();
                    let sj: f64 = tj.iter().zip(&w).map(|(a, b)| a * b).sum();
                    prop_assert!(si >= sj - 1e-12);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Angular intervals — the 2-D satisfactory-region index (paper §3.2–3.3)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `from_pairs` produces a sorted, disjoint, in-range normal form no
    /// matter how messy the input.
    #[test]
    fn intervals_normal_form(
        raw in prop::collection::vec((0.0f64..HALF_PI, 0.0f64..HALF_PI), 0..12)
    ) {
        let iv = AngularIntervals::from_pairs(raw.iter().map(|&(a, b)| (a.min(b), a.max(b))));
        let s = iv.as_slice();
        for w in s.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "overlap/not sorted: {s:?}");
        }
        for &(lo, hi) in s {
            prop_assert!(lo <= hi);
            prop_assert!((0.0..=HALF_PI).contains(&lo));
            prop_assert!((0.0..=HALF_PI).contains(&hi));
        }
        prop_assert!(iv.measure() <= HALF_PI + 1e-9);
    }

    /// `nearest` returns a contained point minimizing the distance, checked
    /// against a dense scan.
    #[test]
    fn intervals_nearest_is_minimal(
        raw in prop::collection::vec((0.0f64..HALF_PI, 0.0f64..HALF_PI), 1..8),
        query in 0.0f64..HALF_PI,
    ) {
        let iv = AngularIntervals::from_pairs(raw.iter().map(|&(a, b)| (a.min(b), a.max(b))));
        prop_assume!(!iv.is_empty());
        let answer = iv.nearest(query).expect("non-empty");
        prop_assert!(iv.contains(answer) || s_on_boundary(&iv, answer));
        // Dense scan lower bound.
        let mut best = f64::INFINITY;
        for s in 0..=4000 {
            let theta = s as f64 / 4000.0 * HALF_PI;
            if iv.contains(theta) {
                best = best.min((theta - query).abs());
            }
        }
        prop_assert!((answer - query).abs() <= best + 1e-3);
    }

    /// The complement partitions [0, π/2]: measures add up and membership
    /// is exclusive away from boundaries.
    #[test]
    fn intervals_complement_partitions(
        raw in prop::collection::vec((0.0f64..HALF_PI, 0.0f64..HALF_PI), 0..8),
        query in 0.0f64..HALF_PI,
    ) {
        let iv = AngularIntervals::from_pairs(raw.iter().map(|&(a, b)| (a.min(b), a.max(b))));
        let co = iv.complement();
        prop_assert!((iv.measure() + co.measure() - HALF_PI).abs() < 1e-6);
        let near_boundary = iv
            .as_slice()
            .iter()
            .chain(co.as_slice())
            .any(|&(a, b)| (query - a).abs() < 1e-6 || (query - b).abs() < 1e-6);
        if !near_boundary {
            prop_assert!(iv.contains(query) != co.contains(query));
        }
    }
}

fn s_on_boundary(iv: &AngularIntervals, x: f64) -> bool {
    iv.as_slice()
        .iter()
        .any(|&(a, b)| (x - a).abs() < 1e-9 || (x - b).abs() < 1e-9)
}

// ---------------------------------------------------------------------
// Angle-space grids (paper §5, Appendix A.2)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `locate` returns a cell whose bounds contain the probe, for both
    /// partitioning schemes and several dimensions.
    #[test]
    fn grid_locate_is_consistent(
        d in 3usize..=5,
        cells in 50usize..400,
        seed_angles in prop::collection::vec(0.001f64..0.999, 4),
    ) {
        for scheme in [PartitionScheme::EqualArea, PartitionScheme::Uniform] {
            let grid = match scheme {
                PartitionScheme::EqualArea => AngleGrid::equal_area(d, cells),
                PartitionScheme::Uniform => AngleGrid::uniform(d, cells),
            };
            let theta: Vec<f64> = seed_angles[..d - 1]
                .iter()
                .map(|&u| u * HALF_PI)
                .collect();
            let id = grid.locate(&theta);
            let (bl, tr) = grid.cell_bounds(id);
            for k in 0..d - 1 {
                prop_assert!(theta[k] >= bl[k] - 1e-9, "below cell in dim {k}");
                prop_assert!(theta[k] <= tr[k] + 1e-9, "above cell in dim {k}");
            }
            // The center must locate back to the same cell.
            let center = grid.center(id);
            prop_assert_eq!(grid.locate(&center), id);
        }
    }

    /// Neighbourhood symmetry: `a ∈ neighbors(b)` ⇔ `b ∈ neighbors(a)`.
    #[test]
    fn grid_neighbors_symmetric(cells in 30usize..150) {
        let grid = AngleGrid::equal_area(3, cells);
        for id in 0..grid.cell_count() as u32 {
            for &nb in &grid.neighbors(id) {
                prop_assert!(
                    grid.neighbors(nb).contains(&id),
                    "asymmetric neighbourhood {id} / {nb}"
                );
            }
        }
    }

    /// CELLPLANE× (quadtree pruning) finds exactly the cells the exhaustive
    /// scan finds.
    #[test]
    fn cells_crossing_matches_bruteforce(
        cells in 40usize..250,
        ti in item(3),
        tj in item(3),
    ) {
        let grid = AngleGrid::equal_area(3, cells);
        let Some(h) = fairrank::md::hyperpolar::exchange_hyperplane(&ti, &tj) else {
            return Ok(());
        };
        let mut fast = grid.cells_crossing(&h);
        let mut slow = grid.cells_crossing_bruteforce(&h);
        fast.sort_unstable();
        slow.sort_unstable();
        prop_assert_eq!(fast, slow);
    }
}

// ---------------------------------------------------------------------
// LP substrate (paper §4.2 feasibility / witness probes)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any Optimal outcome of the simplex is primal feasible and no worse
    /// than a cloud of random feasible points.
    #[test]
    fn simplex_optimal_is_feasible_and_competitive(
        normals in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 2), 1..6),
        offsets in prop::collection::vec(0.1f64..1.5, 6),
        obj in prop::collection::vec(-1.0f64..1.0, 2),
    ) {
        let constraints: Vec<Constraint> = normals
            .iter()
            .zip(&offsets)
            .map(|(n, &b)| Constraint::le(n.clone(), b))
            .collect();
        let lp = LinearProgram::minimize(obj.clone())
            .with_constraints(constraints.clone())
            .with_box(0.0, HALF_PI);
        // Infeasible/Unbounded outcomes are legitimate; only optima carry
        // obligations.
        if let Ok(LpOutcome::Optimal { x, value }) = simplex::solve(&lp) {
            prop_assert!(lp.is_feasible_point(&x, 1e-7), "infeasible optimum {x:?}");
            prop_assert!((lp.objective_value(&x) - value).abs() < 1e-7);
            // Sample feasible points; none may beat the optimum.
            let mut rng_state = 0x9e3779b97f4a7c15u64;
            for _ in 0..200 {
                let mut p = [0.0f64; 2];
                for slot in &mut p {
                    rng_state = rng_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *slot = (rng_state >> 11) as f64 / (1u64 << 53) as f64 * HALF_PI;
                }
                if lp.is_feasible_point(&p, 1e-9) {
                    prop_assert!(
                        lp.objective_value(&p) >= value - 1e-6,
                        "sampled point beats 'optimal'"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The two independent LP engines (dense two-phase simplex and
    /// Seidel's randomized incremental algorithm) agree on feasibility
    /// and optimal value.
    #[test]
    fn simplex_and_seidel_agree(
        normals in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 2), 1..7),
        offsets in prop::collection::vec(-0.5f64..1.5, 7),
        obj in prop::collection::vec(-1.0f64..1.0, 2),
    ) {
        use fairrank_lp::seidel::{solve_seidel, SeidelOutcome};
        let constraints: Vec<Constraint> = normals
            .iter()
            .zip(&offsets)
            .map(|(n, &b)| Constraint::le(n.clone(), b))
            .collect();
        let lp = LinearProgram::minimize(obj.clone())
            .with_constraints(constraints.clone())
            .with_box(0.0, HALF_PI);
        let via_simplex = simplex::solve(&lp);
        let via_seidel = solve_seidel(&constraints, &obj, 0.0, HALF_PI, 42)
            .expect("valid input");
        match (via_simplex, via_seidel) {
            (Ok(LpOutcome::Optimal { value, .. }), SeidelOutcome::Optimal(x)) => {
                let seidel_value = lp.objective_value(&x);
                prop_assert!(
                    (value - seidel_value).abs() < 1e-6,
                    "simplex {value} vs seidel {seidel_value}"
                );
                prop_assert!(lp.is_feasible_point(&x, 1e-7));
            }
            (Ok(LpOutcome::Infeasible), SeidelOutcome::Infeasible) => {}
            (s, z) => prop_assert!(false, "outcome mismatch: {s:?} vs {z:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Arrangement invariants (paper §4.2)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat arrangement and arrangement tree count the same regions, and
    /// every region owns a witness that no other region accepts — the
    /// regions genuinely partition the weight slice.
    #[test]
    fn arrangement_regions_partition_space(
        seed in 0u64..500,
        n in 6usize..14,
    ) {
        use fairrank_geometry::arrangement::Arrangement;
        let ds = generic::uniform(n, 3, 0.0, seed);
        let hs = fairrank::md::exchange_hyperplanes(&ds);
        prop_assume!(!hs.is_empty());

        let simplex = vec![Constraint::le(vec![1.0, 1.0], 1.0)];
        let mut flat = Arrangement::with_base(2, 0.0, 1.0, simplex);
        let mut tree = slice::arrangement(2);
        for h in &hs {
            flat.insert(h.clone());
            tree.insert(h);
        }
        prop_assert_eq!(flat.region_count(), tree.region_count());

        // Each tree witness satisfies its own constraints strictly and
        // lies in exactly one region of the tree's decomposition.
        let witnesses = tree.region_witnesses();
        prop_assert_eq!(witnesses.len(), tree.region_count());
        for (constraints, w) in &witnesses {
            for c in constraints {
                prop_assert!(c.satisfied(w, 1e-9), "witness violates its region");
            }
            let owners = witnesses
                .iter()
                .filter(|(cs, _)| cs.iter().all(|c| c.satisfied(w, 1e-9)))
                .count();
            prop_assert_eq!(owners, 1, "witness claimed by {} regions", owners);
        }
    }

    /// Insertion order changes the tree's shape but not the number of
    /// regions in the final decomposition.
    #[test]
    fn arrangement_region_count_order_invariant(seed in 0u64..200) {
        let ds = generic::uniform(9, 3, 0.0, seed);
        let hs = fairrank::md::exchange_hyperplanes(&ds);
        prop_assume!(hs.len() >= 2);

        let mut forward = slice::arrangement(2);
        for h in &hs {
            forward.insert(h);
        }
        let mut backward = slice::arrangement(2);
        for h in hs.iter().rev() {
            backward.insert(h);
        }
        prop_assert_eq!(forward.region_count(), backward.region_count());
    }
}

// ---------------------------------------------------------------------
// End-to-end 2-D pipeline (paper §3)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interval index built by 2DRAYSWEEP agrees with brute-force oracle
    /// evaluation on a fan of rays, and 2DONLINE answers are fair.
    #[test]
    fn raysweep_index_matches_truth(
        seed in 0u64..1000,
        n in 20usize..60,
        kfrac in 0.2f64..0.5,
        cap_frac in 0.3f64..0.8,
    ) {
        let ds = generic::uniform(n, 2, 0.85, seed);
        let attr = ds.type_attribute("group").unwrap().clone();
        let k = ((n as f64) * kfrac).round().max(2.0) as usize;
        let cap = ((k as f64) * cap_frac).round().max(1.0) as usize;
        let oracle = Proportionality::new(&attr, k).with_max_count(0, cap);

        let sweep = ray_sweep(&ds, &oracle).unwrap();
        for s in 0..50 {
            let theta = (s as f64 + 0.5) / 50.0 * HALF_PI;
            let truth = oracle.is_satisfactory(&ds.rank(&[theta.cos(), theta.sin()]));
            let boundary = sweep
                .intervals
                .as_slice()
                .iter()
                .any(|&(a, b)| (theta - a).abs() < 1e-6 || (theta - b).abs() < 1e-6);
            if !boundary {
                prop_assert_eq!(sweep.intervals.contains(theta), truth, "θ = {}", theta);
            }
        }

        // Online answers re-validate against the oracle.
        for s in 0..10 {
            let theta = (s as f64 + 0.5) / 10.0 * HALF_PI;
            let q = [theta.cos(), theta.sin()];
            match online_2d(&sweep.intervals, &q).unwrap() {
                TwoDAnswer::AlreadyFair => {
                    prop_assert!(oracle.is_satisfactory(&ds.rank(&q)));
                }
                TwoDAnswer::Suggestion { weights, .. } => {
                    prop_assert!(oracle.is_satisfactory(&ds.rank(&weights)));
                }
                TwoDAnswer::Infeasible => prop_assert!(sweep.intervals.is_empty()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end multi-dimensional pipeline (paper §4)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every SATREGIONS witness is genuinely satisfactory, and MDBASELINE
    /// returns fair suggestions, no farther than the best witness, that no
    /// oracle-fair dense-sample point beats by more than the tie walk's
    /// first step moves an answer (`t / (1 − t) < 2·TIE_STEP` radians; see
    /// `integration_md::mdbaseline_returns_fair_and_near_optimal_answers`).
    #[test]
    fn satregions_and_baseline_invariants(
        seed in 0u64..500,
        d in 3usize..5,
        n in 10usize..22,
        query in positive_weights(4),
    ) {
        // The d = 4 arrangement grows as h³: keep it small.
        let n = if d == 4 { n.min(12) } else { n };
        let query = &query[..d];
        let ds = generic::uniform(n, d, 0.85, seed);
        let attr = ds.type_attribute("group").unwrap().clone();
        let k = (n / 3).max(2);
        let oracle = Proportionality::new(&attr, k).with_max_count(0, (k / 2).max(1));

        let regions = sat_regions(&ds, &oracle, &SatRegionsOptions::default()).unwrap();
        for r in &regions.satisfactory {
            let w = slice::lift(&r.witness);
            prop_assert!(oracle.is_satisfactory(&ds.rank(&w)), "witness unfair");
        }

        if let Some(ans) =
            closest_satisfactory_validated(&regions.satisfactory, query, &ds, &oracle)
        {
            prop_assert!(oracle.is_satisfactory(&ds.rank(&ans.weights)), "suggestion unfair");
            // The validated answer is never farther than the best stored
            // witness (the walk falls back to witnesses).
            let witness_best = regions
                .satisfactory
                .iter()
                .map(|r| angular_distance_cartesian(&slice::lift(&r.witness), query))
                .fold(f64::INFINITY, f64::min);
            prop_assert!(ans.distance <= witness_best + 1e-9);
            prop_assert!(ans.tie_excess < 2.0 * TIE_STEP, "walk went past its first step");
            let steps: usize = if d == 3 { 90 } else { 22 };
            let at = |i: usize| (i as f64 + 0.5) / steps as f64 * HALF_PI;
            for cell in 0..steps.pow(d as u32 - 1) {
                let angles: Vec<f64> = (0..d - 1)
                    .map(|a| at(cell / steps.pow(a as u32) % steps))
                    .collect();
                let w = to_cartesian(1.0, &angles);
                if oracle.is_satisfactory(&ds.rank(&w)) {
                    let gap = ans.distance - angular_distance_cartesian(&w, query);
                    prop_assert!(
                        gap <= 2.0 * TIE_STEP + 1e-12,
                        "fair sample {angles:?} beats the answer by {gap}"
                    );
                }
            }
        } else {
            prop_assert!(regions.satisfactory.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Fairness oracles (paper §2 / §6.1 FM1–FM2)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// head_counts sums to k and satisfaction is exactly counts_satisfy.
    #[test]
    fn proportionality_counts_consistent(
        seed in 0u64..1000,
        n in 10usize..80,
        kfrac in 0.1f64..0.9,
    ) {
        let ds = generic::uniform(n, 2, 0.5, seed);
        let attr = ds.type_attribute("group").unwrap().clone();
        let k = (((n as f64) * kfrac) as usize).clamp(1, n);
        let oracle = Proportionality::new(&attr, k).with_max_share(0, 0.6);
        let ranking = ds.rank(&[0.7, 0.3]);
        let counts = oracle.head_counts(&ranking);
        prop_assert_eq!(counts.iter().sum::<usize>(), k);
        prop_assert_eq!(
            oracle.is_satisfactory(&ranking),
            oracle.counts_satisfy(&counts)
        );
    }

    /// A permutation of the tail (below k) never changes the verdict.
    #[test]
    fn verdict_depends_only_on_topk(seed in 0u64..1000, n in 20usize..60) {
        let ds = generic::uniform(n, 2, 0.7, seed);
        let attr = ds.type_attribute("group").unwrap().clone();
        let k = n / 3;
        let oracle = Proportionality::new(&attr, k).with_max_share(0, 0.55);
        let ranking = ds.rank(&[0.5, 0.5]);
        let before = oracle.is_satisfactory(&ranking);
        let mut shuffled = ranking.clone();
        shuffled[k..].reverse();
        prop_assert_eq!(before, oracle.is_satisfactory(&shuffled));
    }
}

// ---------------------------------------------------------------------
// Dataset invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `rank` orders by non-increasing score and is a permutation.
    #[test]
    fn rank_is_sorted_permutation(
        seed in 0u64..1000,
        n in 5usize..60,
        w in positive_weights(3),
    ) {
        let ds = generic::uniform(n, 3, 0.5, seed);
        let ranking = ds.rank(&w);
        prop_assert_eq!(ranking.len(), n);
        let mut seen = vec![false; n];
        for &i in &ranking {
            prop_assert!(!seen[i as usize], "duplicate in ranking");
            seen[i as usize] = true;
        }
        for pair in ranking.windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            prop_assert!(ds.score(&w, a) >= ds.score(&w, b) - 1e-12);
        }
    }

    /// Dominance-layer pruning preserves the exact top-k for every probe
    /// ray (the §8 soundness claim).
    #[test]
    fn pruning_preserves_topk(seed in 0u64..300, n in 20usize..60) {
        let ds = generic::anticorrelated(n, 3, 0.5, seed);
        let k = 5usize;
        let keep = fairrank::pruning::top_k_candidate_items(&ds, k);
        let keep_set: std::collections::HashSet<u32> =
            keep.iter().map(|&i| i as u32).collect();
        for s in 0..6 {
            for t in 0..6 {
                let angles = [
                    (s as f64 + 0.5) / 6.0 * HALF_PI,
                    (t as f64 + 0.5) / 6.0 * HALF_PI,
                ];
                let w = to_cartesian(1.0, &angles);
                for &idx in ds.top_k(&w, k).iter() {
                    prop_assert!(
                        keep_set.contains(&idx),
                        "top-k item {idx} pruned away"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic regression cases distilled from past proptest failures.
// ---------------------------------------------------------------------

#[test]
fn regression_zero_weight_vector_rejected() {
    assert!(weights_to_angles(&[0.0, 0.0, 0.0]).is_none());
}

#[test]
fn regression_axis_aligned_ray_round_trip() {
    // Rays on the boundary of the orthant (zero coordinates) must still
    // round-trip: the polar angles hit 0 / π/2 exactly.
    for axis in 0..4 {
        let mut w = vec![0.0; 4];
        w[axis] = 2.5;
        let (r, angles) = to_polar(&w);
        let back = to_cartesian(r, &angles);
        for (a, b) in w.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{w:?} -> {back:?}");
        }
    }
}

#[test]
fn regression_identical_items_have_no_exchange() {
    assert_eq!(exchange_angle_2d(&[0.3, 0.3], &[0.3, 0.3]), None);
}

#[test]
fn regression_duplicate_dataset_rows() {
    // Duplicated rows must not break the sweep (zero-length exchange
    // sectors).
    let rows: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            let v = (i / 2) as f64 / 6.0 + 0.1;
            vec![v, 1.0 - v]
        })
        .collect();
    let mut ds = Dataset::from_rows(vec!["x".into(), "y".into()], &rows).unwrap();
    ds.add_type_attribute(
        "group",
        vec!["a".into(), "b".into()],
        (0..12).map(|i| i % 2).collect(),
    )
    .unwrap();
    let attr = ds.type_attribute("group").unwrap().clone();
    let oracle = Proportionality::new(&attr, 4).with_max_count(0, 2);
    let sweep = ray_sweep(&ds, &oracle).unwrap();
    let _ = sweep.intervals.measure();
}
