//! Sorted angular intervals over `[0, π/2]` — the 2-D satisfactory-region
//! index produced by 2DRAYSWEEP and searched by 2DONLINE.
//!
//! The paper stores region borders as `⟨θ, 0/1⟩` flags (Algorithm 1's `S`);
//! we normalize to disjoint, sorted, closed intervals, which makes the
//! online binary search (Algorithm 2) and the nearest-boundary query easy
//! to state and test.

use crate::{GEOM_EPS, HALF_PI};

/// A set of disjoint, sorted, closed angular intervals within `[0, π/2]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AngularIntervals {
    /// Disjoint `[start, end]` pairs, sorted by `start`.
    intervals: Vec<(f64, f64)>,
}

impl AngularIntervals {
    /// Empty set.
    #[must_use]
    pub fn new() -> Self {
        AngularIntervals::default()
    }

    /// Build from possibly unsorted, possibly touching intervals; clamps to
    /// `[0, π/2]`, drops empty/invalid pairs and merges overlaps.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut v: Vec<(f64, f64)> = pairs
            .into_iter()
            .filter_map(|(s, e)| {
                if s.is_nan() || e.is_nan() {
                    return None;
                }
                let s = s.clamp(0.0, HALF_PI);
                let e = e.clamp(0.0, HALF_PI);
                (e >= s).then_some((s, e))
            })
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(v.len());
        for (s, e) in v {
            match merged.last_mut() {
                Some(last) if s <= last.1 + GEOM_EPS => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        AngularIntervals { intervals: merged }
    }

    /// The interval list (disjoint, sorted).
    #[must_use]
    pub fn as_slice(&self) -> &[(f64, f64)] {
        &self.intervals
    }

    /// Number of disjoint intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total angular measure covered.
    #[must_use]
    pub fn measure(&self) -> f64 {
        self.intervals.iter().map(|(s, e)| e - s).sum()
    }

    /// Whether `theta` lies in some interval (binary search, `O(log k)`).
    #[must_use]
    pub fn contains(&self, theta: f64) -> bool {
        self.locate(theta).is_some()
    }

    /// Index of the interval containing `theta`, if any.
    #[must_use]
    pub fn locate(&self, theta: f64) -> Option<usize> {
        if self.intervals.is_empty() || theta.is_nan() {
            return None;
        }
        // partition_point: first interval with start > theta.
        let idx = self
            .intervals
            .partition_point(|&(s, _)| s <= theta + GEOM_EPS);
        if idx == 0 {
            return None;
        }
        let (s, e) = self.intervals[idx - 1];
        (theta >= s - GEOM_EPS && theta <= e + GEOM_EPS).then_some(idx - 1)
    }

    /// The angle inside the set closest to `theta` (the 2DONLINE answer):
    /// `theta` itself when contained, otherwise the nearest interval
    /// endpoint, with exact ties broken toward the endpoint *above*
    /// `theta` (deterministic, and stable under adding candidates).
    /// `None` when the set is empty (no satisfactory function).
    #[must_use]
    pub fn nearest(&self, theta: f64) -> Option<f64> {
        if self.intervals.is_empty() || theta.is_nan() {
            return None;
        }
        if self.locate(theta).is_some() {
            return Some(theta);
        }
        let idx = self.intervals.partition_point(|&(s, _)| s < theta);
        // Exactly two candidates can be nearest: the start of the first
        // interval above theta and the end of the last interval below it.
        // Fold every candidate through one comparison that updates the
        // (distance, angle) pair together — a candidate list can then
        // grow without the distance going stale against the stored angle.
        let above = self.intervals.get(idx).map(|&(s, _)| s);
        let below = idx.checked_sub(1).map(|i| self.intervals[i].1);
        let mut best: Option<(f64, f64)> = None;
        for angle in [above, below].into_iter().flatten() {
            let d = (angle - theta).abs();
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, angle));
            }
        }
        best.map(|(_, angle)| angle)
    }

    /// Like [`AngularIntervals::nearest`], but endpoint answers are nudged
    /// strictly *into* the interval by up to `nudge` (never more than half
    /// the interval width).
    ///
    /// Interval borders are ordering-exchange angles where two items tie,
    /// so the ranking exactly at a border is ambiguous; a function a hair
    /// inside the interval induces the ordering the sweep actually
    /// validated. The added distance is at most `nudge`.
    #[must_use]
    pub fn nearest_interior(&self, theta: f64, nudge: f64) -> Option<f64> {
        let answer = self.nearest(theta)?;
        let idx = self
            .intervals
            .iter()
            .position(|&(s, e)| answer >= s - GEOM_EPS && answer <= e + GEOM_EPS)?;
        let (s, e) = self.intervals[idx];
        let step = nudge.min((e - s) * 0.5).max(0.0);
        if (answer - s).abs() <= GEOM_EPS {
            Some((answer + step).min(e))
        } else if (answer - e).abs() <= GEOM_EPS {
            Some((answer - step).max(s))
        } else {
            Some(answer) // already strictly interior
        }
    }

    /// Complement within `[0, π/2]`.
    #[must_use]
    pub fn complement(&self) -> AngularIntervals {
        let mut out = Vec::with_capacity(self.intervals.len() + 1);
        let mut cursor = 0.0;
        for &(s, e) in &self.intervals {
            if s > cursor + GEOM_EPS {
                out.push((cursor, s));
            }
            cursor = cursor.max(e);
        }
        if cursor < HALF_PI - GEOM_EPS {
            out.push((cursor, HALF_PI));
        }
        AngularIntervals { intervals: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_merges_and_sorts() {
        let ivs = AngularIntervals::from_pairs([(0.5, 0.7), (0.1, 0.3), (0.65, 0.9)]);
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs.as_slice()[0], (0.1, 0.3));
        assert!((ivs.as_slice()[1].0 - 0.5).abs() < 1e-12);
        assert!((ivs.as_slice()[1].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn clamps_to_quadrant() {
        let ivs = AngularIntervals::from_pairs([(-1.0, 0.2), (1.0, 9.0)]);
        assert_eq!(ivs.as_slice()[0].0, 0.0);
        assert!((ivs.as_slice()[1].1 - HALF_PI).abs() < 1e-12);
    }

    #[test]
    fn drops_invalid() {
        let ivs = AngularIntervals::from_pairs([(0.5, 0.4), (f64::NAN, 1.0)]);
        assert!(ivs.is_empty());
    }

    #[test]
    fn contains_and_locate() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.3), (0.8, 1.0)]);
        assert!(ivs.contains(0.2));
        assert!(ivs.contains(0.1));
        assert!(ivs.contains(0.3));
        assert!(!ivs.contains(0.5));
        assert_eq!(ivs.locate(0.9), Some(1));
        assert_eq!(ivs.locate(0.0), None);
    }

    #[test]
    fn nearest_inside_is_identity() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.3)]);
        assert_eq!(ivs.nearest(0.2), Some(0.2));
    }

    #[test]
    fn nearest_picks_closer_endpoint() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.3), (0.8, 1.0)]);
        assert!((ivs.nearest(0.35).unwrap() - 0.3).abs() < 1e-12);
        assert!((ivs.nearest(0.75).unwrap() - 0.8).abs() < 1e-12);
        // Exactly between 0.3 and 0.8 → ties broken toward the right start
        // or left end deterministically; accept either endpoint.
        let mid = ivs.nearest(0.55).unwrap();
        assert!((mid - 0.3).abs() < 1e-12 || (mid - 0.8).abs() < 1e-12);
    }

    #[test]
    fn nearest_on_empty_is_none() {
        assert_eq!(AngularIntervals::new().nearest(0.3), None);
    }

    #[test]
    fn nearest_equidistant_breaks_toward_upper_endpoint() {
        // Query exactly between the end of one interval and the start of
        // the next (0.4 and 0.6 around 0.5, binary-exact): the tie must
        // break deterministically toward the endpoint above the query.
        let ivs = AngularIntervals::from_pairs([(0.125, 0.25), (0.75, 1.0)]);
        let q = 0.5;
        assert_eq!(q - 0.25, 0.75 - q, "setup must be exactly equidistant");
        assert_eq!(ivs.nearest(q), Some(0.75));
    }

    #[test]
    fn nearest_scans_correctly_with_three_intervals() {
        // Regression for the stale-best bug: with the left endpoint
        // evaluated after the right one, a stored distance that is not
        // updated alongside the angle would corrupt any later comparison.
        // Three intervals exercise queries in both gaps.
        let ivs = AngularIntervals::from_pairs([(0.1, 0.2), (0.6, 0.7), (1.2, 1.3)]);
        assert_eq!(ivs.nearest(0.25), Some(0.2)); // left end closer
        assert_eq!(ivs.nearest(0.55), Some(0.6)); // right start closer
        assert_eq!(ivs.nearest(0.75), Some(0.7));
        assert_eq!(ivs.nearest(1.15), Some(1.2));
    }

    #[test]
    fn nearest_matches_exhaustive_endpoint_scan() {
        // The returned angle must be an argmin over *all* endpoints — the
        // invariant the two-candidate shortcut relies on.
        let ivs = AngularIntervals::from_pairs([(0.05, 0.1), (0.4, 0.5), (0.9, 1.1), (1.4, 1.5)]);
        for step in 0..=300 {
            let q = step as f64 / 300.0 * HALF_PI;
            let got = ivs.nearest(q).unwrap();
            let best = ivs
                .as_slice()
                .iter()
                .flat_map(|&(s, e)| [s, e])
                .map(|p| (p - q).abs())
                .fold(f64::INFINITY, f64::min);
            let got_dist = if ivs.contains(q) {
                0.0
            } else {
                (got - q).abs()
            };
            let true_dist = if ivs.contains(q) { 0.0 } else { best };
            assert!(
                (got_dist - true_dist).abs() < 1e-12,
                "q={q}: got {got} (d={got_dist}), optimum d={true_dist}"
            );
        }
    }

    #[test]
    fn boundary_angles_locate_and_snap_in_domain() {
        // θ = 0 and θ = π/2 exactly (axis-aligned queries like w = [1, 0]).
        let touching = AngularIntervals::from_pairs([(0.0, 0.2), (1.0, HALF_PI)]);
        assert!(touching.contains(0.0));
        assert!(touching.contains(HALF_PI));
        assert_eq!(touching.nearest(0.0), Some(0.0));
        assert_eq!(touching.nearest(HALF_PI), Some(HALF_PI));
        // Interior-only set: boundary queries snap to the nearest endpoint
        // and the answer stays inside [0, π/2].
        let interior = AngularIntervals::from_pairs([(0.4, 0.6)]);
        assert_eq!(interior.nearest(0.0), Some(0.4));
        assert_eq!(interior.nearest(HALF_PI), Some(0.6));
        for q in [0.0, HALF_PI] {
            let a = interior.nearest_interior(q, 1e-7).unwrap();
            assert!((0.0..=HALF_PI).contains(&a));
            assert!(interior.contains(a));
        }
    }

    #[test]
    fn measure_sums() {
        let ivs = AngularIntervals::from_pairs([(0.0, 0.25), (0.5, 1.0)]);
        assert!((ivs.measure() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn complement_partitions_quadrant() {
        let ivs = AngularIntervals::from_pairs([(0.2, 0.4), (1.0, HALF_PI)]);
        let comp = ivs.complement();
        assert!((ivs.measure() + comp.measure() - HALF_PI).abs() < 1e-9);
        assert!(comp.contains(0.0));
        assert!(comp.contains(0.7));
        assert!(!comp.contains(0.3));
    }

    #[test]
    fn complement_of_empty_is_full() {
        let comp = AngularIntervals::new().complement();
        assert_eq!(comp.len(), 1);
        assert!((comp.measure() - HALF_PI).abs() < 1e-12);
    }
}
