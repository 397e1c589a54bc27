//! The two-dimensional case (paper §3): ray sweeping offline, binary
//! search online — plus [`TwoDIntervals`], the §3 artifact packaged as a
//! serving backend.

pub mod online;
pub mod raysweep;

pub use online::{online_2d, TwoDAnswer};
pub use raysweep::{ray_sweep, ray_sweep_incremental, RaySweepResult};

use fairrank_datasets::kernels;
use fairrank_datasets::Dataset;
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::interval::AngularIntervals;
use fairrank_geometry::HALF_PI;

use crate::backend::{Answer, BackendStats, IndexBackend, QueryCtx, SharedCounters};
use crate::error::FairRankError;
use crate::update::{DatasetUpdate, UpdateCtx, UpdateOutcome};
use raysweep::{event_cmp, exchange_events, item_events, sweep_events, sweep_events_threaded};

/// The sweep structure behind incremental maintenance: the full sorted
/// ordering-exchange event list plus the per-sector oracle verdicts the
/// last (re)sweep produced. `boundaries[i]` ends sector `i`;
/// `verdicts.len() == boundaries.len() + 1`.
///
/// This is what turns an item update into an `O(n log n + resweep)`
/// maintenance pass instead of an `O(n²)` rebuild: the event list is
/// merged/filtered per item instead of re-enumerated over all pairs, and
/// for top-k-bounded oracles a sector whose top-k prefix provably did
/// not change reuses its stored verdict without consulting the oracle.
#[derive(Debug, Clone, PartialEq)]
struct SweepMaint {
    events: Vec<(f64, u32, u32)>,
    boundaries: Vec<f64>,
    verdicts: Vec<bool>,
}

impl SweepMaint {
    /// The stored verdict of the sector containing `theta`.
    fn verdict_at(&self, theta: f64) -> bool {
        let idx = self.boundaries.partition_point(|b| *b <= theta);
        self.verdicts[idx]
    }
}

/// The §3 serving backend: sorted satisfactory angular intervals, the
/// exact output of [`ray_sweep`], answered by [`online_2d`] in
/// `O(log n)`.
///
/// Because 2DRAYSWEEP is exact — the intervals *are* the satisfactory
/// set — this backend also decides fairness from the index alone
/// ([`IndexBackend::known_fairness`]), which lets the serving path skip
/// the per-query oracle ranking entirely.
///
/// Built through [`FairRanker::builder`](crate::FairRanker::builder) the
/// backend keeps its sweep structure and maintains it **incrementally**
/// through [`IndexBackend::apply`]; wrapped from bare intervals (e.g. a
/// persisted artifact) it has no sweep structure and the first update
/// falls back to one full resweep, after which it is maintained
/// incrementally too.
#[derive(Debug, Clone)]
pub struct TwoDIntervals {
    intervals: AngularIntervals,
    maint: Option<SweepMaint>,
    counters: SharedCounters,
}

/// Structural equality covers the index artifact (intervals + sweep
/// state); the [`SharedCounters`] are operational metadata shared across
/// copy-on-write forks and deliberately excluded.
impl PartialEq for TwoDIntervals {
    fn eq(&self, other: &Self) -> bool {
        self.intervals == other.intervals && self.maint == other.maint
    }
}

impl TwoDIntervals {
    /// Wrap a satisfactory-interval index (typically
    /// [`RaySweepResult::intervals`]).
    #[must_use]
    pub fn new(intervals: AngularIntervals) -> Self {
        TwoDIntervals {
            intervals,
            maint: None,
            counters: SharedCounters::new(),
        }
    }

    /// The underlying interval index.
    #[must_use]
    pub fn intervals(&self) -> &AngularIntervals {
        &self.intervals
    }

    /// The query's angle in `[0, π/2]` (see [`online_2d`] for the
    /// boundary clamp rationale).
    fn theta(weights: &[f64]) -> f64 {
        weights[1].atan2(weights[0]).clamp(0.0, HALF_PI)
    }

    /// Run 2DRAYSWEEP on `threads` workers and keep the sweep structure
    /// for incremental maintenance — the builder's construction path.
    /// The sweep is sharded by angular sector and merged in canonical
    /// angle order, bit-identical to the serial walk for every count.
    ///
    /// # Errors
    /// [`FairRankError::DimensionMismatch`] unless `ds.dim() == 2`.
    pub(crate) fn build_maintained(
        ds: &Dataset,
        oracle: &dyn FairnessOracle,
        threads: usize,
    ) -> Result<TwoDIntervals, FairRankError> {
        if ds.dim() != 2 {
            return Err(FairRankError::DimensionMismatch {
                expected: 2,
                found: ds.dim(),
            });
        }
        let phase = crate::buildtel::PhaseTimer::start("twod", "events");
        let events = exchange_events(ds);
        phase.finish();
        let phase = crate::buildtel::PhaseTimer::start("twod", "sweep");
        let out = sweep_events_threaded(ds, &events, threads, None, &|ranking, _, _, _, _| {
            oracle.is_satisfactory(ranking)
        });
        phase.finish();
        Ok(TwoDIntervals {
            intervals: out.intervals,
            maint: Some(SweepMaint {
                events,
                boundaries: out.boundaries,
                verdicts: out.verdicts,
            }),
            counters: SharedCounters::new(),
        })
    }

    /// Resweep over a maintained event list: sectors where
    /// `certified(maint, ranking, position, lo, hi)` proves the stored
    /// verdict still holds reuse it; every other sector takes the
    /// `O(1)` incremental-oracle verdict when the oracle supports one
    /// ([`FairnessOracle::incremental`] — contractually identical to the
    /// black-box answer), falling back to a black-box call otherwise.
    /// Commits the new sweep structure and intervals.
    fn resweep_with<R>(
        &mut self,
        ds: &Dataset,
        oracle: &dyn FairnessOracle,
        events: Vec<(f64, u32, u32)>,
        mut certified: R,
    ) where
        R: FnMut(&SweepMaint, &[u32], &[u32], f64, f64) -> bool,
    {
        let maint = self.maint.take().expect("resweep requires sweep state");
        let out = sweep_events(
            ds,
            &events,
            Some(oracle),
            |ranking, position, lo, hi, inc| {
                if certified(&maint, ranking, position, lo, hi) {
                    maint.verdict_at(lookup_point(lo, hi))
                } else {
                    inc.unwrap_or_else(|| oracle.is_satisfactory(ranking))
                }
            },
        );
        self.intervals = out.intervals;
        self.maint = Some(SweepMaint {
            events,
            boundaries: out.boundaries,
            verdicts: out.verdicts,
        });
    }
}

/// A sector's stored-verdict lookup point: strictly past every event
/// batched at `lo` (batches span at most `1e-12`), strictly before `hi`.
/// Sector widths exceed `1e-12` by construction, so the point is
/// interior.
#[inline]
fn lookup_point(lo: f64, hi: f64) -> f64 {
    0.5 * (lo + 1e-12 + hi)
}

/// Item `x`'s rank over the old dataset as a step function of the angle:
/// `(boundaries, ranks)` where `boundaries` are `x`'s exchange angles and
/// `ranks[i]` is `x`'s rank (0-based) strictly inside segment `i`.
fn rank_steps(ds: &Dataset, events: &[(f64, u32, u32)], x: u32) -> (Vec<f64>, Vec<usize>) {
    let bounds: Vec<f64> = events
        .iter()
        .filter(|&&(_, a, b)| a == x || b == x)
        .map(|&(theta, _, _)| theta)
        .collect();
    let mut ranks = Vec::with_capacity(bounds.len() + 1);
    let mut scores = Vec::new();
    let mut sides = Vec::new();
    for i in 0..=bounds.len() {
        let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
        let hi = if i == bounds.len() {
            HALF_PI
        } else {
            bounds[i]
        };
        let w = [f64::cos(0.5 * (lo + hi)), f64::sin(0.5 * (lo + hi))];
        // Score the whole column once per segment, then classify every
        // item against x's score with the batch sign kernel. The kernel's
        // `total_cmp` signs match exactly the ranking comparator
        // `Dataset::rank` uses (descending `total_cmp` score, ascending
        // id on ties); a raw `>`/`==` pair would diverge on signed zeros
        // (and NaN), misplacing x's rank step function and fabricating a
        // verdict-reuse certificate.
        kernels::score_all_into(ds, &w, &mut scores);
        let sx = scores[x as usize];
        kernels::side_test_batch(&scores, sx, &mut sides);
        let rank = sides
            .iter()
            .enumerate()
            .filter(|&(j, &s)| j != x as usize && (s > 0 || (s == 0 && (j as u32) < x)))
            .count();
        ranks.push(rank);
    }
    (bounds, ranks)
}

/// Minimum of the rank step function over `[lo, hi]`, widened by a
/// `1e-12` slack on both sides (conservative: a smaller minimum only
/// withholds a verdict-reuse certificate, never fabricates one).
fn min_rank_over(bounds: &[f64], ranks: &[usize], lo: f64, hi: f64) -> usize {
    let first = bounds.partition_point(|&b| b <= lo - 1e-12);
    let last = bounds.partition_point(|&b| b < hi + 1e-12);
    ranks[first..=last]
        .iter()
        .copied()
        .min()
        .expect("non-empty")
}

/// Merge two event lists sorted by [`event_cmp`].
fn merge_events(base: Vec<(f64, u32, u32)>, add: Vec<(f64, u32, u32)>) -> Vec<(f64, u32, u32)> {
    let mut out = Vec::with_capacity(base.len() + add.len());
    let (mut i, mut j) = (0, 0);
    while i < base.len() && j < add.len() {
        if event_cmp(&base[i], &add[j]).is_le() {
            out.push(base[i]);
            i += 1;
        } else {
            out.push(add[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&base[i..]);
    out.extend_from_slice(&add[j..]);
    out
}

impl IndexBackend for TwoDIntervals {
    fn dim(&self) -> usize {
        2
    }

    fn suggest_unfair(
        &self,
        weights: &[f64],
        _ctx: &QueryCtx<'_>,
    ) -> Result<Answer, FairRankError> {
        Ok(match online_2d(&self.intervals, weights)? {
            TwoDAnswer::AlreadyFair => Answer::AlreadyFair,
            TwoDAnswer::Infeasible => Answer::Infeasible,
            TwoDAnswer::Suggestion { weights, distance } => Answer::Suggested {
                weights: weights.to_vec(),
                distance,
            },
        })
    }

    // The sweep enumerates *every* ordering-exchange angle and probes the
    // oracle once per sector, so interval membership equals the oracle's
    // verdict everywhere except exactly on an exchange angle (where the
    // ranking ties and the oracle's own answer is tie-break-dependent).
    fn known_fairness(&self, weights: &[f64]) -> Option<bool> {
        Some(self.intervals.contains(Self::theta(weights)))
    }

    // True incremental maintenance (the headline of the update design):
    // the stored event list is merged/filtered per item — `O(n log n + E)`
    // instead of the `O(n²)` pair re-enumeration plus `O(E log E)` sort —
    // and the resweep reuses a sector's stored verdict whenever the
    // updated item provably sits outside the oracle's top-k prefix on
    // both sides of the update, so most sectors never touch the oracle.
    // Equivalence to a from-scratch rebuild is property-tested in
    // `tests/incremental_equivalence.rs`.
    fn apply(
        &mut self,
        update: &DatasetUpdate,
        ctx: &UpdateCtx<'_>,
    ) -> Result<UpdateOutcome, FairRankError> {
        if self.maint.is_none() {
            // Bare intervals (persisted artifact): one full resweep on
            // all cores seeds the maintenance state; subsequent updates
            // are incremental.
            *self = TwoDIntervals {
                counters: self.counters.clone(),
                ..Self::build_maintained(ctx.ds, ctx.oracle, crate::parallel::all_cores())?
            };
            self.counters.record(true, true);
            return Ok(UpdateOutcome::Rebuilt);
        }
        // A sector verdict can only be reused when the oracle provably
        // inspects just the top-k prefix, and the prefix length did not
        // shift under the update (`k` strictly below both populations —
        // re-binding only ever changes `k` by clamping it to `n`).
        let top_k = ctx
            .oracle
            .top_k_bound()
            .filter(|&k| k > 0 && k < ctx.ds.len() && k < ctx.old.len());
        let maint = self.maint.as_ref().expect("checked above");
        match update {
            DatasetUpdate::Insert { .. } => {
                let x = (ctx.ds.len() - 1) as u32;
                let events = merge_events(maint.events.clone(), item_events(ctx.ds, x));
                self.resweep_with(ctx.ds, ctx.oracle, events, |_, _, position, _, _| {
                    // x below the top-k: the prefix the oracle inspects is
                    // exactly the old sector's (inserts don't renumber).
                    top_k.is_some_and(|k| position[x as usize] as usize >= k)
                });
            }
            DatasetUpdate::Remove { item } => {
                let r = *item;
                let (bounds, ranks) = rank_steps(ctx.old, &maint.events, r);
                let events = maint
                    .events
                    .iter()
                    .filter(|&&(_, a, b)| a != r && b != r)
                    .map(|&(theta, a, b)| (theta, a - u32::from(a > r), b - u32::from(b > r)))
                    .collect();
                self.resweep_with(ctx.ds, ctx.oracle, events, |_, _, _, lo, hi| {
                    // r below the top-k throughout the sector: the prefix
                    // is the old one modulo the id renumbering the rebound
                    // oracle absorbs.
                    top_k.is_some_and(|k| min_rank_over(&bounds, &ranks, lo, hi) >= k)
                });
            }
            DatasetUpdate::Rescore { item, .. } => {
                let r = *item;
                let (bounds, ranks) = rank_steps(ctx.old, &maint.events, r);
                let kept: Vec<(f64, u32, u32)> = maint
                    .events
                    .iter()
                    .filter(|&&(_, a, b)| a != r && b != r)
                    .copied()
                    .collect();
                let events = merge_events(kept, item_events(ctx.ds, r));
                self.resweep_with(ctx.ds, ctx.oracle, events, |_, _, position, lo, hi| {
                    // r below the top-k both before and after the rescore.
                    top_k.is_some_and(|k| {
                        position[r as usize] as usize >= k
                            && min_rank_over(&bounds, &ranks, lo, hi) >= k
                    })
                });
            }
        }
        self.counters.record(true, false);
        Ok(UpdateOutcome::Incremental)
    }

    fn clone_box(&self) -> Option<Box<dyn IndexBackend>> {
        Some(Box::new(self.clone()))
    }

    fn persist_tag(&self) -> u8 {
        crate::persist::TAG_INTERVALS
    }

    fn encode(&self) -> Vec<u8> {
        crate::persist::encode_intervals(&self.intervals)
    }

    fn stats(&self) -> BackendStats {
        let (updates, rebuilds) = self.counters.snapshot();
        BackendStats {
            kind: "2d-intervals",
            artifacts: self.intervals.len(),
            functions: None,
            error_bound: Some(0.0),
            updates,
            rebuilds,
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::Proportionality;
    use fairrank_geometry::polar::to_cartesian;

    #[test]
    fn known_fairness_matches_oracle_off_borders() {
        let ds = generic::uniform(60, 2, 0.9, 11);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 12).with_max_count(0, 6);
        let sweep = ray_sweep(&ds, &oracle).unwrap();
        let backend = TwoDIntervals::new(sweep.intervals);
        for i in 0..200 {
            let t = (i as f64 + 0.5) / 200.0 * HALF_PI;
            let w = to_cartesian(1.3, &[t]);
            let from_index = backend.known_fairness(&w).unwrap();
            let from_oracle = oracle.is_satisfactory(&ds.rank(&w));
            assert_eq!(from_index, from_oracle, "divergence at θ = {t}");
        }
    }

    #[test]
    fn backend_stats_shape() {
        let backend = TwoDIntervals::new(AngularIntervals::from_pairs([(0.1, 0.3), (0.8, 1.0)]));
        let s = backend.stats();
        assert_eq!(s.kind, "2d-intervals");
        assert_eq!(s.artifacts, 2);
        assert_eq!(s.error_bound, Some(0.0));
        assert_eq!(s.updates, 0);
        assert_eq!(s.rebuilds, 0);
        assert_eq!(backend.dim(), 2);
    }

    #[test]
    fn merged_item_events_reproduce_fresh_enumeration() {
        // The bit-identity backbone: (stored events of the old dataset)
        // merged with (the inserted item's events) must equal a fresh
        // `exchange_events` run over the grown dataset, element for
        // element — same angles, same pairs, same order.
        let mut ds = generic::uniform(25, 2, 0.5, 21);
        let old_events = exchange_events(&ds);
        ds.insert_row(&[0.37, 0.81], &[1]).unwrap();
        let x = (ds.len() - 1) as u32;
        let merged = merge_events(old_events, item_events(&ds, x));
        assert_eq!(merged, exchange_events(&ds));
    }

    #[test]
    fn filtered_events_reproduce_fresh_enumeration_after_removal() {
        let ds = generic::uniform(25, 2, 0.5, 22);
        let events = exchange_events(&ds);
        let r = 7u32;
        let filtered: Vec<(f64, u32, u32)> = events
            .iter()
            .filter(|&&(_, a, b)| a != r && b != r)
            .map(|&(t, a, b)| (t, a - u32::from(a > r), b - u32::from(b > r)))
            .collect();
        let mut smaller = ds.clone();
        smaller.remove_row(r as usize).unwrap();
        assert_eq!(filtered, exchange_events(&smaller));
    }

    #[test]
    fn rank_steps_match_direct_ranking() {
        let ds = generic::uniform(20, 2, 0.6, 23);
        let events = exchange_events(&ds);
        let x = 4u32;
        let (bounds, ranks) = rank_steps(&ds, &events, x);
        assert_eq!(ranks.len(), bounds.len() + 1);
        // Check each segment midpoint against a full sort.
        for i in 0..=bounds.len() {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = if i == bounds.len() {
                HALF_PI
            } else {
                bounds[i]
            };
            let mid = 0.5 * (lo + hi);
            let ranking = ds.rank(&[mid.cos(), mid.sin()]);
            let want = ranking.iter().position(|&it| it == x).unwrap();
            assert_eq!(ranks[i], want, "segment {i} around θ = {mid}");
        }
        // Range minimum matches a scan.
        let min_all = *ranks.iter().min().unwrap();
        assert_eq!(min_rank_over(&bounds, &ranks, 0.0, HALF_PI), min_all);
    }
}
