//! 2DRAYSWEEP (paper Algorithm 1): offline identification of the
//! satisfactory angular regions in two dimensions.
//!
//! The ray of every scoring function `f = w₁x + w₂y` sweeps from the
//! x-axis (`θ = 0`) to the y-axis (`θ = π/2`). The induced ranking changes
//! only at the *ordering exchanges* of non-dominating item pairs; between
//! consecutive exchanges the ranking — and the oracle verdict — is
//! constant. The sweep therefore:
//!
//! 1. computes the `O(n²)` exchange angles (Eq. 2),
//! 2. sorts them,
//! 3. walks sector by sector, swapping the two exchanged items (adjacent
//!    in the current ranking except at degenerate ties, where we re-rank —
//!    DESIGN.md F5), and
//! 4. asks the oracle once per sector, merging satisfactory sectors into
//!    maximal intervals.
//!
//! Two oracle paths are provided: the faithful black-box path (one oracle
//! call per sector — the paper's `O(n²(log n + O_n))` of Theorem 1) and an
//! incremental path for proportionality constraints where each swap
//! updates the verdict in `O(1)`.

use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::{Conjunction, FairnessOracle, Proportionality};
use fairrank_geometry::dual::exchange_angle_2d;
use fairrank_geometry::interval::AngularIntervals;
use fairrank_geometry::HALF_PI;

use crate::error::FairRankError;

/// Result of a 2-D ray sweep.
#[derive(Debug, Clone)]
pub struct RaySweepResult {
    /// Maximal satisfactory angular intervals, sorted — the index consumed
    /// by 2DONLINE.
    pub intervals: AngularIntervals,
    /// Number of ordering exchanges found (non-dominating pairs with an
    /// interior exchange). The Figure 17 series.
    pub exchange_count: usize,
    /// Number of swept sectors (distinct exchange angles + 1).
    pub sector_count: usize,
    /// Number of full black-box oracle invocations (0 on the incremental
    /// path after the initial seeding).
    pub oracle_calls: u64,
    /// Number of degenerate re-rank events (non-adjacent swaps).
    pub rerank_events: u64,
}

/// The ordering-exchange event of one item pair, if it has an interior
/// exchange. Exchanges at exactly 0 or π/2 are ties on an axis function;
/// they do not flip the interior ordering.
#[inline]
fn pair_event(x: &[f64], y: &[f64], i: u32, j: u32) -> Option<(f64, u32, u32)> {
    let (a, b) = (i as usize, j as usize);
    let theta = exchange_angle_2d(&[x[a], y[a]], &[x[b], y[b]])?;
    (theta > 1e-12 && theta < HALF_PI - 1e-12).then_some((theta, i, j))
}

/// The canonical event order: angle first, then the pair
/// lexicographically. Because [`exchange_events`] generates pairs in
/// lexicographic order and sorts *stably* by angle alone, sorting by
/// this full key reproduces its output exactly — which is what lets the
/// incremental index maintenance merge per-item events into a stored
/// list and land bit-identically on the from-scratch event order.
#[inline]
pub(crate) fn event_cmp(a: &(f64, u32, u32), b: &(f64, u32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// Exchange events sorted by angle, each carrying the swapping pair.
pub(crate) fn exchange_events(ds: &Dataset) -> Vec<(f64, u32, u32)> {
    let (x, y) = (ds.column(0), ds.column(1));
    let mut events = Vec::new();
    for i in 0..ds.len() as u32 {
        for j in i + 1..ds.len() as u32 {
            events.extend(pair_event(x, y, i, j));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events
}

/// The exchange events of one item `x` against every other item, in the
/// canonical [`event_cmp`] order — the event *delta* of inserting,
/// removing or re-scoring `x`.
pub(crate) fn item_events(ds: &Dataset, x: u32) -> Vec<(f64, u32, u32)> {
    let (cx, cy) = (ds.column(0), ds.column(1));
    let mut events = Vec::with_capacity(ds.len().saturating_sub(1));
    for j in 0..ds.len() as u32 {
        if j != x {
            events.extend(pair_event(cx, cy, j.min(x), j.max(x)));
        }
    }
    events.sort_by(event_cmp);
    events
}

/// Group consecutive events with (numerically) equal angles; returns the
/// half-open index ranges of each batch.
fn batches(events: &[(f64, u32, u32)]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..=events.len() {
        if i == events.len() || events[i].0 - events[start].0 > 1e-12 {
            out.push(start..i);
            start = i;
        }
    }
    out
}

fn weights_at(theta: f64) -> [f64; 2] {
    [theta.cos(), theta.sin()]
}

/// Raw output of one sector walk: the merged satisfactory intervals plus
/// the per-sector verdict structure the incremental maintenance path
/// stores (`boundaries[i]` is the angle where sector `i` ends;
/// `verdicts` has one entry per sector, `boundaries.len() + 1` total).
pub(crate) struct SweepOutput {
    pub intervals: AngularIntervals,
    pub boundaries: Vec<f64>,
    pub verdicts: Vec<bool>,
    pub sector_count: usize,
    pub rerank_events: u64,
}

/// One shard's share of the sector walk: the satisfactory sectors,
/// boundaries and verdicts of a contiguous batch range, plus its
/// degenerate re-rank tally. Shards concatenate in shard order to
/// reproduce the serial walk's output exactly.
struct ShardOutput {
    sectors: Vec<(f64, f64)>,
    boundaries: Vec<f64>,
    verdicts: Vec<bool>,
    rerank_events: u64,
}

/// Walk the batches in `brange`, emitting one verdict per sector that
/// *ends* at one of those batches (plus the final sector up to π/2 when
/// `emit_final`). `sector_lo` is the lower angle of the first sector in
/// the range — `0` for the first shard, the previous shard's last batch
/// angle otherwise.
///
/// The shard seeds its ranking by a fresh sort strictly inside its first
/// sector (the midpoint of `sector_lo` and the first batch angle). Inside
/// a sector the ordering is strict except for angle-independent exact
/// ties (identical items), which the sort's index tie-break resolves the
/// same way at every interior angle — so the seeded ranking equals the
/// ranking the serial walk carries into that sector, and a sharded walk
/// is bit-identical to the serial one. This is the same invariant the
/// degenerate re-rank (DESIGN.md F5) has always relied on.
#[allow(clippy::too_many_arguments)]
fn sweep_range<F>(
    ds: &Dataset,
    events: &[(f64, u32, u32)],
    batches: &[std::ops::Range<usize>],
    brange: std::ops::Range<usize>,
    mut sector_lo: f64,
    emit_final: bool,
    inc_src: Option<&dyn FairnessOracle>,
    verdict: &mut F,
) -> ShardOutput
where
    F: FnMut(&[u32], &[u32], f64, f64, Option<bool>) -> bool,
{
    let mut workspace = RankWorkspace::with_capacity(ds.len());
    let first_angle = batches
        .get(brange.start)
        .filter(|_| brange.start < brange.end || emit_final)
        .map_or(HALF_PI, |b| events[b.start].0);
    let mut ranking: Vec<u32> = Vec::with_capacity(ds.len());
    workspace.rank_into(
        ds,
        &weights_at(0.5 * (sector_lo + first_angle)),
        None,
        &mut ranking,
    );
    let mut position = vec![0u32; ds.len()];
    for (pos, &item) in ranking.iter().enumerate() {
        position[item as usize] = pos as u32;
    }
    let mut inc = inc_src.and_then(|o| o.incremental(&ranking));

    let mut rerank_events = 0u64;
    let mut sectors: Vec<(f64, f64)> = Vec::new();
    let mut boundaries = Vec::with_capacity(brange.len());
    let mut verdicts = Vec::with_capacity(brange.len() + usize::from(emit_final));

    for gb in brange.clone() {
        let batch = &batches[gb];
        let theta = events[batch.start].0;
        // Verdict for the sector ending at this batch.
        let sat = verdict(
            &ranking,
            &position,
            sector_lo,
            theta,
            inc.as_deref()
                .map(fairrank_fairness::IncrementalOracle::is_satisfactory),
        );
        if sat {
            sectors.push((sector_lo, theta));
        }
        verdicts.push(sat);
        boundaries.push(theta);
        sector_lo = theta;

        // Apply the batch of swaps.
        let mut degenerate = false;
        for &(_, a, b) in &events[batch.clone()] {
            let pa = position[a as usize] as usize;
            let pb = position[b as usize] as usize;
            if pa.abs_diff(pb) == 1 {
                let (pos, top, bottom) = if pa < pb { (pa, a, b) } else { (pb, b, a) };
                if let Some(state) = inc.as_deref_mut() {
                    state.swap_adjacent_items(pos, top, bottom);
                }
                ranking.swap(pa, pb);
                position.swap(a as usize, b as usize);
            } else {
                degenerate = true;
            }
        }
        if degenerate {
            // Ties made swap order ambiguous — re-rank strictly inside the
            // next sector (DESIGN.md F5).
            rerank_events += 1;
            let next_theta = batches.get(gb + 1).map_or(HALF_PI, |nb| events[nb.start].0);
            workspace.rank_into(
                ds,
                &weights_at(0.5 * (theta + next_theta)),
                None,
                &mut ranking,
            );
            for (pos, &item) in ranking.iter().enumerate() {
                position[item as usize] = pos as u32;
            }
            inc = inc_src.and_then(|o| o.incremental(&ranking));
        }
    }
    if emit_final {
        // Final sector up to π/2.
        let sat = verdict(
            &ranking,
            &position,
            sector_lo,
            HALF_PI,
            inc.as_deref()
                .map(fairrank_fairness::IncrementalOracle::is_satisfactory),
        );
        if sat {
            sectors.push((sector_lo, HALF_PI));
        }
        verdicts.push(sat);
    }

    ShardOutput {
        sectors,
        boundaries,
        verdicts,
        rerank_events,
    }
}

/// The sector walk shared by [`ray_sweep`] and the incremental index
/// maintenance: seed the ranking strictly inside the first sector, ask
/// `verdict(ranking, position, lo, hi, incremental_verdict)` once per
/// sector, and apply each batch of swaps (re-ranking on degenerate ties,
/// DESIGN.md F5).
///
/// When `inc_src` is given and its oracle supports incremental
/// evaluation ([`FairnessOracle::incremental`]), an `O(1)`-per-swap
/// verdict state is maintained in lockstep with the ranking and its
/// verdict is handed to the closure — by the [`fairrank_fairness::IncrementalOracle`]
/// contract it equals the black-box verdict on the current ranking, so
/// callers may substitute it for an oracle call. `None` keeps the
/// faithful black-box walk (paper Theorem 1 cost accounting).
///
/// The sweep needs the *full* ordering (swaps walk the whole
/// permutation), so re-ranks are full sorts — but through one workspace
/// and into the persistent `ranking` buffer, so degenerate re-rank
/// events allocate nothing after the seed.
pub(crate) fn sweep_events<F>(
    ds: &Dataset,
    events: &[(f64, u32, u32)],
    inc_src: Option<&dyn FairnessOracle>,
    mut verdict: F,
) -> SweepOutput
where
    F: FnMut(&[u32], &[u32], f64, f64, Option<bool>) -> bool,
{
    let batches = batches(events);
    let sector_count = batches.len() + 1;
    let shard = sweep_range(
        ds,
        events,
        &batches,
        0..batches.len(),
        0.0,
        true,
        inc_src,
        &mut verdict,
    );
    SweepOutput {
        intervals: AngularIntervals::from_pairs(shard.sectors),
        boundaries: shard.boundaries,
        verdicts: shard.verdicts,
        sector_count,
        rerank_events: shard.rerank_events,
    }
}

/// The thread-safe per-sector verdict callback of
/// [`sweep_events_threaded`]: `(ranking, position, lo, hi,
/// incremental_verdict) -> satisfactory`.
pub(crate) type SharedVerdictFn<'a> =
    &'a (dyn Fn(&[u32], &[u32], f64, f64, Option<bool>) -> bool + Sync);

/// The sharded sector walk: partition the batch list into `threads`
/// contiguous angular shards, walk each on its own worker (per-shard
/// [`RankWorkspace`], per-shard seed strictly inside the shard's first
/// sector), and concatenate the shard outputs in canonical angular
/// order. Bit-identical to [`sweep_events`] for every thread count — see
/// [`sweep_range`] for the seeding invariant, and
/// `tests/build_equivalence.rs` for the gate.
pub(crate) fn sweep_events_threaded(
    ds: &Dataset,
    events: &[(f64, u32, u32)],
    threads: usize,
    inc_src: Option<&dyn FairnessOracle>,
    verdict: SharedVerdictFn<'_>,
) -> SweepOutput {
    let batches = batches(events);
    let sector_count = batches.len() + 1;
    let chunks = crate::parallel::contiguous_chunks(batches.len(), threads);
    let shards: Vec<ShardOutput> = if chunks.len() <= 1 {
        vec![sweep_range(
            ds,
            events,
            &batches,
            0..batches.len(),
            0.0,
            true,
            inc_src,
            &mut |r, p, lo, hi, iv| verdict(r, p, lo, hi, iv),
        )]
    } else {
        let batches = &batches;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|br| {
                    scope.spawn(move || {
                        let sector_lo = if br.start == 0 {
                            0.0
                        } else {
                            events[batches[br.start - 1].start].0
                        };
                        let emit_final = br.end == batches.len();
                        sweep_range(
                            ds,
                            events,
                            batches,
                            br,
                            sector_lo,
                            emit_final,
                            inc_src,
                            &mut |r, p, lo, hi, iv| verdict(r, p, lo, hi, iv),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    let mut sectors: Vec<(f64, f64)> = Vec::new();
    let mut boundaries = Vec::with_capacity(batches.len());
    let mut verdicts = Vec::with_capacity(sector_count);
    let mut rerank_events = 0u64;
    for s in shards {
        sectors.extend(s.sectors);
        boundaries.extend(s.boundaries);
        verdicts.extend(s.verdicts);
        rerank_events += s.rerank_events;
    }
    SweepOutput {
        intervals: AngularIntervals::from_pairs(sectors),
        boundaries,
        verdicts,
        sector_count,
        rerank_events,
    }
}

/// The black-box sweep: one oracle call per sector (paper Theorem 1).
///
/// Runs on all available cores: the event list is split into contiguous
/// angular shards, each walked with its own [`RankWorkspace`], and the
/// shard outputs are merged in canonical angle order — bit-identical to
/// the serial sweep for every thread count (gated by
/// `tests/build_equivalence.rs`).
///
/// # Errors
/// [`FairRankError::DimensionMismatch`] unless the dataset has exactly two
/// scoring attributes.
pub fn ray_sweep(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
) -> Result<RaySweepResult, FairRankError> {
    if ds.dim() != 2 {
        return Err(FairRankError::DimensionMismatch {
            expected: 2,
            found: ds.dim(),
        });
    }
    let workers = crate::parallel::all_cores();
    let events = exchange_events(ds);
    let oracle_calls = std::sync::atomic::AtomicU64::new(0);
    let out = sweep_events_threaded(ds, &events, workers, None, &|ranking, _, _, _, _| {
        oracle_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        oracle.is_satisfactory(ranking)
    });
    Ok(RaySweepResult {
        intervals: out.intervals,
        exchange_count: events.len(),
        sector_count: out.sector_count,
        oracle_calls: oracle_calls.into_inner(),
        rerank_events: out.rerank_events,
    })
}

/// The incremental sweep for proportionality constraints: `O(1)` per swap,
/// no black-box oracle calls after seeding.
///
/// Produces identical intervals to [`ray_sweep`] with the equivalent
/// oracle (verified by tests and the property suite). Runs on the same
/// `sweep_events` walk as every other sweep driver, with the
/// constraints bundled into a [`Conjunction`] whose incremental state
/// the walk maintains swap by swap.
///
/// # Errors
/// [`FairRankError::DimensionMismatch`] unless the dataset has exactly two
/// scoring attributes.
pub fn ray_sweep_incremental(
    ds: &Dataset,
    constraints: &[&Proportionality],
) -> Result<RaySweepResult, FairRankError> {
    if ds.dim() != 2 {
        return Err(FairRankError::DimensionMismatch {
            expected: 2,
            found: ds.dim(),
        });
    }
    let conjunction = constraints
        .iter()
        .fold(Conjunction::new(), |c, p| c.and((*p).clone()));
    let events = exchange_events(ds);
    let out = sweep_events(ds, &events, Some(&conjunction), |_, _, _, _, inc| {
        inc.expect("proportionality conjunctions support incremental evaluation")
    });
    Ok(RaySweepResult {
        intervals: out.intervals,
        exchange_count: events.len(),
        sector_count: out.sector_count,
        oracle_calls: 0,
        rerank_events: out.rerank_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_fairness::FnOracle;

    /// The paper's Figure 3 dataset.
    fn figure3() -> Dataset {
        Dataset::from_rows(
            vec!["x".into(), "y".into()],
            &[
                vec![1.0, 3.5],
                vec![1.5, 3.1],
                vec![1.91, 2.3],
                vec![2.3, 1.8],
                vec![3.2, 0.9],
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimension_guard() {
        let ds = Dataset::from_rows(vec!["a".into()], &[vec![1.0]]).unwrap();
        let o = FnOracle::new("any", |_: &[u32]| true);
        assert!(ray_sweep(&ds, &o).is_err());
    }

    #[test]
    fn all_satisfactory_covers_quadrant() {
        let ds = figure3();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = ray_sweep(&ds, &o).unwrap();
        assert_eq!(r.intervals.len(), 1);
        assert!((r.intervals.measure() - HALF_PI).abs() < 1e-9);
        assert_eq!(r.oracle_calls as usize, r.sector_count);
    }

    #[test]
    fn never_satisfactory_empty() {
        let ds = figure3();
        let o = FnOracle::new("never", |_: &[u32]| false);
        let r = ray_sweep(&ds, &o).unwrap();
        assert!(r.intervals.is_empty());
    }

    #[test]
    fn figure3_exchange_count() {
        // No dominance in Figure 3 → all 10 pairs exchange somewhere in the
        // open quadrant.
        let ds = figure3();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = ray_sweep(&ds, &o).unwrap();
        assert_eq!(r.exchange_count, 10);
        assert_eq!(r.sector_count, 11);
    }

    #[test]
    fn sweep_matches_dense_sampling() {
        // Ground truth: evaluate the oracle on a dense sweep of angles and
        // compare membership with the computed intervals.
        let ds = figure3();
        // Satisfactory iff item 0 is ranked first (true near the y-axis).
        let o = FnOracle::new("item 0 first", |r: &[u32]| r[0] == 0);
        let result = ray_sweep(&ds, &o).unwrap();
        for step in 0..2000 {
            let theta = (step as f64 + 0.5) / 2000.0 * HALF_PI;
            let truth = o.is_satisfactory(&ds.rank(&weights_at(theta)));
            // Skip points within numeric distance of a boundary.
            let near_boundary = result
                .intervals
                .as_slice()
                .iter()
                .any(|&(s, e)| (theta - s).abs() < 1e-6 || (theta - e).abs() < 1e-6);
            if !near_boundary {
                assert_eq!(
                    result.intervals.contains(theta),
                    truth,
                    "mismatch at θ = {theta}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_blackbox() {
        use fairrank_datasets::synthetic::generic;
        let ds = generic::uniform(60, 2, 0.8, 11);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 12).with_max_count(0, 7);
        let black = ray_sweep(&ds, &oracle).unwrap();
        let inc = ray_sweep_incremental(&ds, &[&oracle]).unwrap();
        assert_eq!(black.exchange_count, inc.exchange_count);
        assert_eq!(
            black.intervals.as_slice().len(),
            inc.intervals.as_slice().len(),
            "interval structure differs: {:?} vs {:?}",
            black.intervals.as_slice(),
            inc.intervals.as_slice()
        );
        for (a, b) in black
            .intervals
            .as_slice()
            .iter()
            .zip(inc.intervals.as_slice())
        {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
        assert_eq!(inc.oracle_calls, 0);
    }

    #[test]
    fn duplicate_items_handled() {
        // Duplicates create ties everywhere; sweep must not panic and the
        // all-satisfactory oracle must still cover the quadrant.
        let ds = Dataset::from_rows(
            vec!["x".into(), "y".into()],
            &[
                vec![1.0, 2.0],
                vec![1.0, 2.0],
                vec![2.0, 1.0],
                vec![2.0, 1.0],
            ],
        )
        .unwrap();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = ray_sweep(&ds, &o).unwrap();
        assert!((r.intervals.measure() - HALF_PI).abs() < 1e-9);
    }

    #[test]
    fn collinear_ties_rerank() {
        // Three collinear points exchange at the same angle — a degenerate
        // batch that forces a re-rank, which must keep results correct.
        let ds = Dataset::from_rows(
            vec!["x".into(), "y".into()],
            &[
                vec![1.0, 3.0],
                vec![2.0, 2.0],
                vec![3.0, 1.0],
                vec![0.5, 1.2],
            ],
        )
        .unwrap();
        let o = FnOracle::new("item 2 first", |r: &[u32]| r[0] == 2);
        let result = ray_sweep(&ds, &o).unwrap();
        for step in 0..500 {
            let theta = (step as f64 + 0.5) / 500.0 * HALF_PI;
            let truth = o.is_satisfactory(&ds.rank(&weights_at(theta)));
            let near_boundary = result
                .intervals
                .as_slice()
                .iter()
                .any(|&(s, e)| (theta - s).abs() < 1e-5 || (theta - e).abs() < 1e-5);
            if !near_boundary {
                assert_eq!(result.intervals.contains(theta), truth, "θ = {theta}");
            }
        }
    }

    #[test]
    fn single_item_dataset() {
        let ds = Dataset::from_rows(vec!["x".into(), "y".into()], &[vec![1.0, 1.0]]).unwrap();
        let o = FnOracle::new("always", |_: &[u32]| true);
        let r = ray_sweep(&ds, &o).unwrap();
        assert_eq!(r.exchange_count, 0);
        assert_eq!(r.sector_count, 1);
        assert_eq!(r.intervals.len(), 1);
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_serial() {
        use fairrank_datasets::synthetic::generic;
        let ds = generic::uniform(70, 2, 0.7, 31);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 12).with_max_count(0, 6);
        let events = exchange_events(&ds);
        let serial = sweep_events(&ds, &events, None, |r, _, _, _, _| {
            oracle.is_satisfactory(r)
        });
        for threads in [1usize, 2, 3, 4, 7, 64] {
            let sharded = sweep_events_threaded(&ds, &events, threads, None, &|r, _, _, _, _| {
                oracle.is_satisfactory(r)
            });
            // Bit-identical: same boundaries, verdicts and intervals,
            // bit for bit.
            assert_eq!(serial.boundaries, sharded.boundaries, "t = {threads}");
            assert_eq!(serial.verdicts, sharded.verdicts, "t = {threads}");
            assert_eq!(
                serial.intervals.as_slice(),
                sharded.intervals.as_slice(),
                "t = {threads}"
            );
            assert_eq!(serial.sector_count, sharded.sector_count);
        }
    }

    #[test]
    fn sharded_sweep_handles_degenerate_batches() {
        // Collinear points force degenerate re-ranks; the sharded walk
        // must still agree bit for bit with the serial one.
        let ds = Dataset::from_rows(
            vec!["x".into(), "y".into()],
            &[
                vec![1.0, 3.0],
                vec![2.0, 2.0],
                vec![3.0, 1.0],
                vec![0.5, 1.2],
                vec![1.5, 2.5],
            ],
        )
        .unwrap();
        let o = FnOracle::new("item 2 first", |r: &[u32]| r[0] == 2);
        let events = exchange_events(&ds);
        let serial = sweep_events(&ds, &events, None, |r, _, _, _, _| o.is_satisfactory(r));
        for threads in [2usize, 3, 5] {
            let sharded = sweep_events_threaded(&ds, &events, threads, None, &|r, _, _, _, _| {
                o.is_satisfactory(r)
            });
            assert_eq!(serial.boundaries, sharded.boundaries);
            assert_eq!(serial.verdicts, sharded.verdicts);
            assert_eq!(serial.intervals.as_slice(), sharded.intervals.as_slice());
        }
    }
}
