//! The assembled approximate index (paper §5) and its `O(log N)` online
//! lookup (MDONLINE, Algorithm 11).

use std::time::{Duration, Instant};

use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::grid::{AngleGrid, CellId, PartitionScheme};
use fairrank_geometry::polar::to_cartesian_into;
use fairrank_geometry::sphere::approx_error_bound;

use fairrank_geometry::hyperplane::Hyperplane;

use crate::approximate::{cellplane, coloring, markcell};
use crate::error::FairRankError;
use crate::md::hyperpolar::{exchange_hyperplane, exchange_hyperplanes_limited};
use crate::probes::{CellRestriction, TopKPartition, VerdictRanking};
use crate::pruning;
use crate::update::{DatasetUpdate, UpdateCtx};

/// Options for [`ApproxIndex::build`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Target number of grid cells — the paper's user-controllable `N`
    /// (its experiments use 40,000).
    pub n_cells: usize,
    /// Grid scheme: the paper's equal-area partitioning, or a uniform
    /// grid for the ablation.
    pub scheme: PartitionScheme,
    /// Cap on the number of exchange hyperplanes (`None` = all).
    pub max_hyperplanes: Option<usize>,
    /// Apply §8 top-k pruning when the oracle exposes a bound.
    pub prune_top_k: bool,
    /// Cap on the hyperplanes considered *per cell* during MARKCELL.
    ///
    /// The paper's configuration (`N = 40,000` cells) keeps every cell
    /// small enough that few hyperplanes cross it (its Figure 21); with
    /// coarser grids a busy cell can see hundreds of crossing hyperplanes
    /// and the per-cell arrangement grows as `|HC[c]|^{d−1}`. Since every
    /// probe is validated against the real oracle, truncating the per-cell
    /// hyperplane list is *sound* — at worst a sliver region inside the
    /// cell is missed and the cell falls through to CELLCOLORING.
    pub max_hyperplanes_per_cell: Option<usize>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            n_cells: 40_000,
            scheme: PartitionScheme::EqualArea,
            max_hyperplanes: None,
            prune_top_k: false,
            max_hyperplanes_per_cell: Some(48),
        }
    }
}

/// Offline construction statistics — the per-phase series of the paper's
/// Figures 20–23.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Number of exchange hyperplanes (`|H|`).
    pub hyperplane_count: usize,
    /// Number of grid cells.
    pub cell_count: usize,
    /// Cells satisfied directly by MARKCELL (`C` in §5.1).
    pub satisfied_cells: usize,
    /// Cells colored by CELLCOLORING (`C̄` in §5.2).
    pub colored_cells: usize,
    /// Total oracle invocations during the build.
    pub oracle_calls: u64,
    /// Total LPs MARKCELL's per-cell arrangements solved
    /// ([`ArrangementTree::lp_calls`](fairrank_geometry::ArrangementTree::lp_calls)
    /// summed over the searched cells).
    pub lp_solves: u64,
    /// Items scored across all MARKCELL probes: `oracle_calls · n`
    /// without the per-cell restriction, so
    /// `probe_items / (oracle_calls · n)` is the share of the ranking
    /// work the restriction kept.
    pub probe_items: u64,
    /// Per-cell `|HC[c]|` distribution, sorted ascending (Figure 21).
    pub hc_histogram: Vec<usize>,
    /// Time constructing hyperplanes (part of Figure 20/22).
    pub hyperplane_time: Duration,
    /// Time assigning hyperplanes to cells (CELLPLANE×; Figures 22–23).
    pub cellplane_time: Duration,
    /// Time searching cells for satisfactory functions (MARKCELL).
    pub markcell_time: Duration,
    /// Time coloring unsatisfied cells (CELLCOLORING).
    pub coloring_time: Duration,
}

impl BuildStats {
    /// Total preprocessing time.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.hyperplane_time + self.cellplane_time + self.markcell_time + self.coloring_time
    }
}

/// One MARKCELL probe, remembered for incremental maintenance: where the
/// oracle was asked, what it said, and the score of the ranked `k`-th
/// item at that point (`NaN` when the oracle exposes no top-k bound).
/// The threshold is the verdict-invariance certificate: an updated item
/// scoring strictly below it cannot enter the inspected prefix, so the
/// stored verdict provably survives the update.
#[derive(Debug, Clone)]
pub struct ProbeRecord {
    pub(crate) angles: Vec<f64>,
    pub(crate) verdict: bool,
    pub(crate) threshold: f64,
}

impl ProbeRecord {
    /// Where the oracle was asked.
    #[must_use]
    pub fn angles(&self) -> &[f64] {
        &self.angles
    }

    /// What it said.
    #[must_use]
    pub fn verdict(&self) -> bool {
        self.verdict
    }

    /// The score of the `k`-th ranked item at [`angles`](ProbeRecord::angles),
    /// `NaN` without a usable top-k bound.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// Per-worker probe state for MARKCELL: ranking workspace, the current
/// cell's probe-set restriction, reusable weight buffer, the worker's
/// oracle-call, scored-item and LP tallies, and the probe log of the cell
/// currently being searched (kept only when `record` is set: only a
/// maintainable index ever reads it).
struct ProbeCtx {
    workspace: RankWorkspace,
    cell: CellRestriction,
    weights: Vec<f64>,
    calls: u64,
    items: u64,
    lp_solves: u64,
    record: bool,
    log: Vec<ProbeRecord>,
}

impl ProbeCtx {
    fn new(ds: &Dataset, record: bool) -> ProbeCtx {
        ProbeCtx {
            workspace: RankWorkspace::with_capacity(ds.len()),
            cell: CellRestriction::default(),
            weights: Vec::with_capacity(ds.dim()),
            calls: 0,
            items: 0,
            lp_solves: 0,
            record,
            log: Vec::new(),
        }
    }

    /// Search `cell` and package the outcome: the function found, the
    /// probe log and the cell's top-k partition.
    fn outcome(
        &mut self,
        cell: CellId,
        search: impl FnOnce(&mut ProbeCtx) -> Option<Vec<f64>>,
    ) -> CellOutcome {
        let function = search(self);
        CellOutcome {
            cell,
            function,
            log: std::mem::take(&mut self.log),
            partition: self.cell.partition(),
        }
    }
}

/// One cell's MARKCELL result, merged into the index in cell order.
struct CellOutcome {
    cell: CellId,
    function: Option<Vec<f64>>,
    log: Vec<ProbeRecord>,
    partition: Option<TopKPartition>,
}

/// The offline artifact: a partition of the angle space with one
/// validated satisfactory function per cell (where one exists).
#[derive(Debug, Clone)]
pub struct ApproxIndex {
    pub(crate) grid: AngleGrid,
    /// Per cell: index into `functions`, or `None` when the fairness
    /// constraint is globally unsatisfiable.
    pub(crate) assigned: Vec<Option<u32>>,
    /// Distinct satisfactory functions (angle vectors), each validated
    /// against the real oracle during the build.
    pub(crate) functions: Vec<Vec<f64>>,
    pub(crate) stats: BuildStats,
    /// The options the index was built with (reused by update rebuilds).
    pub(crate) opts: BuildOptions,
    /// Worker count for maintenance, rebuilds and
    /// [`ApproxIndex::attach`]: the build's, or all cores for a decoded
    /// index. Not persisted.
    pub(crate) threads: usize,
    /// Which cells MARKCELL satisfied directly (as opposed to coloring).
    /// Maintenance state — empty on a decoded index.
    pub(crate) satisfied: Vec<bool>,
    /// Per-cell MARKCELL probe logs. Maintenance state — kept only by a
    /// maintainable build (no `max_hyperplanes` cap, no `prune_top_k`),
    /// since every other index rebuilds on update; empty on a decoded
    /// index (the first update then pays one full rebuild, which re-seeds
    /// it).
    pub(crate) probe_log: Vec<Vec<ProbeRecord>>,
    /// Per cell: its top-k partition for the serving oracle pass
    /// (`crate::probes` has the soundness argument), `None` where nothing
    /// is pruned. Derived from the dataset and oracle, never persisted:
    /// MARKCELL computes it, [`ApproxIndex::attach`] recomputes it for a
    /// decoded index, and every update recomputes it.
    pub(crate) partitions: Vec<Option<TopKPartition>>,
}

impl ApproxIndex {
    /// Run the full §5 preprocessing pipeline on all available cores.
    ///
    /// # Errors
    /// [`FairRankError::TooFewAttributes`] for datasets with fewer than
    /// two scoring attributes.
    pub fn build(
        ds: &Dataset,
        oracle: &dyn FairnessOracle,
        opts: &BuildOptions,
    ) -> Result<ApproxIndex, FairRankError> {
        Self::build_with_threads(ds, oracle, opts, crate::parallel::all_cores())
    }

    /// [`ApproxIndex::build`] on `workers` threads, kept for the index's
    /// later maintenance. MARKCELL (the build's dominant cost; paper
    /// Figures 22–23) searches cells independently and merges results in
    /// cell order, so the produced index is *identical* for any count.
    pub(crate) fn build_with_threads(
        ds: &Dataset,
        oracle: &dyn FairnessOracle,
        opts: &BuildOptions,
        workers: usize,
    ) -> Result<ApproxIndex, FairRankError> {
        if ds.dim() < 2 {
            return Err(FairRankError::TooFewAttributes);
        }
        let mut stats = BuildStats::default();

        // Phase 1: exchange hyperplanes. A cap stops the enumeration at
        // exactly the first `cap` hyperplanes of the canonical order
        // (identical to generating all and truncating, without the O(n²)
        // tail); uncapped generation fans out over the worker pool with a
        // bit-identical in-order merge.
        let t0 = Instant::now();
        let hyperplanes = match (opts.prune_top_k, oracle.top_k_bound()) {
            (true, Some(k)) => {
                let keep = pruning::top_k_candidate_items(ds, k);
                exchange_hyperplanes_limited(&ds.subset(&keep), opts.max_hyperplanes, workers)
            }
            _ => exchange_hyperplanes_limited(ds, opts.max_hyperplanes, workers),
        };
        stats.hyperplane_count = hyperplanes.len();
        stats.hyperplane_time = t0.elapsed();

        // Phase 2: CELLPLANE× — hyperplane ↔ cell assignment.
        let t1 = Instant::now();
        let grid = match opts.scheme {
            PartitionScheme::EqualArea => AngleGrid::equal_area(ds.dim(), opts.n_cells),
            PartitionScheme::Uniform => AngleGrid::uniform(ds.dim(), opts.n_cells),
        };
        let hc = cellplane::hyperplanes_per_cell(&grid, &hyperplanes);
        stats.cell_count = grid.cell_count();
        stats.hc_histogram = cellplane::crossing_histogram(&hc);
        stats.cellplane_time = t1.elapsed();

        // Phase 3: MARKCELL with early stop, parallel over cells. Cells
        // are independent, so per-cell outcomes are deterministic and the
        // merge below (in cell order) yields the same index for any
        // thread count. Each worker owns a ProbeCtx — a RankWorkspace,
        // the cell restriction's buffers and a weights buffer — so the
        // probe path allocates nothing beyond each probe's log record
        // (when kept) and each cell's partition.
        // With an oracle top-k bound `0 < k < n`, each cell first bounds
        // every weight over its angle box (monotone sin/cos products, so
        // the corner values, widened by a few rounding units) and so every
        // item's score; against the k-th largest lower bound L and upper
        // bound U, items strictly above U are in the top-k for every
        // function of the cell and items strictly below L for none.
        // Probes score only the rest and select the missing k − |sure-in|
        // (rank-aware oracles: sure-in and undecided ranked together);
        // a probe outside the box ranks everything. The per-cell form of
        // §8's global layers (`prune_top_k`), it changes no verdict or
        // threshold, so the built index is bit-identical to the
        // full-ranking path. Each cell's partition is kept for the
        // serving oracle pass; the probe logs only when the index is
        // maintainable, the one case an update reads them.
        let t2 = Instant::now();
        let n_threads = workers.min(grid.cell_count().max(1));
        let next_cell = std::sync::atomic::AtomicU32::new(0);
        let cell_count = grid.cell_count() as CellId;
        let search_cell = |cell: CellId, ctx: &mut ProbeCtx| -> CellOutcome {
            let cell_hc = &hc[cell as usize];
            let cell_hc = match opts.max_hyperplanes_per_cell {
                Some(cap) if cell_hc.len() > cap => &cell_hc[..cap],
                _ => cell_hc.as_slice(),
            };
            ctx.outcome(cell, |ctx| {
                search_one_cell(ds, oracle, &grid, cell, cell_hc, &hyperplanes, ctx)
            })
        };
        // Probe logs are read only by incremental maintenance.
        let record = opts.max_hyperplanes.is_none() && !opts.prune_top_k;
        let mut found: Vec<CellOutcome> = Vec::new();
        let mut oracle_calls = 0u64;
        let mut probe_items = 0u64;
        let mut lp_solves = 0u64;
        if n_threads <= 1 {
            let mut ctx = ProbeCtx::new(ds, record);
            for cell in 0..cell_count {
                found.push(search_cell(cell, &mut ctx));
            }
            oracle_calls = ctx.calls;
            probe_items = ctx.items;
            lp_solves = ctx.lp_solves;
        } else {
            let results = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(n_threads);
                for _ in 0..n_threads {
                    let next_cell = &next_cell;
                    let search_cell = &search_cell;
                    handles.push(scope.spawn(move || {
                        let mut local: Vec<CellOutcome> = Vec::new();
                        let mut ctx = ProbeCtx::new(ds, record);
                        loop {
                            let cell = next_cell.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if cell >= cell_count {
                                break;
                            }
                            local.push(search_cell(cell, &mut ctx));
                        }
                        (local, ctx.calls, ctx.items, ctx.lp_solves)
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("markcell worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (local, calls, items, lps) in results {
                oracle_calls += calls;
                probe_items += items;
                lp_solves += lps;
                found.extend(local);
            }
            found.sort_unstable_by_key(|o| o.cell);
        }
        let mut index = assemble(grid, found, opts.clone(), workers, record);
        index.stats = stats;
        index.stats.oracle_calls = oracle_calls;
        index.stats.lp_solves = lp_solves;
        index.stats.probe_items = probe_items;
        index.stats.satisfied_cells = index.functions.len();
        index.stats.markcell_time = t2.elapsed();

        // Phase 4: CELLCOLORING.
        let t3 = Instant::now();
        index.stats.colored_cells =
            coloring::color_cells(&index.grid, &mut index.assigned, &index.functions);
        index.stats.coloring_time = t3.elapsed();

        // Re-export the BuildStats clocks through the global telemetry
        // registry (mirrored, not re-timed).
        for (phase, d) in [
            ("hyperplanes", index.stats.hyperplane_time),
            ("cellplanes", index.stats.cellplane_time),
            ("markcells", index.stats.markcell_time),
            ("coloring", index.stats.coloring_time),
        ] {
            crate::buildtel::mirror_phase("md_approx", phase, d);
        }
        crate::buildtel::count_lp_solves("md_approx", lp_solves);
        crate::buildtel::count_oracle_calls("md_approx", oracle_calls);
        crate::buildtel::count_probe_items("md_approx", probe_items);

        Ok(index)
    }

    /// Whether this index carries the maintenance state (probe logs,
    /// satisfied mask) the incremental update path needs. False for
    /// decoded indexes until their first (rebuilding) update re-seeds it.
    #[must_use]
    pub fn is_maintainable(&self) -> bool {
        self.probe_log.len() == self.grid.cell_count()
            && self.opts.max_hyperplanes.is_none()
            && !self.opts.prune_top_k
    }

    /// Incremental maintenance through one dataset update, bit-identical
    /// to `ApproxIndex::build(ctx.ds, ctx.oracle, &self.opts)`:
    ///
    /// 1. **Delta marking.** Only the hyperplanes of pairs involving the
    ///    updated item change; cells they cross (in the old or new
    ///    configuration) are the only cells whose per-cell search inputs
    ///    differ, so only they *must* be re-searched.
    /// 2. **Certificates.** Every other cell replays its recorded probes:
    ///    a probe whose threshold proves the updated item stays out of
    ///    the oracle's inspected prefix keeps its verdict with zero
    ///    oracle work; the rest are re-verified through one batched
    ///    oracle pass ([`crate::probes`]).
    /// 3. **Recoloring.** Cells whose verdicts all survived keep their
    ///    MARKCELL outcome verbatim; changed cells re-run the per-cell
    ///    search; CELLCOLORING then re-propagates — only the cells whose
    ///    satisfaction verdict could change are ever re-searched.
    ///
    /// # Errors
    /// None currently; signature reserves the right for rebuild-style
    /// fallbacks to fail.
    pub(crate) fn maintain(
        &mut self,
        update: &DatasetUpdate,
        ctx: &UpdateCtx<'_>,
    ) -> Result<(), FairRankError> {
        let n_cells = self.grid.cell_count();

        // 1. Delta hyperplanes → cells whose search inputs changed.
        let mut delta: Vec<Hyperplane> = Vec::new();
        {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            let mut push_pairs = |ds: &Dataset, x: usize| {
                for j in 0..ds.len() {
                    if j != x {
                        ds.row_into(j.min(x), &mut lo);
                        ds.row_into(j.max(x), &mut hi);
                        delta.extend(exchange_hyperplane(&lo, &hi));
                    }
                }
            };
            match update {
                DatasetUpdate::Insert { .. } => push_pairs(ctx.ds, ctx.ds.len() - 1),
                DatasetUpdate::Remove { item } => push_pairs(ctx.old, *item as usize),
                DatasetUpdate::Rescore { item, .. } => {
                    push_pairs(ctx.old, *item as usize);
                    push_pairs(ctx.ds, *item as usize);
                }
            }
        }
        let delta_hc = cellplane::hyperplanes_per_cell(&self.grid, &delta);
        let mut dirty: Vec<bool> = delta_hc.iter().map(|l| !l.is_empty()).collect();

        // Fresh geometry for the re-searched cells (oracle-free).
        let workers = self.threads;
        let hyperplanes = exchange_hyperplanes_limited(ctx.ds, None, workers);
        let hc = cellplane::hyperplanes_per_cell(&self.grid, &hyperplanes);

        // 2. Replay unaffected cells: certificate or batched re-check.
        let cert_k = ctx
            .oracle
            .top_k_bound()
            .filter(|&k| k > 0 && k < ctx.ds.len() && k < ctx.old.len());
        let mut recheck: Vec<(usize, usize)> = Vec::new();
        let mut candidates: Vec<Vec<f64>> = Vec::new();
        for (c, log) in self.probe_log.iter().enumerate() {
            if dirty[c] {
                continue;
            }
            for (pi, rec) in log.iter().enumerate() {
                if !probe_certified(update, ctx, rec, cert_k.is_some()) {
                    recheck.push((c, pi));
                    candidates.push(rec.angles.clone());
                }
            }
        }
        let fresh = crate::probes::batch_verdicts_and_thresholds(ctx.ds, ctx.oracle, &candidates);
        let mut oracle_calls = fresh.len() as u64;
        let mut probe_items = oracle_calls * ctx.ds.len() as u64;
        let mut lp_solves = 0u64;
        for ((c, pi), (verdict, threshold)) in recheck.into_iter().zip(fresh) {
            let rec = &mut self.probe_log[c][pi];
            if rec.verdict != verdict {
                dirty[c] = true;
            }
            rec.verdict = verdict;
            rec.threshold = threshold;
        }

        // 3. Re-search changed cells (fanned across the worker pool —
        // cells are independent and the results are merged back in cell
        // order, so the maintained index is identical for any thread
        // count), keep the rest, recolor.
        let dirty_cells: Vec<CellId> = (0..n_cells as CellId)
            .filter(|&c| dirty[c as usize])
            .collect();
        let search_dirty = |cell: CellId, pc: &mut ProbeCtx| -> CellOutcome {
            let cell_hc = &hc[cell as usize];
            let cell_hc = match self.opts.max_hyperplanes_per_cell {
                Some(cap) if cell_hc.len() > cap => &cell_hc[..cap],
                _ => cell_hc.as_slice(),
            };
            pc.outcome(cell, |pc| {
                search_one_cell(
                    ctx.ds,
                    ctx.oracle,
                    &self.grid,
                    cell,
                    cell_hc,
                    &hyperplanes,
                    pc,
                )
            })
        };
        let n_threads = workers.min(dirty_cells.len().max(1));
        let mut searched: Vec<CellOutcome>;
        if n_threads <= 1 {
            let mut probe_ctx = ProbeCtx::new(ctx.ds, true);
            searched = Vec::with_capacity(dirty_cells.len());
            for &c in &dirty_cells {
                searched.push(search_dirty(c, &mut probe_ctx));
            }
            oracle_calls += probe_ctx.calls;
            probe_items += probe_ctx.items;
            lp_solves += probe_ctx.lp_solves;
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let dirty_cells = &dirty_cells;
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_threads)
                    .map(|_| {
                        let next = &next;
                        let search_dirty = &search_dirty;
                        scope.spawn(move || {
                            let mut local: Vec<CellOutcome> = Vec::new();
                            let mut pc = ProbeCtx::new(ctx.ds, true);
                            loop {
                                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(&c) = dirty_cells.get(i) else {
                                    break;
                                };
                                local.push(search_dirty(c, &mut pc));
                            }
                            (local, pc.calls, pc.items, pc.lp_solves)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("maintenance worker panicked"))
                    .collect::<Vec<_>>()
            });
            searched = Vec::with_capacity(dirty_cells.len());
            for (local, calls, items, lps) in results {
                oracle_calls += calls;
                probe_items += items;
                lp_solves += lps;
                searched.extend(local);
            }
            searched.sort_unstable_by_key(|o| o.cell);
        }
        // The kept cells' partitions depend on every item too: recompute
        // them all on the updated dataset.
        let clean_cells: Vec<CellId> = (0..n_cells as CellId)
            .filter(|&c| !dirty[c as usize])
            .collect();
        let mut partitions =
            cell_partitions(ctx.ds, ctx.oracle, &self.grid, &clean_cells, workers).into_iter();
        let mut searched = searched.into_iter();
        let mut found: Vec<CellOutcome> = Vec::with_capacity(n_cells);
        for (c, &cell_dirty) in dirty.iter().enumerate() {
            if cell_dirty {
                let entry = searched.next().expect("one search result per dirty cell");
                debug_assert_eq!(entry.cell as usize, c);
                found.push(entry);
            } else {
                let function = self.satisfied[c].then(|| {
                    let fi = self.assigned[c].expect("satisfied cells are assigned");
                    self.functions[fi as usize].clone()
                });
                found.push(CellOutcome {
                    cell: c as CellId,
                    function,
                    log: std::mem::take(&mut self.probe_log[c]),
                    partition: partitions.next().expect("one partition per kept cell"),
                });
            }
        }

        let stats = self.stats.clone();
        *self = assemble(self.grid.clone(), found, self.opts.clone(), workers, true);
        self.stats = stats;
        self.stats.hyperplane_count = hyperplanes.len();
        self.stats.hc_histogram = cellplane::crossing_histogram(&hc);
        self.stats.oracle_calls += oracle_calls;
        self.stats.lp_solves += lp_solves;
        self.stats.probe_items += probe_items;
        crate::buildtel::count_lp_solves("md_approx", lp_solves);
        crate::buildtel::count_oracle_calls("md_approx", oracle_calls);
        crate::buildtel::count_probe_items("md_approx", probe_items);
        self.stats.satisfied_cells = self.functions.len();
        self.stats.colored_cells =
            coloring::color_cells(&self.grid, &mut self.assigned, &self.functions);
        Ok(())
    }

    /// MDONLINE's core: the satisfactory function assigned to the cell
    /// containing `angles`, or `None` when the constraint is globally
    /// unsatisfiable. `O(log N)`.
    #[must_use]
    pub fn lookup(&self, angles: &[f64]) -> Option<&[f64]> {
        let cell = self.grid.locate(angles);
        self.assigned[cell as usize].map(|f| self.functions[f as usize].as_slice())
    }

    /// The top-k partition of the cell containing `angles`, when the
    /// index holds one for it (see [`TopKPartition`]).
    #[must_use]
    pub fn partition(&self, angles: &[f64]) -> Option<&TopKPartition> {
        let cell = self.grid.locate(angles);
        self.partitions.get(cell as usize)?.as_ref()
    }

    /// Recompute every cell's top-k partition for `ds` and `oracle`: what
    /// a decoded index, which persists none, needs before its partitions
    /// serve. Uses the build's worker count.
    pub(crate) fn attach(&mut self, ds: &Dataset, oracle: &dyn FairnessOracle) {
        let cells: Vec<CellId> = (0..self.grid.cell_count() as CellId).collect();
        self.partitions = cell_partitions(ds, oracle, &self.grid, &cells, self.threads);
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &AngleGrid {
        &self.grid
    }

    /// Build statistics.
    #[must_use]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Per-cell MARKCELL probe logs, in probe order: what incremental
    /// maintenance replays. Empty on a decoded index until its first
    /// update re-seeds it.
    #[must_use]
    pub fn probe_log(&self) -> &[Vec<ProbeRecord>] {
        &self.probe_log
    }

    /// The distinct satisfactory functions discovered by MARKCELL
    /// (each validated against the oracle during the build).
    #[must_use]
    pub fn functions(&self) -> &[Vec<f64>] {
        &self.functions
    }

    /// Whether at least one satisfactory function exists.
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        !self.functions.is_empty()
    }

    /// The Theorem 6 bound on `θ_app − θ_opt` for this index.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        approx_error_bound(self.grid.dim() + 1, self.grid.cell_count())
    }
}

/// One cell's MARKCELL search, recording every probe into `ctx.log`
/// (cleared first) when `ctx.record` is set. The shared kernel of [`ApproxIndex::build`] and
/// [`ApproxIndex::maintain`] — identical inputs produce identical
/// outcomes *and* identical probe sequences, which is what makes replay
/// sound.
fn search_one_cell(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    grid: &AngleGrid,
    cell: CellId,
    cell_hc: &[u32],
    hyperplanes: &[Hyperplane],
    ctx: &mut ProbeCtx,
) -> Option<Vec<f64>> {
    let placement = VerdictRanking::of(oracle);
    let kth = match placement.bound() {
        Some(k) if k > 0 && k <= ds.len() => k,
        _ => 0,
    };
    let ProbeCtx {
        workspace,
        cell: restriction,
        weights,
        calls,
        items,
        lp_solves,
        record,
        log,
    } = ctx;
    log.clear();
    let (bl, tr) = grid.cell_bounds(cell);
    placement.restrict_to_box(ds, bl, tr, restriction);
    let mut probe = |angles: &[f64]| {
        *calls += 1;
        to_cartesian_into(1.0, angles, weights);
        let (scored, ranking) = placement.rank_in_box(workspace, restriction, ds, angles, weights);
        *items += scored as u64;
        let verdict = oracle.is_satisfactory(ranking);
        if *record {
            let threshold = if kth > 0 {
                ds.score(weights, ranking[kth - 1] as usize)
            } else {
                f64::NAN
            };
            log.push(ProbeRecord {
                angles: angles.to_vec(),
                verdict,
                threshold,
            });
        }
        verdict
    };
    markcell::find_satisfactory(grid, cell, cell_hc, hyperplanes, &mut probe, lp_solves)
}

/// Assemble per-cell MARKCELL outcomes (in cell order) into the index
/// arrays — the exact layout [`ApproxIndex::build`] has always produced:
/// one function per directly-satisfied cell, pushed in cell order — with
/// the probe logs when `record` is set.
fn assemble(
    grid: AngleGrid,
    found: Vec<CellOutcome>,
    opts: BuildOptions,
    threads: usize,
    record: bool,
) -> ApproxIndex {
    let n_cells = grid.cell_count();
    let mut assigned: Vec<Option<u32>> = vec![None; n_cells];
    let mut functions: Vec<Vec<f64>> = Vec::new();
    let mut satisfied = vec![false; n_cells];
    let mut probe_log: Vec<Vec<ProbeRecord>> = Vec::new();
    if record {
        probe_log.resize_with(n_cells, Vec::new);
    }
    let mut partitions: Vec<Option<TopKPartition>> = vec![None; n_cells];
    for outcome in found {
        let c = outcome.cell as usize;
        if record {
            probe_log[c] = outcome.log;
        }
        partitions[c] = outcome.partition;
        if let Some(f) = outcome.function {
            satisfied[c] = true;
            assigned[c] = Some(functions.len() as u32);
            functions.push(f);
        }
    }
    ApproxIndex {
        grid,
        assigned,
        functions,
        stats: BuildStats::default(),
        opts,
        threads,
        satisfied,
        probe_log,
        partitions,
    }
}

/// The top-k partitions of `cells` for `ds` and `oracle`, in order,
/// computed on up to `threads` workers through
/// [`VerdictRanking::restrict_to_box`], the definition MARKCELL uses.
fn cell_partitions(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    grid: &AngleGrid,
    cells: &[CellId],
    threads: usize,
) -> Vec<Option<TopKPartition>> {
    let placement = VerdictRanking::of(oracle);
    let partition = |cells: &[CellId]| -> Vec<Option<TopKPartition>> {
        let mut restriction = CellRestriction::default();
        cells
            .iter()
            .map(|&c| {
                let (bl, tr) = grid.cell_bounds(c);
                placement.restrict_to_box(ds, bl, tr, &mut restriction);
                restriction.partition()
            })
            .collect()
    };
    let chunks = crate::parallel::contiguous_chunks(cells.len(), threads);
    if chunks.len() <= 1 {
        return partition(cells);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|r| scope.spawn(move || partition(&cells[r])))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("partition worker panicked"))
            .collect()
    })
}

/// Can this probe's stored verdict provably survive the update? True
/// only when the updated item's score stays strictly outside the
/// oracle's inspected top-k prefix at the probe point (ties resolved by
/// the ranking's id tie-break: an inserted item carries the largest id,
/// so a tie with the `k`-th score still lands below it).
fn probe_certified(
    update: &DatasetUpdate,
    ctx: &UpdateCtx<'_>,
    rec: &ProbeRecord,
    k_stable: bool,
) -> bool {
    if !k_stable || !rec.threshold.is_finite() {
        return false;
    }
    let w = fairrank_geometry::polar::to_cartesian(1.0, &rec.angles);
    match update {
        DatasetUpdate::Insert { .. } => ctx.ds.score(&w, ctx.ds.len() - 1) <= rec.threshold,
        DatasetUpdate::Remove { item } => ctx.old.score(&w, *item as usize) < rec.threshold,
        DatasetUpdate::Rescore { item, .. } => {
            ctx.old.score(&w, *item as usize) < rec.threshold
                && ctx.ds.score(&w, *item as usize) < rec.threshold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::{FnOracle, Proportionality};
    use fairrank_geometry::polar::{angular_distance, to_cartesian, to_polar};

    fn build_small(
        bias: f64,
        oracle_cap: usize,
        n_cells: usize,
    ) -> (Dataset, Proportionality, ApproxIndex) {
        let ds = generic::uniform(40, 3, bias, 99);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 8).with_max_count(0, oracle_cap);
        let idx = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells,
                ..Default::default()
            },
        )
        .unwrap();
        (ds, oracle, idx)
    }

    #[test]
    fn all_satisfactory_assigns_every_cell() {
        let ds = generic::uniform(20, 3, 0.0, 5);
        let o = FnOracle::new("always", |_: &[u32]| true);
        let idx = ApproxIndex::build(
            &ds,
            &o,
            &BuildOptions {
                n_cells: 150,
                max_hyperplanes: Some(40),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(idx.is_satisfiable());
        assert_eq!(idx.stats().satisfied_cells, idx.stats().cell_count);
        assert_eq!(idx.stats().colored_cells, 0);
        assert!(idx.lookup(&[0.3, 0.4]).is_some());
    }

    #[test]
    fn never_satisfactory_lookup_none() {
        let ds = generic::uniform(15, 3, 0.0, 6);
        let o = FnOracle::new("never", |_: &[u32]| false);
        let idx = ApproxIndex::build(
            &ds,
            &o,
            &BuildOptions {
                n_cells: 100,
                max_hyperplanes: Some(30),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!idx.is_satisfiable());
        assert!(idx.lookup(&[0.3, 0.4]).is_none());
        assert_eq!(idx.stats().colored_cells, 0);
    }

    #[test]
    fn every_cell_gets_function_when_satisfiable() {
        let (_, _, idx) = build_small(0.8, 4, 200);
        assert!(idx.is_satisfiable());
        for c in 0..idx.grid().cell_count() as CellId {
            assert!(
                idx.assigned[c as usize].is_some(),
                "cell {c} left unassigned"
            );
        }
        assert_eq!(
            idx.stats().satisfied_cells + idx.stats().colored_cells,
            idx.stats().cell_count
        );
    }

    #[test]
    fn thread_count_does_not_change_the_index() {
        // MARKCELL parallelism must be invisible in the artifact: same
        // assignments, same functions, same oracle-call count.
        let ds = generic::uniform(40, 3, 0.85, 7);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 8).with_max_count(0, 4);
        let opts = BuildOptions {
            n_cells: 150,
            max_hyperplanes: Some(200),
            ..Default::default()
        };
        let build =
            |threads| ApproxIndex::build_with_threads(&ds, &oracle, &opts, threads).unwrap();
        let sequential = build(1);
        let parallel = build(4);
        assert_eq!(sequential.functions(), parallel.functions());
        assert_eq!(sequential.assigned, parallel.assigned);
        assert_eq!(
            sequential.stats().oracle_calls,
            parallel.stats().oracle_calls
        );
        assert_eq!(sequential.stats().lp_solves, parallel.stats().lp_solves);
    }

    #[test]
    fn assigned_functions_are_satisfactory() {
        use fairrank_fairness::FairnessOracle as _;
        let (ds, oracle, idx) = build_small(0.8, 4, 150);
        for f in idx.functions() {
            let w = to_cartesian(1.0, f);
            assert!(
                oracle.is_satisfactory(&ds.rank(&w)),
                "stored function {f:?} is not satisfactory"
            );
        }
    }

    #[test]
    fn lookup_returns_nearby_function_for_satisfied_cells() {
        let (_, _, idx) = build_small(0.8, 4, 200);
        // For a cell satisfied directly, the assigned function lies inside
        // that very cell, so its distance to the cell center is at most
        // the cell diameter.
        for c in 0..idx.grid().cell_count() as CellId {
            let f_idx = idx.assigned[c as usize].unwrap();
            if (f_idx as usize) < idx.stats().satisfied_cells {
                // Heuristic: functions are pushed in cell order, so
                // directly-satisfied cells reference their own function
                // only if this cell was the one that created it. Instead
                // just verify: looked-up function for the cell center is
                // within the error bound of the center.
                let center = idx.grid().center(c);
                let f = idx.lookup(&center).unwrap();
                let d = angular_distance(f, &center);
                // Very loose sanity bound: π/2.
                assert!(d <= fairrank_geometry::HALF_PI + 1e-9);
            }
        }
    }

    #[test]
    fn theorem6_error_bound_holds_against_bruteforce() {
        // Compare the index answer against a dense brute-force optimum.
        use fairrank_fairness::FairnessOracle as _;
        let (ds, oracle, idx) = build_small(0.9, 3, 400);
        assert!(idx.is_satisfiable());
        let bound = idx.error_bound();

        // Brute force: dense angle sampling for the true nearest
        // satisfactory function.
        let steps = 60;
        let mut sat_points: Vec<Vec<f64>> = Vec::new();
        for i in 0..steps {
            for j in 0..steps {
                let ang = vec![
                    (i as f64 + 0.5) / steps as f64 * fairrank_geometry::HALF_PI,
                    (j as f64 + 0.5) / steps as f64 * fairrank_geometry::HALF_PI,
                ];
                if oracle.is_satisfactory(&ds.rank(&to_cartesian(1.0, &ang))) {
                    sat_points.push(ang);
                }
            }
        }
        assert!(!sat_points.is_empty());

        let queries = [[0.2, 0.3], [1.2, 0.4], [0.8, 1.4], [0.05, 0.05]];
        for q in queries {
            let opt = sat_points
                .iter()
                .map(|p| angular_distance(p, &q))
                .fold(f64::INFINITY, f64::min);
            let got = idx.lookup(&q).unwrap();
            let app = angular_distance(got, &q);
            // Discretized "optimum" itself has ~1 grid-step slack; allow it.
            let slack = 0.08;
            assert!(
                app <= opt + bound + slack,
                "query {q:?}: approx {app} > optimum {opt} + bound {bound}"
            );
        }
    }

    #[test]
    fn stats_phases_populated() {
        let (_, _, idx) = build_small(0.5, 4, 100);
        let s = idx.stats();
        assert!(s.hyperplane_count > 0);
        assert_eq!(s.hc_histogram.len(), s.cell_count);
        assert!(s.oracle_calls > 0);
        assert!(s.total_time() >= s.markcell_time);
        // The LP count is mirrored into the global registry, which other
        // tests' builds add to as well.
        assert!(s.lp_solves > 0);
        let mirrored = fairrank_telemetry::global()
            .counter(
                "fairrank_build_lp_solves_total",
                "",
                &[("backend", "md_approx")],
            )
            .get();
        assert!(mirrored >= s.lp_solves);
        for (family, own) in [
            ("fairrank_build_oracle_calls_total", s.oracle_calls),
            ("fairrank_build_probe_items_total", s.probe_items),
        ] {
            let mirrored = fairrank_telemetry::global()
                .counter(family, "", &[("backend", "md_approx")])
                .get();
            assert!(mirrored >= own, "{family}");
        }
    }

    #[test]
    fn cell_bounds_prune_probe_rankings() {
        // A top-8 oracle over 40 items: inside one cell most items are
        // settled in or out, so the probes score far fewer than n each.
        let (ds, _, idx) = build_small(0.8, 4, 200);
        let s = idx.stats();
        let full = s.oracle_calls * ds.len() as u64;
        assert!(s.probe_items > 0);
        assert!(2 * s.probe_items < full, "{} of {full}", s.probe_items);

        // Without a top-k bound every probe ranks all items.
        let o = FnOracle::new("always", |_: &[u32]| true);
        let idx = ApproxIndex::build(
            &ds,
            &o,
            &BuildOptions {
                n_cells: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let s = idx.stats();
        assert_eq!(s.probe_items, s.oracle_calls * ds.len() as u64);
    }

    #[test]
    fn uniform_scheme_builds() {
        let ds = generic::uniform(15, 3, 0.5, 8);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 4).with_max_count(0, 2);
        let idx = ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells: 100,
                scheme: PartitionScheme::Uniform,
                max_hyperplanes: Some(40),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(idx.grid().cell_count() >= 81);
    }

    #[test]
    fn weights_roundtrip_through_polar() {
        // lookup expects angle vectors; make sure conversion from weights
        // composes (the ranker's path).
        let (_, _, idx) = build_small(0.8, 4, 120);
        let w = [0.5, 0.3, 0.8];
        let (_, angles) = to_polar(&w);
        assert!(idx.lookup(&angles).is_some());
    }
}
