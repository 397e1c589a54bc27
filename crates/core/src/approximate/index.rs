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
use crate::md::hyperpolar::exchange_hyperplanes_limited;
use crate::probes::{CellRestriction, TopKPartition, VerdictRanking};
use crate::pruning;

/// Options for [`ApproxIndex::build`]. The index keeps them: every
/// update rebuilds with them, and the persisted grid records them.
#[derive(Debug, Clone, PartialEq)]
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

/// Per-worker probe state for MARKCELL: ranking workspace, the current
/// cell's probe-set restriction, reusable weight buffer, and the worker's
/// oracle-call, scored-item and LP tallies.
struct ProbeCtx {
    workspace: RankWorkspace,
    cell: CellRestriction,
    weights: Vec<f64>,
    calls: u64,
    items: u64,
    lp_solves: u64,
}

impl ProbeCtx {
    fn new(ds: &Dataset) -> ProbeCtx {
        ProbeCtx {
            workspace: RankWorkspace::with_capacity(ds.len()),
            cell: CellRestriction::default(),
            weights: Vec::with_capacity(ds.dim()),
            calls: 0,
            items: 0,
            lp_solves: 0,
        }
    }

    /// Search `cell` and package the outcome: the function found and the
    /// cell's top-k partition.
    fn outcome(
        &mut self,
        cell: CellId,
        search: impl FnOnce(&mut ProbeCtx) -> Option<Vec<f64>>,
    ) -> CellOutcome {
        let function = search(self);
        CellOutcome {
            cell,
            function,
            partition: self.cell.partition(),
        }
    }
}

/// One cell's MARKCELL result, merged into the index in cell order.
struct CellOutcome {
    cell: CellId,
    function: Option<Vec<f64>>,
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
    /// The options the index was built with, which every update
    /// rebuilds with. Persisted, so a decoded index rebuilds like its
    /// writer.
    pub(crate) opts: BuildOptions,
    /// Worker count for update rebuilds and [`ApproxIndex::attach`]: the
    /// build's, or all cores for a decoded index. Not persisted.
    pub(crate) threads: usize,
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
    /// update rebuilds. MARKCELL (the build's dominant cost; paper
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
        // probe path allocates nothing beyond each cell's partition.
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
        // serving oracle pass.
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
        let mut found: Vec<CellOutcome> = Vec::new();
        let mut oracle_calls = 0u64;
        let mut probe_items = 0u64;
        let mut lp_solves = 0u64;
        if n_threads <= 1 {
            let mut ctx = ProbeCtx::new(ds);
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
                        let mut ctx = ProbeCtx::new(ds);
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
        let mut index = assemble(grid, found, opts.clone(), workers);
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
        self.partitions = cell_partitions(ds, oracle, &self.grid, self.threads);
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

    /// The [`BuildOptions`] of the build, kept for update rebuilds.
    #[must_use]
    pub fn options(&self) -> &BuildOptions {
        &self.opts
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

/// One cell's MARKCELL search, probing through the cell's sure-in /
/// undecided restriction.
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
    let ProbeCtx {
        workspace,
        cell: restriction,
        weights,
        calls,
        items,
        lp_solves,
    } = ctx;
    let (bl, tr) = grid.cell_bounds(cell);
    placement.restrict_to_box(ds, bl, tr, restriction);
    let mut probe = |angles: &[f64]| {
        *calls += 1;
        to_cartesian_into(1.0, angles, weights);
        let (scored, ranking) = placement.rank_in_box(workspace, restriction, ds, angles, weights);
        *items += scored as u64;
        oracle.is_satisfactory(ranking)
    };
    markcell::find_satisfactory(grid, cell, cell_hc, hyperplanes, &mut probe, lp_solves)
}

/// Assemble per-cell MARKCELL outcomes (in cell order) into the index
/// arrays — the exact layout [`ApproxIndex::build`] has always produced:
/// one function per directly-satisfied cell, pushed in cell order.
fn assemble(
    grid: AngleGrid,
    found: Vec<CellOutcome>,
    opts: BuildOptions,
    threads: usize,
) -> ApproxIndex {
    let n_cells = grid.cell_count();
    let mut assigned: Vec<Option<u32>> = vec![None; n_cells];
    let mut functions: Vec<Vec<f64>> = Vec::new();
    let mut partitions: Vec<Option<TopKPartition>> = vec![None; n_cells];
    for outcome in found {
        let c = outcome.cell as usize;
        partitions[c] = outcome.partition;
        if let Some(f) = outcome.function {
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
        partitions,
    }
}

/// The top-k partitions of every cell for `ds` and `oracle`, in cell
/// order, computed on up to `threads` workers through
/// [`VerdictRanking::restrict_to_box`], the definition MARKCELL uses.
fn cell_partitions(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    grid: &AngleGrid,
    threads: usize,
) -> Vec<Option<TopKPartition>> {
    let placement = VerdictRanking::of(oracle);
    let partition = |cells: std::ops::Range<usize>| -> Vec<Option<TopKPartition>> {
        let mut restriction = CellRestriction::default();
        cells
            .map(|c| {
                let (bl, tr) = grid.cell_bounds(c as CellId);
                placement.restrict_to_box(ds, bl, tr, &mut restriction);
                restriction.partition()
            })
            .collect()
    };
    let chunks = crate::parallel::contiguous_chunks(grid.cell_count(), threads);
    if chunks.len() <= 1 {
        return partition(0..grid.cell_count());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|r| scope.spawn(move || partition(r)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("partition worker panicked"))
            .collect()
    })
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
