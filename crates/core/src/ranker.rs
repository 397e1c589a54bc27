//! The top-level query-answering system: build an index offline, answer
//! CLOSEST SATISFACTORY FUNCTION queries online.
//!
//! [`FairRanker`] is a thin serving shell around a pluggable
//! [`IndexBackend`]: [`FairRanker::builder`] runs one of the paper's
//! offline algorithms (chosen by [`Strategy`], including `Auto`
//! selection), [`FairRanker::respond`] / [`respond_batch`] answer
//! [`SuggestRequest`]s against the shared backend, and
//! [`FairRanker::save`] / [`load`] hand a complete ranker from an
//! offline process to online replicas.
//!
//! ## Snapshots and copy-on-write updates
//!
//! The ranker's entire serving state — dataset, oracle, backend,
//! version — lives behind one [`Arc`], so [`FairRanker::snapshot`] is a
//! pointer copy: the async serving tier (`fairrank-serve`) takes one
//! snapshot per micro-batch and serves it lock-free. A live
//! [`FairRanker::update`] on an *exclusively owned* ranker maintains the
//! index in place exactly as before; on a ranker with outstanding
//! snapshots it forks the backend ([`IndexBackend::clone_box`]),
//! maintains the fork, and swaps it in — in-flight snapshots keep
//! serving the old index and dataset version untouched.
//!
//! [`respond_batch`]: FairRanker::respond_batch
//! [`load`]: FairRanker::load

use std::path::Path;
use std::sync::{Arc, OnceLock};

use fairrank_datasets::{Dataset, RankWorkspace};
use fairrank_fairness::FairnessOracle;
use fairrank_geometry::interval::AngularIntervals;
use fairrank_telemetry::Counter;

use crate::approximate::{ApproxGrid, ApproxIndex, BuildOptions};
use crate::backend::{Answer, BackendStats, IndexBackend, QueryCtx, Strategy};
use crate::error::{validate_weights, FairRankError};
use crate::md::{ExactRegions, SatRegionsOptions};
use crate::persist::{decode_ranker_versioned, encode_ranker_versioned, PersistError};
use crate::probes::{RankingTally, TopKPartition};
use crate::request::{KnownFairness, SuggestRequest, SuggestStats, Suggestion};
use crate::twod::TwoDIntervals;
use crate::update::{DatasetUpdate, UpdateCtx, UpdateOutcome};

/// The shared serving state: everything a query consults, in one
/// allocation so snapshots are a pointer copy and updates can swap the
/// whole generation atomically.
struct RankerCore {
    ds: Arc<Dataset>,
    oracle: Arc<dyn FairnessOracle>,
    backend: Box<dyn IndexBackend>,
    /// Number of dataset updates applied since construction (or carried
    /// over from a persisted envelope) — the dataset's serving epoch.
    version: u64,
}

/// The query-answering system of the paper: offline preprocessing behind
/// an interactive suggestion API.
///
/// The ranker holds its dataset, oracle and index behind one shared
/// [`Arc`], so it is `Send + Sync` and [`FairRanker::snapshot`] is a
/// pointer copy.
pub struct FairRanker {
    core: Arc<RankerCore>,
}

/// Configures and runs the offline phase — the single entry point behind
/// which all three paper algorithms live. Created by
/// [`FairRanker::builder`].
pub struct FairRankerBuilder {
    ds: Arc<Dataset>,
    oracle: Box<dyn FairnessOracle>,
    strategy: Strategy,
    sat_opts: SatRegionsOptions,
    approx_opts: BuildOptions,
    build_threads: usize,
}

impl FairRankerBuilder {
    /// Which offline algorithm to run. Default: [`Strategy::Auto`].
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Options for the exact multi-dimensional build (used when the
    /// resolved strategy is [`Strategy::MdExact`]).
    #[must_use]
    pub fn sat_regions_options(mut self, opts: SatRegionsOptions) -> Self {
        self.sat_opts = opts;
        self
    }

    /// Options for the approximate grid build (used when the resolved
    /// strategy is [`Strategy::MdApprox`]).
    #[must_use]
    pub fn approx_options(mut self, opts: BuildOptions) -> Self {
        self.approx_opts = opts;
        self
    }

    /// Worker count for the offline build, whichever backend the
    /// strategy resolves to. Unset or `0` means all available cores. The
    /// backend keeps the count for the rebuilds its updates pay and for
    /// recomputing serving state. Every parallel build is bit-identical
    /// to the serial one — the knob changes wall-clock only, never the
    /// index (gated by `tests/build_equivalence.rs`).
    #[must_use]
    pub fn build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }

    /// Run the offline phase and assemble the ranker.
    ///
    /// # Errors
    /// [`FairRankError::DimensionMismatch`] when [`Strategy::TwoD`] is
    /// requested over a non-2-D dataset;
    /// [`FairRankError::TooFewAttributes`] for single-attribute
    /// datasets.
    pub fn build(self) -> Result<FairRanker, FairRankError> {
        let FairRankerBuilder {
            ds,
            oracle,
            strategy,
            sat_opts,
            approx_opts,
            build_threads,
        } = self;
        let threads = crate::parallel::resolve_build_threads(build_threads);
        let picked = strategy.pick(&ds);
        let build_timer = crate::buildtel::BuildTimer::start(match picked {
            Strategy::TwoD => "twod",
            Strategy::MdExact => "md_exact",
            Strategy::MdApprox => "md_approx",
            _ => "other",
        });
        let backend: Box<dyn IndexBackend> = match picked {
            // The maintained build keeps the sweep structure so live
            // updates maintain the index incrementally.
            Strategy::TwoD => Box::new(TwoDIntervals::build_maintained(
                &ds,
                oracle.as_ref(),
                threads,
            )?),
            Strategy::MdExact => Box::new(ExactRegions::build(
                &ds,
                oracle.as_ref(),
                sat_opts,
                threads,
            )?),
            Strategy::MdApprox => Box::new(ApproxGrid::new(ApproxIndex::build_with_threads(
                &ds,
                oracle.as_ref(),
                &approx_opts,
                threads,
            )?)),
            // `pick` resolves Auto (and any future variant added behind
            // the non_exhaustive attribute must teach `pick` its rule).
            other => unreachable!("Strategy::pick returned unresolved {other:?}"),
        };
        build_timer.finish();
        FairRanker::from_backend_arc(ds, oracle, backend, 0, false)
    }
}

impl std::fmt::Debug for FairRanker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairRanker")
            .field("items", &self.core.ds.len())
            .field("dim", &self.core.ds.dim())
            .field("version", &self.core.version)
            .field("oracle", &self.core.oracle.describe())
            .field("backend", &self.core.backend.stats())
            .finish()
    }
}

impl FairRanker {
    /// Start configuring a ranker over `ds` (anything convertible to
    /// `Arc<Dataset>`: a `Dataset` by value, or an existing `Arc` —
    /// shared without copying the data).
    #[must_use]
    pub fn builder(
        ds: impl Into<Arc<Dataset>>,
        oracle: Box<dyn FairnessOracle>,
    ) -> FairRankerBuilder {
        FairRankerBuilder {
            ds: ds.into(),
            oracle,
            strategy: Strategy::Auto,
            sat_opts: SatRegionsOptions::default(),
            approx_opts: BuildOptions::default(),
            build_threads: 0,
        }
    }

    /// Assemble a ranker from an already-built (or third-party) backend.
    ///
    /// This is the extension point the [`IndexBackend`] trait exists
    /// for: any index structure answering closest-satisfactory-function
    /// queries serves through the same `FairRanker` API as the built-in
    /// three. The backend is [attached](IndexBackend::attach) to `ds`
    /// and the oracle first, so the serving state it derives from them
    /// (the approximate grid's top-k partitions) describes this dataset.
    ///
    /// # Errors
    /// [`FairRankError::DimensionMismatch`] when the backend's expected
    /// weight dimensionality differs from the dataset's.
    pub fn from_backend(
        ds: impl Into<Arc<Dataset>>,
        oracle: Box<dyn FairnessOracle>,
        backend: Box<dyn IndexBackend>,
    ) -> Result<Self, FairRankError> {
        Self::from_backend_arc(ds.into(), oracle, backend, 0, true)
    }

    /// Assemble the ranker; `attach` lets the backend recompute its
    /// dataset-derived serving state ([`IndexBackend::attach`]), which a
    /// backend built over `ds` by the builder already has.
    fn from_backend_arc(
        ds: Arc<Dataset>,
        oracle: Box<dyn FairnessOracle>,
        mut backend: Box<dyn IndexBackend>,
        version: u64,
        attach: bool,
    ) -> Result<Self, FairRankError> {
        if backend.dim() != ds.dim() {
            return Err(FairRankError::DimensionMismatch {
                expected: backend.dim(),
                found: ds.dim(),
            });
        }
        if attach {
            backend.attach(&QueryCtx {
                ds: &ds,
                oracle: oracle.as_ref(),
            });
        }
        Ok(FairRanker {
            core: Arc::new(RankerCore {
                ds,
                oracle: Arc::from(oracle),
                backend,
                version,
            }),
        })
    }

    /// A cheap shared handle onto this ranker's current serving state —
    /// a pointer copy, no index duplication.
    ///
    /// Snapshots serve concurrently and independently: a later
    /// [`FairRanker::update`] on the original (or any other handle)
    /// copy-on-writes a *new* generation, so every outstanding snapshot
    /// keeps answering from the dataset version it captured — the
    /// foundation of the async serving tier's update-while-serving
    /// guarantee.
    #[must_use]
    pub fn snapshot(&self) -> FairRanker {
        FairRanker {
            core: Arc::clone(&self.core),
        }
    }

    /// The dataset the index was built over.
    #[must_use]
    pub fn dataset(&self) -> &Dataset {
        &self.core.ds
    }

    /// The serving backend.
    #[must_use]
    pub fn backend(&self) -> &dyn IndexBackend {
        self.core.backend.as_ref()
    }

    /// Backend-agnostic index statistics. The update/rebuild counters
    /// are read in one consistent pass and aggregate across
    /// copy-on-write generations (see
    /// [`SharedCounters`](crate::backend::SharedCounters)).
    #[must_use]
    pub fn backend_stats(&self) -> BackendStats {
        self.core.backend.stats()
    }

    /// Answer one [`SuggestRequest`]: is the query fair, and if not,
    /// what is the closest satisfactory function?
    ///
    /// Matching the paper's algorithms (2DONLINE line 8, MDBASELINE
    /// line 1, MDONLINE line 1), the query's own fairness is decided
    /// first; only unfair queries hit the index's suggestion search. The
    /// response carries the weights to serve with, the verdict, the
    /// dataset [`version`](FairRanker::version) it reflects, and — when
    /// [`SuggestRequest::k`] is set — the top-k ranking under the
    /// answered weights.
    ///
    /// This is the one-request case of [`FairRanker::respond_batch`]
    /// and returns its single answer.
    ///
    /// # Errors
    /// [`FairRankError::InvalidWeights`] / `DimensionMismatch` on
    /// malformed input.
    pub fn respond(&self, req: &SuggestRequest) -> Result<Suggestion, FairRankError> {
        let mut answers = self.respond_batch(std::slice::from_ref(req))?;
        Ok(answers.pop().expect("one answer per request"))
    }

    /// Answer a batch of requests at once — the one serving path:
    /// [`FairRanker::respond`], the micro-batch executor of the async
    /// `FairRankService` and the HTTP tier all run through it, and
    /// answers come back in request order.
    ///
    /// Each request's "is it already fair?" check (2DONLINE line 8 /
    /// MDBASELINE line 1 / MDONLINE line 1) goes to the cheapest source
    /// that decides it exactly:
    ///
    /// 1. **The index.** When the backend characterizes the satisfactory
    ///    set exactly ([`IndexBackend::known_fairness`] — the 2-D
    ///    intervals do), the verdict costs `O(log n)` and the answer is
    ///    marked [`SuggestStats::index_decided`].
    /// 2. **The oracle.** The requests the index leaves undecided are
    ///    ranked through one reused workspace — only the top-k placed
    ///    when the oracle exposes a bound, and left unsorted when it
    ///    reads it as a set ([`FairnessOracle::top_k_is_set`]) — and the
    ///    oracle sees them through its batched entry point. When the
    ///    backend keeps a top-`k` partition for the query's cell
    ///    ([`IndexBackend::top_k_partition`] — the approximate grid does)
    ///    and it covers the query, the ranking is built from the cell's
    ///    sure-in items and the best of its undecided ones alone: the
    ///    same top-`k` bit for bit, without scoring every item (the
    ///    soundness argument is in [`crate::probes`]). The process-global
    ///    counters `fairrank_verdict_rankings_total{path="cell"|"full"}`
    ///    and `fairrank_verdict_items_total` record which way each
    ///    ranking went.
    ///
    /// Only unfair queries proceed to [`IndexBackend::suggest_unfair`].
    /// Requests with
    /// [`SuggestOptions::index_fastpath`](crate::SuggestOptions::index_fastpath)
    /// `= false` are the audit path: they skip both index shortcuts and
    /// rank every item for the oracle.
    ///
    /// # Errors
    /// [`FairRankError::InvalidWeights`] / `DimensionMismatch` if *any*
    /// request is malformed (checked upfront; no partial answers).
    pub fn respond_batch(&self, reqs: &[SuggestRequest]) -> Result<Vec<Suggestion>, FairRankError> {
        for req in reqs {
            validate_weights(&req.query, self.core.ds.dim())?;
        }
        let ctx = self.ctx();
        let mut ws = RankWorkspace::new();
        let answer = |req: &SuggestRequest, fair: bool, index_decided: bool, ws: &mut _| {
            let answer = if fair {
                Answer::AlreadyFair
            } else {
                self.core.backend.suggest_unfair(&req.query, &ctx)?
            };
            Ok::<_, FairRankError>(self.finish(req, answer, index_decided, ws))
        };
        let mut out: Vec<Option<Suggestion>> = vec![None; reqs.len()];
        let mut oracle_needed: Vec<usize> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let index_verdict = if req.options.index_fastpath {
                self.core.backend.known_fairness(&req.query)
            } else {
                None
            };
            match index_verdict {
                Some(fair) => out[i] = Some(answer(req, fair, true, &mut ws)?),
                None => oracle_needed.push(i),
            }
        }
        if !oracle_needed.is_empty() {
            let (verdicts, tally) = crate::probes::batch_verdicts_by(
                &self.core.ds,
                self.core.oracle.as_ref(),
                oracle_needed.len(),
                |j, buf| buf.extend_from_slice(&reqs[oracle_needed[j]].query),
                |j, _| self.verdict_partition(&reqs[oracle_needed[j]]),
            );
            count_verdict_rankings(tally);
            for (&i, fair) in oracle_needed.iter().zip(verdicts) {
                out[i] = Some(answer(&reqs[i], fair, false, &mut ws)?);
            }
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every request answered"))
            .collect())
    }

    /// The top-`k` partition the oracle pass may rank `req`'s query
    /// through: none for an audit request (`index_fastpath = false`).
    fn verdict_partition(&self, req: &SuggestRequest) -> Option<&TopKPartition> {
        if req.options.index_fastpath {
            self.core.backend.top_k_partition(&req.query)
        } else {
            None
        }
    }

    /// Assemble the response envelope for one answered request: hoist
    /// the served weights, stamp the dataset version, and materialize
    /// the top-k ranking when asked — through the caller's reused
    /// [`RankWorkspace`], so a batch of top-k requests allocates once.
    fn finish(
        &self,
        req: &SuggestRequest,
        answer: Answer,
        index_decided: bool,
        ws: &mut RankWorkspace,
    ) -> Suggestion {
        let (weights, fairness) = match answer {
            Answer::AlreadyFair => (req.query.clone(), KnownFairness::AlreadyFair),
            Answer::Suggested { weights, distance } => {
                (weights, KnownFairness::Suggested { distance })
            }
            Answer::Infeasible => (req.query.clone(), KnownFairness::Infeasible),
        };
        let top_k = req.k.map(|k| {
            // Partial top-k (`select_nth_unstable` + prefix sort) rather
            // than a full O(n log n) ranking: identical prefix to
            // `Dataset::rank` (property-tested in batch_equivalence).
            let mut ranking = ws
                .rank_with_bound(&self.core.ds, &weights, Some(k))
                .to_vec();
            ranking.truncate(k);
            ranking
        });
        Suggestion {
            weights,
            version: self.core.version,
            fairness,
            stats: SuggestStats {
                index_decided,
                top_k,
            },
        }
    }

    /// The ranker's dataset epoch: how many live updates have been
    /// applied (carried through [`FairRanker::save`]/[`load`](FairRanker::load)
    /// in the persistence envelope, so replicas can tell which snapshot
    /// a handed-off index reflects). Every [`Suggestion`] stamps the
    /// version it was answered from.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.core.version
    }

    /// Apply one live dataset update — the serving-time mutation front
    /// door. The shared state is *versioned*, not mutated in place under
    /// readers: on an exclusively owned ranker the index is maintained
    /// in place (incrementally where the backend supports it); on a
    /// ranker with outstanding [`snapshot`](FairRanker::snapshot)s the
    /// backend is forked ([`IndexBackend::clone_box`]), the fork is
    /// maintained, and a new generation is swapped in — every snapshot
    /// handed out earlier (replicas, in-flight micro-batches) keeps
    /// serving its old copy-on-write `Arc<Dataset>` generation
    /// untouched while the version advances. The oracle is re-bound to
    /// the new dataset ([`FairnessOracle::rebind`]).
    ///
    /// After the update, [`FairRanker::respond`] answers exactly as a
    /// ranker rebuilt from scratch on the updated dataset would — the
    /// equivalence is property-tested per backend.
    ///
    /// # Errors
    /// [`FairRankError::InvalidUpdate`] on a malformed update (nothing is
    /// changed); [`FairRankError::UpdateUnsupported`] when a third-party
    /// backend has no update surface; [`FairRankError::CloneUnsupported`]
    /// when snapshots are outstanding and the backend cannot fork;
    /// backend rebuild errors.
    pub fn update(&mut self, update: DatasetUpdate) -> Result<UpdateOutcome, FairRankError> {
        update.validate(&self.core.ds)?;
        let old = Arc::clone(&self.core.ds);
        let mut next = (*old).clone();
        update
            .apply_to(&mut next)
            .map_err(|e| FairRankError::InvalidUpdate(e.to_string()))?;
        let next = Arc::new(next);
        // Stage the rebound oracle; dataset, oracle and version commit
        // together only after the backend accepted the update.
        let rebound = self.core.oracle.rebind(&next);
        if Arc::get_mut(&mut self.core).is_none() {
            return self.update_forked(&update, &old, next, rebound);
        }
        let core = Arc::get_mut(&mut self.core).expect("checked exclusive above");
        let outcome = {
            let ctx = UpdateCtx {
                old: &old,
                ds: &next,
                oracle: rebound.as_deref().unwrap_or(core.oracle.as_ref()),
            };
            core.backend.apply(&update, &ctx)?
        };
        core.ds = next;
        if let Some(oracle) = rebound {
            core.oracle = Arc::from(oracle);
        }
        core.version += 1;
        Ok(outcome)
    }

    /// The copy-on-write half of [`FairRanker::update`]: snapshots share
    /// the current core, so maintain a backend fork and swap in a fresh
    /// generation. On any error the current generation is untouched.
    fn update_forked(
        &mut self,
        update: &DatasetUpdate,
        old: &Arc<Dataset>,
        next: Arc<Dataset>,
        rebound: Option<Box<dyn FairnessOracle>>,
    ) -> Result<UpdateOutcome, FairRankError> {
        let mut backend = self.core.backend.clone_box().ok_or_else(|| {
            FairRankError::CloneUnsupported(self.core.backend.stats().kind.to_string())
        })?;
        let oracle: Arc<dyn FairnessOracle> = match rebound {
            Some(o) => Arc::from(o),
            None => Arc::clone(&self.core.oracle),
        };
        let outcome = {
            let ctx = UpdateCtx {
                old,
                ds: &next,
                oracle: oracle.as_ref(),
            };
            backend.apply(update, &ctx)?
        };
        self.core = Arc::new(RankerCore {
            ds: next,
            oracle,
            backend,
            version: self.core.version + 1,
        });
        Ok(outcome)
    }

    /// Apply a sequence of updates in order, returning one
    /// [`UpdateOutcome`] per update. Stops at (and returns) the first
    /// error; updates before it have been applied.
    ///
    /// # Errors
    /// As [`FairRanker::update`].
    pub fn update_batch(
        &mut self,
        updates: impl IntoIterator<Item = DatasetUpdate>,
    ) -> Result<Vec<UpdateOutcome>, FairRankError> {
        updates.into_iter().map(|u| self.update(u)).collect()
    }

    /// Serialize the complete ranker index — backend tag plus artifact
    /// plus the update counter, inside one checksummed envelope — for
    /// the offline→online hand-off. The inverse is
    /// [`FairRanker::from_bytes`].
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_ranker_versioned(
            self.core.ds.dim(),
            self.core.version,
            self.core.backend.as_ref(),
        )
    }

    /// Reassemble a ranker persisted with [`FairRanker::to_bytes`],
    /// dispatching on the stored backend tag. The online replica supplies
    /// the dataset and oracle (they are needed for the fairness
    /// pre-check, for exact-backend answer validation, and to recompute
    /// the approximate grid's top-k partitions, which are not persisted
    /// — see [`IndexBackend::attach`]); the expensive index is what
    /// travels as bytes.
    ///
    /// # Errors
    /// [`FairRankError::Persist`] on corrupted, truncated or
    /// unknown-backend input; [`FairRankError::DimensionMismatch`] when
    /// the saved index was built over a dataset of different
    /// dimensionality.
    pub fn from_bytes(
        bytes: &[u8],
        ds: impl Into<Arc<Dataset>>,
        oracle: Box<dyn FairnessOracle>,
    ) -> Result<Self, FairRankError> {
        let ds = ds.into();
        let (dim, version, backend) = decode_ranker_versioned(bytes)?;
        if dim != ds.dim() {
            return Err(FairRankError::DimensionMismatch {
                expected: dim,
                found: ds.dim(),
            });
        }
        Self::from_backend_arc(ds, oracle, backend, version, true)
    }

    /// Write [`FairRanker::to_bytes`] to a file.
    ///
    /// # Errors
    /// [`FairRankError::Persist`] wrapping the I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), FairRankError> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| PersistError::Io(e.to_string()).into())
    }

    /// Read a file written by [`FairRanker::save`] and reassemble the
    /// ranker — see [`FairRanker::from_bytes`].
    ///
    /// # Errors
    /// [`FairRankError::Persist`] on I/O or decoding failures;
    /// [`FairRankError::DimensionMismatch`] on a dataset of the wrong
    /// dimensionality.
    pub fn load(
        path: impl AsRef<Path>,
        ds: impl Into<Arc<Dataset>>,
        oracle: Box<dyn FairnessOracle>,
    ) -> Result<Self, FairRankError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| PersistError::Io(e.to_string()))?;
        Self::from_bytes(&bytes, ds, oracle)
    }

    /// Direct access to the 2-D satisfactory intervals (when the backend
    /// is [`TwoDIntervals`]).
    #[must_use]
    pub fn intervals(&self) -> Option<&AngularIntervals> {
        self.core
            .backend
            .as_any()
            .downcast_ref::<TwoDIntervals>()
            .map(TwoDIntervals::intervals)
    }

    /// Direct access to the approximate index (when the backend is
    /// [`ApproxGrid`]).
    #[must_use]
    pub fn approx_index(&self) -> Option<&ApproxIndex> {
        self.core
            .backend
            .as_any()
            .downcast_ref::<ApproxGrid>()
            .map(ApproxGrid::index)
    }

    fn ctx(&self) -> QueryCtx<'_> {
        QueryCtx {
            ds: &self.core.ds,
            oracle: self.core.oracle.as_ref(),
        }
    }
}

/// Add one oracle pass's ranking tally to the decision-path counters of
/// the process-global registry: `fairrank_verdict_rankings_total{path}`
/// counts the verdict rankings placed through a cell's top-`k`
/// partition (`cell`) or by ranking every item (`full`), and
/// `fairrank_verdict_items_total` the items they scored. Counts, not
/// clocks: live under `telemetry-off` too.
fn count_verdict_rankings(tally: RankingTally) {
    static COUNTERS: OnceLock<[Counter; 3]> = OnceLock::new();
    let [cell, full, items] = COUNTERS.get_or_init(|| {
        const RANKINGS: &str = "fairrank_verdict_rankings_total";
        const RANKINGS_HELP: &str =
            "Verdict rankings of the serving oracle pass, by path: a cell's top-k partition or every item.";
        let registry = fairrank_telemetry::global();
        [
            registry.counter(RANKINGS, RANKINGS_HELP, &[("path", "cell")]),
            registry.counter(RANKINGS, RANKINGS_HELP, &[("path", "full")]),
            registry.counter(
                "fairrank_verdict_items_total",
                "Items scored by the verdict rankings of the serving oracle pass.",
                &[],
            ),
        ]
    });
    cell.add(tally.cell);
    full.add(tally.full);
    items.add(tally.items);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::{FnOracle, Proportionality};

    fn biased_2d() -> (Dataset, Proportionality) {
        let ds = generic::uniform(50, 2, 0.95, 404);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 10).with_max_count(0, 5);
        (ds, oracle)
    }

    fn build_2d(ds: &Dataset, oracle: Box<dyn FairnessOracle>) -> FairRanker {
        FairRanker::builder(ds.clone(), oracle)
            .strategy(Strategy::TwoD)
            .build()
            .unwrap()
    }

    fn req(weights: &[f64]) -> SuggestRequest {
        SuggestRequest::new(weights)
    }

    /// A request on the audit path: no index shortcut, every item ranked.
    fn audit_req(weights: &[f64]) -> SuggestRequest {
        req(weights).with_options(crate::request::SuggestOptions {
            index_fastpath: false,
        })
    }

    #[test]
    fn ranker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FairRanker>();
    }

    #[test]
    fn two_d_end_to_end() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle.clone()));
        // A strongly attribute-0-weighted query should be unfair (group 0
        // is concentrated at the top of that ranking)…
        let sug = ranker.respond(&req(&[1.0, 0.02])).unwrap();
        match sug.fairness {
            KnownFairness::Suggested { distance } => {
                use fairrank_fairness::FairnessOracle as _;
                assert!(distance > 0.0);
                assert!(
                    oracle.is_satisfactory(&ds.rank(&sug.weights)),
                    "suggested weights must be fair"
                );
                // Norm preserved.
                let r: f64 = sug.weights.iter().map(|w| w * w).sum::<f64>().sqrt();
                assert!((r - (1.0f64 + 0.02 * 0.02).sqrt()).abs() < 1e-9);
            }
            other => panic!("expected a suggestion, got {other:?}"),
        }
        assert_eq!(sug.version, 0);
        // The 2-D intervals decide fairness exactly, so a default request
        // never reaches the oracle; an audit request always does.
        assert!(sug.stats.index_decided, "the 2-D index decides the verdict");
        let audit = ranker.respond(&audit_req(&[1.0, 0.02])).unwrap();
        assert!(!audit.stats.index_decided, "the audit path asks the oracle");
        assert_eq!(
            (&audit.weights, &audit.fairness),
            (&sug.weights, &sug.fairness)
        );
    }

    #[test]
    fn respond_batch_variants_agree_elementwise() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        let fan = (0..33).map(|i| {
            let t = (f64::from(i) + 0.5) / 33.0 * fairrank_geometry::HALF_PI;
            [2.0 * t.cos(), 2.0 * t.sin()]
        });
        let queries: Vec<[f64; 2]> = [[1.0, 0.02], [0.3, 1.7], [1.0, 1.0]]
            .into_iter()
            .chain(fan)
            .collect();
        let reqs: Vec<SuggestRequest> = queries.iter().map(|q| req(q)).collect();
        let batch = ranker.respond_batch(&reqs).unwrap();
        let audits: Vec<SuggestRequest> = queries.iter().map(|q| audit_req(q)).collect();
        let audit = ranker.respond_batch(&audits).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let single = ranker.respond(&req(q)).unwrap();
            assert_eq!(batch[i], single, "batch diverges on query {i}");
            assert!(
                batch[i].stats.index_decided,
                "the 2-D index decides query {i}"
            );
            // The audit path asks the oracle where the index decided
            // (stats.index_decided differs), so compare the served answer.
            assert_eq!(
                (&audit[i].weights, &audit[i].fairness, audit[i].version),
                (&single.weights, &single.fairness, single.version),
                "audit batch diverges on query {i}"
            );
        }
    }

    #[test]
    fn respond_batch_parallel_matches_serial_2d() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        let reqs: Vec<SuggestRequest> = (0..33)
            .map(|i| {
                let t = (f64::from(i) + 0.5) / 33.0 * fairrank_geometry::HALF_PI;
                req(&[2.0 * t.cos(), 2.0 * t.sin()])
            })
            .collect();
        let serial: Vec<Suggestion> = reqs.iter().map(|r| ranker.respond(r).unwrap()).collect();
        // However the stream is split into batches, and from however many
        // threads the batches are served, every answer is the serial one.
        for batch in [1, 2, 4, 33] {
            let answers: Vec<Suggestion> = std::thread::scope(|scope| {
                let handles: Vec<_> = reqs
                    .chunks(batch)
                    .map(|chunk| scope.spawn(|| ranker.respond_batch(chunk).unwrap()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            assert_eq!(answers, serial, "batches of {batch}");
        }
    }

    #[test]
    fn already_fair_short_circuits() {
        let ds = generic::uniform(30, 2, 0.0, 5);
        let o = FnOracle::new("always", |_: &[u32]| true);
        let ranker = build_2d(&ds, Box::new(o));
        let sug = ranker.respond(&req(&[1.0, 1.0])).unwrap();
        assert_eq!(sug.fairness, KnownFairness::AlreadyFair);
        assert_eq!(sug.weights, vec![1.0, 1.0], "fair queries echo the query");
    }

    #[test]
    fn infeasible_propagates() {
        let ds = generic::uniform(30, 2, 0.0, 6);
        let o = FnOracle::new("never", |_: &[u32]| false);
        let ranker = build_2d(&ds, Box::new(o));
        let sug = ranker.respond(&req(&[1.0, 1.0])).unwrap();
        assert!(sug.is_infeasible());
        assert_eq!(sug.weights, vec![1.0, 1.0], "infeasible echoes the query");
    }

    #[test]
    fn top_k_materialization_matches_direct_ranking() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        let sug = ranker.respond(&req(&[1.0, 0.02]).with_top_k(5)).unwrap();
        let top = sug.stats.top_k.as_deref().expect("k requested");
        assert_eq!(top.len(), 5);
        assert_eq!(top, &ds.rank(&sug.weights)[..5]);
        // k larger than n clamps to the full ranking; no k → no list.
        let all = ranker.respond(&req(&[1.0, 0.02]).with_top_k(999)).unwrap();
        assert_eq!(all.stats.top_k.unwrap().len(), ds.len());
        assert!(ranker
            .respond(&req(&[1.0, 0.02]))
            .unwrap()
            .stats
            .top_k
            .is_none());
    }

    #[test]
    fn md_exact_end_to_end() {
        let ds = generic::uniform(25, 3, 0.9, 41);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 6).with_max_count(0, 3);
        let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
            .strategy(Strategy::MdExact)
            .sat_regions_options(SatRegionsOptions {
                max_hyperplanes: Some(60),
                ..Default::default()
            })
            .build()
            .unwrap();
        let sug = ranker.respond(&req(&[1.0, 0.05, 0.05])).unwrap();
        if let KnownFairness::Suggested { .. } = &sug.fairness {
            use fairrank_fairness::FairnessOracle as _;
            assert!(
                oracle.is_satisfactory(&ds.rank(&sug.weights)),
                "exact suggestion must be fair"
            );
        }
    }

    #[test]
    fn md_approx_end_to_end() {
        let ds = generic::uniform(30, 3, 0.9, 43);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 6).with_max_count(0, 3);
        let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
            .strategy(Strategy::MdApprox)
            .approx_options(BuildOptions {
                n_cells: 200,
                max_hyperplanes: Some(100),
                ..Default::default()
            })
            .build()
            .unwrap();
        let sug = ranker.respond(&req(&[1.0, 0.02, 0.02])).unwrap();
        match sug.fairness {
            KnownFairness::Suggested { .. } => {
                use fairrank_fairness::FairnessOracle as _;
                assert!(
                    oracle.is_satisfactory(&ds.rank(&sug.weights)),
                    "approx suggestion must be fair (functions are validated)"
                );
            }
            KnownFairness::AlreadyFair => {} // possible if the query is fair
            KnownFairness::Infeasible => panic!("satisfiable setup reported infeasible"),
        }
    }

    #[test]
    fn auto_strategy_picks_2d_backend() {
        let (ds, oracle) = biased_2d();
        let ranker = FairRanker::builder(ds, Box::new(oracle)).build().unwrap();
        assert_eq!(ranker.backend_stats().kind, "2d-intervals");
        assert!(ranker.intervals().is_some());
    }

    #[test]
    fn respond_batch_matches_serial_2d() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        let reqs: Vec<SuggestRequest> = (0..80)
            .map(|i| {
                let t = (i as f64 + 0.5) / 80.0 * fairrank_geometry::HALF_PI;
                SuggestRequest::new(vec![2.0 * t.cos(), 2.0 * t.sin()])
            })
            .collect();
        let batch = ranker.respond_batch(&reqs).unwrap();
        assert_eq!(batch.len(), reqs.len());
        for (r, b) in reqs.iter().zip(&batch) {
            assert_eq!(*b, ranker.respond(r).unwrap(), "mismatch at {r:?}");
        }
    }

    #[test]
    fn fastpath_opt_out_forces_oracle() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        let no_fastpath: Vec<SuggestRequest> = (0..12)
            .map(|i| {
                let t = (i as f64 + 0.5) / 12.0 * fairrank_geometry::HALF_PI;
                audit_req(&[2.0 * t.cos(), 2.0 * t.sin()])
            })
            .collect();
        let answers = ranker.respond_batch(&no_fastpath).unwrap();
        for (r, a) in no_fastpath.iter().zip(&answers) {
            assert!(!a.stats.index_decided, "opt-out must use the oracle");
            assert_eq!(*a, ranker.respond(r).unwrap());
        }
    }

    #[test]
    fn respond_batch_empty_and_invalid() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        assert_eq!(ranker.respond_batch(&[]).unwrap(), vec![]);
        let bad = vec![req(&[1.0, 1.0]), req(&[-1.0, 1.0])];
        assert!(ranker.respond_batch(&bad).is_err());
    }

    #[test]
    fn invalid_queries_rejected() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        assert!(ranker.respond(&req(&[1.0])).is_err());
        assert!(ranker.respond(&req(&[-1.0, 1.0])).is_err());
        assert!(ranker.respond(&req(&[0.0, 0.0])).is_err());
        assert!(ranker.respond(&req(&[f64::INFINITY, 1.0])).is_err());
    }

    #[test]
    fn accessors() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        assert!(ranker.intervals().is_some());
        assert!(ranker.approx_index().is_none());
        assert_eq!(ranker.dataset().len(), 50);
        assert_eq!(ranker.backend().dim(), 2);
    }

    #[test]
    fn from_backend_rejects_dimension_mismatch() {
        let ds3 = generic::uniform(10, 3, 0.0, 9);
        let backend = Box::new(TwoDIntervals::new(
            fairrank_geometry::interval::AngularIntervals::new(),
        ));
        let o = FnOracle::new("always", |_: &[u32]| true);
        assert!(matches!(
            FairRanker::from_backend(ds3, Box::new(o), backend),
            Err(FairRankError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn arc_dataset_is_shared_not_cloned() {
        let (ds, oracle) = biased_2d();
        let shared = Arc::new(ds);
        let ranker = FairRanker::builder(Arc::clone(&shared), Box::new(oracle))
            .build()
            .unwrap();
        assert!(std::ptr::eq(ranker.dataset(), shared.as_ref()));
    }

    #[test]
    fn snapshot_is_a_pointer_copy() {
        let (ds, oracle) = biased_2d();
        let ranker = build_2d(&ds, Box::new(oracle));
        let snap = ranker.snapshot();
        assert!(std::ptr::eq(ranker.dataset(), snap.dataset()));
        assert_eq!(ranker.version(), snap.version());
    }

    #[test]
    fn update_on_shared_ranker_preserves_snapshots() {
        let (ds, oracle) = biased_2d();
        let mut ranker = build_2d(&ds, Box::new(oracle));
        let snap = ranker.snapshot();
        let q = req(&[1.0, 0.02]);
        let before = snap.respond(&q).unwrap();
        ranker
            .update(DatasetUpdate::Insert {
                scores: vec![0.9, 0.9],
                groups: vec![0],
            })
            .unwrap();
        // The updated ranker advanced; the snapshot is frozen at v0 with
        // its original dataset and bit-identical answers.
        assert_eq!(ranker.version(), 1);
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.dataset().len(), 50);
        assert_eq!(ranker.dataset().len(), 51);
        assert_eq!(snap.respond(&q).unwrap(), before);
        assert_eq!(ranker.respond(&q).unwrap().version, 1);
    }

    #[test]
    fn forked_update_matches_exclusive_update() {
        let (ds, oracle) = biased_2d();
        let updates = vec![
            DatasetUpdate::Insert {
                scores: vec![0.4, 0.8],
                groups: vec![1],
            },
            DatasetUpdate::Rescore {
                item: 3,
                scores: vec![0.7, 0.1],
            },
            DatasetUpdate::Remove { item: 11 },
        ];
        let mut exclusive = build_2d(&ds, Box::new(oracle.clone()));
        let mut shared = build_2d(&ds, Box::new(oracle));
        let _pins: Vec<FairRanker> = (0..3).map(|_| shared.snapshot()).collect();
        for u in updates {
            exclusive.update(u.clone()).unwrap();
            shared.update(u).unwrap();
        }
        for i in 0..20 {
            let t = (i as f64 + 0.5) / 20.0 * fairrank_geometry::HALF_PI;
            let q = req(&[1.4 * t.cos(), 1.4 * t.sin()]);
            assert_eq!(exclusive.respond(&q).unwrap(), shared.respond(&q).unwrap());
        }
        assert_eq!(exclusive.version(), shared.version());
    }

    #[test]
    fn shared_counters_aggregate_across_forks() {
        let (ds, oracle) = biased_2d();
        let mut ranker = build_2d(&ds, Box::new(oracle));
        let snap = ranker.snapshot();
        for i in 0..3 {
            ranker
                .update(DatasetUpdate::Rescore {
                    item: i,
                    scores: vec![0.5, 0.5],
                })
                .unwrap();
        }
        // The counters are shared across copy-on-write generations: both
        // the live ranker and the frozen snapshot report the same totals.
        assert_eq!(ranker.backend_stats().updates, 3);
        assert_eq!(snap.backend_stats().updates, 3);
    }
}
