//! # fairrank
//!
//! A query-answering system that helps users design **fair score-based
//! ranking schemes** — a from-scratch Rust implementation of
//!
//! > Abolfazl Asudeh, H. V. Jagadish, Julia Stoyanovich, Gautam Das.
//! > *Designing Fair Ranking Schemes.* SIGMOD 2019.
//!
//! ## The problem
//!
//! Items are ranked by a linear scoring function
//! `f_w(t) = Σ w_j · t[j]`, `w ≥ 0`. A black-box fairness oracle accepts
//! or rejects the induced ranking. Given a user's proposed weight vector,
//! the system answers the **closest satisfactory function** query: the
//! weight vector, minimal in *angular distance* from the query, whose
//! ranking the oracle accepts.
//!
//! ## Offline / online split
//!
//! Indexing happens offline; queries answer in interactive time:
//!
//! | dims | offline | online | paper |
//! |---|---|---|---|
//! | d = 2 | [`twod::ray_sweep`] (2DRAYSWEEP) | [`twod::online_2d`] (2DONLINE), `O(log n)` | §3 |
//! | d ≥ 3, exact | [`md::sat_regions`] (SATREGIONS + AT⁺) | [`md::closest_satisfactory`] (MDBASELINE) | §4 |
//! | d ≥ 3, approximate | [`approximate::ApproxIndex::build`] (CELLPLANE× + MARKCELL/ATC⁺ + CELLCOLORING) | [`approximate::ApproxIndex::lookup`] (MDONLINE), `O(log N)` with the Theorem 6 distance guarantee | §5 |
//!
//! [`FairRanker`] wraps all three behind one builder API over the
//! pluggable [`backend::IndexBackend`] trait ([`backend::Strategy::Auto`]
//! picks the algorithm per the table above); [`sampling`] scales
//! preprocessing to millions of items by indexing a uniform sample
//! (paper §5.4); [`pruning`] implements the §8 convex/dominance-layer
//! top-k reduction; [`persist`] round-trips individual artifacts *and*
//! whole rankers ([`FairRanker::save`]/[`FairRanker::load`]) through
//! storage for the offline→online hand-off.
//!
//! ## Quick example
//!
//! ```
//! use fairrank::{FairRanker, KnownFairness, SuggestRequest};
//! use fairrank_datasets::synthetic::generic;
//! use fairrank_fairness::Proportionality;
//!
//! // 60 items, two attributes; group 0 concentrates at the top of
//! // attribute-0 rankings.
//! let ds = generic::uniform(60, 2, 0.9, 42);
//! // Fair ⇔ at most half of the top-10 belong to group 0.
//! let oracle = Proportionality::new(ds.type_attribute("group").unwrap(), 10)
//!     .with_max_count(0, 5);
//! // Strategy::Auto (the default) picks 2DRAYSWEEP for d = 2.
//! let ranker = FairRanker::builder(ds, Box::new(oracle)).build().unwrap();
//! let answer = ranker.respond(&SuggestRequest::new([1.0, 0.1])).unwrap();
//! match answer.fairness {
//!     KnownFairness::AlreadyFair => println!("keep your weights"),
//!     KnownFairness::Suggested { distance } => {
//!         println!("try {:?} ({distance:.3} rad away)", answer.weights)
//!     }
//!     KnownFairness::Infeasible => println!("no fair linear ranking exists"),
//! }
//! ```
//!
//! For async serving — individual requests coalesced into micro-batches
//! by a worker pool, with backpressure and live updates — see the
//! `fairrank-serve` crate's `FairRankService`.

pub mod approximate;
pub mod backend;
pub(crate) mod buildtel;
pub mod error;
pub mod md;
pub mod parallel;
pub mod persist;
pub mod probes;
pub mod pruning;
pub mod ranker;
pub mod request;
pub mod sampling;
pub mod twod;
pub mod update;

pub use backend::{Answer, BackendStats, IndexBackend, QueryCtx, SharedCounters, Strategy};
pub use error::FairRankError;
pub use ranker::{FairRanker, FairRankerBuilder};
pub use request::{KnownFairness, SuggestOptions, SuggestRequest, SuggestStats, Suggestion};
pub use update::{DatasetUpdate, UpdateCtx, UpdateOutcome};

// Re-export the companion crates so downstream users need one dependency.
pub use fairrank_datasets as datasets;
pub use fairrank_fairness as fairness;
pub use fairrank_geometry as geometry;
pub use fairrank_lp as lp;
