//! Live dataset updates: the types flowing through
//! [`FairRanker::update`](crate::FairRanker::update) and
//! [`IndexBackend::apply`](crate::backend::IndexBackend::apply).
//!
//! The paper builds its indexes once over a static database; a serving
//! system sees items inserted, removed and re-scored continuously. This
//! module is the update surface of the pluggable backend design: one
//! update description ([`DatasetUpdate`]), one maintenance context
//! ([`UpdateCtx`] — the pre- and post-update dataset snapshots plus the
//! rebound oracle), and one outcome report ([`UpdateOutcome`]) telling
//! the caller whether the index was maintained in place or
//! reconstructed.
//!
//! The maintenance contract is strict: once an update returns, the
//! backend must answer queries **identically**
//! to the same backend rebuilt from scratch on the post-update dataset —
//! property-tested in `tests/incremental_equivalence.rs`.

use fairrank_datasets::{Dataset, DatasetError};
use fairrank_fairness::FairnessOracle;

use crate::error::FairRankError;

/// One dataset mutation, as seen by [`FairRanker::update`](crate::FairRanker::update).
///
/// Item ids are dense `0..n`: an insert appends at id `n`, a removal
/// shifts the ids above the removed item down by one (every index and
/// oracle is renumbered consistently by the update machinery).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetUpdate {
    /// Append one item: a scoring vector of the dataset's arity plus one
    /// group id per type attribute (in [`Dataset::type_attributes`]
    /// order).
    Insert {
        /// Scoring attribute values (`len == ds.dim()`, finite).
        scores: Vec<f64>,
        /// Group id per type attribute (`len == ds.type_attributes().len()`).
        groups: Vec<u32>,
    },
    /// Remove the item with this id.
    Remove {
        /// Item id to remove.
        item: u32,
    },
    /// Replace one item's scoring vector (groups and id unchanged).
    Rescore {
        /// Item id to re-score.
        item: u32,
        /// New scoring attribute values (`len == ds.dim()`, finite).
        scores: Vec<f64>,
    },
}

impl DatasetUpdate {
    /// Validate this update against the dataset it is about to mutate.
    ///
    /// # Errors
    /// [`FairRankError::InvalidUpdate`] describing the mismatch.
    pub fn validate(&self, ds: &Dataset) -> Result<(), FairRankError> {
        let bad = |msg: String| Err(FairRankError::InvalidUpdate(msg));
        match self {
            DatasetUpdate::Insert { scores, groups } => {
                if scores.len() != ds.dim() {
                    return bad(format!(
                        "insert carries {} scores for a {}-attribute dataset",
                        scores.len(),
                        ds.dim()
                    ));
                }
                if scores.iter().any(|v| !v.is_finite()) {
                    return bad("insert carries a non-finite score".into());
                }
                if groups.len() != ds.type_attributes().len() {
                    return bad(format!(
                        "insert carries {} group ids for {} type attributes",
                        groups.len(),
                        ds.type_attributes().len()
                    ));
                }
                for (t, &g) in ds.type_attributes().iter().zip(groups) {
                    if g as usize >= t.group_count() {
                        return bad(format!(
                            "group id {g} outside {:?}'s {} groups",
                            t.name,
                            t.group_count()
                        ));
                    }
                }
                Ok(())
            }
            DatasetUpdate::Remove { item } => {
                if *item as usize >= ds.len() {
                    return bad(format!("item {item} out of range (n = {})", ds.len()));
                }
                if ds.len() == 1 {
                    return bad("removing the last item would empty the dataset".into());
                }
                Ok(())
            }
            DatasetUpdate::Rescore { item, scores } => {
                if *item as usize >= ds.len() {
                    return bad(format!("item {item} out of range (n = {})", ds.len()));
                }
                if scores.len() != ds.dim() {
                    return bad(format!(
                        "rescore carries {} scores for a {}-attribute dataset",
                        scores.len(),
                        ds.dim()
                    ));
                }
                if scores.iter().any(|v| !v.is_finite()) {
                    return bad("rescore carries a non-finite score".into());
                }
                Ok(())
            }
        }
    }

    /// Apply this (already validated) update to a dataset.
    pub(crate) fn apply_to(&self, ds: &mut Dataset) -> Result<(), DatasetError> {
        match self {
            DatasetUpdate::Insert { scores, groups } => ds.insert_row(scores, groups).map(|_| ()),
            DatasetUpdate::Remove { item } => ds.remove_row(*item as usize),
            DatasetUpdate::Rescore { item, scores } => ds.rescore_row(*item as usize, scores),
        }
    }
}

/// How a backend disposed of one update.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UpdateOutcome {
    /// The index was maintained in place — cheaper than a rebuild, and
    /// answers are already identical to a from-scratch reconstruction.
    Incremental,
    /// The backend reconstructed its index from the post-update dataset.
    Rebuilt,
}

/// Everything a backend may consult while maintaining its index through
/// one update: the dataset as it was *before* the update (for removal
/// deltas), the dataset *after* it, and the (re-bound) fairness oracle.
pub struct UpdateCtx<'a> {
    /// Snapshot of the dataset before the update.
    pub old: &'a Dataset,
    /// The dataset after the update.
    pub ds: &'a Dataset,
    /// The fairness oracle, already re-bound to the post-update dataset
    /// (see [`FairnessOracle::rebind`]).
    pub oracle: &'a dyn FairnessOracle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_datasets::synthetic::generic;

    #[test]
    fn validation_catches_malformed_updates() {
        let ds = generic::uniform(10, 2, 0.5, 1);
        let ok = DatasetUpdate::Insert {
            scores: vec![0.5, 0.5],
            groups: vec![0],
        };
        assert!(ok.validate(&ds).is_ok());
        for bad in [
            DatasetUpdate::Insert {
                scores: vec![0.5],
                groups: vec![0],
            },
            DatasetUpdate::Insert {
                scores: vec![0.5, f64::NAN],
                groups: vec![0],
            },
            DatasetUpdate::Insert {
                scores: vec![0.5, 0.5],
                groups: vec![],
            },
            DatasetUpdate::Insert {
                scores: vec![0.5, 0.5],
                groups: vec![99],
            },
            DatasetUpdate::Remove { item: 10 },
            DatasetUpdate::Rescore {
                item: 11,
                scores: vec![0.5, 0.5],
            },
            DatasetUpdate::Rescore {
                item: 0,
                scores: vec![0.5],
            },
            DatasetUpdate::Rescore {
                item: 0,
                scores: vec![f64::INFINITY, 0.0],
            },
        ] {
            assert!(
                matches!(bad.validate(&ds), Err(FairRankError::InvalidUpdate(_))),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn last_item_removal_rejected() {
        let ds = generic::uniform(5, 2, 0.5, 2).subset(&[0]);
        assert!(DatasetUpdate::Remove { item: 0 }.validate(&ds).is_err());
    }
}
