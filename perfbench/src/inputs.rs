//! Seeded inputs: the dataset, the query streams, the probe set and the
//! update streams. Everything the program receives is made here, from the
//! workload's constants and the run's `--seed`.

use std::sync::Arc;

use fairrank::{DatasetUpdate, SuggestRequest};
use fairrank_datasets::synthetic::compas;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, Proportionality};

/// The probe set is the same for every run: its verdict mix and mean
/// suggestion distance are properties of the index, not of the seed.
pub const PROBE_SEED: u64 = 0x0BE5_7A11;

/// Independent sub-streams of one run seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Queries = 1,
    Probes = 2,
    Updates = 3,
    LayerUpdates = 4,
}

/// SplitMix64: tiny, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Rng {
        Rng(seed ^ (stream as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A COMPAS-like dataset of `n` items: the generator's default population
/// (its fixed seed), projected to the scoring attributes `attrs`. The
/// dataset does not vary with `--seed`, so every run builds the same index.
pub fn dataset(n: usize, attrs: &[usize]) -> Arc<Dataset> {
    let full = compas::generate(&compas::CompasConfig {
        n,
        ..Default::default()
    });
    Arc::new(full.project(attrs).expect("projection indices are valid"))
}

/// FM1 on race: at most `cap` of the top 30% may be African-American.
pub fn oracle(ds: &Dataset, cap: f64) -> Proportionality {
    let race = ds.type_attribute("race").expect("COMPAS has race");
    let k = ((ds.len() as f64) * 0.30).round().max(1.0) as usize;
    Proportionality::new(race, k).with_max_share(0, cap)
}

/// A random weight vector, every weight in `[0.02, 1.02)`.
pub fn random_query(rng: &mut Rng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| 0.02 + rng.unit()).collect()
}

pub fn is_fair(ds: &Dataset, oracle: &dyn FairnessOracle, query: &[f64]) -> bool {
    oracle.is_satisfactory(&ds.rank(query))
}

/// A query stream with a fixed verdict mix: `blocks` blocks, each holding
/// exactly `fair` queries the oracle accepts and `unfair` it rejects, in
/// seeded order. Any whole number of blocks has the same mix, so windows
/// measured on different seeds do the same kind of work.
pub fn mixed_stream(
    ds: &Dataset,
    oracle: &dyn FairnessOracle,
    rng: &mut Rng,
    blocks: usize,
    (fair, unfair): (usize, usize),
) -> Result<Vec<Vec<f64>>, String> {
    let (mut fair_pool, mut unfair_pool) = (Vec::new(), Vec::new());
    let (want_fair, want_unfair) = (blocks * fair, blocks * unfair);
    let budget = 200 * (want_fair + want_unfair);
    for _ in 0..budget {
        if fair_pool.len() >= want_fair && unfair_pool.len() >= want_unfair {
            break;
        }
        let q = random_query(rng, ds.dim());
        if is_fair(ds, oracle, &q) {
            if fair_pool.len() < want_fair {
                fair_pool.push(q);
            }
        } else if unfair_pool.len() < want_unfair {
            unfair_pool.push(q);
        }
    }
    if fair_pool.len() < want_fair || unfair_pool.len() < want_unfair {
        return Err(format!(
            "could not draw {want_fair} fair and {want_unfair} unfair queries \
             (got {} and {})",
            fair_pool.len(),
            unfair_pool.len()
        ));
    }
    let mut stream = Vec::with_capacity(want_fair + want_unfair);
    let (mut f, mut u) = (fair_pool.into_iter(), unfair_pool.into_iter());
    for _ in 0..blocks {
        let start = stream.len();
        stream.extend(f.by_ref().take(fair));
        stream.extend(u.by_ref().take(unfair));
        rng.shuffle(&mut stream[start..]);
    }
    Ok(stream)
}

/// The fixed probe set: `count` random queries drawn from [`PROBE_SEED`].
pub fn probes(dim: usize, count: usize) -> Vec<SuggestRequest> {
    let mut rng = Rng::new(PROBE_SEED, Stream::Probes);
    (0..count)
        .map(|_| SuggestRequest::new(random_query(&mut rng, dim)))
        .collect()
}

/// Relative size of the seeded correction an update applies to scores.
const JITTER: f64 = 0.05;

/// `row` with each score moved by up to ±[`JITTER`] of itself, in `[0, 1]`.
fn jittered(rng: &mut Rng, row: &[f64]) -> Vec<f64> {
    row.iter()
        .map(|v| (v * (1.0 + JITTER * (2.0 * rng.unit() - 1.0))).clamp(0.0, 1.0))
        .collect()
}

/// A valid sequence of `count` updates against `ds`, cycling insert,
/// rescore, remove, rescore so the item count stays near its start. Inserts
/// copy a random item's scores and rescores correct an item's own scores,
/// each by a small seeded jitter, so the data keeps its distribution. Item
/// ids are drawn against the items each update leaves behind, so the
/// sequence must be applied in order.
pub fn updates(ds: &Dataset, rng: &mut Rng, count: usize) -> Vec<DatasetUpdate> {
    let mut rows: Vec<Vec<f64>> = (0..ds.len()).map(|i| ds.row(i)).collect();
    let groups: Vec<usize> = ds
        .type_attributes()
        .iter()
        .map(|t| t.group_count())
        .collect();
    (0..count)
        .map(|i| match i % 4 {
            0 => {
                let source = rng.below(rows.len());
                let scores = jittered(rng, &rows[source]);
                rows.push(scores.clone());
                DatasetUpdate::Insert {
                    scores,
                    groups: groups.iter().map(|&g| rng.below(g) as u32).collect(),
                }
            }
            2 => {
                let item = rng.below(rows.len());
                rows.remove(item);
                DatasetUpdate::Remove { item: item as u32 }
            }
            _ => {
                let item = rng.below(rows.len());
                rows[item] = jittered(rng, &rows[item]);
                DatasetUpdate::Rescore {
                    item: item as u32,
                    scores: rows[item].clone(),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn small() -> (Arc<Dataset>, Proportionality) {
        let ds = Arc::new(
            compas::generate(&compas::CompasConfig {
                n: 300,
                ..Default::default()
            })
            .project(&[0, 1])
            .unwrap(),
        );
        let o = oracle(&ds, 0.65);
        (ds, o)
    }

    #[test]
    fn same_seed_same_inputs() {
        let (ds, o) = small();
        let a = mixed_stream(&ds, &o, &mut Rng::new(7, Stream::Queries), 16, (1, 3)).unwrap();
        let b = mixed_stream(&ds, &o, &mut Rng::new(7, Stream::Queries), 16, (1, 3)).unwrap();
        assert_eq!(a, b);
        let c = mixed_stream(&ds, &o, &mut Rng::new(8, Stream::Queries), 16, (1, 3)).unwrap();
        assert_ne!(a, c);
        let ua = updates(&ds, &mut Rng::new(7, Stream::Updates), 40);
        let ub = updates(&ds, &mut Rng::new(7, Stream::Updates), 40);
        assert_eq!(ua, ub);
        assert_ne!(ua, updates(&ds, &mut Rng::new(8, Stream::Updates), 40));
        assert_eq!(probes(2, 32), probes(2, 32));
    }

    #[test]
    fn streams_of_different_seeds_keep_the_mix() {
        let (ds, o) = small();
        for seed in 0..4 {
            let s = mixed_stream(&ds, &o, &mut Rng::new(seed, Stream::Queries), 8, (1, 3)).unwrap();
            for block in s.chunks(4) {
                let fair = block.iter().filter(|q| is_fair(&ds, &o, q)).count();
                assert_eq!(fair, 1, "seed {seed}");
            }
        }
    }

    #[test]
    fn update_sequences_apply_in_order() {
        let (ds, o) = small();
        let mut ranker = fairrank::FairRanker::builder(Arc::clone(&ds), Box::new(o))
            .build()
            .unwrap();
        for u in updates(&ds, &mut Rng::new(3, Stream::Updates), 24) {
            ranker.update(u).unwrap();
        }
        assert_eq!(ranker.dataset().len(), ds.len());
    }

    #[test]
    fn workload_datasets_are_the_generator_defaults() {
        for w in WORKLOADS {
            let ds = dataset(w.n, w.attrs);
            assert_eq!((ds.len(), ds.dim()), (w.n, w.attrs.len()), "{}", w.name);
            assert_eq!(*ds, *dataset(w.n, w.attrs));
        }
    }
}
