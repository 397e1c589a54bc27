//! Offline → online hand-off, both granularities:
//!
//! 1. **Whole ranker** — build with the unified builder, persist with
//!    [`FairRanker::save`], reload in a fresh "online replica" with
//!    [`FairRanker::load`] (the backend kind travels in the envelope;
//!    the replica never names it), and serve a batch through
//!    [`FairRanker::respond_batch`].
//! 2. **Raw artifact** — the original byte-level codec for shipping an
//!    [`fairrank::approximate::ApproxIndex`] alone, for online sides
//!    that keep neither the dataset nor the oracle.
//!
//! ```sh
//! cargo run --release --example index_persistence
//! ```

use std::time::Instant;

use fairrank::approximate::{ApproxIndex, BuildOptions};
use fairrank::persist::{decode_approx_index, encode_approx_index};
use fairrank::{FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::compas;
use fairrank_fairness::Proportionality;
use fairrank_geometry::polar::{angular_distance, to_polar};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- offline process -------------------------------------------------
    let ds = compas::generate(&compas::CompasConfig {
        n: 300,
        ..Default::default()
    })
    .project(&compas::validation_projection())?;
    let race = ds.type_attribute("race").expect("race attribute");
    let k = ds.len() * 3 / 10;
    let oracle = Proportionality::new(race, k).with_max_share(0, 0.60);

    let t0 = Instant::now();
    let ranker = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: 800,
            max_hyperplanes: Some(8_000),
            ..Default::default()
        })
        .build()?;
    println!(
        "offline: built {:?} in {:.2?}",
        ranker.backend_stats(),
        t0.elapsed()
    );

    let path = std::env::temp_dir().join("fairrank_ranker.frix");
    ranker.save(&path)?;
    println!(
        "offline: persisted whole ranker ({} bytes) to {}",
        std::fs::metadata(&path)?.len(),
        path.display()
    );

    // ---- online replica (whole-ranker load + batched serving) -----------
    let replica = FairRanker::load(&path, ds.clone(), Box::new(oracle))?;
    let reqs: Vec<SuggestRequest> = (0..32)
        .map(|i| SuggestRequest::new(vec![1.0, 0.1 + 0.05 * f64::from(i), 0.4]))
        .collect();
    let t = Instant::now();
    let answers = replica.respond_batch(&reqs)?;
    println!(
        "online:  replica answered {} queries in one batch in {:.2?} \
         (answers match the offline ranker: {})",
        answers.len(),
        t.elapsed(),
        reqs.iter()
            .zip(&answers)
            .all(|(q, a)| ranker.respond(q).unwrap() == *a),
    );

    // ---- online process, artifact-only (no dataset, no oracle) ----------
    let index = ranker.approx_index().expect("approx backend");
    let bytes = encode_approx_index(index);
    let loaded: ApproxIndex = decode_approx_index(&bytes)?;
    println!(
        "online:  artifact-only side loaded {} cells (error bound {:.4} rad)",
        loaded.grid().cell_count(),
        loaded.error_bound()
    );
    for weights in [[1.0, 1.0, 1.0], [1.0, 0.1, 0.1], [0.2, 0.4, 1.4]] {
        let (_, angles) = to_polar(&weights);
        let t = Instant::now();
        let answer = loaded.lookup(&angles).expect("satisfiable model");
        let micros = t.elapsed().as_secs_f64() * 1e6;
        println!(
            "online:  query {:?} → fair function at θ-distance {:.4} rad ({micros:.1} µs)",
            weights,
            angular_distance(answer, &angles)
        );
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
