//! Whole-ranker persistence: save/load round-trips across all three
//! backends, corruption/truncation/wrong-tag rejection, and fuzz-style
//! robustness of the decoders (no panics on arbitrary byte mutations).

use proptest::prelude::*;

use fairrank::approximate::BuildOptions;
use fairrank::md::SatRegionsOptions;
use fairrank::persist::{
    decode_backend, decode_ranker, decode_ranker_versioned, decode_update_log, encode_update_log,
    PersistError, TAG_APPROX, TAG_INTERVALS, TAG_RANKER, TAG_REGIONS,
};
use fairrank::{DatasetUpdate, FairRankError, FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, Proportionality};
use fairrank_geometry::HALF_PI;

fn biased(n: usize, d: usize, seed: u64) -> (Dataset, Proportionality) {
    let ds = generic::uniform(n, d, 0.9, seed);
    let attr = ds.type_attribute("group").unwrap();
    let k = (n / 4).max(4);
    let oracle = Proportionality::new(attr, k).with_max_count(0, k / 2);
    (ds, oracle)
}

fn build(strategy: Strategy, ds: &Dataset, oracle: &Proportionality) -> FairRanker {
    FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(strategy)
        .sat_regions_options(SatRegionsOptions {
            max_hyperplanes: Some(60),
            ..Default::default()
        })
        .approx_options(BuildOptions {
            n_cells: 150,
            max_hyperplanes: Some(100),
            ..Default::default()
        })
        .build()
        .unwrap()
}

/// A fan of valid queries covering the positive orthant.
fn query_fan(d: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let t = (i as f64 + 0.5) / count as f64 * HALF_PI;
            let mut q = vec![0.4 + t.sin(); d];
            q[0] = 0.4 + t.cos();
            q[i % d] += 0.7;
            q
        })
        .collect()
}

/// Round-trip through bytes: the reloaded ranker answers a fixed query
/// set identically to the in-memory original.
fn assert_roundtrip(strategy: Strategy, n: usize, d: usize, seed: u64) {
    let (ds, oracle) = biased(n, d, seed);
    let ranker = build(strategy, &ds, &oracle);
    let bytes = ranker.to_bytes();
    let reloaded = FairRanker::from_bytes(&bytes, ds.clone(), Box::new(oracle)).unwrap();
    assert_eq!(ranker.backend_stats(), reloaded.backend_stats());
    for q in query_fan(d, 25) {
        let req = SuggestRequest::new(q.clone());
        assert_eq!(
            ranker.respond(&req).unwrap(),
            reloaded.respond(&req).unwrap(),
            "{strategy:?} diverged after reload at {q:?}"
        );
    }
}

#[test]
fn roundtrip_twod() {
    assert_roundtrip(Strategy::TwoD, 60, 2, 7);
}

#[test]
fn roundtrip_md_exact() {
    assert_roundtrip(Strategy::MdExact, 20, 3, 8);
}

#[test]
fn roundtrip_md_approx() {
    assert_roundtrip(Strategy::MdApprox, 40, 3, 9);
}

#[test]
fn roundtrip_through_files() {
    let (ds, oracle) = biased(50, 2, 21);
    let ranker = build(Strategy::TwoD, &ds, &oracle);
    let path = std::env::temp_dir().join(format!("fairrank_roundtrip_{}.frix", std::process::id()));
    ranker.save(&path).unwrap();
    let reloaded = FairRanker::load(&path, ds, Box::new(oracle)).unwrap();
    for q in query_fan(2, 15) {
        let req = SuggestRequest::new(q);
        assert_eq!(
            ranker.respond(&req).unwrap(),
            reloaded.respond(&req).unwrap()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_missing_file_is_io_error() {
    let (ds, oracle) = biased(20, 2, 3);
    let err = FairRanker::load(
        std::env::temp_dir().join("fairrank_does_not_exist.frix"),
        ds,
        Box::new(oracle),
    )
    .unwrap_err();
    assert!(matches!(err, FairRankError::Persist(PersistError::Io(_))));
}

#[test]
fn corrupted_byte_rejected() {
    let (ds, oracle) = biased(40, 2, 11);
    let ranker = build(Strategy::TwoD, &ds, &oracle);
    let bytes = ranker.to_bytes();
    // A flip anywhere — header, dimensionality, tag, embedded payload,
    // checksum — must be caught: the outer seal covers the envelope
    // end-to-end.
    for pos in [
        0,
        4,
        7,
        8,
        12,
        bytes.len() / 2,
        bytes.len() - 9,
        bytes.len() - 1,
    ] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        assert!(
            FairRanker::from_bytes(&corrupt, ds.clone(), Box::new(oracle.clone())).is_err(),
            "flip at byte {pos} went undetected"
        );
    }
}

#[test]
fn wrong_tag_and_unknown_backend_rejected() {
    let (ds, oracle) = biased(40, 2, 12);
    let ranker = build(Strategy::TwoD, &ds, &oracle);
    // A raw artifact is not a ranker envelope.
    let artifact = ranker.backend().encode();
    assert!(matches!(
        decode_ranker(&artifact),
        Err(PersistError::WrongArtifact {
            expected: TAG_RANKER,
            ..
        })
    ));
    // A backend tag nobody registered.
    for bogus in [0u8, 77, TAG_RANKER] {
        assert!(matches!(
            decode_backend(bogus, &artifact),
            Err(PersistError::UnknownBackend(t)) if t == bogus
        ));
    }
    // Valid tags over the wrong artifact bytes are rejected too.
    for tag in [TAG_APPROX, TAG_REGIONS] {
        assert!(decode_backend(tag, &artifact).is_err());
    }
    assert!(decode_backend(TAG_INTERVALS, &artifact).is_ok());
}

/// On every backend, the update counter and the post-update index
/// survive the envelope: the reloaded ranker answers every fan query as
/// the live one does.
#[test]
fn update_counter_round_trips_through_envelope() {
    for (strategy, d) in [
        (Strategy::TwoD, 2),
        (Strategy::MdExact, 3),
        (Strategy::MdApprox, 3),
    ] {
        let (ds, oracle) = biased(40, d, 31);
        let mut ranker = build(strategy, &ds, &oracle);
        assert_eq!(ranker.version(), 0);
        for i in 0..3 {
            let mut scores = vec![0.7; d];
            scores[0] = 0.2 + 0.1 * f64::from(i);
            ranker
                .update(DatasetUpdate::Insert {
                    scores,
                    groups: vec![1],
                })
                .unwrap();
        }
        assert_eq!(ranker.version(), 3);
        let bytes = ranker.to_bytes();
        let (dim, version, _) = decode_ranker_versioned(&bytes).unwrap();
        assert_eq!((dim, version), (d, 3));
        let reloaded = FairRanker::from_bytes(
            &bytes,
            ranker.dataset().clone(),
            oracle
                .rebind(ranker.dataset())
                .expect("proportionality rebinds"),
        )
        .unwrap();
        assert_eq!(reloaded.version(), 3, "epoch must survive the hand-off");
        for q in query_fan(d, 15) {
            let req = SuggestRequest::new(q);
            assert_eq!(
                ranker.respond(&req).unwrap(),
                reloaded.respond(&req).unwrap(),
                "{strategy:?}"
            );
        }
    }
}

#[test]
fn hand_crafted_future_ranker_version_rejected_cleanly() {
    let (ds, oracle) = biased(30, 2, 32);
    let ranker = build(Strategy::TwoD, &ds, &oracle);
    let mut bytes = ranker.to_bytes();
    // Bump the envelope's format version field (offset 4..6) past what
    // this library understands and re-seal so only the version differs.
    let body_len = bytes.len() - 8;
    bytes.truncate(body_len);
    bytes[4] = 0x63;
    bytes[5] = 0x00;
    let sum: u64 = {
        // FNV-1a, matching the codec.
        let mut h = 0xcbf29ce484222325u64;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    };
    bytes.extend_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        decode_ranker_versioned(&bytes),
        Err(PersistError::UnsupportedVersion(0x63))
    ));
}

#[test]
fn dimension_mismatch_on_load_rejected() {
    let (ds2, oracle2) = biased(40, 2, 13);
    let ranker = build(Strategy::TwoD, &ds2, &oracle2);
    let bytes = ranker.to_bytes();
    let (ds3, oracle3) = biased(30, 3, 14);
    assert!(matches!(
        FairRanker::from_bytes(&bytes, ds3, Box::new(oracle3)),
        Err(FairRankError::DimensionMismatch {
            expected: 2,
            found: 3
        })
    ));
}

#[test]
fn every_truncation_rejected_without_panic() {
    for strategy in [Strategy::TwoD, Strategy::MdExact, Strategy::MdApprox] {
        let d = if strategy == Strategy::TwoD { 2 } else { 3 };
        let (ds, oracle) = biased(25, d, 15);
        let bytes = build(strategy, &ds, &oracle).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                decode_ranker(&bytes[..cut]).is_err(),
                "{strategy:?}: accepted a {cut}-byte prefix of {}",
                bytes.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzz-style robustness: arbitrary byte mutations of a valid
    /// whole-ranker envelope never panic any decoder — they either fail
    /// structurally or are caught by the checksum. (Runs the mutated
    /// bytes through the ranker decoder *and* every per-backend
    /// decoder.)
    #[test]
    fn mutated_envelopes_never_panic(
        seed in 0u64..50,
        positions in prop::collection::vec(0usize..10_000, 1..8),
        xor in 1u8..=255,
        cut in 0usize..10_000,
    ) {
        let (ds, oracle) = biased(30, 2, seed);
        let ranker = build(Strategy::TwoD, &ds, &oracle);
        let mut bytes = ranker.to_bytes();
        for &p in &positions {
            let len = bytes.len();
            bytes[p % len] ^= xor;
        }
        bytes.truncate(cut.max(1).min(bytes.len()));
        // Any outcome but a panic is acceptable; a (vanishingly
        // unlikely) checksum collision would surface as Ok.
        let _ = decode_ranker(&bytes);
        let _ = decode_ranker_versioned(&bytes);
        for tag in [TAG_INTERVALS, TAG_REGIONS, TAG_APPROX] {
            let _ = decode_backend(tag, &bytes);
        }
    }

    /// Targeted mutation of the version-stamp region (format version
    /// field and the 8 update-counter bytes): the decoders must reject
    /// cleanly — structurally or by checksum — and never panic.
    #[test]
    fn mutated_version_bytes_fail_cleanly(
        seed in 0u64..20,
        offset in 4usize..22,
        xor in 1u8..=255,
    ) {
        let (ds, oracle) = biased(25, 2, seed);
        let mut ranker = build(Strategy::TwoD, &ds, &oracle);
        ranker
            .update(DatasetUpdate::Rescore { item: 1, scores: vec![0.4, 0.9] })
            .unwrap();
        let mut bytes = ranker.to_bytes();
        bytes[offset] ^= xor;
        let res = decode_ranker_versioned(&bytes);
        prop_assert!(res.is_err(), "flip at {offset} went undetected");
    }

    /// The replication update-log frame survives a round trip for
    /// arbitrary well-formed update sequences.
    #[test]
    fn update_log_round_trips(
        base in 0u64..1_000_000,
        raw in prop::collection::vec(
            (0u8..3, 0u32..500, prop::collection::vec(-10.0f64..10.0, 1..5)),
            0..12,
        ),
    ) {
        let updates: Vec<DatasetUpdate> = raw
            .into_iter()
            .map(|(kind, item, scores)| match kind {
                0 => DatasetUpdate::Insert { scores, groups: vec![item % 4] },
                1 => DatasetUpdate::Remove { item },
                _ => DatasetUpdate::Rescore { item, scores },
            })
            .collect();
        let bytes = encode_update_log(base, &updates);
        let (back_base, back) = decode_update_log(&bytes).unwrap();
        prop_assert_eq!(back_base, base);
        prop_assert_eq!(back, updates);
    }

    /// Byte-mutation fuzz for the update-log decoder — mirror of
    /// `mutated_envelopes_never_panic` for the replication wire format:
    /// arbitrary flips and truncations never panic, and any flip that
    /// survives structural checks is caught by the checksum.
    #[test]
    fn mutated_update_log_never_panics(
        base in 0u64..1000,
        positions in prop::collection::vec(0usize..10_000, 1..8),
        xor in 1u8..=255,
        cut in 0usize..10_000,
    ) {
        let updates = vec![
            DatasetUpdate::Insert { scores: vec![0.5, 0.25], groups: vec![1] },
            DatasetUpdate::Remove { item: 3 },
            DatasetUpdate::Rescore { item: 0, scores: vec![0.125, 0.875] },
        ];
        let mut bytes = encode_update_log(base, &updates);
        for &p in &positions {
            let len = bytes.len();
            bytes[p % len] ^= xor;
        }
        bytes.truncate(cut.max(1).min(bytes.len()));
        // No panic is the property; a decode that still succeeds must be
        // byte-identical input (only possible when flips cancelled out).
        let _ = decode_update_log(&bytes);
    }
}

/// A replica decoded from a capped exact writer's bytes rebuilds with the
/// writer's `SatRegionsOptions` on its first update: both hold the same
/// regions and answer a 40×40 angle grid alike. (With the options
/// unpersisted, the replica rebuilt uncapped: 6,777 regions against the
/// writer's 159.)
#[test]
fn exact_replica_rebuilds_with_the_writers_options() {
    let ds = generic::uniform(24, 3, 0.9, 5);
    let attr = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(attr, 6).with_max_count(0, 3);
    let mut writer = FairRanker::builder(ds.clone(), Box::new(oracle.clone()))
        .strategy(Strategy::MdExact)
        .sat_regions_options(SatRegionsOptions {
            max_hyperplanes: Some(30),
            ..Default::default()
        })
        .build()
        .unwrap();
    let mut replica =
        FairRanker::from_bytes(&writer.to_bytes(), ds.clone(), Box::new(oracle.clone())).unwrap();
    for ranker in [&mut writer, &mut replica] {
        let (scores, groups) = (vec![0.7, 0.2, 0.6], vec![0]);
        ranker
            .update(DatasetUpdate::Insert { scores, groups })
            .unwrap();
    }
    let regions = |r: &FairRanker| r.backend().stats().artifacts;
    assert_eq!(
        regions(&replica),
        regions(&writer),
        "region counts diverged"
    );
    let at = |i: usize| (i as f64 + 0.5) / 40.0 * HALF_PI;
    for c in 0..40 * 40 {
        let q = fairrank_geometry::polar::to_cartesian(1.0, &[at(c / 40), at(c % 40)]);
        let req = SuggestRequest::new(q);
        assert_eq!(
            replica.respond(&req).unwrap(),
            writer.respond(&req).unwrap()
        );
    }
}
