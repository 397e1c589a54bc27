//! Binary persistence for offline index artifacts and whole rankers.
//!
//! The paper's system splits work into an offline preprocessing phase and
//! an interactive online phase; in a deployment those phases run in
//! different processes (or machines), so the index must survive a
//! round-trip through storage. This module provides a small, versioned,
//! checksummed binary codec for the three backend artifacts:
//!
//! * [`ApproxIndex`] — the §5 grid index (MDONLINE's input). The grid
//!   itself is *not* serialized: construction is deterministic in
//!   `(d, scheme, n_cells)`, so the codec stores those parameters and
//!   rebuilds, then cross-checks `γ` and the cell count against the saved
//!   values to detect algorithm drift between writer and reader versions.
//! * [`AngularIntervals`] — the 2-D satisfactory-interval index
//!   (2DONLINE's input).
//! * [`SatRegion`] lists — the §4 exact arrangement regions
//!   (MDBASELINE's input): constraints plus validated witnesses in slice
//!   coordinates, and the build options updates rebuild with.
//!
//! On top of the per-artifact codecs sits the **whole-ranker envelope**
//! ([`encode_ranker`] / [`decode_ranker`], used by
//! [`FairRanker::save`](crate::FairRanker::save) /
//! [`load`](crate::FairRanker::load)): dataset dimensionality, the
//! backend's [`persist_tag`](crate::backend::IndexBackend::persist_tag),
//! and the backend's own sealed artifact, all inside one outer checksum —
//! so a flipped bit anywhere in the envelope (header, tag, or embedded
//! payload) is caught end-to-end. [`decode_backend`] dispatches a tag
//! back to the matching concrete decoder, which is what lets
//! `FairRanker::load` reassemble a backend without the caller naming its
//! type.
//!
//! Format: magic `FRIX`, format version, artifact tag, payload,
//! FNV-1a-64 checksum over everything before it. All integers are
//! little-endian; floats are IEEE-754 bit patterns. Decoders never
//! panic on malformed input (fuzz-style property-tested in
//! `tests/ranker_persistence.rs` and `tests/build_equivalence.rs`).
//! Every artifact is one whole buffer; version 3, a retired chunked
//! framing of datasets and region lists, decodes as
//! [`PersistError::UnsupportedVersion`].

use bytes::{Buf, BufMut};

use fairrank_datasets::Dataset;
use fairrank_geometry::grid::{AngleGrid, PartitionScheme};
use fairrank_geometry::interval::AngularIntervals;
use fairrank_lp::{Constraint, Rel};

use crate::approximate::{ApproxGrid, ApproxIndex, BuildOptions, BuildStats};
use crate::backend::IndexBackend;
use crate::error::FairRankError;
use crate::md::{ExactRegions, SatRegion, SatRegionsOptions};
use crate::twod::TwoDIntervals;

const MAGIC: &[u8; 4] = b"FRIX";
const VERSION: u16 = 1;
/// Whole-ranker envelope format: version 2 appends the ranker's update
/// counter (`FairRanker::version`) to the version-1 layout. Version-1
/// envelopes remain decodable (their counter reads as 0); the embedded
/// per-artifact payloads are unchanged in both directions, so artifact
/// readers of either vintage still decode them.
const RANKER_VERSION: u16 = 2;
/// Artifact tag: [`ApproxIndex`] / [`ApproxGrid`].
pub const TAG_APPROX: u8 = 1;
/// Artifact tag: [`AngularIntervals`] / [`TwoDIntervals`].
pub const TAG_INTERVALS: u8 = 2;
/// Artifact tag: satisfactory-region lists / [`ExactRegions`].
pub const TAG_REGIONS: u8 = 3;
/// Envelope tag: a whole ranker (dim + backend tag + backend artifact).
pub const TAG_RANKER: u8 = 4;
/// Artifact tag: a whole [`Dataset`] (scoring columns + type attributes).
pub const TAG_DATASET: u8 = 5;
/// Artifact tag: a versioned [`DatasetUpdate`](crate::DatasetUpdate) log frame — the
/// replication wire format ([`encode_update_log`] / [`decode_update_log`]).
pub const TAG_UPDATE_LOG: u8 = 6;
/// Dataset payload format. Version 2 stores the scoring attributes
/// **column-major**, matching the in-memory columnar layout, so encoding
/// is a straight per-column copy and decoding fills each column
/// sequentially. Version-1 streams — row-major, the layout of the
/// pre-columnar `Dataset` — still decode ([`encode_dataset_row_major`]
/// writes one, which is also the bench suite's reference arm).
const DATASET_VERSION: u16 = 2;

/// Errors arising while decoding or writing a persisted index.
///
/// `#[non_exhaustive]`: future artifact kinds may add variants without
/// a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The artifact tag does not match the requested type.
    WrongArtifact {
        /// Tag found in the stream.
        found: u8,
        /// Tag the caller asked for.
        expected: u8,
    },
    /// The payload ended early or contains an invalid value.
    Truncated,
    /// Checksum mismatch: the bytes were corrupted.
    ChecksumMismatch,
    /// The deterministic grid rebuild disagrees with the saved parameters
    /// (the writer used a different partitioning algorithm version).
    GridDrift,
    /// A whole-ranker envelope names a backend tag this library has no
    /// decoder for.
    UnknownBackend(u8),
    /// Reading or writing the artifact file failed.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a fairrank index (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported index format version {v}")
            }
            PersistError::WrongArtifact { found, expected } => {
                write!(f, "artifact tag {found} where {expected} was expected")
            }
            PersistError::Truncated => write!(f, "index payload truncated or invalid"),
            PersistError::ChecksumMismatch => write!(f, "index checksum mismatch"),
            PersistError::GridDrift => {
                write!(
                    f,
                    "grid rebuild mismatch: writer used a different partitioning"
                )
            }
            PersistError::UnknownBackend(tag) => {
                write!(f, "no decoder for backend tag {tag}")
            }
            PersistError::Io(msg) => write!(f, "artifact i/o failed: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<PersistError> for FairRankError {
    fn from(e: PersistError) -> FairRankError {
        FairRankError::Persist(e)
    }
}

/// FNV-1a 64-bit — small, dependency-free integrity check (not crypto).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    out.put_u32_le(u32::try_from(v.len()).expect("vector fits u32"));
    for &x in v {
        out.put_f64_le(x);
    }
}

fn get_f64_vec(buf: &mut &[u8]) -> Result<Vec<f64>, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len * 8 {
        return Err(PersistError::Truncated);
    }
    Ok((0..len).map(|_| buf.get_f64_le()).collect())
}

fn header_versioned(tag: u8, version: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.put_slice(MAGIC);
    out.put_u16_le(version);
    out.put_u8(tag);
    out
}

fn header(tag: u8) -> Vec<u8> {
    header_versioned(tag, VERSION)
}

/// Parse the magic/version/tag preamble; returns the stream's format
/// version (≤ `max_version`).
fn check_header_versioned(
    buf: &mut &[u8],
    expected_tag: u8,
    max_version: u16,
) -> Result<u16, PersistError> {
    if buf.remaining() < 7 {
        return Err(PersistError::BadMagic);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version > max_version {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let tag = buf.get_u8();
    if tag != expected_tag {
        return Err(PersistError::WrongArtifact {
            found: tag,
            expected: expected_tag,
        });
    }
    Ok(version)
}

fn check_header(buf: &mut &[u8], expected_tag: u8) -> Result<(), PersistError> {
    check_header_versioned(buf, expected_tag, VERSION).map(|_| ())
}

fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&payload);
    payload.put_u64_le(sum);
    payload
}

fn unseal(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < 8 {
        return Err(PersistError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(body)
}

/// Serialize an [`ApproxIndex`] to bytes.
#[must_use]
pub fn encode_approx_index(index: &ApproxIndex) -> Vec<u8> {
    let mut out = header(TAG_APPROX);
    let grid = &index.grid;
    out.put_u32_le(u32::try_from(grid.dim() + 1).expect("small d"));
    out.put_u8(match grid.scheme() {
        PartitionScheme::EqualArea => 0,
        PartitionScheme::Uniform => 1,
    });
    out.put_u64_le(grid.target_cells() as u64);
    // Integrity cross-checks for the deterministic rebuild.
    out.put_f64_le(grid.gamma());
    out.put_u64_le(grid.cell_count() as u64);

    out.put_u64_le(index.assigned.len() as u64);
    for a in &index.assigned {
        out.put_u32_le(a.map_or(u32::MAX, |v| v));
    }
    out.put_u64_le(index.functions.len() as u64);
    for f in &index.functions {
        put_f64_vec(&mut out, f);
    }
    seal(out)
}

/// Deserialize an [`ApproxIndex`] from bytes produced by
/// [`encode_approx_index`].
///
/// # Errors
/// Any [`PersistError`] on malformed, corrupted or incompatible input.
pub fn decode_approx_index(bytes: &[u8]) -> Result<ApproxIndex, PersistError> {
    let body = unseal(bytes)?;
    let mut buf = body;
    check_header(&mut buf, TAG_APPROX)?;
    if buf.remaining() < 4 + 1 + 8 + 8 + 8 {
        return Err(PersistError::Truncated);
    }
    let d = buf.get_u32_le() as usize;
    let scheme = match buf.get_u8() {
        0 => PartitionScheme::EqualArea,
        1 => PartitionScheme::Uniform,
        _ => return Err(PersistError::Truncated),
    };
    let target = usize::try_from(buf.get_u64_le()).map_err(|_| PersistError::Truncated)?;
    let saved_gamma = buf.get_f64_le();
    let saved_cells = buf.get_u64_le() as usize;
    if d < 2 || target == 0 {
        return Err(PersistError::Truncated);
    }

    let grid = match scheme {
        PartitionScheme::EqualArea => AngleGrid::equal_area(d, target),
        PartitionScheme::Uniform => AngleGrid::uniform(d, target),
    };
    if (grid.gamma() - saved_gamma).abs() > 1e-12 || grid.cell_count() != saved_cells {
        return Err(PersistError::GridDrift);
    }

    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    let n_assigned = buf.get_u64_le() as usize;
    if n_assigned != grid.cell_count() || buf.remaining() < n_assigned * 4 {
        return Err(PersistError::Truncated);
    }
    let assigned: Vec<Option<u32>> = (0..n_assigned)
        .map(|_| {
            let v = buf.get_u32_le();
            (v != u32::MAX).then_some(v)
        })
        .collect();

    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    let n_functions = buf.get_u64_le() as usize;
    let mut functions = Vec::with_capacity(n_functions.min(1 << 20));
    for _ in 0..n_functions {
        let f = get_f64_vec(&mut buf)?;
        if f.len() != grid.dim() || f.iter().any(|v| !v.is_finite()) {
            return Err(PersistError::Truncated);
        }
        functions.push(f);
    }
    // Every assignment must point at a stored function.
    if assigned
        .iter()
        .flatten()
        .any(|&v| v as usize >= functions.len())
    {
        return Err(PersistError::Truncated);
    }
    if buf.has_remaining() {
        return Err(PersistError::Truncated);
    }

    // The decoded index reconstructs its build parameters from the grid
    // (`n_cells`, scheme) but carries no maintenance state (probe logs),
    // and the TAG_APPROX payload does not record the hyperplane caps or
    // pruning flags — those come back as library defaults. Its first
    // live update therefore pays one full rebuild under those
    // reconstructed options (re-seeding the maintenance state); replicas
    // that must preserve a non-default cap configuration should rebuild
    // from the dataset instead of updating a decoded index.
    let opts = BuildOptions {
        n_cells: grid.target_cells(),
        scheme: grid.scheme(),
        ..Default::default()
    };
    let cell_count = grid.cell_count();
    Ok(ApproxIndex {
        grid,
        assigned,
        functions,
        stats: BuildStats::default(),
        opts,
        threads: crate::parallel::all_cores(),
        satisfied: vec![false; cell_count],
        probe_log: Vec::new(),
        partitions: Vec::new(),
    })
}

/// Serialize a 2-D [`AngularIntervals`] index to bytes.
#[must_use]
pub fn encode_intervals(intervals: &AngularIntervals) -> Vec<u8> {
    let mut out = header(TAG_INTERVALS);
    out.put_u64_le(intervals.len() as u64);
    for &(lo, hi) in intervals.as_slice() {
        out.put_f64_le(lo);
        out.put_f64_le(hi);
    }
    seal(out)
}

/// Deserialize an [`AngularIntervals`] index.
///
/// # Errors
/// Any [`PersistError`] on malformed, corrupted or incompatible input.
pub fn decode_intervals(bytes: &[u8]) -> Result<AngularIntervals, PersistError> {
    let body = unseal(bytes)?;
    let mut buf = body;
    check_header(&mut buf, TAG_INTERVALS)?;
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() != len * 16 {
        return Err(PersistError::Truncated);
    }
    let mut pairs = Vec::with_capacity(len);
    for _ in 0..len {
        let lo = buf.get_f64_le();
        let hi = buf.get_f64_le();
        if !lo.is_finite() || !hi.is_finite() {
            return Err(PersistError::Truncated);
        }
        pairs.push((lo, hi));
    }
    Ok(AngularIntervals::from_pairs(pairs))
}

/// Region-list format. Version 2 stores slice coordinates of `Σw = 1`
/// and the build's [`SatRegionsOptions`]; version-1 lists (angle
/// coordinates, no options) decode as
/// [`PersistError::UnsupportedVersion`].
const REGIONS_VERSION: u16 = 2;

/// Serialize a §4 satisfactory-region list (`slice_dim` slice
/// coordinates per point) with the options it was built with, which a
/// decoded backend rebuilds with on updates.
///
/// # Panics
/// If a region's constraint or witness arity disagrees with
/// `slice_dim` — regions from [`crate::md::sat_regions`] are always
/// consistent.
#[must_use]
pub fn encode_regions(
    regions: &[SatRegion],
    slice_dim: usize,
    opts: &SatRegionsOptions,
) -> Vec<u8> {
    let mut out = header_versioned(TAG_REGIONS, REGIONS_VERSION);
    out.put_u32_le(u32::try_from(slice_dim).expect("small dim"));
    out.put_u64_le(opts.max_hyperplanes.map_or(u64::MAX, |cap| cap as u64));
    out.put_u8(u8::from(opts.prune_top_k));
    out.put_u64_le(regions.len() as u64);
    for region in regions {
        assert_eq!(region.witness.len(), slice_dim, "witness arity");
        out.put_u32_le(u32::try_from(region.constraints.len()).expect("constraints fit u32"));
        for c in &region.constraints {
            assert_eq!(c.a.len(), slice_dim, "constraint arity");
            out.put_u8(match c.rel {
                Rel::Le => 0,
                Rel::Ge => 1,
                Rel::Eq => 2,
            });
            out.put_f64_le(c.b);
            put_f64_vec(&mut out, &c.a);
        }
        put_f64_vec(&mut out, &region.witness);
    }
    seal(out)
}

/// Deserialize a satisfactory-region list produced by
/// [`encode_regions`]: the regions, their slice dimensionality and the
/// options they were built with.
///
/// # Errors
/// Any [`PersistError`] on malformed, corrupted or incompatible input.
pub fn decode_regions(
    bytes: &[u8],
) -> Result<(Vec<SatRegion>, usize, SatRegionsOptions), PersistError> {
    let mut buf = unseal(bytes)?;
    let version = check_header_versioned(&mut buf, TAG_REGIONS, REGIONS_VERSION)?;
    if version != REGIONS_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    if buf.remaining() < 4 + 8 + 1 + 8 {
        return Err(PersistError::Truncated);
    }
    let dim = buf.get_u32_le() as usize;
    if dim == 0 {
        return Err(PersistError::Truncated);
    }
    let max_hyperplanes = match buf.get_u64_le() {
        u64::MAX => None,
        cap => Some(usize::try_from(cap).map_err(|_| PersistError::Truncated)?),
    };
    let prune_top_k = match buf.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(PersistError::Truncated),
    };
    let opts = SatRegionsOptions {
        max_hyperplanes,
        prune_top_k,
    };
    let n_regions = buf.get_u64_le() as usize;
    let mut regions = Vec::with_capacity(n_regions.min(1 << 20));
    for _ in 0..n_regions {
        if buf.remaining() < 4 {
            return Err(PersistError::Truncated);
        }
        let n_constraints = buf.get_u32_le() as usize;
        let mut constraints = Vec::with_capacity(n_constraints.min(1 << 20));
        for _ in 0..n_constraints {
            if buf.remaining() < 1 + 8 {
                return Err(PersistError::Truncated);
            }
            let rel = match buf.get_u8() {
                0 => Rel::Le,
                1 => Rel::Ge,
                2 => Rel::Eq,
                _ => return Err(PersistError::Truncated),
            };
            let b = buf.get_f64_le();
            let a = get_f64_vec(&mut buf)?;
            if !b.is_finite() || a.len() != dim || a.iter().any(|v| !v.is_finite()) {
                return Err(PersistError::Truncated);
            }
            constraints.push(Constraint { a, rel, b });
        }
        let witness = get_f64_vec(&mut buf)?;
        if witness.len() != dim || witness.iter().any(|v| !v.is_finite()) {
            return Err(PersistError::Truncated);
        }
        regions.push(SatRegion {
            constraints,
            witness,
        });
    }
    if buf.has_remaining() {
        return Err(PersistError::Truncated);
    }
    Ok((regions, dim, opts))
}

/// Reassemble a backend from its artifact tag and sealed artifact bytes
/// — the dispatch half of
/// [`IndexBackend::persist_tag`] / [`IndexBackend::encode`].
///
/// # Errors
/// [`PersistError::UnknownBackend`] for a tag with no decoder; any
/// [`PersistError`] from the concrete artifact codec.
pub fn decode_backend(tag: u8, bytes: &[u8]) -> Result<Box<dyn IndexBackend>, PersistError> {
    match tag {
        TAG_INTERVALS => Ok(Box::new(TwoDIntervals::new(decode_intervals(bytes)?))),
        TAG_REGIONS => {
            let (regions, dim, opts) = decode_regions(bytes)?;
            Ok(Box::new(
                ExactRegions::new(regions, dim).with_update_policy(opts),
            ))
        }
        TAG_APPROX => Ok(Box::new(ApproxGrid::new(decode_approx_index(bytes)?))),
        other => Err(PersistError::UnknownBackend(other)),
    }
}

/// Serialize a whole ranker index: the dataset dimensionality, the
/// backend's tag, the ranker's update counter, and the backend's own
/// sealed artifact, inside one outer checksummed envelope. Used by
/// [`FairRanker::to_bytes`](crate::FairRanker::to_bytes).
#[must_use]
pub fn encode_ranker_versioned(
    dataset_dim: usize,
    update_version: u64,
    backend: &dyn IndexBackend,
) -> Vec<u8> {
    let payload = backend.encode();
    let mut out = header_versioned(TAG_RANKER, RANKER_VERSION);
    out.put_u32_le(u32::try_from(dataset_dim).expect("small dim"));
    out.put_u8(backend.persist_tag());
    out.put_u64_le(update_version);
    out.put_u64_le(payload.len() as u64);
    out.put_slice(&payload);
    seal(out)
}

/// [`encode_ranker_versioned`] with an update counter of zero — the
/// pre-live-updates signature, kept for callers that version elsewhere.
#[must_use]
pub fn encode_ranker(dataset_dim: usize, backend: &dyn IndexBackend) -> Vec<u8> {
    encode_ranker_versioned(dataset_dim, 0, backend)
}

/// Decode a whole-ranker envelope produced by [`encode_ranker_versioned`]
/// (or a version-1 envelope from before the update counter existed — its
/// counter reads as 0): the dataset dimensionality the index was built
/// over, the ranker's update counter, and the reassembled backend.
///
/// The outer FNV-1a checksum covers the envelope end-to-end (header,
/// dimensionality, tag, counter, and the embedded artifact bytes), and
/// the embedded artifact additionally carries its own seal — corruption
/// is caught at whichever layer it lands in.
///
/// # Errors
/// Any [`PersistError`] on malformed, corrupted, truncated or
/// unknown-backend input.
pub fn decode_ranker_versioned(
    bytes: &[u8],
) -> Result<(usize, u64, Box<dyn IndexBackend>), PersistError> {
    let body = unseal(bytes)?;
    let mut buf = body;
    let version = check_header_versioned(&mut buf, TAG_RANKER, RANKER_VERSION)?;
    let counter_len = if version >= 2 { 8 } else { 0 };
    if buf.remaining() < 4 + 1 + counter_len + 8 {
        return Err(PersistError::Truncated);
    }
    let dim = buf.get_u32_le() as usize;
    let tag = buf.get_u8();
    let update_version = if version >= 2 { buf.get_u64_le() } else { 0 };
    let payload_len = usize::try_from(buf.get_u64_le()).map_err(|_| PersistError::Truncated)?;
    if dim < 2 || buf.remaining() != payload_len {
        return Err(PersistError::Truncated);
    }
    let backend = decode_backend(tag, buf)?;
    if backend.dim() != dim {
        return Err(PersistError::Truncated);
    }
    Ok((dim, update_version, backend))
}

/// [`decode_ranker_versioned`] without the update counter.
///
/// # Errors
/// Any [`PersistError`] on malformed, corrupted, truncated or
/// unknown-backend input.
pub fn decode_ranker(bytes: &[u8]) -> Result<(usize, Box<dyn IndexBackend>), PersistError> {
    decode_ranker_versioned(bytes).map(|(dim, _, backend)| (dim, backend))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(u32::try_from(s.len()).expect("string fits u32"));
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(PersistError::Truncated);
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| PersistError::Truncated)
}

fn put_dataset_types(out: &mut Vec<u8>, ds: &Dataset) {
    out.put_u32_le(u32::try_from(ds.type_attributes().len()).expect("few type attrs"));
    for t in ds.type_attributes() {
        put_str(out, &t.name);
        out.put_u32_le(u32::try_from(t.labels.len()).expect("few labels"));
        for l in &t.labels {
            put_str(out, l);
        }
        for &v in &t.values {
            out.put_u32_le(v);
        }
    }
}

fn get_dataset_types(buf: &mut &[u8], ds: &mut Dataset) -> Result<(), PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let n_types = buf.get_u32_le() as usize;
    for _ in 0..n_types {
        let name = get_str(buf)?;
        if buf.remaining() < 4 {
            return Err(PersistError::Truncated);
        }
        let n_labels = buf.get_u32_le() as usize;
        let mut labels = Vec::with_capacity(n_labels.min(1 << 16));
        for _ in 0..n_labels {
            labels.push(get_str(buf)?);
        }
        if buf.remaining() < ds.len() * 4 {
            return Err(PersistError::Truncated);
        }
        let values: Vec<u32> = (0..ds.len()).map(|_| buf.get_u32_le()).collect();
        ds.add_type_attribute(name, labels, values)
            .map_err(|_| PersistError::Truncated)?;
    }
    Ok(())
}

/// Serialize a [`Dataset`] in the columnar version-2 layout: item count,
/// dimensionality, attribute names, one f64 column per scoring attribute
/// (a straight copy of the in-memory columns), then the type attributes.
#[must_use]
pub fn encode_dataset(ds: &Dataset) -> Vec<u8> {
    let mut out = header_versioned(TAG_DATASET, DATASET_VERSION);
    out.put_u64_le(ds.len() as u64);
    out.put_u32_le(u32::try_from(ds.dim()).expect("small dim"));
    for name in ds.attr_names() {
        put_str(&mut out, name);
    }
    for j in 0..ds.dim() {
        put_f64_vec(&mut out, ds.column(j));
    }
    put_dataset_types(&mut out, ds);
    seal(out)
}

/// Serialize a [`Dataset`] in the **legacy row-major version-1 layout**
/// (one flat `n × d` f64 vector, item-major) — the wire format of the
/// pre-columnar `Dataset`. Kept so the v1 decode path stays exercised;
/// also the row-major reference arm of the persistence benchmarks.
#[must_use]
pub fn encode_dataset_row_major(ds: &Dataset) -> Vec<u8> {
    let mut out = header_versioned(TAG_DATASET, 1);
    out.put_u64_le(ds.len() as u64);
    out.put_u32_le(u32::try_from(ds.dim()).expect("small dim"));
    for name in ds.attr_names() {
        put_str(&mut out, name);
    }
    put_f64_vec(&mut out, &ds.to_row_major());
    put_dataset_types(&mut out, ds);
    seal(out)
}

/// Decode a [`Dataset`] from either payload version: columnar v2 streams
/// and legacy row-major v1 streams both reconstruct the same columnar
/// in-memory dataset, bit-identically.
///
/// # Errors
/// [`PersistError`] on corrupted, truncated, or foreign input.
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, PersistError> {
    let mut buf = unseal(bytes)?;
    let version = check_header_versioned(&mut buf, TAG_DATASET, DATASET_VERSION)?;
    if buf.remaining() < 12 {
        return Err(PersistError::Truncated);
    }
    let n = buf.get_u64_le() as usize;
    let d = buf.get_u32_le() as usize;
    if n == 0 || d == 0 || n.checked_mul(d).is_none_or(|nd| nd > (1 << 32)) {
        return Err(PersistError::Truncated);
    }
    let mut names = Vec::with_capacity(d);
    for _ in 0..d {
        names.push(get_str(&mut buf)?);
    }
    let mut rows = vec![vec![0.0f64; d]; n];
    if version >= 2 {
        for j in 0..d {
            let col = get_f64_vec(&mut buf)?;
            if col.len() != n {
                return Err(PersistError::Truncated);
            }
            for (row, v) in rows.iter_mut().zip(col) {
                row[j] = v;
            }
        }
    } else {
        let flat = get_f64_vec(&mut buf)?;
        if flat.len() != n * d {
            return Err(PersistError::Truncated);
        }
        for (i, chunk) in flat.chunks_exact(d).enumerate() {
            rows[i].copy_from_slice(chunk);
        }
    }
    let mut ds = Dataset::from_rows(names, &rows).map_err(|_| PersistError::Truncated)?;
    get_dataset_types(&mut buf, &mut ds)?;
    if buf.has_remaining() {
        return Err(PersistError::Truncated);
    }
    Ok(ds)
}

fn get_u32_vec(buf: &mut &[u8]) -> Result<Vec<u32>, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len * 4 {
        return Err(PersistError::Truncated);
    }
    Ok((0..len).map(|_| buf.get_u32_le()).collect())
}

/// Serialize a versioned [`DatasetUpdate`](crate::DatasetUpdate) log frame: the dataset
/// version the frame applies on top of (`base_version`), followed by the
/// updates in application order. Applying the frame advances a replica
/// from `base_version` to `base_version + updates.len()` — each
/// [`FairRanker::update`](crate::FairRanker::update) bumps the counter
/// by one — which is the convergence check replicas run before applying.
///
/// This is the wire format a replicating writer ships over its update
/// stream; the ranker snapshot that seeds a replica travels separately
/// as a [`TAG_RANKER`] envelope.
#[must_use]
pub fn encode_update_log(base_version: u64, updates: &[crate::DatasetUpdate]) -> Vec<u8> {
    use crate::DatasetUpdate;
    let mut out = header(TAG_UPDATE_LOG);
    out.put_u64_le(base_version);
    out.put_u32_le(u32::try_from(updates.len()).expect("frame fits u32"));
    for update in updates {
        match update {
            DatasetUpdate::Insert { scores, groups } => {
                out.put_u8(0);
                put_f64_vec(&mut out, scores);
                out.put_u32_le(u32::try_from(groups.len()).expect("few type attrs"));
                for &g in groups {
                    out.put_u32_le(g);
                }
            }
            DatasetUpdate::Remove { item } => {
                out.put_u8(1);
                out.put_u32_le(*item);
            }
            DatasetUpdate::Rescore { item, scores } => {
                out.put_u8(2);
                out.put_u32_le(*item);
                put_f64_vec(&mut out, scores);
            }
        }
    }
    seal(out)
}

/// Decode an update-log frame produced by [`encode_update_log`]:
/// `(base_version, updates)`.
///
/// Structural validity only — scores must be finite (a non-finite score
/// can never come from a validated update), but arity and id-range
/// checks belong to [`DatasetUpdate::validate`](crate::DatasetUpdate::validate)
/// against the dataset the frame is applied to.
///
/// # Errors
/// Any [`PersistError`] on malformed, corrupted or truncated input;
/// never panics.
pub fn decode_update_log(bytes: &[u8]) -> Result<(u64, Vec<crate::DatasetUpdate>), PersistError> {
    use crate::DatasetUpdate;
    let body = unseal(bytes)?;
    let mut buf = body;
    check_header(&mut buf, TAG_UPDATE_LOG)?;
    if buf.remaining() < 8 + 4 {
        return Err(PersistError::Truncated);
    }
    let base_version = buf.get_u64_le();
    let n_updates = buf.get_u32_le() as usize;
    let mut updates = Vec::with_capacity(n_updates.min(1 << 20));
    for _ in 0..n_updates {
        if buf.remaining() < 1 {
            return Err(PersistError::Truncated);
        }
        let update = match buf.get_u8() {
            0 => {
                let scores = get_f64_vec(&mut buf)?;
                if scores.iter().any(|v| !v.is_finite()) {
                    return Err(PersistError::Truncated);
                }
                let groups = get_u32_vec(&mut buf)?;
                DatasetUpdate::Insert { scores, groups }
            }
            1 => {
                if buf.remaining() < 4 {
                    return Err(PersistError::Truncated);
                }
                DatasetUpdate::Remove {
                    item: buf.get_u32_le(),
                }
            }
            2 => {
                if buf.remaining() < 4 {
                    return Err(PersistError::Truncated);
                }
                let item = buf.get_u32_le();
                let scores = get_f64_vec(&mut buf)?;
                if scores.iter().any(|v| !v.is_finite()) {
                    return Err(PersistError::Truncated);
                }
                DatasetUpdate::Rescore { item, scores }
            }
            _ => return Err(PersistError::Truncated),
        };
        updates.push(update);
    }
    if buf.has_remaining() {
        return Err(PersistError::Truncated);
    }
    Ok((base_version, updates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approximate::BuildOptions;
    use fairrank_datasets::synthetic::generic;
    use fairrank_fairness::Proportionality;

    fn sample_index() -> ApproxIndex {
        let ds = generic::uniform(40, 3, 0.9, 7);
        let attr = ds.type_attribute("group").unwrap();
        let oracle = Proportionality::new(attr, 8).with_max_count(0, 4);
        ApproxIndex::build(
            &ds,
            &oracle,
            &BuildOptions {
                n_cells: 120,
                max_hyperplanes: Some(150),
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn approx_round_trip() {
        let index = sample_index();
        let bytes = encode_approx_index(&index);
        let back = decode_approx_index(&bytes).unwrap();
        assert_eq!(back.functions(), index.functions());
        assert_eq!(back.grid().cell_count(), index.grid().cell_count());
        // Lookups agree everywhere.
        for i in 0..10 {
            for j in 0..10 {
                let q = [
                    (i as f64 + 0.5) / 10.0 * fairrank_geometry::HALF_PI,
                    (j as f64 + 0.5) / 10.0 * fairrank_geometry::HALF_PI,
                ];
                assert_eq!(index.lookup(&q), back.lookup(&q));
            }
        }
    }

    #[test]
    fn intervals_round_trip() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.4), (0.9, 1.2)]);
        let bytes = encode_intervals(&ivs);
        let back = decode_intervals(&bytes).unwrap();
        assert_eq!(back.as_slice(), ivs.as_slice());
    }

    #[test]
    fn empty_intervals_round_trip() {
        let ivs = AngularIntervals::new();
        let back = decode_intervals(&encode_intervals(&ivs)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corruption_detected() {
        let index = sample_index();
        let mut bytes = encode_approx_index(&index);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode_approx_index(&bytes),
            Err(PersistError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_detected() {
        let index = sample_index();
        let bytes = encode_approx_index(&index);
        for cut in [0usize, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            let res = decode_approx_index(&bytes[..cut]);
            assert!(res.is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn wrong_artifact_rejected() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.4)]);
        let bytes = encode_intervals(&ivs);
        assert!(matches!(
            decode_approx_index(&bytes),
            Err(PersistError::WrongArtifact { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            decode_intervals(b"nonsense-bytes-here"),
            Err(PersistError::ChecksumMismatch) // checksum fails before magic
        );
        // With a valid checksum but wrong magic:
        let mut fake = b"XXXX".to_vec();
        let sum = super::fnv1a(&fake);
        fake.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_intervals(&fake), Err(PersistError::BadMagic));
    }

    fn sample_dataset() -> fairrank_datasets::Dataset {
        let mut ds = fairrank_datasets::Dataset::from_rows(
            vec!["gpa".into(), "sat".into()],
            &[
                vec![3.9, 0.71],
                vec![3.2, 0.99],
                vec![2.8, 0.42],
                vec![3.9, 0.42],
            ],
        )
        .unwrap();
        ds.add_type_attribute("gender", vec!["f".into(), "m".into()], vec![0, 1, 0, 1])
            .unwrap();
        ds
    }

    #[test]
    fn dataset_columnar_round_trip() {
        let ds = sample_dataset();
        let back = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_eq!(back, ds);
        for j in 0..ds.dim() {
            for i in 0..ds.len() {
                assert_eq!(back.value(i, j).to_bits(), ds.value(i, j).to_bits());
            }
        }
    }

    #[test]
    fn dataset_row_major_v1_still_decodes() {
        let ds = sample_dataset();
        let v1 = encode_dataset_row_major(&ds);
        let v2 = encode_dataset(&ds);
        assert_ne!(v1, v2, "v1 and v2 are distinct wire layouts");
        assert_eq!(decode_dataset(&v1).unwrap(), ds);
        assert_eq!(decode_dataset(&v1).unwrap(), decode_dataset(&v2).unwrap());
    }

    #[test]
    fn dataset_corruption_and_truncation_detected() {
        let ds = sample_dataset();
        for bytes in [encode_dataset(&ds), encode_dataset_row_major(&ds)] {
            let mut bad = bytes.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0xFF;
            assert!(decode_dataset(&bad).is_err());
            for cut in [0usize, 3, 7, bytes.len() / 2, bytes.len() - 1] {
                assert!(decode_dataset(&bytes[..cut]).is_err(), "{cut}-byte prefix");
            }
        }
    }

    #[test]
    fn dataset_wrong_artifact_rejected() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.4)]);
        assert!(matches!(
            decode_dataset(&encode_intervals(&ivs)),
            Err(PersistError::WrongArtifact { .. })
        ));
    }

    #[test]
    fn update_log_round_trip() {
        let updates = vec![
            crate::DatasetUpdate::Insert {
                scores: vec![0.5, 0.25],
                groups: vec![1],
            },
            crate::DatasetUpdate::Remove { item: 3 },
            crate::DatasetUpdate::Rescore {
                item: 0,
                scores: vec![0.125, 0.875],
            },
        ];
        let bytes = encode_update_log(42, &updates);
        let (base, back) = decode_update_log(&bytes).unwrap();
        assert_eq!(base, 42);
        assert_eq!(back, updates);
    }

    #[test]
    fn empty_update_log_round_trip() {
        let (base, back) = decode_update_log(&encode_update_log(0, &[])).unwrap();
        assert_eq!(base, 0);
        assert!(back.is_empty());
    }

    #[test]
    fn update_log_corruption_and_truncation_detected() {
        let updates = vec![crate::DatasetUpdate::Rescore {
            item: 7,
            scores: vec![0.5, 0.5, 0.5],
        }];
        let bytes = encode_update_log(9, &updates);
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(decode_update_log(&bad).is_err());
        for cut in [0usize, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_update_log(&bytes[..cut]).is_err(),
                "{cut}-byte prefix"
            );
        }
    }

    #[test]
    fn update_log_wrong_artifact_rejected() {
        let ivs = AngularIntervals::from_pairs([(0.1, 0.4)]);
        assert!(matches!(
            decode_update_log(&encode_intervals(&ivs)),
            Err(PersistError::WrongArtifact { .. })
        ));
    }

    fn sample_regions() -> (Vec<SatRegion>, usize, SatRegionsOptions) {
        let ds = generic::anticorrelated(12, 3, 0.8, 21);
        let oracle = fairrank_fairness::FnOracle::new("always", |_: &[u32]| true);
        let opts = SatRegionsOptions {
            max_hyperplanes: Some(4),
            prune_top_k: true,
        };
        let r = crate::md::sat_regions(&ds, &oracle, &opts).unwrap();
        (r.satisfactory, r.dim, opts)
    }

    #[test]
    fn chunked_regions_round_trip() {
        let (regions, dim, opts) = sample_regions();
        let plain = encode_regions(&regions, dim, &opts);
        let (back, back_dim, back_opts) = decode_regions(&plain).unwrap();
        assert_eq!((back_dim, &back_opts), (dim, &opts));
        assert_eq!(encode_regions(&back, back_dim, &back_opts), plain);
        let uncapped = SatRegionsOptions::default();
        let bytes = encode_regions(&regions, dim, &uncapped);
        assert_eq!(decode_regions(&bytes).unwrap().2, uncapped);
    }

    /// Version-1 region lists hold angle coordinates and no build
    /// options; they are not decoded.
    #[test]
    fn angle_space_region_lists_are_unsupported() {
        let (regions, dim, opts) = sample_regions();
        let v2 = encode_regions(&regions, dim, &opts);
        let mut v1 = header_versioned(TAG_REGIONS, 1);
        v1.extend_from_slice(&v2[7..v2.len() - 8]);
        assert_eq!(
            decode_regions(&seal(v1)).map(|_| ()),
            Err(PersistError::UnsupportedVersion(1))
        );
    }

    /// Every single-byte flip and every truncation of the dataset and
    /// region artifacts is rejected.
    #[test]
    fn chunked_corruption_and_truncation_detected() {
        let (regions, dim, opts) = sample_regions();
        for bytes in [
            encode_dataset(&sample_dataset()),
            encode_regions(&regions, dim, &opts),
        ] {
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xFF;
                assert!(decode_dataset(&bad).is_err(), "flip at {i} accepted");
                assert!(decode_regions(&bad).is_err(), "flip at {i} accepted");
            }
            for cut in 0..bytes.len() {
                assert!(decode_dataset(&bytes[..cut]).is_err(), "{cut}-byte prefix");
                assert!(decode_regions(&bytes[..cut]).is_err(), "{cut}-byte prefix");
            }
        }
    }

    /// Version 3, the retired chunked framing, is not decoded at all.
    #[test]
    fn chunked_frames_do_not_nest() {
        let v3 = |tag, inner: &[u8]| {
            let mut out = header_versioned(tag, 3);
            out.extend_from_slice(inner);
            seal(out)
        };
        let ds = v3(TAG_DATASET, &encode_dataset(&sample_dataset()));
        assert_eq!(
            decode_dataset(&ds),
            Err(PersistError::UnsupportedVersion(3))
        );
        let (regions, dim, opts) = sample_regions();
        let regions = v3(TAG_REGIONS, &encode_regions(&regions, dim, &opts));
        assert!(matches!(
            decode_regions(&regions),
            Err(PersistError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn future_version_rejected() {
        let ivs = AngularIntervals::new();
        let mut bytes = encode_intervals(&ivs);
        // Bump the version field (offset 4..6), re-seal.
        let body_len = bytes.len() - 8;
        bytes.truncate(body_len);
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        let sum = super::fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_intervals(&bytes),
            Err(PersistError::UnsupportedVersion(0xFFFF))
        );
    }
}
