//! The columnar dataset container shared by all fairrank crates.

use std::fmt;

use crate::kernels::{self, AlignedCol};

/// A categorical *type attribute* (protected feature): one small-cardinality
/// group id per item, with human-readable labels (paper §2, fairness model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeAttribute {
    /// Attribute name, e.g. `"race"`.
    pub name: String,
    /// Group labels; `values[i]` indexes into this.
    pub labels: Vec<String>,
    /// Group id per item, `values.len() == n`.
    pub values: Vec<u32>,
}

impl TypeAttribute {
    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.labels.len()
    }

    /// Count of items per group.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.labels.len()];
        for &v in &self.values {
            counts[v as usize] += 1;
        }
        counts
    }

    /// Proportion of each group in the dataset.
    #[must_use]
    pub fn group_proportions(&self) -> Vec<f64> {
        let n = self.values.len().max(1) as f64;
        self.group_sizes().iter().map(|&c| c as f64 / n).collect()
    }
}

/// Errors constructing or transforming datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A row has the wrong number of attributes.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Expected width.
        expected: usize,
        /// Found width.
        found: usize,
    },
    /// A scoring value is NaN or infinite.
    NonFiniteValue {
        /// Item index.
        row: usize,
        /// Attribute index.
        attr: usize,
    },
    /// A type attribute has the wrong length or an out-of-range group id.
    MalformedTypeAttribute(String),
    /// Requested attribute name does not exist.
    UnknownAttribute(String),
    /// The dataset has no items.
    Empty,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::RaggedRow {
                row,
                expected,
                found,
            } => {
                write!(f, "row {row} has {found} attributes, expected {expected}")
            }
            DatasetError::NonFiniteValue { row, attr } => {
                write!(f, "non-finite scoring value at row {row}, attribute {attr}")
            }
            DatasetError::MalformedTypeAttribute(name) => {
                write!(f, "malformed type attribute {name:?}")
            }
            DatasetError::UnknownAttribute(name) => write!(f, "unknown attribute {name:?}"),
            DatasetError::Empty => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// An `n × d` dataset of scalar scoring attributes plus categorical type
/// attributes (paper §2: data model).
///
/// Scoring attributes are stored **columnar** (struct-of-arrays): one
/// 64-byte-aligned [`AlignedCol`] per attribute, so whole-dataset
/// scoring is `d` streaming multiply-accumulate passes the compiler
/// vectorizes (see [`crate::kernels`]). Row access is a gather
/// ([`Dataset::row`] / [`Dataset::row_into`] / [`Dataset::value`]);
/// every ranking path consumes columns through the kernels instead.
/// After [`Dataset::normalize_min_max`], all values are in `[0, 1]` and
/// larger is better, matching the paper's preliminaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    attr_names: Vec<String>,
    /// `d` columns of `n` values each.
    cols: Vec<AlignedCol>,
    n: usize,
    d: usize,
    types: Vec<TypeAttribute>,
}

impl Dataset {
    /// Build from rows of scoring attributes.
    ///
    /// # Errors
    /// On ragged rows, non-finite values or an empty input.
    pub fn from_rows(attr_names: Vec<String>, rows: &[Vec<f64>]) -> Result<Dataset, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        let d = attr_names.len();
        let mut cols: Vec<AlignedCol> = (0..d)
            .map(|_| AlignedCol::with_capacity(rows.len()))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != d {
                return Err(DatasetError::RaggedRow {
                    row: i,
                    expected: d,
                    found: row.len(),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DatasetError::NonFiniteValue { row: i, attr: j });
                }
                cols[j].push(v);
            }
        }
        Ok(Dataset {
            attr_names,
            n: rows.len(),
            d,
            cols,
            types: Vec::new(),
        })
    }

    /// Attach a type attribute.
    ///
    /// # Errors
    /// If `values.len() != n` or a group id exceeds the label count.
    pub fn add_type_attribute(
        &mut self,
        name: impl Into<String>,
        labels: Vec<String>,
        values: Vec<u32>,
    ) -> Result<(), DatasetError> {
        let name = name.into();
        if values.len() != self.n || values.iter().any(|&v| v as usize >= labels.len()) {
            return Err(DatasetError::MalformedTypeAttribute(name));
        }
        self.types.push(TypeAttribute {
            name,
            labels,
            values,
        });
        Ok(())
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of scoring attributes.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Scoring attribute names.
    #[must_use]
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// One scoring value: attribute `j` of item `i`.
    ///
    /// # Panics
    /// If `i >= len()` or `j >= dim()`.
    #[inline]
    #[must_use]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.cols[j].as_slice()[i]
    }

    /// The full column of scoring attribute `j`, as a contiguous
    /// 64-byte-aligned slice of `len()` values — the input the
    /// [`crate::kernels`] primitives stream over.
    ///
    /// # Panics
    /// If `j >= dim()`.
    #[inline]
    #[must_use]
    pub fn column(&self, j: usize) -> &[f64] {
        self.cols[j].as_slice()
    }

    /// The scoring vector of one item, gathered from the columns into a
    /// fresh `Vec`. For repeated row access, [`Dataset::row_into`]
    /// reuses a caller buffer.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.d);
        self.row_into(i, &mut out);
        out
    }

    /// Gather item `i`'s scoring vector into `out` (cleared and
    /// refilled).
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn row_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c.as_slice()[i]));
    }

    /// The whole scoring matrix gathered into a row-major flat buffer
    /// (`n * d` values, row `i` at `i*d..(i+1)*d`) — the pre-columnar
    /// layout. Used by the `O(n²)` pairwise hyperplane loops (which are
    /// row-shaped by nature) and the persist codec's legacy arm.
    #[must_use]
    pub fn to_row_major(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * self.d);
        for i in 0..self.n {
            out.extend(self.cols.iter().map(|c| c.as_slice()[i]));
        }
        out
    }

    /// All type attributes.
    #[must_use]
    pub fn type_attributes(&self) -> &[TypeAttribute] {
        &self.types
    }

    /// Look up a type attribute by name.
    #[must_use]
    pub fn type_attribute(&self, name: &str) -> Option<&TypeAttribute> {
        self.types.iter().find(|t| t.name == name)
    }

    /// Score of item `i` under weight vector `w` (`f_w(t) = Σ w_j t[j]`).
    ///
    /// The single-item scalar reference: attribute products accumulated
    /// in ascending `j` order from `0.0`, the exact operation sequence
    /// [`crate::kernels::score_all_into`] reproduces per item — so
    /// kernel scores are bit-identical to this, by construction.
    ///
    /// # Panics
    /// If `w.len() != dim()`.
    #[inline]
    #[must_use]
    pub fn score(&self, w: &[f64], i: usize) -> f64 {
        assert_eq!(w.len(), self.d);
        // An explicit fold from `0.0`: `Iterator::sum` for `f64` starts
        // from `-0.0`, which gives `-0.0` where the kernels give `0.0`
        // when every product is `-0.0`.
        self.cols
            .iter()
            .zip(w)
            .fold(0.0, |acc, (c, b)| acc + c.as_slice()[i] * b)
    }

    /// Rank all items by descending score under `w`; ties broken by item id
    /// ascending, so rankings are total orders and reproducible.
    ///
    /// Scores through the kernel/workspace path via a thread-local
    /// [`crate::RankWorkspace`], so the score buffer is reused across
    /// calls — the only allocation is the returned permutation itself.
    #[must_use]
    pub fn rank(&self, w: &[f64]) -> Vec<u32> {
        self.rank_bounded(w, None)
    }

    /// The top-`k` item ids under `w` (`k` clamped to `n`): the exact
    /// `k`-prefix of [`Dataset::rank`], placed via partial selection
    /// (`O(n + k log k)`) instead of a full sort.
    #[must_use]
    pub fn top_k(&self, w: &[f64], k: usize) -> Vec<u32> {
        let mut r = self.rank_bounded(w, Some(k));
        r.truncate(k.min(self.n));
        r
    }

    /// Shared allocation-light ranking entry point: score through the
    /// columnar kernels into a thread-local workspace buffer, then
    /// select/sort into the returned permutation.
    fn rank_bounded(&self, w: &[f64], bound: Option<usize>) -> Vec<u32> {
        let mut out = Vec::new();
        kernels::SCORES.with(|s| {
            let mut scores = s.borrow_mut();
            kernels::score_all_into(self, w, &mut scores);
            kernels::top_k_select_into(&scores, bound, kernels::PrefixOrder::Sorted, &mut out);
        });
        out
    }

    /// Min–max normalize every scoring attribute to `[0, 1]`
    /// (`(v − min)/(max − min)`; constant attributes map to 0). For
    /// attribute indices in `invert`, the direction is flipped
    /// (`(max − v)/(max − min)`) so that *larger normalized values are
    /// always better* — the paper does this for `age`.
    pub fn normalize_min_max(&mut self, invert: &[usize]) {
        for (j, col) in self.cols.iter_mut().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in col.as_slice() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let span = hi - lo;
            let flip = invert.contains(&j);
            for v in col.as_mut_slice() {
                *v = if span <= f64::EPSILON {
                    0.0
                } else if flip {
                    (hi - *v) / span
                } else {
                    (*v - lo) / span
                };
            }
        }
    }

    /// Append one item: its scoring vector plus one group id per type
    /// attribute (in [`Dataset::type_attributes`] order). Returns the new
    /// item's id (`n − 1` after the insert) — existing ids are unchanged.
    ///
    /// # Errors
    /// On wrong scoring arity, non-finite values, wrong `groups` arity, or
    /// a group id outside an attribute's label set.
    pub fn insert_row(&mut self, scores: &[f64], groups: &[u32]) -> Result<u32, DatasetError> {
        if scores.len() != self.d {
            return Err(DatasetError::RaggedRow {
                row: self.n,
                expected: self.d,
                found: scores.len(),
            });
        }
        if let Some(attr) = scores.iter().position(|v| !v.is_finite()) {
            return Err(DatasetError::NonFiniteValue { row: self.n, attr });
        }
        if groups.len() != self.types.len() {
            return Err(DatasetError::MalformedTypeAttribute(format!(
                "insert carries {} group ids for {} type attributes",
                groups.len(),
                self.types.len()
            )));
        }
        for (t, &g) in self.types.iter().zip(groups) {
            if g as usize >= t.labels.len() {
                return Err(DatasetError::MalformedTypeAttribute(t.name.clone()));
            }
        }
        for (col, &v) in self.cols.iter_mut().zip(scores) {
            col.push(v);
        }
        for (t, &g) in self.types.iter_mut().zip(groups) {
            t.values.push(g);
        }
        self.n += 1;
        Ok((self.n - 1) as u32)
    }

    /// Remove item `i`. Items above `i` shift down by one id (the dense
    /// `0..n` id space is an invariant every index relies on); type
    /// attributes stay aligned.
    ///
    /// # Errors
    /// If `i` is out of range, or the removal would empty the dataset
    /// (a [`Dataset`] is never empty).
    pub fn remove_row(&mut self, i: usize) -> Result<(), DatasetError> {
        if i >= self.n {
            return Err(DatasetError::UnknownAttribute(format!("item #{i}")));
        }
        if self.n == 1 {
            return Err(DatasetError::Empty);
        }
        for col in &mut self.cols {
            col.remove(i);
        }
        for t in &mut self.types {
            t.values.remove(i);
        }
        self.n -= 1;
        Ok(())
    }

    /// Replace item `i`'s scoring vector in place (id and group
    /// memberships unchanged).
    ///
    /// # Errors
    /// If `i` is out of range, the arity is wrong, or a value is
    /// non-finite.
    pub fn rescore_row(&mut self, i: usize, scores: &[f64]) -> Result<(), DatasetError> {
        if i >= self.n {
            return Err(DatasetError::UnknownAttribute(format!("item #{i}")));
        }
        if scores.len() != self.d {
            return Err(DatasetError::RaggedRow {
                row: i,
                expected: self.d,
                found: scores.len(),
            });
        }
        if let Some(attr) = scores.iter().position(|v| !v.is_finite()) {
            return Err(DatasetError::NonFiniteValue { row: i, attr });
        }
        for (col, &v) in self.cols.iter_mut().zip(scores) {
            col.as_mut_slice()[i] = v;
        }
        Ok(())
    }

    /// Whether item `i` dominates item `j` (≥ everywhere, > somewhere).
    ///
    /// # Panics
    /// If either index is out of range.
    #[must_use]
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        let mut strict = false;
        for col in &self.cols {
            let (x, y) = (col.as_slice()[i], col.as_slice()[j]);
            if x < y {
                return false;
            }
            if x > y {
                strict = true;
            }
        }
        strict
    }

    /// All unordered pairs `(i, j)`, `i < j`, where neither item dominates
    /// the other — exactly the pairs with an ordering exchange
    /// (paper Algorithm 1 line 4 / Algorithm 4 line 4).
    #[must_use]
    pub fn non_dominating_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in i + 1..self.n {
                if !self.dominates(i, j) && !self.dominates(j, i) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// A new dataset restricted to the first `attrs` scoring attributes by
    /// index, keeping all type attributes. Used to run experiments at
    /// varying `d` over the same items (paper §6.3–6.4).
    ///
    /// # Errors
    /// If any index is out of range or `attrs` is empty.
    pub fn project(&self, attrs: &[usize]) -> Result<Dataset, DatasetError> {
        if attrs.is_empty() {
            return Err(DatasetError::Empty);
        }
        for &a in attrs {
            if a >= self.d {
                return Err(DatasetError::UnknownAttribute(format!("#{a}")));
            }
        }
        // Columnar projection is a column clone — no per-row gather.
        let cols: Vec<AlignedCol> = attrs.iter().map(|&a| self.cols[a].clone()).collect();
        Ok(Dataset {
            attr_names: attrs.iter().map(|&a| self.attr_names[a].clone()).collect(),
            n: self.n,
            d: attrs.len(),
            cols,
            types: self.types.clone(),
        })
    }

    /// Uniform sample without replacement of `m` items (`m` clamped to
    /// `n`), keeping type attributes aligned. The paper's §5.4 large-scale
    /// preprocessing runs on such samples.
    #[must_use]
    pub fn sample<R: rand::Rng>(&self, m: usize, rng: &mut R) -> Dataset {
        use rand::seq::SliceRandom;
        let m = m.min(self.n);
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.shuffle(rng);
        idx.truncate(m);
        idx.sort_unstable(); // stable item order for reproducibility
        self.subset(&idx)
    }

    /// The dataset restricted to the given item indices (in the given
    /// order).
    ///
    /// # Panics
    /// If any index is out of range.
    #[must_use]
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let cols: Vec<AlignedCol> = self
            .cols
            .iter()
            .map(|c| {
                let src = c.as_slice();
                idx.iter().map(|&i| src[i]).collect()
            })
            .collect();
        let types = self
            .types
            .iter()
            .map(|t| TypeAttribute {
                name: t.name.clone(),
                labels: t.labels.clone(),
                values: idx.iter().map(|&i| t.values[i]).collect(),
            })
            .collect();
        Dataset {
            attr_names: self.attr_names.clone(),
            n: idx.len(),
            d: self.d,
            cols,
            types,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        // The paper's Figure 3 dataset.
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
    fn construction_validations() {
        assert_eq!(
            Dataset::from_rows(vec!["a".into()], &[]).unwrap_err(),
            DatasetError::Empty
        );
        assert!(matches!(
            Dataset::from_rows(vec!["a".into(), "b".into()], &[vec![1.0]]).unwrap_err(),
            DatasetError::RaggedRow { .. }
        ));
        assert!(matches!(
            Dataset::from_rows(vec!["a".into()], &[vec![f64::NAN]]).unwrap_err(),
            DatasetError::NonFiniteValue { .. }
        ));
    }

    #[test]
    fn scoring_and_ranking() {
        let ds = toy();
        // Under f = x + y all five items: t1=4.5, t2=4.6, t3=4.21, t4≈4.1, t5≈4.1.
        let r = ds.rank(&[1.0, 1.0]);
        assert_eq!(r[0], 1);
        assert_eq!(r[1], 0);
        assert_eq!(r[2], 2);
        // t4 and t5 tie at 4.1 up to floating-point rounding; both orders
        // of the last two positions are total-order consistent.
        let tail: std::collections::HashSet<u32> = r[3..].iter().copied().collect();
        assert_eq!(tail, [3u32, 4u32].into_iter().collect());
    }

    #[test]
    fn exact_ties_break_by_id() {
        let ds = Dataset::from_rows(
            vec!["x".into(), "y".into()],
            &[vec![1.0, 2.0], vec![2.0, 1.0], vec![1.5, 1.5]],
        )
        .unwrap();
        // All three score exactly 3.0 under f = x + y (binary-exact values).
        assert_eq!(ds.rank(&[1.0, 1.0]), vec![0, 1, 2]);
    }

    #[test]
    fn rank_on_axis_functions() {
        let ds = toy();
        let rx = ds.rank(&[1.0, 0.0]);
        assert_eq!(rx[0], 4, "t5 has the largest x");
        let ry = ds.rank(&[0.0, 1.0]);
        assert_eq!(ry[0], 0, "t1 has the largest y");
    }

    #[test]
    fn top_k_clamps() {
        let ds = toy();
        assert_eq!(ds.top_k(&[1.0, 0.0], 2).len(), 2);
        assert_eq!(ds.top_k(&[1.0, 0.0], 99).len(), 5);
    }

    #[test]
    fn type_attribute_roundtrip() {
        let mut ds = toy();
        ds.add_type_attribute(
            "color",
            vec!["blue".into(), "orange".into()],
            vec![0, 1, 0, 1, 0],
        )
        .unwrap();
        let t = ds.type_attribute("color").unwrap();
        assert_eq!(t.group_count(), 2);
        assert_eq!(t.group_sizes(), vec![3, 2]);
        let props = t.group_proportions();
        assert!((props[0] - 0.6).abs() < 1e-12);
        assert!(ds.type_attribute("nope").is_none());
    }

    #[test]
    fn type_attribute_validation() {
        let mut ds = toy();
        assert!(ds
            .add_type_attribute("bad", vec!["a".into()], vec![0, 0])
            .is_err());
        assert!(ds
            .add_type_attribute("bad2", vec!["a".into()], vec![0, 0, 0, 0, 1])
            .is_err());
    }

    #[test]
    fn normalization_range_and_inversion() {
        let mut ds = Dataset::from_rows(
            vec!["v".into(), "age".into()],
            &[vec![10.0, 20.0], vec![30.0, 60.0], vec![20.0, 40.0]],
        )
        .unwrap();
        ds.normalize_min_max(&[1]);
        // v: min-max normalized ascending; age inverted (youngest → 1).
        assert_eq!(ds.row(0), &[0.0, 1.0]);
        assert_eq!(ds.row(1), &[1.0, 0.0]);
        assert_eq!(ds.row(2), &[0.5, 0.5]);
    }

    #[test]
    fn normalization_constant_column() {
        let mut ds = Dataset::from_rows(vec!["c".into()], &[vec![5.0], vec![5.0]]).unwrap();
        ds.normalize_min_max(&[]);
        assert_eq!(ds.row(0), &[0.0]);
    }

    #[test]
    fn dominance_and_pairs() {
        let ds = toy();
        // In Figure 3 no item dominates another (x ascending, y descending).
        assert_eq!(ds.non_dominating_pairs().len(), 10);
        let ds2 = Dataset::from_rows(
            vec!["x".into(), "y".into()],
            &[vec![2.0, 2.0], vec![1.0, 1.0], vec![0.5, 3.0]],
        )
        .unwrap();
        assert!(ds2.dominates(0, 1));
        // Pairs without dominance: (0,2), (1,2).
        assert_eq!(ds2.non_dominating_pairs(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn projection_selects_attributes() {
        let ds = toy();
        let p = ds.project(&[1]).unwrap();
        assert_eq!(p.dim(), 1);
        assert_eq!(p.row(0), &[3.5]);
        assert_eq!(p.attr_names(), &["y".to_string()]);
        assert!(ds.project(&[]).is_err());
        assert!(ds.project(&[7]).is_err());
    }

    #[test]
    fn sampling_preserves_types_alignment() {
        let mut ds = toy();
        ds.add_type_attribute(
            "color",
            vec!["blue".into(), "orange".into()],
            vec![0, 1, 0, 1, 0],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let s = ds.sample(3, &mut rng);
        assert_eq!(s.len(), 3);
        let t = s.type_attribute("color").unwrap();
        assert_eq!(t.values.len(), 3);
        // Every sampled row matches an original row with the same group.
        for i in 0..3 {
            let row = s.row(i);
            let found = (0..ds.len()).any(|j| {
                ds.row(j) == row && ds.type_attribute("color").unwrap().values[j] == t.values[i]
            });
            assert!(found, "sampled row {row:?} not aligned");
        }
    }

    #[test]
    fn insert_remove_rescore_rows() {
        let mut ds = toy();
        ds.add_type_attribute(
            "color",
            vec!["blue".into(), "orange".into()],
            vec![0, 1, 0, 1, 0],
        )
        .unwrap();
        let id = ds.insert_row(&[2.0, 2.0], &[1]).unwrap();
        assert_eq!(id, 5);
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.row(5), &[2.0, 2.0]);
        assert_eq!(ds.type_attribute("color").unwrap().values[5], 1);

        ds.rescore_row(5, &[0.5, 0.5]).unwrap();
        assert_eq!(ds.row(5), &[0.5, 0.5]);

        // Remove in the middle: ids above shift down, groups stay aligned.
        let before_item3 = ds.row(3).to_vec();
        let before_group3 = ds.type_attribute("color").unwrap().values[3];
        ds.remove_row(2).unwrap();
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.row(2), before_item3.as_slice());
        assert_eq!(ds.type_attribute("color").unwrap().values[2], before_group3);
    }

    #[test]
    fn row_mutation_validation() {
        let mut ds = toy();
        ds.add_type_attribute("c", vec!["a".into()], vec![0; 5])
            .unwrap();
        assert!(matches!(
            ds.insert_row(&[1.0], &[0]),
            Err(DatasetError::RaggedRow { .. })
        ));
        assert!(matches!(
            ds.insert_row(&[1.0, f64::NAN], &[0]),
            Err(DatasetError::NonFiniteValue { .. })
        ));
        assert!(ds.insert_row(&[1.0, 1.0], &[]).is_err());
        assert!(ds.insert_row(&[1.0, 1.0], &[7]).is_err());
        assert!(ds.remove_row(99).is_err());
        assert!(ds.rescore_row(99, &[1.0, 1.0]).is_err());
        assert!(ds.rescore_row(0, &[1.0]).is_err());
        assert!(ds.rescore_row(0, &[f64::INFINITY, 1.0]).is_err());
        // Cannot empty the dataset.
        let mut single =
            Dataset::from_rows(vec!["x".into(), "y".into()], &[vec![1.0, 1.0]]).unwrap();
        assert_eq!(single.remove_row(0), Err(DatasetError::Empty));
    }

    #[test]
    fn sample_larger_than_n_is_full() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ds.sample(100, &mut rng).len(), 5);
    }
}
