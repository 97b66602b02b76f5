//! Regression datasets with named features.

use crate::MlError;

/// A dense regression dataset: `n` rows × `d` named features plus a target.
///
/// Rows are stored row-major so tree training can slice features cheaply.
///
/// # Example
///
/// ```
/// use napel_ml::dataset::Dataset;
///
/// let mut b = Dataset::builder(vec!["ipc_hint".into(), "misses".into()]);
/// b.push_row(vec![0.5, 100.0], 0.42)?;
/// b.push_row(vec![0.9, 10.0], 0.88)?;
/// let d = b.build()?;
/// assert_eq!(d.len(), 2);
/// assert_eq!(d.num_features(), 2);
/// assert_eq!(d.feature_names()[1], "misses");
/// # Ok::<(), napel_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<String>,
    x: Vec<f64>,
    y: Vec<f64>,
    d: usize,
}

impl Dataset {
    /// Starts building a dataset with the given feature names.
    pub fn builder(features: Vec<String>) -> DatasetBuilder {
        DatasetBuilder {
            inner: Dataset {
                d: features.len(),
                features,
                x: Vec::new(),
                y: Vec::new(),
            },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per row.
    pub fn num_features(&self) -> usize {
        self.d
    }

    /// Feature names, in column order.
    pub fn feature_names(&self) -> &[String] {
        &self.features
    }

    /// Feature vector of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.d..(i + 1) * self.d]
    }

    /// Target of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn target(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// A new dataset containing the given rows (duplicates allowed, as in
    /// bootstrap resampling).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut x = Vec::with_capacity(indices.len() * self.d);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            x.extend_from_slice(self.row(i));
            y.push(self.y[i]);
        }
        Dataset {
            features: self.features.clone(),
            x,
            y,
            d: self.d,
        }
    }

    /// Mean of the targets.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn target_mean(&self) -> f64 {
        assert!(!self.is_empty(), "target_mean of empty dataset");
        self.y.iter().sum::<f64>() / self.y.len() as f64
    }

    /// Minimum and maximum target values.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn target_range(&self) -> (f64, f64) {
        assert!(!self.is_empty(), "target_range of empty dataset");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.y {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Per-feature (mean, standard deviation) over all rows, with std floored
    /// at a tiny epsilon so constant features stay usable.
    pub fn feature_moments(&self) -> Vec<(f64, f64)> {
        let n = self.len().max(1) as f64;
        let mut out = Vec::with_capacity(self.d);
        for j in 0..self.d {
            let mean = (0..self.len()).map(|i| self.row(i)[j]).sum::<f64>() / n;
            let var = (0..self.len())
                .map(|i| (self.row(i)[j] - mean).powi(2))
                .sum::<f64>()
                / n;
            out.push((mean, var.sqrt().max(1e-12)));
        }
        out
    }
}

/// Incremental builder returned by [`Dataset::builder`].
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    inner: Dataset,
}

impl DatasetBuilder {
    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureMismatch`] if `features.len()` differs from
    /// the declared feature count, and [`MlError::NonFiniteValue`] if any
    /// value is NaN or infinite.
    pub fn push_row(&mut self, features: Vec<f64>, target: f64) -> Result<&mut Self, MlError> {
        if features.len() != self.inner.d {
            return Err(MlError::FeatureMismatch {
                expected: self.inner.d,
                got: features.len(),
            });
        }
        if !target.is_finite() || features.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteValue {
                row: self.inner.len(),
            });
        }
        self.inner.x.extend_from_slice(&features);
        self.inner.y.push(target);
        Ok(self)
    }

    /// Number of rows accumulated so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no rows have been added yet.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Finishes the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] if no rows were added.
    pub fn build(self) -> Result<Dataset, MlError> {
        if self.inner.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut b = Dataset::builder(vec!["a".into(), "b".into()]);
        b.push_row(vec![1.0, 10.0], 100.0).unwrap();
        b.push_row(vec![2.0, 20.0], 200.0).unwrap();
        b.push_row(vec![3.0, 30.0], 300.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rows_and_targets_align() {
        let d = sample();
        assert_eq!(d.row(1), &[2.0, 20.0]);
        assert_eq!(d.target(1), 200.0);
        assert_eq!(d.targets(), &[100.0, 200.0, 300.0]);
    }

    #[test]
    fn mismatched_row_rejected() {
        let mut b = Dataset::builder(vec!["a".into()]);
        let err = b.push_row(vec![1.0, 2.0], 0.0).unwrap_err();
        assert_eq!(
            err,
            MlError::FeatureMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn non_finite_rejected() {
        let mut b = Dataset::builder(vec!["a".into()]);
        assert_eq!(
            b.push_row(vec![f64::NAN], 0.0).unwrap_err(),
            MlError::NonFiniteValue { row: 0 }
        );
        assert_eq!(
            b.push_row(vec![1.0], f64::INFINITY).unwrap_err(),
            MlError::NonFiniteValue { row: 0 }
        );
    }

    #[test]
    fn empty_build_rejected() {
        let b = Dataset::builder(vec!["a".into()]);
        assert_eq!(b.build().unwrap_err(), MlError::EmptyDataset);
    }

    #[test]
    fn subset_allows_duplicates() {
        let d = sample();
        let s = d.subset(&[2, 2, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.target(0), 300.0);
        assert_eq!(s.target(1), 300.0);
        assert_eq!(s.target(2), 100.0);
    }

    #[test]
    fn moments_and_range() {
        let d = sample();
        let (lo, hi) = d.target_range();
        assert_eq!((lo, hi), (100.0, 300.0));
        assert!((d.target_mean() - 200.0).abs() < 1e-12);
        let m = d.feature_moments();
        assert!((m[0].0 - 2.0).abs() < 1e-12);
        assert!(m[0].1 > 0.0);
    }
}
