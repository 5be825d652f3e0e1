//! Sorted sparse vectors.
//!
//! The feature representation shared between the text pipeline and the
//! learning substrate: a list of `(feature index, value)` pairs, strictly
//! sorted by index, with no explicit zeros stored.

use serde::{Deserialize, Serialize};

/// A sparse feature vector with entries sorted by feature index.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from possibly unsorted, possibly duplicated pairs;
    /// duplicate indices are summed and zero values dropped.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == i => last.1 += v,
                _ => entries.push((i, v)),
            }
        }
        entries.retain(|&(_, v)| v != 0.0);
        SparseVector { entries }
    }

    /// The occurrence count of every index in `indices`: the vector
    /// [`SparseVector::from_pairs`] builds from `(index, 1.0)` pairs,
    /// sized to its distinct indices.
    pub fn from_occurrences(mut indices: Vec<u32>) -> Self {
        indices.sort_unstable();
        let distinct = indices.windows(2).filter(|w| w[0] != w[1]).count();
        let mut entries: Vec<(u32, f64)> =
            Vec::with_capacity(distinct + usize::from(!indices.is_empty()));
        for i in indices {
            match entries.last_mut() {
                Some(last) if last.0 == i => last.1 += 1.0,
                _ => entries.push((i, 1.0)),
            }
        }
        SparseVector { entries }
    }

    /// Builds from a dense slice, skipping zeros.
    pub fn from_dense(dense: &[f64]) -> Self {
        SparseVector {
            entries: dense
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v))
                .collect(),
        }
    }

    /// Converts to a dense vector of length `dim`. Entries at or beyond
    /// `dim` are ignored.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut dense = vec![0.0; dim];
        for &(i, v) in &self.entries {
            if (i as usize) < dim {
                dense[i as usize] = v;
            }
        }
        dense
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value at feature `index` (0.0 when absent).
    pub fn get(&self, index: u32) -> f64 {
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Iterates `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The largest feature index present, if any.
    pub fn max_index(&self) -> Option<u32> {
        self.entries.last().map(|&(i, _)| i)
    }

    /// Dot product with another sparse vector (linear merge).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut a, mut b) = (self.entries.iter(), other.entries.iter());
        let (mut x, mut y) = (a.next(), b.next());
        let mut sum = 0.0;
        while let (Some(&(i, vi)), Some(&(j, vj))) = (x, y) {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => x = a.next(),
                std::cmp::Ordering::Greater => y = b.next(),
                std::cmp::Ordering::Equal => {
                    sum += vi * vj;
                    x = a.next();
                    y = b.next();
                }
            }
        }
        sum
    }

    /// Dot product against a dense weight vector. Indices beyond the dense
    /// length contribute nothing.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.entries
            .iter()
            .filter(|&&(i, _)| (i as usize) < dense.len())
            .map(|&(i, v)| v * dense[i as usize])
            .sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt()
    }

    /// Sum of values (L1 mass for non-negative vectors).
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// Scales every entry in place; scaling by zero empties the vector.
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            self.entries.clear();
        } else {
            for (_, v) in &mut self.entries {
                *v *= factor;
            }
        }
    }

    /// Returns a copy normalized to unit Euclidean length (unchanged if the
    /// vector is all zeros).
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.scale(1.0 / n);
        out
    }

    /// `self + other`, element-wise.
    pub fn add(&self, other: &SparseVector) -> SparseVector {
        let mut pairs = Vec::with_capacity(self.nnz() + other.nnz());
        pairs.extend(self.iter());
        pairs.extend(other.iter());
        SparseVector::from_pairs(pairs)
    }

    /// Squared Euclidean distance to another sparse vector.
    pub fn distance_sq(&self, other: &SparseVector) -> f64 {
        let (mut a, mut b) = (self.entries.iter(), other.entries.iter());
        let (mut x, mut y) = (a.next(), b.next());
        let mut sum = 0.0;
        loop {
            match (x, y) {
                (Some(&(i, vi)), Some(&(j, vj))) => match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        sum += vi * vi;
                        x = a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        sum += vj * vj;
                        y = b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        let d = vi - vj;
                        sum += d * d;
                        x = a.next();
                        y = b.next();
                    }
                },
                (Some(&(_, vi)), None) => {
                    sum += vi * vi;
                    x = a.next();
                }
                (None, Some(&(_, vj))) => {
                    sum += vj * vj;
                    y = b.next();
                }
                (None, None) => break,
            }
        }
        sum
    }
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<I: IntoIterator<Item = (u32, f64)>>(iter: I) -> Self {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let s = v(&[(3, 1.0), (1, 2.0), (3, 2.0), (5, 0.0)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(1, 2.0), (3, 3.0)]);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn from_occurrences_allocates_its_distinct_indices_only() {
        let counts = SparseVector::from_occurrences(vec![7, 2, 7, 0, 2, 7, 9]);
        assert_eq!(
            counts.iter().collect::<Vec<_>>(),
            vec![(0, 1.0), (2, 2.0), (7, 3.0), (9, 1.0)]
        );
        assert_eq!(counts.entries.capacity(), 4);
        assert!(SparseVector::from_occurrences(Vec::new()).is_empty());
    }

    #[test]
    fn get_present_and_absent() {
        let s = v(&[(2, 5.0)]);
        assert_eq!(s.get(2), 5.0);
        assert_eq!(s.get(3), 0.0);
    }

    #[test]
    fn dot_products() {
        let a = v(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(1, 1.0), (2, 4.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0 * 1.0);
        assert_eq!(a.dot(&SparseVector::new()), 0.0);
        assert_eq!(a.dot_dense(&[1.0, 1.0, 1.0, 1.0, 1.0]), 6.0);
        // Dense shorter than max index: extra entries ignored.
        assert_eq!(a.dot_dense(&[1.0, 1.0, 1.0]), 3.0);
    }

    #[test]
    fn norm_and_normalized() {
        let s = v(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(s.norm(), 5.0);
        let n = s.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(SparseVector::new().normalized().is_empty());
    }

    #[test]
    fn add_merges() {
        let a = v(&[(0, 1.0), (2, 1.0)]);
        let b = v(&[(2, 2.0), (3, 1.0)]);
        assert_eq!(
            a.add(&b).iter().collect::<Vec<_>>(),
            vec![(0, 1.0), (2, 3.0), (3, 1.0)]
        );
    }

    #[test]
    fn add_cancellation_drops_entry() {
        let a = v(&[(1, 2.0)]);
        let b = v(&[(1, -2.0)]);
        assert!(a.add(&b).is_empty());
    }

    #[test]
    fn dense_round_trip() {
        let dense = [0.0, 1.5, 0.0, -2.0];
        let s = SparseVector::from_dense(&dense);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(4), dense);
        // Truncating conversion ignores out-of-range entries.
        assert_eq!(s.to_dense(2), vec![0.0, 1.5]);
    }

    #[test]
    fn distance() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(1, 2.0), (2, 2.0)]);
        assert_eq!(a.distance_sq(&b), 1.0 + 4.0);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn scale_by_zero_empties() {
        let mut s = v(&[(0, 1.0)]);
        s.scale(0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn max_index_and_sum() {
        let s = v(&[(7, 2.0), (3, 1.0)]);
        assert_eq!(s.max_index(), Some(7));
        assert_eq!(s.sum(), 3.0);
        assert_eq!(SparseVector::new().max_index(), None);
    }
}
