//! A packed, contiguous view of a dense client pool.
//!
//! Federated evaluation (Eq. 2) walks every example of every validation
//! client once per noisy score. Examples own their features as separate
//! `Vec<f64>`s, so a pass that gathers them row by row pays one cache miss per
//! row. A [`PackedSplit`] stores the same pool once as one row-major feature
//! matrix with per-client row ranges; [`crate::FederatedDataset::packed`]
//! builds it on first use and drops it whenever the pool is borrowed mutably.
//!
//! The pack only exists for a pool it can vouch for: a dense-classification
//! dataset whose every example is a dense row of the dataset's input width.
//! Anything else has no pack, and evaluation keeps gathering from the
//! examples, which is where the per-example input errors are reported.

use crate::client::ClientData;
use crate::example::Input;
use std::sync::OnceLock;

/// One client's rows inside a [`PackedSplit`]: `labels.len()` rows of `width`
/// features, row-major and contiguous, in the client's example order.
#[derive(Debug, Clone, Copy)]
pub struct PackedRows<'a> {
    /// `[labels.len() × width]` features.
    pub features: &'a [f64],
    /// Features per row.
    pub width: usize,
    /// One label per row.
    pub labels: &'a [usize],
    /// No label exceeds this (the largest label of the whole pack), so a
    /// model with more classes accepts every row without reading the labels.
    pub max_label: usize,
}

/// Every example of a dense client pool in one row-major matrix.
#[derive(Debug)]
pub struct PackedSplit {
    width: usize,
    features: Vec<f64>,
    labels: Vec<usize>,
    /// Client `k`'s rows are `offsets[k]..offsets[k + 1]` (empty for a client
    /// without examples).
    offsets: Vec<usize>,
    max_label: usize,
}

impl PackedSplit {
    /// Packs `clients`, or returns `None` if any example is not a dense row of
    /// `width` features.
    fn build(clients: &[ClientData], width: usize) -> Option<Self> {
        let rows: usize = clients.iter().map(ClientData::num_examples).sum();
        let mut pack = PackedSplit {
            width,
            features: Vec::with_capacity(rows * width),
            labels: Vec::with_capacity(rows),
            offsets: Vec::with_capacity(clients.len() + 1),
            max_label: 0,
        };
        pack.offsets.push(0);
        for client in clients {
            for example in client.examples() {
                match &example.input {
                    Input::Dense(x) if x.len() == width => pack.features.extend_from_slice(x),
                    _ => return None,
                }
                pack.labels.push(example.label);
                pack.max_label = pack.max_label.max(example.label);
            }
            pack.offsets.push(pack.labels.len());
        }
        Some(pack)
    }

    /// The rows of the client at `index` of the pool the pack was built from.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for that pool.
    pub fn client(&self, index: usize) -> PackedRows<'_> {
        let (start, end) = (self.offsets[index], self.offsets[index + 1]);
        PackedRows {
            features: &self.features[start * self.width..end * self.width],
            width: self.width,
            labels: &self.labels[start..end],
            max_label: self.max_label,
        }
    }
}

/// The lazily built pack of one pool. It is derived data: clones start
/// unbuilt, every two caches compare equal, and it never reaches serde.
#[derive(Debug, Default)]
pub(crate) struct PackCache(OnceLock<Option<PackedSplit>>);

impl PackCache {
    /// The pack of `clients`, built on first use; `None` if the pool cannot
    /// be packed at `width`.
    pub(crate) fn get(&self, clients: &[ClientData], width: usize) -> Option<&PackedSplit> {
        self.0
            .get_or_init(|| PackedSplit::build(clients, width))
            .as_ref()
    }

    pub(crate) fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl Clone for PackCache {
    fn clone(&self) -> Self {
        PackCache::default()
    }
}

impl PartialEq for PackCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::Example;

    fn pool() -> Vec<ClientData> {
        vec![
            ClientData::new(
                0,
                vec![
                    Example::dense(vec![1.0, 2.0], 0),
                    Example::dense(vec![3.0, 4.0], 3),
                ],
            ),
            ClientData::new(1, vec![]),
            ClientData::new(2, vec![Example::dense(vec![5.0, 6.0], 1)]),
        ]
    }

    #[test]
    fn packs_rows_in_client_and_example_order() {
        let pack = PackedSplit::build(&pool(), 2).unwrap();
        let first = pack.client(0);
        assert_eq!((first.max_label, pack.client(2).max_label), (3, 3));
        assert_eq!(first.features, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!((first.width, first.labels), (2, &[0, 3][..]));
        assert!(pack.client(1).labels.is_empty());
        assert!(pack.client(1).features.is_empty());
        assert_eq!(pack.client(2).features, [5.0, 6.0]);
        assert_eq!(pack.client(2).labels, [1]);
    }

    #[test]
    fn refuses_rows_of_the_wrong_kind_or_width() {
        assert!(PackedSplit::build(&pool(), 3).is_none());
        let mut clients = pool();
        clients[2].examples_mut().push(Example::token(1, 0));
        assert!(PackedSplit::build(&clients, 2).is_none());
    }

    #[test]
    fn cache_builds_once_and_clones_unbuilt() {
        let cache = PackCache::default();
        assert!(!cache.is_built());
        assert!(cache.get(&pool(), 2).is_some());
        assert!(cache.is_built());
        assert!(!cache.clone().is_built());
        assert!(cache == PackCache::default());
        // A pool that cannot be packed is remembered as such.
        let refused = PackCache::default();
        assert!(refused.get(&pool(), 3).is_none());
        assert!(refused.is_built());
    }
}
