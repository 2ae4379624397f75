//! The federated dataset: disjoint training and validation client pools.

use crate::client::ClientData;
use crate::example::Task;
use crate::packed::{PackCache, PackedSplit};
use crate::statistics::DatasetStatistics;
use crate::{DataError, Result};
use serde::{DeError, Deserialize, Serialize, Value};

/// Which client pool an operation refers to.
///
/// Following the paper (§2.1), data is split *by client* into two disjoint
/// pools: `N_tr` training clients and `N_val` validation clients. There is no
/// separate test pool; the full validation pool plays the role of "testing"
/// (§3, Evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Split {
    /// The training client pool (`D_tr`).
    Train,
    /// The validation client pool (`D_val`).
    Validation,
}

impl std::fmt::Display for Split {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Split::Train => f.write_str("train"),
            Split::Validation => f.write_str("validation"),
        }
    }
}

/// A cross-device federated dataset: a task definition plus disjoint pools of
/// training and validation clients, each holding private local examples.
///
/// Each pool also carries a lazily built [`PackedSplit`] (see
/// [`packed`](Self::packed)). It is derived data: equality and serde ignore
/// it, and a clone starts without one.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedDataset {
    name: String,
    task: Task,
    num_classes: usize,
    input_dim: usize,
    train_clients: Vec<ClientData>,
    val_clients: Vec<ClientData>,
    train_pack: PackCache,
    val_pack: PackCache,
}

// Written out because the vendored derive cannot skip a field: the text form
// is the six data fields, exactly what the derive produced before the packs.
impl Serialize for FederatedDataset {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), self.name.to_value()),
            ("task".into(), self.task.to_value()),
            ("num_classes".into(), self.num_classes.to_value()),
            ("input_dim".into(), self.input_dim.to_value()),
            ("train_clients".into(), self.train_clients.to_value()),
            ("val_clients".into(), self.val_clients.to_value()),
        ])
    }
}

impl Deserialize for FederatedDataset {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let Value::Map(entries) = value else {
            return Err(DeError::new("expected a map for struct FederatedDataset"));
        };
        let context = "FederatedDataset";
        Ok(FederatedDataset {
            name: serde::__field(entries, "name", context)?,
            task: serde::__field(entries, "task", context)?,
            num_classes: serde::__field(entries, "num_classes", context)?,
            input_dim: serde::__field(entries, "input_dim", context)?,
            train_clients: serde::__field(entries, "train_clients", context)?,
            val_clients: serde::__field(entries, "val_clients", context)?,
            train_pack: PackCache::default(),
            val_pack: PackCache::default(),
        })
    }
}

impl FederatedDataset {
    /// Creates a dataset from its parts.
    ///
    /// `num_classes` is the number of output classes (or the vocabulary size
    /// for next-token prediction). `input_dim` is the dense feature dimension
    /// for [`Task::DenseClassification`] and the vocabulary size for
    /// [`Task::NextTokenPrediction`].
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if either pool is empty, if
    /// `num_classes < 2`, or if `input_dim == 0`.
    pub fn new(
        name: impl Into<String>,
        task: Task,
        num_classes: usize,
        input_dim: usize,
        train_clients: Vec<ClientData>,
        val_clients: Vec<ClientData>,
    ) -> Result<Self> {
        if train_clients.is_empty() || val_clients.is_empty() {
            return Err(DataError::InvalidSpec {
                message: "both client pools must be non-empty".into(),
            });
        }
        if num_classes < 2 {
            return Err(DataError::InvalidSpec {
                message: format!("need at least 2 classes, got {num_classes}"),
            });
        }
        if input_dim == 0 {
            return Err(DataError::InvalidSpec {
                message: "input dimension must be positive".into(),
            });
        }
        Ok(FederatedDataset {
            name: name.into(),
            task,
            num_classes,
            input_dim,
            train_clients,
            val_clients,
            train_pack: PackCache::default(),
            val_pack: PackCache::default(),
        })
    }

    /// Human-readable dataset name (e.g. `"cifar10-like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Task family of this dataset.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of output classes (vocabulary size for next-token prediction).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Dense feature dimension, or vocabulary size for token inputs.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of clients in the training pool (`N_tr`).
    pub fn num_train_clients(&self) -> usize {
        self.train_clients.len()
    }

    /// Number of clients in the validation pool (`N_val`).
    pub fn num_val_clients(&self) -> usize {
        self.val_clients.len()
    }

    /// Number of clients in the given pool.
    pub fn num_clients(&self, split: Split) -> usize {
        self.clients(split).len()
    }

    /// Borrows the clients of the given pool.
    pub fn clients(&self, split: Split) -> &[ClientData] {
        match split {
            Split::Train => &self.train_clients,
            Split::Validation => &self.val_clients,
        }
    }

    /// Mutably borrows the clients of the given pool. This is the only way
    /// to change a pool in place, and it drops the pool's pack.
    pub fn clients_mut(&mut self, split: Split) -> &mut Vec<ClientData> {
        let (clients, pack) = match split {
            Split::Train => (&mut self.train_clients, &mut self.train_pack),
            Split::Validation => (&mut self.val_clients, &mut self.val_pack),
        };
        *pack = PackCache::default();
        clients
    }

    fn pack_cache(&self, split: Split) -> &PackCache {
        match split {
            Split::Train => &self.train_pack,
            Split::Validation => &self.val_pack,
        }
    }

    /// The given pool as one row-major feature matrix, built on first use
    /// and kept until [`clients_mut`](Self::clients_mut) borrows the pool.
    /// `None` if the pool holds anything but dense rows of
    /// [`input_dim`](Self::input_dim) features (every token dataset): such a
    /// pool is evaluated from its examples, where input errors are reported.
    pub fn packed(&self, split: Split) -> Option<&PackedSplit> {
        self.pack_cache(split)
            .get(self.clients(split), self.input_dim)
    }

    /// Whether [`packed`](Self::packed) has been asked for this pool since it
    /// last changed (test support: the training pool is never packed).
    #[doc(hidden)]
    pub fn is_packed(&self, split: Split) -> bool {
        self.pack_cache(split).is_built()
    }

    /// Borrows one client by index.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ClientOutOfRange`] if `index` is out of range.
    pub fn client(&self, split: Split, index: usize) -> Result<&ClientData> {
        let pool = self.clients(split);
        pool.get(index).ok_or(DataError::ClientOutOfRange {
            index,
            len: pool.len(),
        })
    }

    /// Summary statistics in the format of Table 1/2 of the paper.
    pub fn statistics(&self) -> DatasetStatistics {
        DatasetStatistics::from_dataset(self)
    }

    /// Global label histogram over a pool (length `num_classes`).
    pub fn label_histogram(&self, split: Split) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for c in self.clients(split) {
            for (i, count) in c.label_histogram(self.num_classes).into_iter().enumerate() {
                hist[i] += count;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::Example;

    fn tiny_dataset() -> FederatedDataset {
        let train = vec![
            ClientData::new(0, vec![Example::dense(vec![0.0, 0.0], 0); 4]),
            ClientData::new(1, vec![Example::dense(vec![1.0, 1.0], 1); 6]),
        ];
        let val = vec![
            ClientData::new(0, vec![Example::dense(vec![0.5, 0.5], 0); 2]),
            ClientData::new(1, vec![Example::dense(vec![0.2, 0.8], 1); 3]),
            ClientData::new(2, vec![Example::dense(vec![0.9, 0.1], 1); 5]),
        ];
        FederatedDataset::new("tiny", Task::DenseClassification, 2, 2, train, val).unwrap()
    }

    #[test]
    fn constructor_validation() {
        let c = ClientData::new(0, vec![Example::dense(vec![0.0], 0)]);
        assert!(FederatedDataset::new(
            "x",
            Task::DenseClassification,
            2,
            1,
            vec![],
            vec![c.clone()]
        )
        .is_err());
        assert!(FederatedDataset::new(
            "x",
            Task::DenseClassification,
            2,
            1,
            vec![c.clone()],
            vec![]
        )
        .is_err());
        assert!(FederatedDataset::new(
            "x",
            Task::DenseClassification,
            1,
            1,
            vec![c.clone()],
            vec![c.clone()]
        )
        .is_err());
        assert!(FederatedDataset::new(
            "x",
            Task::DenseClassification,
            2,
            0,
            vec![c.clone()],
            vec![c.clone()]
        )
        .is_err());
        assert!(FederatedDataset::new(
            "x",
            Task::DenseClassification,
            2,
            1,
            vec![c.clone()],
            vec![c]
        )
        .is_ok());
    }

    #[test]
    fn pool_accessors() {
        let d = tiny_dataset();
        assert_eq!(d.name(), "tiny");
        assert_eq!(d.task(), Task::DenseClassification);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.input_dim(), 2);
        assert_eq!(d.num_train_clients(), 2);
        assert_eq!(d.num_val_clients(), 3);
        assert_eq!(d.num_clients(Split::Train), 2);
        for split in [Split::Train, Split::Validation] {
            let examples: usize = d.clients(split).iter().map(|c| c.num_examples()).sum();
            assert_eq!(examples, 10);
        }
    }

    #[test]
    fn client_lookup_and_errors() {
        let d = tiny_dataset();
        assert_eq!(d.client(Split::Validation, 2).unwrap().num_examples(), 5);
        assert!(matches!(
            d.client(Split::Validation, 3),
            Err(DataError::ClientOutOfRange { index: 3, len: 3 })
        ));
    }

    #[test]
    fn label_histogram_sums_to_total() {
        let d = tiny_dataset();
        let hist = d.label_histogram(Split::Validation);
        assert_eq!(hist.iter().sum::<usize>(), 10);
        assert_eq!(hist, vec![2, 8]);
    }

    #[test]
    fn clients_mut_allows_repartition() {
        let mut d = tiny_dataset();
        d.clients_mut(Split::Validation).pop();
        assert_eq!(d.num_val_clients(), 2);
    }

    #[test]
    fn pack_is_built_on_demand_and_dropped_by_clients_mut() {
        let mut d = tiny_dataset();
        assert!(!d.is_packed(Split::Validation));
        let pack = d.packed(Split::Validation).unwrap();
        assert_eq!(pack.client(2).labels, [1; 5]);
        assert_eq!(pack.client(1).features, [0.2, 0.8].repeat(3));
        assert!(d.is_packed(Split::Validation));
        assert!(!d.is_packed(Split::Train));
        // Editing one example through the only mutable path drops the pack;
        // the next one sees the edit.
        d.clients_mut(Split::Validation)[1].examples_mut()[0] = Example::dense(vec![7.0, 7.0], 0);
        assert!(!d.is_packed(Split::Validation));
        let pack = d.packed(Split::Validation).unwrap();
        assert_eq!(pack.client(1).features[..2], [7.0, 7.0]);
        assert_eq!(pack.client(1).labels, [0, 1, 1]);
        // A row the pack cannot vouch for leaves the pool without one.
        d.clients_mut(Split::Validation)[0]
            .examples_mut()
            .push(Example::token(0, 0));
        assert!(d.packed(Split::Validation).is_none());
        *d.clients_mut(Split::Validation) = tiny_dataset().val_clients;
        assert!(d.packed(Split::Validation).is_some());
    }

    #[test]
    fn pack_is_invisible_to_equality_and_serde() {
        let packed = tiny_dataset();
        packed.packed(Split::Validation).unwrap();
        assert_eq!(packed, tiny_dataset());
        assert!(!packed.clone().is_packed(Split::Validation));
        let value = packed.to_value();
        let Value::Map(entries) = &value else {
            panic!("a dataset serializes as a map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "name",
                "task",
                "num_classes",
                "input_dim",
                "train_clients",
                "val_clients"
            ]
        );
        let back = FederatedDataset::from_value(&value).unwrap();
        assert_eq!(back, packed);
        assert!(!back.is_packed(Split::Validation));
        assert!(FederatedDataset::from_value(&Value::Null).is_err());
    }

    #[test]
    fn split_display() {
        assert_eq!(Split::Train.to_string(), "train");
        assert_eq!(Split::Validation.to_string(), "validation");
    }
}
