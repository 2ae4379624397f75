//! Model selection for a dataset: one model family per task family.

use crate::bigram::BigramLm;
use crate::linear::SoftmaxRegression;
use crate::mlp::Mlp;
use crate::model::Model;
use crate::Result;
use feddata::{FederatedDataset, Input, Task};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Architecture recipe used to instantiate a model for a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Softmax regression on dense features.
    Softmax,
    /// One-hidden-layer ReLU MLP with the given hidden width.
    Mlp {
        /// Hidden-layer width.
        hidden_dim: usize,
    },
    /// Bigram language model with the given embedding width.
    Bigram {
        /// Embedding dimensionality.
        embed_dim: usize,
    },
}

impl ModelSpec {
    /// Default architecture for a dataset, mirroring the paper's choices:
    /// a small non-linear classifier for the image family (their 2-layer CNN)
    /// and an embedding next-token model for the text family (their LSTM).
    pub fn for_dataset(dataset: &FederatedDataset) -> Self {
        Self::for_task(dataset.task())
    }

    /// Default architecture for a task family (see
    /// [`for_dataset`](Self::for_dataset)) without needing a materialized
    /// dataset — lazy client populations only carry the task, not the data.
    pub fn for_task(task: Task) -> Self {
        match task {
            Task::DenseClassification => ModelSpec::Mlp { hidden_dim: 32 },
            Task::NextTokenPrediction => ModelSpec::Bigram { embed_dim: 16 },
        }
    }

    /// Instantiates a freshly-initialised model for `dataset`.
    pub fn build(&self, dataset: &FederatedDataset, rng: &mut impl Rng) -> AnyModel {
        self.build_with_dims(dataset.input_dim(), dataset.num_classes(), rng)
    }

    /// Instantiates a freshly-initialised model from raw dimensions:
    /// `input_dim` is the dense feature dimension (vocabulary size for token
    /// inputs) and `num_classes` the number of outputs. This is the
    /// dataset-free path used when training against a lazy client population
    /// whose clients are materialized on demand.
    pub fn build_with_dims(
        &self,
        input_dim: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> AnyModel {
        match *self {
            ModelSpec::Softmax => {
                AnyModel::Softmax(SoftmaxRegression::new(input_dim, num_classes, rng))
            }
            ModelSpec::Mlp { hidden_dim } => {
                AnyModel::Mlp(Mlp::new(input_dim, hidden_dim, num_classes, rng))
            }
            ModelSpec::Bigram { embed_dim } => {
                AnyModel::Bigram(BigramLm::new(num_classes, embed_dim, rng))
            }
        }
    }
}

/// A model of any supported architecture, so that simulation code can work
/// with one concrete type while remaining architecture-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyModel {
    /// Softmax regression.
    Softmax(SoftmaxRegression),
    /// One-hidden-layer MLP.
    Mlp(Mlp),
    /// Bigram language model.
    Bigram(BigramLm),
}

macro_rules! delegate {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyModel::Softmax($m) => $body,
            AnyModel::Mlp($m) => $body,
            AnyModel::Bigram($m) => $body,
        }
    };
}

impl Model for AnyModel {
    fn num_params(&self) -> usize {
        delegate!(self, m => m.num_params())
    }

    fn params(&self) -> Vec<f64> {
        delegate!(self, m => m.params())
    }

    fn set_params(&mut self, params: &[f64]) -> Result<()> {
        delegate!(self, m => m.set_params(params))
    }

    fn num_classes(&self) -> usize {
        delegate!(self, m => m.num_classes())
    }

    fn logits(&self, input: &Input) -> Result<Vec<f64>> {
        delegate!(self, m => m.logits(input))
    }

    fn gradient(&self, examples: &[feddata::Example]) -> Result<Vec<f64>> {
        delegate!(self, m => m.gradient(examples))
    }

    fn params_into(&self, out: &mut Vec<f64>) {
        delegate!(self, m => m.params_into(out))
    }

    fn count_errors(&self, examples: &[feddata::Example]) -> Result<usize> {
        delegate!(self, m => m.count_errors(examples))
    }

    fn count_errors_packed(&self, rows: feddata::PackedRows<'_>) -> Option<usize> {
        delegate!(self, m => m.count_errors_packed(rows))
    }

    fn evaluate(&self, examples: &[feddata::Example]) -> Result<crate::EvalMetrics> {
        delegate!(self, m => m.evaluate(examples))
    }

    fn gradient_batch_into(
        &self,
        examples: &[feddata::Example],
        order: &[usize],
        pool: &mut fedmath::kernel::BufferPool,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        delegate!(self, m => m.gradient_batch_into(examples, order, pool, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddata::{Benchmark, DatasetSpec, Scale};
    use fedmath::rng::rng_for;

    fn dataset(benchmark: Benchmark) -> FederatedDataset {
        DatasetSpec::benchmark(benchmark, Scale::Smoke)
            .generate(0)
            .unwrap()
    }

    #[test]
    fn default_spec_matches_task_family() {
        let image = dataset(Benchmark::Cifar10Like);
        assert_eq!(
            ModelSpec::for_dataset(&image),
            ModelSpec::Mlp { hidden_dim: 32 }
        );
        let text = dataset(Benchmark::RedditLike);
        assert_eq!(
            ModelSpec::for_dataset(&text),
            ModelSpec::Bigram { embed_dim: 16 }
        );
    }

    #[test]
    fn build_produces_models_compatible_with_the_dataset() {
        let mut rng = rng_for(0, 0);
        for &b in &Benchmark::ALL {
            let d = dataset(b);
            let spec = ModelSpec::for_dataset(&d);
            let model = spec.build(&d, &mut rng);
            assert_eq!(model.num_classes(), d.num_classes());
            // The model must evaluate every client's data without error.
            for client in d.clients(feddata::Split::Validation) {
                let metrics = model.evaluate(client.examples()).unwrap();
                assert!((0.0..=1.0).contains(&metrics.error_rate));
            }
        }
    }

    #[test]
    fn softmax_spec_builds_linear_model() {
        let mut rng = rng_for(0, 1);
        let d = dataset(Benchmark::Cifar10Like);
        let model = ModelSpec::Softmax.build(&d, &mut rng);
        assert!(matches!(model, AnyModel::Softmax(_)));
        assert_eq!(
            model.num_params(),
            d.input_dim() * d.num_classes() + d.num_classes()
        );
    }

    #[test]
    fn any_model_delegates_params() {
        let mut rng = rng_for(0, 2);
        let d = dataset(Benchmark::StackOverflowLike);
        let mut model = ModelSpec::Bigram { embed_dim: 8 }.build(&d, &mut rng);
        let p = model.params();
        assert_eq!(p.len(), model.num_params());
        model.set_params(&p).unwrap();
        assert_eq!(model.params(), p);
        assert!(model.set_params(&p[..1]).is_err());
    }

    #[test]
    fn any_model_gradient_shape() {
        let mut rng = rng_for(0, 3);
        let d = dataset(Benchmark::FemnistLike);
        let model = ModelSpec::Mlp { hidden_dim: 8 }.build(&d, &mut rng);
        let client = &d.clients(feddata::Split::Train)[0];
        let grad = model.gradient(client.examples()).unwrap();
        assert_eq!(grad.len(), model.num_params());
    }
}
