use crate::{Architecture, ModelEvaluation};
use muffin_data::Dataset;
use muffin_nn::Mlp;
use muffin_tensor::Matrix;
use std::fmt;

/// A trained, frozen off-the-shelf model.
///
/// Once trained by [`crate::ModelPool::train`] or a
/// [`crate::FairnessMethod`], the model is immutable: Muffin freezes pool
/// members and only ever *reads* their output probabilities (paper
/// component ② — "we will freeze the parameters in the pretrained
/// off-the-shelf models … and train parameters in MLP only").
///
/// # Example
///
/// ```
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(2);
/// let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::shufflenet_v2_x1_0()],
///     &BackboneConfig::fast(),
///     &mut rng,
/// );
/// let model = pool.get(0).expect("one model");
/// let probs = model.predict_proba(split.test.features());
/// assert_eq!(probs.cols(), split.test.num_classes());
/// ```
#[derive(Debug, Clone)]
pub struct FrozenModel {
    name: String,
    architecture: Architecture,
    projection: Matrix,
    mlp: Mlp,
}

muffin_json::impl_json!(struct FrozenModel { name, architecture, projection, mlp });

impl FrozenModel {
    /// Assembles a frozen model (used by the trainers in this crate).
    pub(crate) fn from_parts(
        name: String,
        architecture: Architecture,
        projection: Matrix,
        mlp: Mlp,
    ) -> Self {
        Self { name, architecture, projection, mlp }
    }

    /// Display name. Plain backbones use the architecture name; baseline
    /// retrainings append the method, e.g. `"DenseNet121+D(site)"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The architecture descriptor this model was trained from.
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// Parameter count of the real CNN this model stands in for.
    pub fn reported_params(&self) -> u64 {
        self.architecture.reported_params()
    }

    /// Number of classes the model predicts.
    pub fn num_classes(&self) -> usize {
        self.mlp.spec().output_dim()
    }

    /// Number of raw features the model reads.
    pub(crate) fn feature_dim(&self) -> usize {
        self.projection.rows()
    }

    /// Projects raw features into this architecture's view.
    pub(crate) fn project(&self, features: &Matrix) -> Matrix {
        features.matmul(&self.projection)
    }

    /// Class-probability matrix for each feature row.
    ///
    /// # Panics
    ///
    /// Panics if `features.cols()` differs from the training feature
    /// dimension.
    pub fn predict_proba(&self, features: &Matrix) -> Matrix {
        self.mlp.predict_proba(&self.project(features))
    }

    /// Hard class predictions.
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.mlp.predict(&self.project(features))
    }

    /// Class probabilities and hard predictions from a **single** backbone
    /// forward pass — byte-identical to calling [`FrozenModel::predict_proba`]
    /// and [`FrozenModel::predict`] separately (predictions come from the
    /// logits, so no softmax tie-breaking is involved).
    pub fn outputs(&self, features: &Matrix) -> (Matrix, Vec<usize>) {
        self.mlp.predict_outputs(&self.project(features))
    }

    /// Evaluates accuracy and per-attribute unfairness on `dataset`.
    pub fn evaluate(&self, dataset: &Dataset) -> ModelEvaluation {
        ModelEvaluation::of(&self.predict(dataset.features()), dataset, self.name.clone())
    }

    /// Checks what a decoded model needs before it can predict: the shapes
    /// chain from the projection through every layer as the network's spec
    /// declares, each bias is as long as its layer, and every projection,
    /// weight and bias value is finite. Training guarantees all of it, so
    /// only a file can break it. The error names the field with its index,
    /// e.g. `mlp.layers[0].weight[3][5] = inf`.
    pub(crate) fn check_parameters(&self) -> Result<(), String> {
        finite_matrix("projection", &self.projection)?;
        let mut input = ("projection".to_string(), self.projection.cols());
        for (l, layer) in self.mlp.layers().iter().enumerate() {
            let (weight, bias) = (layer.weight(), layer.bias());
            let field = format!("mlp.layers[{l}]");
            if weight.rows() != input.1 {
                return Err(format!(
                    "{field}.weight has {} rows, but {} has {} columns",
                    weight.rows(),
                    input.0,
                    input.1
                ));
            }
            if bias.len() != weight.cols() {
                return Err(format!(
                    "{field}.bias has {} values, but {field}.weight has {} columns",
                    bias.len(),
                    weight.cols()
                ));
            }
            finite_matrix(&format!("{field}.weight"), weight)?;
            if let Some(c) = bias.iter().position(|v| !v.is_finite()) {
                return Err(format!(
                    "non-finite parameter: {field}.bias[{c}] = {}",
                    bias[c]
                ));
            }
            input = (format!("{field}.weight"), weight.cols());
        }
        let declared = self.mlp.spec().layer_dims();
        let chained: Vec<usize> = std::iter::once(self.projection.cols())
            .chain(self.mlp.layers().iter().map(|layer| layer.out_dim()))
            .collect();
        if declared != chained {
            return Err(format!(
                "mlp.spec declares layer widths {declared:?}, but the layers chain {chained:?}"
            ));
        }
        Ok(())
    }
}

/// Fails on the first non-finite element of `m`, naming it `field[r][c]`.
fn finite_matrix(field: &str, m: &Matrix) -> Result<(), String> {
    for (r, row) in m.iter_rows().enumerate() {
        if let Some(c) = row.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "non-finite parameter: {field}[{r}][{c}] = {}",
                row[c]
            ));
        }
    }
    Ok(())
}

impl fmt::Display for FrozenModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackboneConfig, ModelPool};
    use muffin_data::IsicLike;
    use muffin_tensor::Rng64;

    fn trained() -> (FrozenModel, muffin_data::DatasetSplit) {
        let mut rng = Rng64::seed(42);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        (pool.get(0).expect("one model").clone(), split)
    }

    #[test]
    fn predictions_align_with_probabilities() {
        let (model, split) = trained();
        let probs = model.predict_proba(split.test.features());
        let preds = model.predict(split.test.features());
        assert_eq!(probs.argmax_rows(), preds);
    }

    #[test]
    fn outputs_match_separate_calls_bit_for_bit() {
        let (model, split) = trained();
        let (probs, preds) = model.outputs(split.test.features());
        assert_eq!(preds, model.predict(split.test.features()));
        let separate = model.predict_proba(split.test.features());
        for (x, y) in probs.iter_rows().flatten().zip(separate.iter_rows().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn probabilities_are_distributions() {
        let (model, split) = trained();
        let probs = model.predict_proba(split.test.features());
        for row in probs.iter_rows() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn evaluation_reports_every_attribute() {
        let (model, split) = trained();
        let eval = model.evaluate(&split.test);
        assert_eq!(eval.attributes.len(), split.test.schema().len());
        assert!(eval.accuracy > 1.0 / 8.0, "above chance: {}", eval.accuracy);
    }

    #[test]
    fn name_and_params_come_from_architecture() {
        let (model, _) = trained();
        assert_eq!(model.name(), "ResNet-18");
        assert_eq!(model.reported_params(), 11_689_512);
        assert_eq!(model.num_classes(), 8);
    }
}
