//! Model-pool persistence.
//!
//! Training a full pool is the most expensive step of every experiment, so
//! pools can be serialised to JSON and reloaded — the frozen models carry
//! their projections and trained MLP weights verbatim.

use crate::ModelPool;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// Error raised when saving or loading a model pool.
#[derive(Debug)]
pub enum PoolIoError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file contents are not a valid serialised pool.
    Parse(String),
}

impl fmt::Display for PoolIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolIoError::Io(e) => write!(f, "pool io failed: {e}"),
            PoolIoError::Parse(msg) => write!(f, "pool parse failed: {msg}"),
        }
    }
}

impl Error for PoolIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PoolIoError::Io(e) => Some(e),
            PoolIoError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for PoolIoError {
    fn from(e: std::io::Error) -> Self {
        PoolIoError::Io(e)
    }
}

impl ModelPool {
    /// Serialises the pool (architectures, projections, trained weights)
    /// to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`PoolIoError::Io`] if the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), PoolIoError> {
        let json = muffin_json::to_string(self);
        fs::write(path, json)?;
        Ok(())
    }

    /// Loads a pool previously written by [`ModelPool::save_json`].
    ///
    /// Every model's shapes must chain from its projection through its
    /// layers, and every projection, weight and bias value must be finite.
    ///
    /// # Errors
    ///
    /// Returns [`PoolIoError::Io`] if the file cannot be read and
    /// [`PoolIoError::Parse`] if it is not a valid pool; both name the
    /// file. A broken model is
    /// named with the file, its index and name, and the field with its
    /// index (e.g. `mlp.layers[0].weight[3][5] = inf`).
    pub fn load_json(path: impl AsRef<Path>) -> Result<ModelPool, PoolIoError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path).map_err(|e| {
            PoolIoError::Io(std::io::Error::new(
                e.kind(),
                format!("{}: {e}", path.display()),
            ))
        })?;
        let pool: ModelPool = muffin_json::from_str(&text)
            .map_err(|e| PoolIoError::Parse(format!("{}: {e}", path.display())))?;
        for (i, model) in pool.iter().enumerate() {
            model.check_parameters().map_err(|msg| {
                PoolIoError::Parse(format!(
                    "{}: models[{i}] ({}): {msg}",
                    path.display(),
                    model.name()
                ))
            })?;
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, BackboneConfig, FrozenModel, ModelPool};
    use muffin_data::IsicLike;
    use muffin_json::Json;
    use muffin_nn::{Mlp, MlpSpec};
    use muffin_tensor::{Init, Matrix, Rng64};

    /// The entry `key` of a JSON object.
    fn field<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        match json {
            Json::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("expected an object, found {}", other.kind()),
        }
    }

    /// The elements of a JSON array.
    fn items(json: &mut Json) -> &mut Vec<Json> {
        match json {
            Json::Arr(items) => items,
            other => panic!("expected an array, found {}", other.kind()),
        }
    }

    /// Layer `l` of the first model of a pool's JSON.
    fn layer(json: &mut Json, l: usize) -> &mut Json {
        let model = &mut items(field(json, "models"))[0];
        &mut items(field(field(model, "mlp"), "layers"))[l]
    }

    /// Saves an untrained one-model ResNet-18 pool (20 features, 8 classes)
    /// as `name`, applies `edit` to its JSON and loads it back, returning
    /// the parse error's message. The writer spells an infinity as `null`,
    /// so the string `"1e999"` is written as the bare number.
    fn load_edited(name: &str, edit: impl FnOnce(&mut Json)) -> String {
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let mut rng = Rng64::seed(3);
        let arch = Architecture::resnet18();
        let projection = Matrix::random(20, arch.projection_dim(), Init::XavierUniform, &mut rng);
        let mlp = Mlp::new(
            &MlpSpec::new(arch.projection_dim(), arch.hidden(), 8),
            &mut rng,
        );
        let model = FrozenModel::from_parts("ResNet-18".into(), arch, projection, mlp);
        let mut json = muffin_json::parse(&muffin_json::to_string(&ModelPool::new(vec![model])))
            .expect("valid json");
        edit(&mut json);
        let text = muffin_json::to_string(&json).replace("\"1e999\"", "1e999");
        std::fs::write(&path, text).expect("write");
        let err = ModelPool::load_json(&path).expect_err("the edit breaks the pool");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PoolIoError::Parse(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()),
            "file not named: {msg}"
        );
        assert!(
            msg.contains("models[0] (ResNet-18)"),
            "model not named: {msg}"
        );
        msg
    }

    #[test]
    fn an_infinite_weight_is_rejected_by_layer_row_and_column() {
        let msg = load_edited("inf_weight.json", |json| {
            let weight = field(layer(json, 0), "weight");
            items(field(weight, "data"))[64 + 2] = Json::Str("1e999".into());
        });
        assert!(msg.contains("mlp.layers[0].weight[1][2] = inf"), "{msg}");
    }

    #[test]
    fn null_projection_and_bias_values_are_rejected_by_index() {
        let msg = load_edited("null_projection.json", |json| {
            let model = &mut items(field(json, "models"))[0];
            items(field(field(model, "projection"), "data"))[16 + 3] = Json::Null;
        });
        assert!(msg.contains("projection[1][3] = NaN"), "{msg}");
        let msg = load_edited("null_bias.json", |json| {
            items(field(layer(json, 2), "bias"))[5] = Json::Null;
        });
        assert!(msg.contains("mlp.layers[2].bias[5] = NaN"), "{msg}");
    }

    #[test]
    fn a_weight_one_row_short_is_rejected() {
        let msg = load_edited("short_weight.json", |json| {
            let weight = field(layer(json, 1), "weight");
            *field(weight, "rows") = Json::Int(63);
            items(field(weight, "data")).truncate(63 * 32);
        });
        assert!(
            msg.contains(
                "mlp.layers[1].weight has 63 rows, but mlp.layers[0].weight has 64 columns"
            ),
            "{msg}"
        );
    }

    #[test]
    fn a_bias_one_short_is_rejected() {
        let msg = load_edited("short_bias.json", |json| {
            items(field(layer(json, 0), "bias")).pop();
        });
        assert!(
            msg.contains(
                "mlp.layers[0].bias has 63 values, but mlp.layers[0].weight has 64 columns"
            ),
            "{msg}"
        );
    }

    #[test]
    fn layers_that_disagree_with_the_spec_are_rejected() {
        let msg = load_edited("spec_classes.json", |json| {
            let model = &mut items(field(json, "models"))[0];
            *field(field(field(model, "mlp"), "spec"), "output_dim") = Json::Int(9);
        });
        assert!(
            msg.contains("mlp.spec declares layer widths [16, 64, 32, 9], but the layers chain [16, 64, 32, 8]"),
            "{msg}"
        );
        let msg = load_edited("no_layers.json", |json| {
            let model = &mut items(field(json, "models"))[0];
            items(field(field(model, "mlp"), "layers")).clear();
        });
        assert!(msg.contains("but the layers chain [16]"), "{msg}");
    }

    #[test]
    fn pool_round_trips_with_identical_predictions() {
        let mut rng = Rng64::seed(70);
        let split = IsicLike::small().with_num_samples(300).generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::shufflenet_v2_x1_0()],
            &BackboneConfig::fast().with_epochs(3),
            &mut rng,
        );
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("pool.json");
        pool.save_json(&path).expect("save");
        let loaded = ModelPool::load_json(&path).expect("load");
        assert_eq!(loaded.len(), pool.len());
        let a = pool.get(0).unwrap().predict(split.test.features());
        let b = loaded.get(0).unwrap().predict(split.test.features());
        assert_eq!(a, b, "reloaded pool must predict identically");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ModelPool::load_json("/nonexistent/pool.json").unwrap_err();
        assert!(matches!(err, PoolIoError::Io(_)));
    }

    #[test]
    fn garbage_is_parse_error() {
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "[not a pool]").expect("write");
        let err = ModelPool::load_json(&path).unwrap_err();
        assert!(matches!(err, PoolIoError::Parse(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_pool_error_carries_line_and_column() {
        let dir = std::env::temp_dir().join("muffin_pool_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("malformed.json");
        // Unterminated object opens on line 2.
        std::fs::write(&path, "{\n  \"models\": [tru]\n}").expect("write");
        let err = ModelPool::load_json(&path).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, PoolIoError::Parse(_)));
        assert!(msg.contains("line 2"), "missing line in: {msg}");
        assert!(msg.contains("column"), "missing column in: {msg}");
        std::fs::remove_file(path).ok();
    }
}
