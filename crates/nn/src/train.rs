use crate::loss::{one_hot, weighted_cross_entropy_loss, weighted_mse_loss, LossKind};
use crate::{LrSchedule, Mlp, MlpCache, Optimizer, Parameterized, SgdConfig};
use muffin_tensor::{Matrix, Rng64};
use muffin_trace::{Field, Tracer};

/// Global gradient-norm clip applied before every optimizer step.
const GRAD_CLIP: f32 = 5.0;

/// Summary of a completed training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss at the end of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of optimizer steps taken.
    pub steps: u32,
}

muffin_json::impl_json!(struct TrainReport { epoch_losses, steps });

impl TrainReport {
    /// The final epoch's mean loss, or `None` for a zero-epoch run.
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// A reusable mini-batch trainer for [`Mlp`] classifiers.
///
/// Drives the paper's training recipe: SGD with momentum, step-decay
/// learning rate, shuffled mini-batches, and any [`LossKind`], including the
/// per-sample-weighted Eq. 2 loss used for muffin-head training.
///
/// # Example
///
/// ```
/// use muffin_nn::{ClassifierTrainer, LossKind, Mlp, MlpSpec};
/// use muffin_tensor::{Matrix, Rng64};
/// use muffin_trace::Tracer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Rng64::seed(0);
/// let x = Matrix::from_rows(&[&[-1.0], &[1.0]])?;
/// let y = vec![0usize, 1];
/// let mut mlp = Mlp::new(&MlpSpec::new(1, &[4], 2), &mut rng);
/// let report = ClassifierTrainer::new(50, 2).fit(
///     &mut mlp,
///     &x,
///     &y,
///     None,
///     LossKind::CrossEntropy,
///     &mut rng,
///     &Tracer::noop(),
/// );
/// assert!(report.final_loss().unwrap() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClassifierTrainer {
    epochs: u32,
    batch_size: usize,
    schedule: LrSchedule,
}

muffin_json::impl_json!(struct ClassifierTrainer { epochs, batch_size, schedule });

impl ClassifierTrainer {
    /// Creates a trainer running `epochs` epochs with the given batch size
    /// and the paper's learning-rate schedule. Every trainer steps with
    /// [`SgdConfig::default`] (momentum 0.9) and clips the global gradient
    /// norm to 5.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(epochs: u32, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            epochs,
            batch_size,
            schedule: LrSchedule::paper(),
        }
    }

    /// Replaces the full learning-rate schedule.
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Number of epochs this trainer runs.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Trains `mlp` on features `x` and labels `y`, recording one
    /// `nn.epoch` span per epoch (loss, learning rate) into `tracer`.
    ///
    /// `sample_weights`, when given, scales each sample's loss contribution
    /// (the paper's Eq. 2 when combined with [`LossKind::WeightedMse`]).
    /// Tracing never touches `rng`, so the trained weights are
    /// bit-identical with a capturing or a no-op tracer.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()`, if `sample_weights` has the wrong
    /// length, or if `x` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        &self,
        mlp: &mut Mlp,
        x: &Matrix,
        y: &[usize],
        sample_weights: Option<&[f32]>,
        loss: LossKind,
        rng: &mut Rng64,
        tracer: &Tracer,
    ) -> TrainReport {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        assert!(x.rows() > 0, "cannot train on an empty dataset");
        if let Some(w) = sample_weights {
            assert_eq!(w.len(), y.len(), "weights/labels mismatch");
        }
        let num_classes = mlp.spec().output_dim();
        let targets = one_hot(y, num_classes);
        let mut optimizer = Optimizer::sgd(SgdConfig::default());
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        let mut epoch_losses = Vec::with_capacity(self.epochs as usize);
        let mut steps = 0u32;
        // One set of buffers reused across every mini-batch of every epoch:
        // the loop below performs no per-batch heap allocation once these
        // reach steady-state size.
        let mut cache = MlpCache::new();
        let mut bx = Matrix::zeros(0, 0);
        let mut bt = Matrix::zeros(0, 0);
        let mut by: Vec<usize> = Vec::new();
        let mut bw: Vec<f32> = Vec::new();

        for epoch in 0..self.epochs {
            let epoch_start = std::time::Instant::now();
            rng.shuffle(&mut indices);
            let lr = self.schedule.at(epoch);
            let mut epoch_loss = 0.0;
            let mut batches = 0u32;
            for chunk in indices.chunks(self.batch_size) {
                x.select_rows_into(chunk, &mut bx);
                by.clear();
                by.extend(chunk.iter().map(|&i| y[i]));
                bw.clear();
                match sample_weights {
                    Some(w) => bw.extend(chunk.iter().map(|&i| w[i])),
                    None => bw.resize(chunk.len(), 1.0),
                }
                if bw.iter().sum::<f32>() <= 0.0 {
                    continue; // batch carries no training signal
                }
                mlp.forward_train_into(&bx, &mut cache);
                let logits = cache.logits();
                let (batch_loss, grad) = match loss {
                    LossKind::CrossEntropy => weighted_cross_entropy_loss(logits, &by, None),
                    LossKind::WeightedCrossEntropy => {
                        weighted_cross_entropy_loss(logits, &by, Some(&bw))
                    }
                    LossKind::WeightedMse => {
                        targets.select_rows_into(chunk, &mut bt);
                        weighted_mse_loss(logits, &bt, &bw)
                    }
                };
                mlp.zero_grad();
                mlp.backward_in_place(&mut cache, &grad);
                mlp.clip_grad_norm(GRAD_CLIP);
                optimizer.step(mlp, lr);
                epoch_loss += batch_loss;
                batches += 1;
                steps += 1;
            }
            epoch_losses.push(if batches > 0 {
                epoch_loss / batches as f32
            } else {
                0.0
            });
            if tracer.is_enabled() {
                tracer.record_span(
                    "nn.epoch",
                    vec![
                        Field::new("epoch", epoch as usize),
                        Field::new("loss", *epoch_losses.last().expect("pushed above")),
                        Field::new("lr", lr),
                    ],
                    epoch_start.elapsed(),
                );
            }
        }
        TrainReport {
            epoch_losses,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpSpec};

    fn blobs(n: usize, rng: &mut Rng64) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let (cx, cy) = match class {
                0 => (-2.0, 0.0),
                1 => (2.0, 0.0),
                _ => (0.0, 2.5),
            };
            rows.push(vec![cx + rng.normal() * 0.4, cy + rng.normal() * 0.4]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
        (x, labels)
    }

    #[test]
    fn cross_entropy_training_fits_blobs() {
        let mut rng = Rng64::seed(10);
        let (x, y) = blobs(90, &mut rng);
        let mut mlp = Mlp::new(&MlpSpec::new(2, &[16], 3), &mut rng);
        let trainer = ClassifierTrainer::new(60, 16).with_schedule(LrSchedule::constant(0.1));
        trainer.fit(
            &mut mlp,
            &x,
            &y,
            None,
            LossKind::CrossEntropy,
            &mut rng,
            &Tracer::noop(),
        );
        let acc = crate::accuracy(&mlp.predict(&x), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn weighted_mse_training_fits_blobs() {
        let mut rng = Rng64::seed(11);
        let (x, y) = blobs(90, &mut rng);
        let mut mlp = Mlp::new(
            &MlpSpec::new(2, &[16, 8], 3).with_activation(Activation::Tanh),
            &mut rng,
        );
        let trainer = ClassifierTrainer::new(120, 16).with_schedule(LrSchedule::constant(0.3));
        let weights = vec![1.0; y.len()];
        trainer.fit(
            &mut mlp,
            &x,
            &y,
            Some(&weights),
            LossKind::WeightedMse,
            &mut rng,
            &Tracer::noop(),
        );
        let acc = crate::accuracy(&mlp.predict(&x), &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn heavier_samples_dominate_the_fit() {
        let mut rng = Rng64::seed(12);
        // Two contradictory points at the same location: label differs but
        // the heavy sample should win.
        let x = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let y = vec![0usize, 1];
        let weights = vec![10.0f32, 0.1];
        let mut mlp = Mlp::new(&MlpSpec::new(1, &[4], 2), &mut rng);
        let trainer = ClassifierTrainer::new(200, 2).with_schedule(LrSchedule::constant(0.2));
        trainer.fit(
            &mut mlp,
            &x,
            &y,
            Some(&weights),
            LossKind::WeightedCrossEntropy,
            &mut rng,
            &Tracer::noop(),
        );
        assert_eq!(mlp.predict(&x)[0], 0);
    }

    #[test]
    fn loss_history_has_one_entry_per_epoch() {
        let mut rng = Rng64::seed(13);
        let (x, y) = blobs(30, &mut rng);
        let mut mlp = Mlp::new(&MlpSpec::new(2, &[4], 3), &mut rng);
        let report = ClassifierTrainer::new(7, 8).fit(
            &mut mlp,
            &x,
            &y,
            None,
            LossKind::CrossEntropy,
            &mut rng,
            &Tracer::noop(),
        );
        assert_eq!(report.epoch_losses.len(), 7);
        assert!(report.steps >= 7);
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let (x, y) = blobs(30, &mut Rng64::seed(14));
        let train = |seed: u64| {
            let mut rng = Rng64::seed(seed);
            let mut mlp = Mlp::new(&MlpSpec::new(2, &[6], 3), &mut rng);
            ClassifierTrainer::new(10, 8).fit(
                &mut mlp,
                &x,
                &y,
                None,
                LossKind::CrossEntropy,
                &mut rng,
                &Tracer::noop(),
            );
            mlp.forward(&x)
        };
        assert_eq!(train(99), train(99));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_is_rejected() {
        ClassifierTrainer::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_is_rejected() {
        let mut rng = Rng64::seed(15);
        let mut mlp = Mlp::new(&MlpSpec::new(2, &[4], 2), &mut rng);
        let x = Matrix::zeros(0, 2);
        ClassifierTrainer::new(1, 4).fit(
            &mut mlp,
            &x,
            &[],
            None,
            LossKind::CrossEntropy,
            &mut rng,
            &Tracer::noop(),
        );
    }

    #[test]
    fn final_loss_none_for_zero_epochs() {
        let report = TrainReport {
            epoch_losses: vec![],
            steps: 0,
        };
        assert!(report.final_loss().is_none());
    }

    #[test]
    fn traced_fit_records_one_span_per_epoch_and_matches_untraced() {
        let (x, y) = blobs(30, &mut Rng64::seed(16));
        let run = |tracer: &Tracer| {
            let mut rng = Rng64::seed(33);
            let mut mlp = Mlp::new(&MlpSpec::new(2, &[6], 3), &mut rng);
            ClassifierTrainer::new(5, 8).fit(
                &mut mlp,
                &x,
                &y,
                None,
                LossKind::CrossEntropy,
                &mut rng,
                tracer,
            );
            mlp.forward(&x)
        };
        let tracer = Tracer::capturing();
        // Tracing must not perturb training: identical outputs either way.
        assert_eq!(run(&tracer), run(&Tracer::noop()));
        let log = tracer.finish();
        let epochs: Vec<_> = log.events.iter().filter(|e| e.name == "nn.epoch").collect();
        assert_eq!(epochs.len(), 5);
        assert!(epochs[0].field("loss").is_some());
        assert!(epochs[0].field("lr").is_some());
    }
}
