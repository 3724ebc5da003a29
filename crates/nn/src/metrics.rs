//! Classification metrics shared across the workspace.

/// Fraction of predictions equal to the ground-truth label.
///
/// Returns `0.0` for empty inputs.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// let acc = muffin_nn::accuracy(&[0, 1, 1], &[0, 1, 0]);
/// assert!((acc - 2.0 / 3.0).abs() < 1e-6);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(predictions.len(), labels.len(), "predictions/labels length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / predictions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_of_perfect_predictions_is_one() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn accuracy_of_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_length_mismatch() {
        accuracy(&[0], &[0, 1]);
    }
}
