
/// Learning-rate schedules.
///
/// The paper trains every network with "learning rate starts from 0.1 with
/// a decay of 0.9 in 20 steps" — that recipe is [`LrSchedule::paper`].
///
/// # Example
///
/// ```
/// use muffin_nn::LrSchedule;
///
/// let sched = LrSchedule::paper();
/// assert!((sched.at(0) - 0.1).abs() < 1e-7);
/// assert!((sched.at(20) - 0.09).abs() < 1e-7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// A fixed learning rate.
    Constant {
        /// The learning rate used at every step.
        lr: f32,
    },
    /// Multiply by `decay` every `every` steps.
    StepDecay {
        /// Learning rate at step zero.
        initial: f32,
        /// Multiplicative factor applied at each boundary.
        decay: f32,
        /// Number of steps between decays.
        every: u32,
    },
}

muffin_json::impl_json!(tagged LrSchedule { Constant { lr }, StepDecay { initial, decay, every } });

impl LrSchedule {
    /// The paper's recipe: start at `0.1`, decay `×0.9` every 20 steps.
    pub fn paper() -> Self {
        LrSchedule::StepDecay { initial: 0.1, decay: 0.9, every: 20 }
    }

    /// The learning rate at step `step` (0-indexed).
    pub fn at(self, step: u32) -> f32 {
        match self {
            LrSchedule::Constant { lr } => lr,
            LrSchedule::StepDecay { initial, decay, every } => {
                let k = step.checked_div(every).unwrap_or(0);
                initial * decay.powi(k as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LrSchedule {
        /// Creates a constant schedule.
        pub(crate) fn constant(lr: f32) -> Self {
            LrSchedule::Constant { lr }
        }
    }

    #[test]
    fn constant_never_changes() {
        let s = LrSchedule::constant(0.05);
        assert_eq!(s.at(0), 0.05);
        assert_eq!(s.at(10_000), 0.05);
    }

    #[test]
    fn step_decay_is_piecewise_constant() {
        let s = LrSchedule::StepDecay { initial: 1.0, decay: 0.5, every: 10 };
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(9), 1.0);
        assert_eq!(s.at(10), 0.5);
        assert_eq!(s.at(19), 0.5);
        assert_eq!(s.at(20), 0.25);
    }

    #[test]
    fn paper_schedule_decays_by_ninety_percent_steps() {
        let s = LrSchedule::paper();
        assert!((s.at(40) - 0.1 * 0.81).abs() < 1e-7);
    }

    #[test]
    fn zero_every_means_no_decay() {
        let s = LrSchedule::StepDecay { initial: 0.2, decay: 0.5, every: 0 };
        assert_eq!(s.at(100), 0.2);
    }
}
