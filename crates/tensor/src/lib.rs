//! Dense matrix and vector math substrate for the Muffin fairness framework.
//!
//! The Muffin reproduction deliberately implements its own tiny numeric
//! layer rather than pulling in a full linear-algebra stack: everything the
//! framework needs is dense `f32` matrices, a handful of element-wise
//! operations, seeded random initialisation and numerically stable
//! softmax/log-softmax. Keeping the substrate small makes the neural-network
//! layer ([`muffin-nn`]) auditable end to end.
//!
//! # Example
//!
//! ```
//! use muffin_tensor::Matrix;
//!
//! # fn main() -> Result<(), muffin_tensor::ShapeError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```
//!
//! [`muffin-nn`]: https://example.invalid/muffin

mod error;
mod init;
mod matrix;
mod ops;
mod tanh;

pub use error::ShapeError;
pub use init::{Init, Rng64, SplitMix64};
pub use matrix::{Matrix, LANE_WIDTH};
pub use ops::{argmax, logsumexp, softmax_in_place};
pub use tanh::tanh_in_place;
