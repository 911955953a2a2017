//! # choir-dsp — DSP substrate for the Choir LP-WAN stack
//!
//! Self-contained digital signal processing primitives used throughout the
//! Choir reproduction (SIGCOMM 2017): complex arithmetic, FFTs (radix-2 and
//! Bluestein for arbitrary sizes), spectral peak detection with Dirichlet
//! leakage modelling, small dense complex linear algebra, derivative-free
//! local optimisation and statistics.
//!
//! Nothing in this crate knows about LoRa: it is the layer the PHY and the
//! Choir decoder are built on, and it deliberately has no dependencies
//! beyond the standard library.
//!
//! ```
//! use choir_dsp::complex::C64;
//! use choir_dsp::fft::FftPlan;
//!
//! // A 50.4-bin tone (a transmitter with fractional frequency offset)…
//! let n = 128;
//! let x: Vec<C64> = (0..n)
//!     .map(|t| C64::cis(2.0 * std::f64::consts::PI * 50.4 * t as f64 / n as f64))
//!     .collect();
//! // …resolved at 10× zero-padding as the paper does.
//! let mut spec = vec![C64::ZERO; 10 * n];
//! choir_dsp::workspace::with(|ws| FftPlan::new(10 * n).forward_padded_into(&x, &mut spec, ws));
//! let peaks = choir_dsp::peaks::find_peaks(&spec, 10);
//! assert!((peaks[0].pos - 50.4).abs() < 0.05);
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod checks;
pub mod complex;
pub mod fft;
pub mod linalg;
pub mod optim;
pub mod peaks;
pub mod stats;
pub mod workspace;

pub use complex::{c64, C64};
pub use fft::{FftPlan, PlanCache};
pub use peaks::Peak;
pub use workspace::Workspace;
