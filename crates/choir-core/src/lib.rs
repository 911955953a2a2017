//! # choir-core — the Choir collision decoder (SIGCOMM 2017)
//!
//! The paper's primary contribution, reimplemented end to end:
//!
//! * [`estimator`] — Algorithm 1: coarse peak detection on zero-padded
//!   dechirped spectra, least-squares channel fitting (Eqn. 2), residual
//!   minimisation over fractional frequency offsets (Eqns. 3–4), extended
//!   with an exact boundary-split ("step") term for multi-chip fractional
//!   timing offsets;
//! * [`sic`] — phased successive interference cancellation (Sec. 5.2):
//!   joint cohorts instead of one-at-a-time subtraction, the strong
//!   cohort first and then what surfaces under it;
//! * [`cluster`] — tracking users across symbols by the fractional part of
//!   their peak positions, channel magnitude and phase (Sec. 6.2);
//! * [`decoder`] — the full base-station pipeline: preamble user
//!   discovery, timing/CFO disambiguation via phase slopes and step
//!   boundaries (Sec. 6), per-user realigned demodulation with
//!   segment-robust scoring, packet-level SIC, and LoRa frame decoding;
//! * [`lowsnr`] — beyond-range team detection and joint decoding
//!   (Sec. 7 / Eqn. 6);
//! * [`multisf`] — parallel decoding lanes across spreading factors
//!   (Sec. 5.2, point 4: chirps of different SFs are near-orthogonal).
//!
//! ```no_run
//! use choir_core::decoder::{ChoirDecoder, SlotView};
//! use lora_phy::params::PhyParams;
//!
//! # let samples: Vec<choir_dsp::C64> = vec![];
//! let params = PhyParams::default();
//! let decoder = ChoirDecoder::new(params);
//! // Decode every user colliding in a beacon slot that starts at sample
//! // 512 and carries 16-byte payloads.
//! let slot = SlotView::known_len(&params, &samples, 512, 16);
//! match decoder.try_decode_view(slot) {
//!     Ok(users) => {
//!         for user in users.iter().filter(|u| u.payload_ok()) {
//!             println!("offset {:.2} bins: {:?}",
//!                      user.user.offset_bins, user.frame.as_ref().unwrap().payload);
//!         }
//!     }
//!     // Truncated capture, silent preamble: typed, never a panic.
//!     Err(why) => eprintln!("slot not decoded: {why}"),
//! }
//! ```

#![deny(missing_docs)]

pub mod cluster;
pub mod decoder;
pub mod dedup;
pub mod error;
pub mod estimator;
pub mod lowsnr;
pub mod multisf;
pub mod profile;
pub mod sic;

pub use decoder::{ChoirConfig, ChoirDecoder, DecodedUser, SlotResult, SlotView, UserEstimate};
pub use dedup::StartDedup;
pub use error::DecodeError;
pub use estimator::{ComponentEstimate, EstimatorConfig, OffsetEstimator};
pub use lowsnr::{TeamDecoder, TeamDetection};
pub use multisf::{decode_multi_sf, LaneResult, SfLane};
pub use sic::{phased_sic, SicConfig, SicResult};
