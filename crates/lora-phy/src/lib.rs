//! # lora-phy — a software LoRa physical layer
//!
//! A from-scratch implementation of the LoRa chirp-spread-spectrum PHY used
//! by the Choir reproduction (SIGCOMM 2017): chirp synthesis evaluable at
//! fractional chip offsets (the hook the channel simulator uses to model
//! hardware timing offsets exactly), symbol modulation/demodulation, and
//! the full coding chain — whitening, Hamming FEC (4/5–4/8), diagonal
//! interleaving, Gray mapping, framing with header and CRC — plus the
//! standard single-user packet detection and decoding path that serves as
//! the LoRaWAN baseline in the paper's evaluation.
//!
//! ```
//! use lora_phy::params::PhyParams;
//! use lora_phy::modem::Modem;
//! use lora_phy::detect::{transmit_packet, decode_packet};
//!
//! let params = PhyParams::default(); // SF8, 125 kHz, CR 4/8
//! let wave = transmit_packet(&params, b"hello");
//! let modem = Modem::new(params);
//! let frame = decode_packet(&wave, &modem, 0, 100).unwrap();
//! assert_eq!(frame.payload, b"hello");
//! assert!(frame.crc_ok);
//! ```

#![deny(missing_docs)]

pub mod chirp;
pub mod crc;
pub mod detect;
pub mod frame;
pub mod gray;
pub mod hamming;
pub mod interleave;
pub mod modem;
pub mod params;
pub mod tracker;
pub mod whiten;

pub use frame::{DecodedFrame, FrameError};
pub use modem::Modem;
pub use params::{Bandwidth, CodeRate, PhyParams, SpreadingFactor};
