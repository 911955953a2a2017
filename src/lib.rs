//! # choir — decoding collided LoRa transmissions at a single-antenna
//! base station
//!
//! A full Rust reproduction of *"Empowering Low-Power Wide Area Networks
//! in Urban Settings"* (Choir, SIGCOMM 2017): the collision-disentangling
//! decoder, the beyond-range team decoder, and every substrate they stand
//! on — a software LoRa PHY, an urban channel/hardware-impairment
//! simulator, MAC-layer network simulation, correlated sensor-data
//! modelling, and an uplink MU-MIMO baseline.
//!
//! This facade crate re-exports the workspace members; see each crate's
//! documentation for its module map, and `DESIGN.md` for the
//! paper-to-module inventory.
//!
//! ```no_run
//! use choir::prelude::*;
//!
//! // Synthesize a 3-user collision the way the urban testbed would…
//! let scenario = ScenarioBuilder::new(PhyParams::default())
//!     .snrs_db(&[20.0, 16.0, 12.0])
//!     .payload_len(12)
//!     .seed(7)
//!     .build();
//! // …and disentangle it at the (single-antenna) base station.
//! let decoder = ChoirDecoder::new(scenario.params);
//! let slot = SlotView::known_len(&scenario.params, &scenario.samples, scenario.slot_start, 12);
//! match decoder.try_decode_view(slot) {
//!     Ok(users) => {
//!         for user in users {
//!             println!("offset {:6.2} bins → {:?}", user.user.offset_bins, user.frame);
//!         }
//!     }
//!     // A truncated capture or a silent preamble is a typed error.
//!     Err(why) => eprintln!("slot not decoded: {why}"),
//! }
//! ```

#![deny(missing_docs)]

pub use choir_channel as channel;
pub use choir_city as city;
pub use choir_core as core;
pub use choir_dsp as dsp;
pub use choir_mac as mac;
pub use choir_mimo as mimo;
pub use choir_sensors as sensors;
pub use choir_station as station;
pub use choir_testbed as testbed;
pub use lora_phy as phy;

/// The types most applications start from.
pub mod prelude {
    pub use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
    pub use choir_channel::{HardwareProfile, LinkBudget, OscillatorModel};
    pub use choir_core::{ChoirConfig, ChoirDecoder, SlotView, TeamDecoder};
    pub use choir_mac::{run_sim, MacScheme, SimConfig};
    pub use choir_sensors::{Building, EnvField, Quantizer, Strategy};
    pub use choir_station::{Station, StationConfig};
    pub use choir_testbed::{Scale, Topology};
    pub use lora_phy::{Modem, PhyParams, SpreadingFactor};
}
