//! # choir-mac — LP-WAN MAC layer and network simulator
//!
//! Slotted saturated-uplink simulations of the three systems the Choir
//! paper's density evaluation (Fig. 8) compares:
//!
//! * **LoRaWAN ALOHA** — unsolicited transmissions, binary exponential
//!   backoff, collisions fatal;
//! * **LoRaWAN + Oracle** — a genie TDMA scheduler, one node per slot,
//!   zero collisions (the strongest possible conventional baseline);
//! * **Choir** — all backlogged nodes answer the beacon concurrently and
//!   the base station disentangles the collision.
//!
//! PHY outcomes are pluggable ([`phy::SlotPhy`]): the real IQ-level
//! decoder for ground truth, or per-user success tables calibrated *from*
//! the IQ decoder for long runs ([`phy::calibrate_choir_phy`]).
//! [`beacon`] implements Sec. 7.1's team scheduler: beyond-range sensors
//! are grouped into the smallest teams whose combining margin clears the
//! decoding threshold.

#![deny(missing_docs)]

pub mod beacon;
pub mod metrics;
pub mod phy;
pub mod sim;

pub use beacon::{schedule_teams, ScheduleEntry};
pub use metrics::{MetricsCollector, RunMetrics};
pub use phy::{
    calibrate_choir_phy, calibrate_choir_phy_with_pool, CollisionFatalPhy, IdealPhy, IqChoirPhy,
    SlotPhy, SlotTx, TabulatedChoirPhy,
};
pub use sim::{run_sim, run_sims_parallel, MacScheme, SimConfig};
