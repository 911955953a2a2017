//! # choir-city — city-scale sharded LP-WAN network simulation
//!
//! Choir's headline claim is *urban* scale: one base station tier serving
//! a dense city by decoding collisions instead of avoiding them.
//! `choir-mac` answers the single-cell question with per-transmission IQ
//! synthesis; this crate answers the city question — ≥10⁶ duty-cycled
//! clients across ≥10² gateways — by inverting the fidelity default:
//!
//! * **Clients are compact state machines in dense arrays** ([`Client`],
//!   24 bytes each): duty-cycle gate, binary exponential backoff, team
//!   membership boost, and a per-client battery ledger in integer
//!   nanojoules. No per-client allocation anywhere.
//! * **The simulator is event-driven**: each gateway keeps a slot
//!   calendar of pending wake-ups, so a slot costs O(transmissions in the
//!   slot), not O(clients) — idle clients are never touched.
//! * **Slot outcomes are closed-form by default**: integer quarter-dB
//!   capture/decode bookkeeping ([`model`]) that is exactly reproducible
//!   across platforms (no transcendentals in any outcome-deciding path).
//!   A CoRa-style cheap detection tier rejects undetectable slots before
//!   any decode bookkeeping runs, and an optional escalation budget sends
//!   the first few collision slots per gateway through the *real*
//!   `choir-core` IQ decode path (`choir_mac::IqChoirPhy`) to validate —
//!   or, when enabled, decide — the closed-form outcomes.
//! * **Gateways are the unit of determinism, shards the unit of work**:
//!   every gateway simulation is seeded from `(seed, gateway)` and runs
//!   independently; shards (contiguous gateway ranges) are mapped over a
//!   `choir_pool::ThreadPool`, whose order-preserving contract makes the
//!   merged transcript bit-identical for any thread count *and* any
//!   shard count ([`run_city`] golden/property tests pin this).
//!
//! Four MAC schemes compete on the same traffic ([`Scheme`]): unslotted
//! ALOHA (adjacent-slot vulnerability), slotted ALOHA with
//! strongest-signal capture, Choir collision decoding with beacon-team
//! boosts for beyond-range clients (`choir_mac::beacon::schedule_teams`),
//! and an SS5G-style collision-resolution scheme (El Rachkidy et al.)
//! where collisions of bounded order are disentangled by slot-shift
//! combining at the cost of channel-busy resolution slots.
//!
//! The delivered-frame transcript of every run is folded into a 64-bit
//! FNV digest ([`CityStats::digest`]); `tests/golden.rs` pins the digests
//! and refuses 1-vs-N-thread divergence, at a small city and at 10⁶
//! clients.

#![deny(missing_docs)]

pub mod client;
pub mod gateway;
pub mod model;
pub mod sim;

pub use client::{Client, ClientCfg, Outcome};
pub use gateway::{run_gateway, GatewayStats};
pub use model::{CityModel, Scheme};
pub use sim::{run_city, run_city_global, CityConfig, CityStats};
