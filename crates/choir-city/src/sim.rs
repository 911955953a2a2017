//! City-level orchestration: shard the gateway set over a
//! `choir_pool::ThreadPool`, run every gateway independently, and merge
//! the tallies + transcript digest **in gateway order** so the result is
//! bit-identical for any shard count and any worker count.

use choir_pool::ThreadPool;
use lora_phy::params::PhyParams;

use crate::client::ClientCfg;
use crate::gateway::{fnv1a, run_gateway, GatewayStats, FNV_OFFSET};
use crate::model::{CityModel, Scheme};

/// Radio power draw while transmitting, watts (25 mA at ~1 V-class LoRa
/// transmit budget — the knob only scales reported energy, never
/// outcomes).
const TX_POWER_W: f64 = 0.025;

/// Radio power draw while listening for the coordination beacon, watts.
const LISTEN_POWER_W: f64 = 0.010;

/// Seconds of beacon listening charged per coordinated transmission.
const BEACON_OVERHEAD_S: f64 = 0.010;

/// Everything a city run needs. `Clone` + cheap; shared read-only across
/// shard workers.
#[derive(Clone, Copy, Debug)]
pub struct CityConfig {
    /// Master seed; each gateway derives its own stream from
    /// `(seed, gateway, scheme)`.
    pub seed: u64,
    /// Number of gateways.
    pub gateways: u32,
    /// Clients homed on each gateway.
    pub clients_per_gw: u32,
    /// Simulation horizon in slots.
    pub slots: u32,
    /// Per-client behaviour (reporting period, duty gap, backoff).
    pub client: ClientCfg,
    /// Closed-form decision thresholds.
    pub model: CityModel,
    /// PHY parameters (airtime, and the IQ escalation tier).
    pub params: PhyParams,
    /// Payload bytes per frame (airtime + IQ synthesis length).
    pub payload_len: usize,
    /// Per-gateway budget of collision slots escalated to the real IQ
    /// decode path (0 = pure closed-form; keep 0 at city scale).
    pub iq_slots_per_gw: u32,
    /// Shards the gateway set is split into (work units; results are
    /// shard-count invariant).
    pub shards: u32,
}

impl CityConfig {
    /// A small, fast default: SF8 PHY, 8-byte payloads, pure closed-form.
    pub fn new(seed: u64, gateways: u32, clients_per_gw: u32, slots: u32) -> Self {
        let params = PhyParams::default();
        CityConfig {
            seed,
            gateways,
            clients_per_gw,
            slots,
            client: ClientCfg::default(),
            model: CityModel::from_params(&params),
            params,
            payload_len: 8,
            iq_slots_per_gw: 0,
            shards: 8,
        }
    }

    /// Frame airtime, seconds.
    pub fn airtime_s(&self) -> f64 {
        self.params.time_on_air(self.payload_len)
    }

    /// Wall-clock seconds one slot occupies under `scheme` (coordinated
    /// schemes pay the beacon overhead on top of the airtime).
    pub fn slot_s(&self, scheme: Scheme) -> f64 {
        if scheme.coordinated() {
            self.airtime_s() + BEACON_OVERHEAD_S
        } else {
            self.airtime_s()
        }
    }

    /// Energy of one transmission, nanojoules (integer — ledgers and
    /// totals stay exact).
    pub fn tx_nj(&self) -> u64 {
        (self.airtime_s() * TX_POWER_W * 1e9).round() as u64
    }

    /// Energy of one beacon listen, nanojoules.
    pub fn listen_nj(&self) -> u64 {
        (BEACON_OVERHEAD_S * LISTEN_POWER_W * 1e9).round() as u64
    }
}

/// City-wide result: summed tallies plus the order-merged transcript
/// digest.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CityStats {
    /// Summed per-gateway tallies (digest field unused; see `digest`).
    pub totals: GatewayStats,
    /// City transcript digest: per-gateway digests folded in gateway
    /// order — invariant to sharding and threading by construction.
    pub digest: u64,
    /// Delivered frames per second of simulated wall-clock.
    pub delivered_fps: f64,
    /// Average energy per *delivered* frame, microjoules.
    pub energy_uj_per_delivered: f64,
    /// Fraction of offered frames delivered.
    pub delivery_ratio: f64,
}

/// Runs the whole city under `scheme` on `pool`.
///
/// Gateways are split into `cfg.shards` contiguous ranges; each range is
/// one work item for the pool. Because every gateway is seeded
/// independently and the pool's `map` is order-preserving, the merged
/// result is bit-identical for any `(shards, threads)` combination —
/// the golden and property tests pin exactly that.
pub fn run_city(cfg: &CityConfig, scheme: Scheme, pool: &ThreadPool) -> CityStats {
    let shards = cfg.shards.clamp(1, cfg.gateways.max(1));
    // Contiguous ranges, remainder spread over the first shards.
    let base = cfg.gateways / shards;
    let extra = cfg.gateways % shards;
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(shards as usize);
    let mut start = 0u32;
    for s in 0..shards {
        let len = base + u32::from(s < extra);
        ranges.push((start, start + len));
        start += len;
    }
    let per_shard: Vec<Vec<GatewayStats>> = pool.map(&ranges, |_, &(lo, hi)| {
        (lo..hi).map(|gw| run_gateway(cfg, scheme, gw)).collect()
    });

    let mut totals = GatewayStats::default();
    let mut digest = FNV_OFFSET;
    for stats in per_shard.iter().flatten() {
        totals.absorb(stats);
        digest = fnv1a(digest, stats.digest);
    }
    let sim_s = f64::from(cfg.slots) * cfg.slot_s(scheme);
    let delivered = totals.delivered;
    CityStats {
        totals,
        digest,
        delivered_fps: if sim_s > 0.0 {
            delivered as f64 / sim_s
        } else {
            0.0
        },
        energy_uj_per_delivered: if delivered > 0 {
            totals.energy_nj as f64 / 1e3 / delivered as f64
        } else {
            f64::INFINITY
        },
        delivery_ratio: if totals.offered > 0 {
            delivered as f64 / totals.offered as f64
        } else {
            0.0
        },
    }
}

/// [`run_city`] on the process-global pool (`CHOIR_THREADS`-sized).
pub fn run_city_global(cfg: &CityConfig, scheme: Scheme) -> CityStats {
    run_city(cfg, scheme, choir_pool::global())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CityConfig {
        let mut cfg = CityConfig::new(7, 4, 40, 400);
        cfg.client.period_slots = 80;
        cfg
    }

    #[test]
    fn schemes_produce_traffic_and_deliveries() {
        let pool = ThreadPool::with_threads(2);
        for scheme in Scheme::ALL {
            let st = run_city(&small(), scheme, &pool);
            assert!(st.totals.offered > 0, "{scheme:?} offered nothing");
            assert!(
                st.totals.delivered > 0,
                "{scheme:?} delivered nothing at light load"
            );
            assert!(st.totals.delivered <= st.totals.transmissions);
            assert!(st.totals.energy_nj > 0);
        }
    }

    #[test]
    fn digest_is_shard_and_thread_invariant() {
        let cfg = small();
        let seq = ThreadPool::with_threads(1);
        let par = ThreadPool::with_threads(4);
        for scheme in Scheme::ALL {
            let a = run_city(&cfg, scheme, &seq);
            let b = run_city(&cfg, scheme, &par);
            assert_eq!(a.digest, b.digest, "{scheme:?} diverged across threads");
            assert_eq!(a.totals, b.totals);
            let mut one_shard = cfg;
            one_shard.shards = 1;
            let c = run_city(&one_shard, scheme, &par);
            assert_eq!(a.digest, c.digest, "{scheme:?} diverged across shards");
        }
    }

    #[test]
    fn iq_escalation_spends_budget_only_for_choir() {
        let mut cfg = CityConfig::new(11, 1, 24, 160);
        cfg.client.period_slots = 20; // collide often
        cfg.iq_slots_per_gw = 3;
        let pool = ThreadPool::with_threads(1);
        let choir = run_city(&cfg, Scheme::Choir, &pool);
        assert!(choir.totals.iq_slots > 0, "no slot escalated");
        assert!(choir.totals.iq_slots <= 3, "budget exceeded");
        let slotted = run_city(&cfg, Scheme::Slotted, &pool);
        assert_eq!(slotted.totals.iq_slots, 0);
    }

    #[test]
    fn energy_model_is_integral_and_positive() {
        let cfg = small();
        assert!(cfg.tx_nj() > 0);
        assert!(cfg.listen_nj() > 0);
        assert!(cfg.slot_s(Scheme::Choir) > cfg.slot_s(Scheme::Aloha));
    }
}
