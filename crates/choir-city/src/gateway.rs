//! One gateway's event-driven simulation: the slot calendar, the
//! two-tier slot resolution (closed-form bookkeeping, optional IQ
//! escalation through `choir-mac`'s `IqChoirPhy`), energy charging and
//! the delivered-frame transcript digest.
//!
//! A gateway is the unit of determinism: its RNG is seeded from
//! `(city seed, gateway index, scheme)` and nothing it does depends on
//! which shard or worker thread ran it — that is what makes the merged
//! city transcript bit-identical across thread counts and shard
//! groupings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use choir_mac::{IqChoirPhy, SlotPhy, SlotTx};
use choir_trace::TraceEvent;

use crate::client::{Client, Outcome};
use crate::model::{self, qdb_to_db, Scheme};
use crate::sim::CityConfig;

/// FNV-1a 64-bit fold — the transcript digest primitive.
pub fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// The FNV-1a offset basis (digest seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Uniform client SNR range, quarter-dB (inclusive): −14 dB … +10 dB
/// around the SF8 floor.
const SNR_RANGE_QDB: (i16, i16) = (-56, 40);

/// Largest collision order worth escalating to the IQ tier (IQ synthesis
/// cost grows with order; beyond this the closed-form verdict stands).
const IQ_MAX_ORDER: u32 = 3;

/// Per-gateway tallies and the gateway's transcript digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames that made at least one transmission attempt.
    pub offered: u64,
    /// Frames decoded and delivered.
    pub delivered: u64,
    /// Frames dropped after exhausting their retry budget.
    pub lost: u64,
    /// Individual transmissions (attempts), including retries.
    pub transmissions: u64,
    /// Client wake-ups pushed back by an SS5G resolution window.
    pub deferrals: u64,
    /// Slots with at least one active transmission.
    pub active_slots: u64,
    /// Largest collision order observed.
    pub peak_order: u32,
    /// Total client energy spent, nanojoules.
    pub energy_nj: u64,
    /// FNV-1a digest of the per-transmission outcome transcript.
    pub digest: u64,
    /// Slots escalated through the IQ decode path.
    pub iq_slots: u64,
    /// Escalated slots where IQ and closed-form verdicts differed.
    pub iq_mismatch: u64,
}

impl GatewayStats {
    /// Accumulates another gateway's tallies (digests are *not* merged
    /// here — transcript merging is order-sensitive and owned by
    /// [`crate::sim::run_city`]).
    pub fn absorb(&mut self, o: &GatewayStats) {
        self.offered += o.offered;
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.transmissions += o.transmissions;
        self.deferrals += o.deferrals;
        self.active_slots += o.active_slots;
        self.peak_order = self.peak_order.max(o.peak_order);
        self.energy_nj += o.energy_nj;
        self.iq_slots += o.iq_slots;
        self.iq_mismatch += o.iq_mismatch;
    }
}

/// Builds the gateway's dense client array: SNRs drawn uniformly in
/// `SNR_RANGE_QDB`, first arrivals staggered across the
/// reporting period, and — for Choir — beacon teams scheduled so
/// beyond-range clients transmit with their team's combining boost.
fn build_clients(cfg: &CityConfig, scheme: Scheme, rng: &mut StdRng) -> Vec<Client> {
    let n = cfg.clients_per_gw as usize;
    let (lo, hi) = SNR_RANGE_QDB;
    let span = i32::from(hi) - i32::from(lo);
    let mut clients: Vec<Client> = (0..n)
        .map(|i| {
            let off = rng.gen_range(0..=(span as u32));
            let snr = (i32::from(lo) + off as i32) as i16;
            // Stagger first arrivals across the period (integer math —
            // a uniform phase spread: sensors are not phase-locked).
            let born = (u64::from(cfg.client.period_slots) * i as u64 / n.max(1) as u64) as u32;
            Client::new(snr, born)
        })
        .collect();
    if scheme == Scheme::Choir {
        // Beacon teams: beyond-range clients are grouped until the
        // team's non-coherent combining margin clears the floor
        // (Sec. 7.1's scheduler, reused from choir-mac). The boost is
        // quantised through the same table for every platform.
        let snrs_db: Vec<f64> = clients.iter().map(|c| qdb_to_db(c.snr_qdb)).collect();
        let floor_db = qdb_to_db(cfg.model.floor_qdb);
        let schedule = choir_mac::schedule_teams(&snrs_db, floor_db, 1.0, 8);
        for entry in &schedule {
            if let choir_mac::ScheduleEntry::Team(members) = entry {
                let boost = team_gain_qdb(members.len());
                for &m in members {
                    clients[m].boost_qdb = boost;
                }
            }
        }
    }
    clients
}

/// Per-scheme RNG salt: each scheme sees its own independent random
/// universe, so scheme curves are not artificially correlated.
fn scheme_salt(scheme: Scheme) -> u64 {
    match scheme {
        Scheme::Aloha => 0x0a10_4a01,
        Scheme::Slotted => 0x5107_7ed0,
        Scheme::Choir => 0xc401_4000,
        Scheme::Ss5g => 0x55f5_9000,
    }
}

/// Non-coherent combining gain `5·log10(m)` quantised to quarter-dB, as
/// a table so no transcendental can perturb the transcript across
/// platforms (mirrors `choir_mac::beacon::team_gain_db`).
fn team_gain_qdb(members: usize) -> i16 {
    const TABLE: [i16; 9] = [0, 0, 6, 10, 12, 14, 16, 17, 18];
    TABLE[members.min(8)]
}

/// The IQ escalation tier: re-runs one collision slot through the real
/// `choir-core` decode path and substitutes its verdicts. Counted
/// against the gateway's [`CityConfig::iq_slots_per_gw`] budget.
fn escalate_iq(
    iq: &mut IqChoirPhy,
    cfg: &CityConfig,
    clients: &[Client],
    txs: &[u32],
    ok: &mut [bool],
    stats: &mut GatewayStats,
) {
    let slot_txs: Vec<SlotTx> = txs
        .iter()
        .map(|&c| SlotTx {
            node: c as usize,
            snr_db: qdb_to_db(clients[c as usize].eff_snr_qdb()),
        })
        .collect();
    let verdict = iq.slot_outcome(&slot_txs, cfg.payload_len);
    stats.iq_slots += 1;
    for (i, &v) in verdict.iter().enumerate() {
        if ok[i] != v {
            stats.iq_mismatch += 1;
        }
        ok[i] = v;
    }
}

// hot:noalloc — per-slot outcome application; every buffer is caller scratch
/// Applies one resolved slot: folds the transcript digest, updates each
/// transmitting client's state machine and pushes its next wake into the
/// calendar (wakes past the horizon are dropped — the frame is censored,
/// not lost).
#[allow(clippy::too_many_arguments)]
fn apply_outcomes(
    cfg: &CityConfig,
    slot: u32,
    min_wake: u32,
    txs: &[u32],
    ok: &[bool],
    clients: &mut [Client],
    calendar: &mut [Vec<u32>],
    rng: &mut StdRng,
    stats: &mut GatewayStats,
) -> u32 {
    let mut delivered = 0u32;
    for (i, &c) in txs.iter().enumerate() {
        let decided = ok[i];
        stats.digest = fnv1a(stats.digest, (u64::from(slot) << 32) | u64::from(c));
        stats.digest = fnv1a(stats.digest, u64::from(decided));
        let outcome = if decided {
            delivered += 1;
            stats.delivered += 1;
            Outcome::Delivered
        } else {
            Outcome::Lost
        };
        let (wake, dropped) =
            clients[c as usize].on_outcome(slot, outcome, min_wake, &cfg.client, rng);
        if dropped {
            stats.lost += 1;
        }
        if (wake as usize) < calendar.len() {
            calendar[wake as usize].push(c);
        }
    }
    delivered
}

/// Runs one gateway start-to-finish and returns its tallies + digest.
///
/// Deterministic in `(cfg, scheme, gw)` alone: the caller may run
/// gateways in any grouping, on any thread, and get bit-identical
/// results.
pub fn run_gateway(cfg: &CityConfig, scheme: Scheme, gw: u32) -> GatewayStats {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (u64::from(gw) << 32) ^ scheme_salt(scheme));
    let mut stats = GatewayStats {
        digest: fnv1a(FNV_OFFSET, u64::from(gw)),
        ..GatewayStats::default()
    };
    let total = cfg.slots as usize;
    let mut clients = build_clients(cfg, scheme, &mut rng);
    let mut calendar: Vec<Vec<u32>> = Vec::new();
    calendar.resize_with(total, Vec::new);
    for (i, c) in clients.iter().enumerate() {
        if (c.frame_born as usize) < total {
            calendar[c.frame_born as usize].push(i as u32);
        }
    }

    let tx_nj = cfg.tx_nj();
    let listen_nj = if scheme.coordinated() {
        cfg.listen_nj()
    } else {
        0
    };
    let mut iq = if scheme == Scheme::Choir && cfg.iq_slots_per_gw > 0 {
        Some(Box::new(IqChoirPhy::new(
            cfg.params,
            cfg.seed ^ 0x9e37_79b9_7f4a_7c15 ^ u64::from(gw),
        )))
    } else {
        None
    };
    let mut iq_left = cfg.iq_slots_per_gw;

    // Scratch reused across every slot (capacity stabilises quickly).
    let mut cur: Vec<u32> = Vec::new();
    let mut prev: Vec<u32> = Vec::new();
    let mut snrs: Vec<i16> = Vec::new();
    let mut ok: Vec<bool> = Vec::new();
    let mut prev_prev_n = 0u32;
    let mut busy_until = 0u32;

    // One extra iteration flushes the deferred unslotted-ALOHA slot.
    for s in 0..=cfg.slots {
        cur.clear();
        if (s as usize) < total {
            std::mem::swap(&mut cur, &mut calendar[s as usize]);
        }

        // SS5G resolution window: the channel is busy disentangling an
        // earlier collision; arrivals sense it and defer past the
        // window (with a small random restagger so they don't pile up).
        if scheme == Scheme::Ss5g && s < busy_until && !cur.is_empty() {
            for &c in &cur {
                clients[c as usize].energy_nj =
                    clients[c as usize].energy_nj.saturating_add(listen_nj);
                let wake = busy_until + rng.gen_range(0..4u32);
                stats.deferrals += 1;
                if (wake as usize) < total {
                    calendar[wake as usize].push(c);
                }
            }
            cur.clear();
        }

        // Charge the transmission attempt (and the coordination beacon
        // listen) at the moment of transmission.
        for &c in &cur {
            let cl = &mut clients[c as usize];
            if cl.on_tx(s, tx_nj + listen_nj, &cfg.client) {
                stats.offered += 1;
            }
            stats.transmissions += 1;
        }

        if scheme == Scheme::Aloha {
            // Unslotted: a transmission at s−1 is vulnerable to both
            // neighbours, so its verdict waits until slot s's arrivals
            // are known. Rescheduling targets ≥ s+1, which this slot's
            // calendar pop has already passed — hence min_wake = s+1.
            if !prev.is_empty() {
                let slot = s - 1;
                let adjacent = prev_prev_n + cur.len() as u32;
                snrs.clear();
                snrs.extend(prev.iter().map(|&c| clients[c as usize].eff_snr_qdb()));
                model::resolve_closed_form(&cfg.model, scheme, &snrs, adjacent, &mut ok);
                stats.active_slots += 1;
                stats.peak_order = stats.peak_order.max(prev.len() as u32);
                let delivered = apply_outcomes(
                    cfg,
                    slot,
                    s + 1,
                    &prev,
                    &ok,
                    &mut clients,
                    &mut calendar,
                    &mut rng,
                    &mut stats,
                );
                let offered = prev.len() as u32;
                choir_trace::full(|| TraceEvent::CitySlot {
                    scheme: scheme.trace(),
                    gateway: gw,
                    slot: u64::from(slot),
                    offered,
                    delivered,
                });
            }
            prev_prev_n = prev.len() as u32;
            std::mem::swap(&mut prev, &mut cur);
        } else if !cur.is_empty() {
            snrs.clear();
            snrs.extend(cur.iter().map(|&c| clients[c as usize].eff_snr_qdb()));
            model::resolve_closed_form(&cfg.model, scheme, &snrs, 0, &mut ok);
            let order = cur.len() as u32;
            if let Some(iq) = iq.as_mut() {
                if iq_left > 0 && (2..=IQ_MAX_ORDER).contains(&order) {
                    iq_left -= 1;
                    escalate_iq(iq, cfg, &clients, &cur, &mut ok, &mut stats);
                }
            }
            stats.active_slots += 1;
            stats.peak_order = stats.peak_order.max(order);
            let delivered = apply_outcomes(
                cfg,
                s,
                s + 1,
                &cur,
                &ok,
                &mut clients,
                &mut calendar,
                &mut rng,
                &mut stats,
            );
            if scheme == Scheme::Ss5g && order >= 2 && delivered > 0 {
                // Slot-shift resolution of an order-k collision occupies
                // the channel for k−1 further slots.
                busy_until = s + order;
            }
            choir_trace::full(|| TraceEvent::CitySlot {
                scheme: scheme.trace(),
                gateway: gw,
                slot: u64::from(s),
                offered: order,
                delivered,
            });
        }
    }

    // Fold the battery ledgers into the gateway tally (the digest stays
    // a pure delivery transcript — energy is float-derived at config
    // build time and reported, not transcripted).
    stats.energy_nj = clients
        .iter()
        .fold(0u64, |a, c| a.saturating_add(c.energy_nj));
    stats
}
