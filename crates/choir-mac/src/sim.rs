//! Slotted MAC simulators: ALOHA with binary exponential backoff, the
//! oracle TDMA scheduler, and Choir's beacon-triggered concurrent slots —
//! the three systems Fig. 8 compares (plus the "Ideal" upper bound).
//!
//! The workload is saturated uplink: every node always has a packet
//! pending, the regime in which the paper's density experiments measure
//! throughput, latency and transmissions-per-packet.

use lora_phy::params::PhyParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{MetricsCollector, RunMetrics};
use crate::phy::{SlotPhy, SlotTx};

/// The MAC under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacScheme {
    /// Slotted ALOHA with binary exponential backoff (LoRaWAN default).
    Aloha,
    /// Perfect TDMA: the oracle assigns exactly one node per slot.
    Oracle,
    /// Choir: every backlogged node transmits in the beacon slot and the
    /// base station disentangles the collision.
    Choir,
}

/// Maximum ALOHA backoff exponent (window `2^be` slots).
const MAX_BACKOFF_EXP: u32 = 6;

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// PHY parameters (sets the slot airtime).
    pub params: PhyParams,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Number of client nodes.
    pub num_nodes: usize,
    /// Number of slots to simulate.
    pub slots: usize,
    /// Per-node SNR range (dB); each node draws once (static placement).
    pub snr_range_db: (f64, f64),
    /// Beacon/coordination overhead added to each Choir/Oracle slot
    /// (seconds). ALOHA nodes transmit unsolicited and pay none.
    pub beacon_overhead_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A small default configuration for tests.
    pub fn new(num_nodes: usize, slots: usize) -> Self {
        SimConfig {
            params: PhyParams::default(),
            payload_len: 8,
            num_nodes,
            slots,
            snr_range_db: (10.0, 25.0),
            beacon_overhead_s: 0.01,
            seed: 0,
        }
    }

    /// Airtime of one data packet (slot payload), seconds.
    pub fn packet_airtime_s(&self) -> f64 {
        self.params.time_on_air(self.payload_len)
    }

    /// Payload bits carried per delivered packet.
    pub fn payload_bits(&self) -> u64 {
        (self.payload_len * 8) as u64
    }
}

struct NodeState {
    snr_db: f64,
    /// Time the current pending packet became ready: queues are saturated,
    /// so the next packet is ready the moment the last one is delivered.
    ready_at_s: f64,
    /// Remaining backoff slots (ALOHA only).
    backoff: usize,
    /// Current backoff exponent (ALOHA only).
    be: u32,
}

/// Runs a saturated-uplink simulation of the given MAC over the PHY.
pub fn run_sim<P: SlotPhy + ?Sized>(scheme: MacScheme, cfg: &SimConfig, phy: &mut P) -> RunMetrics {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xC0FFEE));
    let mut metrics = MetricsCollector::new();
    let slot_s = cfg.packet_airtime_s()
        + if scheme == MacScheme::Aloha {
            0.0
        } else {
            cfg.beacon_overhead_s
        };
    let mut nodes: Vec<NodeState> = (0..cfg.num_nodes)
        .map(|_| NodeState {
            snr_db: rng.gen_range(cfg.snr_range_db.0..=cfg.snr_range_db.1),
            ready_at_s: 0.0,
            backoff: 0,
            be: 0,
        })
        .collect();

    let mut oracle_turn = 0usize;
    for _ in 0..cfg.slots {
        let now = metrics.sim_time_s();
        let txs: Vec<SlotTx> = match scheme {
            MacScheme::Aloha => nodes
                .iter_mut()
                .enumerate()
                .filter_map(|(i, n)| {
                    if n.backoff > 0 {
                        n.backoff -= 1;
                        None
                    } else {
                        Some(SlotTx {
                            node: i,
                            snr_db: n.snr_db,
                        })
                    }
                })
                .collect(),
            MacScheme::Oracle => {
                // The oracle serves the nodes round-robin (none when
                // there are no nodes).
                let chosen = oracle_turn.checked_rem(cfg.num_nodes);
                oracle_turn += 1;
                chosen
                    .map(|i| SlotTx {
                        node: i,
                        snr_db: nodes[i].snr_db,
                    })
                    .into_iter()
                    .collect()
            }
            MacScheme::Choir => nodes
                .iter()
                .enumerate()
                .map(|(i, n)| SlotTx {
                    node: i,
                    snr_db: n.snr_db,
                })
                .collect(),
        };

        let outcome = phy.slot_outcome(&txs, cfg.payload_len);
        debug_assert_eq!(outcome.len(), txs.len());
        let end_of_slot = now + slot_s;
        for (tx, &ok) in txs.iter().zip(&outcome) {
            metrics.record_tx();
            let node = &mut nodes[tx.node];
            if ok {
                metrics.record_delivery(cfg.payload_bits(), end_of_slot - node.ready_at_s);
                node.ready_at_s = end_of_slot;
                node.be = 0;
                node.backoff = 0;
            } else if scheme == MacScheme::Aloha {
                node.be = (node.be + 1).min(MAX_BACKOFF_EXP);
                node.backoff = rng.gen_range(0..(1usize << node.be));
            }
        }
        metrics.advance_time(slot_s);
    }
    metrics.finish()
}

/// Runs many independent simulations in parallel through the shared
/// `choir-pool` worker pool (sized by `CHOIR_THREADS`).
///
/// `make_phy` builds a **fresh** PHY for each job — jobs never share
/// mutable PHY state — and `run_sim` seeds its own RNG from the job's
/// config, so the result vector is bit-identical to running each job
/// sequentially with its own PHY, regardless of thread count.
pub fn run_sims_parallel<F>(jobs: &[(MacScheme, SimConfig)], make_phy: F) -> Vec<RunMetrics>
where
    F: Fn(usize, MacScheme, &SimConfig) -> Box<dyn SlotPhy + Send> + Sync,
{
    choir_pool::global().map(jobs, |i, (scheme, cfg)| {
        let mut phy = make_phy(i, *scheme, cfg);
        run_sim(*scheme, cfg, &mut *phy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::{CollisionFatalPhy, IdealPhy, TabulatedChoirPhy};

    fn cfg(nodes: usize) -> SimConfig {
        SimConfig::new(nodes, 400)
    }

    #[test]
    fn oracle_delivers_every_slot() {
        let c = cfg(5);
        let mut phy = CollisionFatalPhy { params: c.params };
        let m = run_sim(MacScheme::Oracle, &c, &mut phy);
        assert_eq!(m.delivered, 400);
        assert!((m.tx_per_packet - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aloha_suffers_under_density() {
        let c = cfg(10);
        let mut phy = CollisionFatalPhy { params: c.params };
        let aloha = run_sim(MacScheme::Aloha, &c, &mut phy);
        let mut phy2 = CollisionFatalPhy { params: c.params };
        let oracle = run_sim(MacScheme::Oracle, &c, &mut phy2);
        assert!(
            aloha.throughput_bps < 0.7 * oracle.throughput_bps,
            "aloha {} vs oracle {}",
            aloha.throughput_bps,
            oracle.throughput_bps
        );
        assert!(aloha.tx_per_packet > 1.5);
    }

    #[test]
    fn aloha_single_node_near_perfect() {
        let c = cfg(1);
        let mut phy = CollisionFatalPhy { params: c.params };
        let m = run_sim(MacScheme::Aloha, &c, &mut phy);
        assert_eq!(m.delivered, 400);
        assert!((m.tx_per_packet - 1.0).abs() < 1e-9);
    }

    #[test]
    fn choir_ideal_scales_linearly() {
        let c4 = cfg(4);
        let m4 = run_sim(MacScheme::Choir, &c4, &mut IdealPhy);
        let c8 = cfg(8);
        let m8 = run_sim(MacScheme::Choir, &c8, &mut IdealPhy);
        let ratio = m8.throughput_bps / m4.throughput_bps;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn choir_beats_oracle_with_good_phy() {
        let c = cfg(8);
        // 90 % per-user success at any density.
        let mut phy = TabulatedChoirPhy::new(vec![0.9; 8], 3);
        let choir = run_sim(MacScheme::Choir, &c, &mut phy);
        let mut base = CollisionFatalPhy { params: c.params };
        let oracle = run_sim(MacScheme::Oracle, &c, &mut base);
        let gain = choir.throughput_bps / oracle.throughput_bps;
        assert!(gain > 5.0, "gain {gain}");
        // Latency should also be far lower than the oracle round-robin.
        assert!(choir.avg_latency_s < oracle.avg_latency_s);
    }

    #[test]
    fn degraded_phy_increases_retransmissions() {
        let c = cfg(6);
        let mut phy = TabulatedChoirPhy::new(vec![0.5; 6], 9);
        let m = run_sim(MacScheme::Choir, &c, &mut phy);
        assert!(m.tx_per_packet > 1.6, "tx/pkt {}", m.tx_per_packet);
        assert!(m.tx_per_packet < 3.0, "tx/pkt {}", m.tx_per_packet);
    }

    #[test]
    fn deterministic_under_seed() {
        let c = cfg(6);
        let a = run_sim(
            MacScheme::Choir,
            &c,
            &mut TabulatedChoirPhy::new(vec![0.7; 6], 5),
        );
        let b = run_sim(
            MacScheme::Choir,
            &c,
            &mut TabulatedChoirPhy::new(vec![0.7; 6], 5),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sims_match_sequential() {
        let jobs: Vec<(MacScheme, SimConfig)> = vec![
            (MacScheme::Aloha, cfg(6)),
            (MacScheme::Oracle, cfg(6)),
            (MacScheme::Choir, cfg(6)),
            (MacScheme::Choir, cfg(9)),
        ];
        let make = |_i: usize, scheme: MacScheme, c: &SimConfig| -> Box<dyn SlotPhy + Send> {
            match scheme {
                MacScheme::Choir => Box::new(TabulatedChoirPhy::new(vec![0.8; 8], c.seed ^ 11)),
                _ => Box::new(CollisionFatalPhy { params: c.params }),
            }
        };
        let par = run_sims_parallel(&jobs, make);
        assert_eq!(par.len(), jobs.len());
        for (i, (scheme, c)) in jobs.iter().enumerate() {
            let mut phy = make(i, *scheme, c);
            let seq = run_sim(*scheme, c, &mut *phy);
            assert_eq!(par[i], seq, "job {i} diverged");
        }
    }

    #[test]
    fn beacon_overhead_slows_choir_slots() {
        let mut c = cfg(2);
        c.beacon_overhead_s = 0.0;
        let fast = run_sim(MacScheme::Choir, &c, &mut IdealPhy);
        c.beacon_overhead_s = 0.2;
        let slow = run_sim(MacScheme::Choir, &c, &mut IdealPhy);
        assert!(slow.throughput_bps < fast.throughput_bps);
    }
}
