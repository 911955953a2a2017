//! The estimator's accuracy ledger, `ACCURACY.json` at the repository
//! root — the statement of how far a decoder float may move (DESIGN §13,
//! "Objective or value").
//!
//! A seeded grid of collisions (collision order × SNR ladder ×
//! `SEEDS` oscillator draws), decoded through the public API only, and
//! two families of cells read off it:
//!
//! * **timing** — the error against the true delay `Δ` of
//!   `discover_users`' `timing_chips` (the seed path, read off the raw
//!   capture) and of each decoded user's final `timing_chips` (the
//!   per-turn path, read off the cleaned signal), as the number of true
//!   users matched within `FRAC_TOL` of a chip in the fractional part
//!   and within `CHIP_TOL` chips in all;
//! * **delivery** — CRC-ok payloads that match a transmitted one.
//!
//! Every count has a floor in `CELLS`. The document holds integers and
//! the grid's own constants, no wall-clock field, so two runs of one
//! commit are `cmp`-identical on any host, thread count or backend.

use choir_channel::impairments::OscillatorModel;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::cluster::circular_dist;
use choir_core::decoder::{ChoirDecoder, SlotView, UserEstimate};
use lora_phy::params::PhyParams;

/// Oscillator draws per cell.
const SEEDS: u64 = 30;
/// Seed of a cell's first draw is `FIRST_SEED + 100·(cell index)`.
const FIRST_SEED: u64 = 9000;
/// Payload bytes per frame.
const PAYLOAD_LEN: usize = 8;
/// Fractional-chip tolerance: what the timing read was good to before it
/// was closed-form (DESIGN §17).
const FRAC_TOL: f64 = 0.15;
/// Whole-timing tolerance in chips: integer errors this small cancel
/// against the matching frequency shift.
const CHIP_TOL: f64 = 2.0;
/// An estimate belongs to the true user whose aggregate offset it sits
/// within this many bins of.
const MATCH_BINS: f64 = 0.5;

/// The counts of one cell, in the order of [`COUNT_NAMES`].
type Counts = [usize; 5];

/// What a cell counts, of its `users`: true users the seed path
/// (`discover_users`, raw capture) times within [`FRAC_TOL`] in the
/// fractional chip and within [`CHIP_TOL`] chips in all; the same for the
/// per-turn path (the decoded user, cleaned signal); CRC-ok payloads
/// matched to truth.
const COUNT_NAMES: [&str; 5] = [
    "seed_frac_chip",
    "seed_chips",
    "final_frac_chip",
    "final_chips",
    "delivered",
];
/// Index of the delivery count in a [`Counts`].
const DELIVERED: usize = 4;

/// One cell of the grid: its SNR ladder (one user a rung) and the floor
/// under each of its counts.
struct Cell {
    name: &'static str,
    snrs_db: &'static [f64],
    floors: Counts,
}

/// Floors: a timing count may sit one user under what the closed-form
/// timing read (DESIGN §17) measures, so a later change cannot quietly
/// give its gain back; a delivery count one frame under what the decoder
/// delivered before that read. CHANGES.md lists both sides.
#[rustfmt::skip]
const CELLS: [Cell; 8] = [
    Cell { name: "k1_10", snrs_db: &[10.0], floors: [28, 27, 28, 27, 29] },
    Cell { name: "k2_20_14", snrs_db: &[20.0, 14.0], floors: [59, 43, 59, 58, 59] },
    Cell { name: "k3_20_14", snrs_db: &[20.0, 17.0, 14.0], floors: [85, 51, 87, 87, 86] },
    Cell { name: "k5_22_14", snrs_db: &[22.0, 20.0, 18.0, 16.0, 14.0], floors: [129, 64, 130, 123, 124] },
    Cell { name: "k5_30_6_near_far", snrs_db: &[30.0, 24.0, 18.0, 12.0, 6.0], floors: [104, 53, 105, 99, 102] },
    Cell { name: "k6_22_12", snrs_db: &[22.0, 20.0, 18.0, 16.0, 14.0, 12.0], floors: [149, 72, 162, 158, 154] },
    Cell { name: "k8_22_8", snrs_db: &[22.0, 20.0, 18.0, 16.0, 14.0, 12.0, 10.0, 8.0], floors: [180, 69, 161, 144, 140] },
    Cell { name: "k10_24_6", snrs_db: &[24.0, 22.0, 20.0, 18.0, 16.0, 14.0, 12.0, 10.0, 8.0, 6.0], floors: [176, 88, 157, 127, 132] },
];

/// The grid total must stay above what the decoder delivered before the
/// closed-form timing read (834 of 1 200).
const DELIVERED_TOTAL_FLOOR: usize = 833;

/// The measured ledger: the counts of each cell of the grid, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    cells: Vec<Counts>,
}

/// How many of a slot's true users the estimates `found` time within
/// tolerance: (fractional chip, whole timing). A true user is read by the
/// estimate nearest its aggregate offset, if one is within
/// [`MATCH_BINS`].
fn timing_hits(s: &CollisionScenario, found: &[UserEstimate]) -> (usize, usize) {
    let n = s.params.samples_per_symbol();
    let m = n as f64;
    let (mut frac, mut chips) = (0, 0);
    for truth in &s.users {
        let offset = truth
            .profile
            .aggregate_shift_bins(s.params.bin_hz(), n)
            .rem_euclid(m);
        let delta = truth.profile.timing_offset_symbols * m;
        let nearest = found
            .iter()
            .map(|u| (circular_dist(u.offset_bins, offset, m), u.timing_chips))
            .min_by(|a, b| a.0.total_cmp(&b.0));
        let Some((_, timing)) = nearest.filter(|(dist, _)| *dist <= MATCH_BINS) else {
            continue;
        };
        frac += usize::from(
            circular_dist(timing.rem_euclid(1.0), delta.rem_euclid(1.0), 1.0) <= FRAC_TOL,
        );
        chips += usize::from((timing - delta).abs() <= CHIP_TOL);
    }
    (frac, chips)
}

/// Decodes one slot of a cell both ways and counts it.
fn count_slot(dec: &ChoirDecoder, s: &CollisionScenario) -> Counts {
    let (seed_frac, seed_chips) = timing_hits(s, &dec.discover_users(&s.samples, s.slot_start));
    let view = SlotView::known_len(&s.params, &s.samples, s.slot_start, PAYLOAD_LEN);
    let decoded = dec.try_decode_view(view).unwrap_or_default();
    let finals: Vec<UserEstimate> = decoded.iter().map(|d| d.user).collect();
    let (final_frac, final_chips) = timing_hits(s, &finals);
    let delivered = s
        .users
        .iter()
        .filter(|truth| {
            decoded.iter().any(|d| {
                d.payload_ok() && d.frame.as_ref().is_some_and(|f| f.payload == truth.payload)
            })
        })
        .count();
    [seed_frac, seed_chips, final_frac, final_chips, delivered]
}

/// Runs the whole grid on the shared worker pool.
pub fn run() -> Ledger {
    let params = PhyParams::default();
    let dec = ChoirDecoder::new(params);
    let cells = CELLS
        .iter()
        .zip(0u64..)
        .map(|(cell, index)| {
            let seeds: Vec<u64> = (0..SEEDS).map(|i| FIRST_SEED + 100 * index + i).collect();
            let slots = choir_pool::global().map(&seeds, |_, &seed| {
                let s = ScenarioBuilder::new(params)
                    .snrs_db(cell.snrs_db)
                    .payload_len(PAYLOAD_LEN)
                    .oscillator(OscillatorModel::default())
                    .seed(seed)
                    .build();
                count_slot(&dec, &s)
            });
            let mut total = Counts::default();
            for slot in &slots {
                for (t, c) in total.iter_mut().zip(slot) {
                    *t += c;
                }
            }
            total
        })
        .collect();
    Ledger { cells }
}

impl Ledger {
    fn delivered_total(&self) -> usize {
        self.cells.iter().map(|c| c[DELIVERED]).sum()
    }

    /// Every count under its floor, as `cell.count: measured < floor`.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (cell, counts) in CELLS.iter().zip(&self.cells) {
            for ((name, got), floor) in COUNT_NAMES.iter().zip(counts).zip(cell.floors) {
                if *got < floor {
                    out.push(format!("{}.{name}: {got} < {floor}", cell.name));
                }
            }
        }
        let total = self.delivered_total();
        if total < DELIVERED_TOTAL_FLOOR {
            out.push(format!(
                "delivered_total: {total} < {DELIVERED_TOTAL_FLOOR}"
            ));
        }
        out
    }

    /// The document committed as `ACCURACY.json`: one cell a line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"grid\": {{\"sf\": {}, \"payload_len\": {PAYLOAD_LEN}, \"seeds\": {SEEDS}, \
             \"first_seed\": {FIRST_SEED}, \"oscillator\": \"default\", \
             \"frac_tol_chips\": {FRAC_TOL}, \"chip_tol\": {CHIP_TOL}}},\n  \"cells\": [\n",
            PhyParams::default().sf.bits()
        );
        let mut frames = 0;
        for (i, (cell, counts)) in CELLS.iter().zip(&self.cells).enumerate() {
            let users = cell.snrs_db.len() * SEEDS as usize;
            frames += users;
            let snrs: Vec<String> = cell.snrs_db.iter().map(|s| format!("{s}")).collect();
            let rows: Vec<String> = COUNT_NAMES
                .iter()
                .zip(counts)
                .zip(cell.floors)
                .map(|((name, got), floor)| {
                    format!("\"{name}\": {{\"count\": {got}, \"floor\": {floor}}}")
                })
                .collect();
            out += &format!(
                "    {{\"cell\": \"{}\", \"snrs_db\": [{}], \"users\": {users}, {}}}{}\n",
                cell.name,
                snrs.join(", "),
                rows.join(", "),
                if i + 1 < CELLS.len() { "," } else { "" }
            );
        }
        out += &format!(
            "  ],\n  \"delivered_total\": {{\"count\": {}, \"floor\": {DELIVERED_TOTAL_FLOOR}, \
             \"frames\": {frames}}}\n}}\n",
            self.delivered_total()
        );
        out
    }
}
