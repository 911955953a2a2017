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
//! * **delivery** — CRC-ok payloads that match a transmitted one;
//! * **candidates** — how many users `discover_users` hands the
//!   demodulator, true or ghost: each costs a demodulation turn.
//!
//! Every count has a floor in `CELLS`, and `candidates` a ceiling. The
//! document holds integers and the grid's own constants, no wall-clock
//! field, so two runs of one commit are `cmp`-identical on any host,
//! thread count or backend.

use choir_channel::impairments::OscillatorModel;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::cluster::circular_dist;
use choir_core::decoder::{ChoirDecoder, SlotView, UserEstimate};
use lora_phy::params::PhyParams;

/// Oscillator draws per cell on the committed grid.
const SEEDS: u64 = 30;
/// First seed of the committed grid; see [`Grid::seed`].
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

/// One cell of the grid: its SNR ladder (one user a rung), the floor
/// under each of its counts and the ceiling over its candidates.
struct Cell {
    name: &'static str,
    snrs_db: &'static [f64],
    floors: Counts,
    candidates_ceiling: usize,
}

/// Floors: one under what the decoder counts today or the floor the
/// count had before, whichever is higher, so a floor only ever rises and a
/// later change cannot quietly give its gain back (CHANGES.md records each
/// move). Ceilings: one over the candidates count or the ceiling before,
/// whichever is lower.
#[rustfmt::skip]
const CELLS: [Cell; 8] = [
    Cell { name: "k1_10", snrs_db: &[10.0], floors: [29, 28, 29, 28, 29], candidates_ceiling: 40 },
    Cell { name: "k2_20_14", snrs_db: &[20.0, 14.0], floors: [59, 44, 59, 59, 59], candidates_ceiling: 90 },
    Cell { name: "k3_20_14", snrs_db: &[20.0, 17.0, 14.0], floors: [85, 52, 88, 88, 88], candidates_ceiling: 132 },
    Cell { name: "k5_22_14", snrs_db: &[22.0, 20.0, 18.0, 16.0, 14.0], floors: [130, 68, 142, 141, 140], candidates_ceiling: 201 },
    Cell { name: "k5_30_6_near_far", snrs_db: &[30.0, 24.0, 18.0, 12.0, 6.0], floors: [102, 53, 135, 130, 132], candidates_ceiling: 198 },
    Cell { name: "k6_22_12", snrs_db: &[22.0, 20.0, 18.0, 16.0, 14.0, 12.0], floors: [150, 72, 173, 167, 164], candidates_ceiling: 251 },
    Cell { name: "k8_22_8", snrs_db: &[22.0, 20.0, 18.0, 16.0, 14.0, 12.0, 10.0, 8.0], floors: [183, 69, 188, 174, 168], candidates_ceiling: 274 },
    Cell { name: "k10_24_6", snrs_db: &[24.0, 22.0, 20.0, 18.0, 16.0, 14.0, 12.0, 10.0, 8.0, 6.0], floors: [177, 91, 222, 192, 175], candidates_ceiling: 323 },
];

/// The grid total may sit two frames under what the decoder delivers
/// (962 of 1 200).
const DELIVERED_TOTAL_FLOOR: usize = 960;

/// Which seeds a ledger decodes: `draws` a cell, from `first_seed` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Seed of the first cell's first draw.
    pub first_seed: u64,
    /// Oscillator draws per cell.
    pub draws: u64,
}

impl Grid {
    /// The grid `ACCURACY.json` is measured on, and the only one its
    /// floors and ceilings speak for.
    pub const COMMITTED: Grid = Grid {
        first_seed: FIRST_SEED,
        draws: SEEDS,
    };

    /// Seed of draw `i` of cell `cell`: cells start a power of ten (at
    /// least 100) apart, the smallest that holds `draws`, so no two cells
    /// share a seed.
    fn seed(&self, cell: u64, i: u64) -> u64 {
        let mut stride = 100;
        while stride < self.draws {
            stride *= 10;
        }
        self.first_seed + stride * cell + i
    }
}

/// What one cell measured: its counts and its candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    counts: Counts,
    candidates: usize,
}

/// The measured ledger: the tally of each cell of the grid, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    grid: Grid,
    cells: Vec<Tally>,
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
fn count_slot(dec: &ChoirDecoder, s: &CollisionScenario) -> Tally {
    let candidates = dec.discover_users(&s.samples, s.slot_start);
    let (seed_frac, seed_chips) = timing_hits(s, &candidates);
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
    Tally {
        counts: [seed_frac, seed_chips, final_frac, final_chips, delivered],
        candidates: candidates.len(),
    }
}

/// Runs the committed grid on the shared worker pool.
pub fn run() -> Ledger {
    run_grid(Grid::COMMITTED)
}

/// Runs `grid` on the shared worker pool.
pub fn run_grid(grid: Grid) -> Ledger {
    let params = PhyParams::default();
    let dec = ChoirDecoder::new(params);
    let cells = CELLS
        .iter()
        .zip(0u64..)
        .map(|(cell, index)| {
            let seeds: Vec<u64> = (0..grid.draws).map(|i| grid.seed(index, i)).collect();
            let slots = choir_pool::global().map(&seeds, |_, &seed| {
                let s = ScenarioBuilder::new(params)
                    .snrs_db(cell.snrs_db)
                    .payload_len(PAYLOAD_LEN)
                    .oscillator(OscillatorModel::default())
                    .seed(seed)
                    .build();
                count_slot(&dec, &s)
            });
            let mut total = Tally::default();
            for slot in &slots {
                for (t, c) in total.counts.iter_mut().zip(&slot.counts) {
                    *t += c;
                }
                total.candidates += slot.candidates;
            }
            total
        })
        .collect();
    Ledger { grid, cells }
}

impl Ledger {
    fn delivered_total(&self) -> usize {
        self.cells.iter().map(|c| c.counts[DELIVERED]).sum()
    }

    /// Every count under its floor, as `cell.count: measured < floor`, and
    /// every candidates count over its ceiling. Empty off the committed
    /// grid, which is a measurement the bounds do not speak for.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.grid != Grid::COMMITTED {
            return out;
        }
        for (cell, tally) in CELLS.iter().zip(&self.cells) {
            for ((name, got), floor) in COUNT_NAMES.iter().zip(&tally.counts).zip(cell.floors) {
                if *got < floor {
                    out.push(format!("{}.{name}: {got} < {floor}", cell.name));
                }
            }
            if tally.candidates > cell.candidates_ceiling {
                out.push(format!(
                    "{}.candidates: {} > {}",
                    cell.name, tally.candidates, cell.candidates_ceiling
                ));
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
            "{{\n  \"grid\": {{\"sf\": {}, \"payload_len\": {PAYLOAD_LEN}, \"seeds\": {}, \
             \"first_seed\": {}, \"oscillator\": \"default\", \
             \"frac_tol_chips\": {FRAC_TOL}, \"chip_tol\": {CHIP_TOL}}},\n  \"cells\": [\n",
            PhyParams::default().sf.bits(),
            self.grid.draws,
            self.grid.first_seed
        );
        let mut frames = 0;
        for (i, (cell, tally)) in CELLS.iter().zip(&self.cells).enumerate() {
            let users = cell.snrs_db.len() * self.grid.draws as usize;
            frames += users;
            let snrs: Vec<String> = cell.snrs_db.iter().map(|s| format!("{s}")).collect();
            let mut rows: Vec<String> = COUNT_NAMES
                .iter()
                .zip(&tally.counts)
                .zip(cell.floors)
                .map(|((name, got), floor)| {
                    format!("\"{name}\": {{\"count\": {got}, \"floor\": {floor}}}")
                })
                .collect();
            rows.push(format!(
                "\"candidates\": {{\"count\": {}, \"ceiling\": {}}}",
                tally.candidates, cell.candidates_ceiling
            ));
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
