//! One module per paper figure. Every experiment exposes
//! `run(scale) -> FigureReport` printing the same rows/series the paper
//! plots; `Scale::Quick` keeps CI runtimes sane, `Scale::Full` is the
//! bench-harness setting.

pub mod city;
pub mod fig03;
pub mod fig04;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod station;

use choir_channel::scenario::CollisionScenario;
use choir_core::decoder::{ChoirDecoder, SlotResult, SlotView};

/// Experiment effort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Few trials — smoke-test sized.
    Quick,
    /// Paper-comparable trial counts.
    Full,
}

impl Scale {
    /// Scales a trial count.
    pub fn trials(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Batch-decodes one known-length slot per scenario on the shared worker
/// pool.
pub(crate) fn decode_scenarios(
    dec: &ChoirDecoder,
    scenarios: &[CollisionScenario],
    payload_len: usize,
) -> Vec<SlotResult> {
    let views: Vec<SlotView<'_>> = scenarios
        .iter()
        .map(|s| SlotView::known_len(&s.params, &s.samples, s.slot_start, payload_len))
        .collect();
    dec.decode_slot_views_with_pool(&views, *choir_pool::global())
}

/// Runs every figure at the given scale, in paper order.
pub fn run_all(scale: Scale) -> Vec<crate::report::FigureReport> {
    vec![
        fig03::run(scale),
        fig04::run(scale),
        fig07::run(scale),
        fig08::run_snr(scale),
        fig08::run_users(scale),
        fig09::run_throughput(scale),
        fig09::run_range(scale),
        fig10::run(scale),
        fig11::run_grouping(scale),
        fig11::run_end_to_end(scale),
        fig12::run(scale),
        station::run(scale),
        city::run(scale),
    ]
}
