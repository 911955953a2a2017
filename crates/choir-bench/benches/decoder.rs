//! Benchmarks of the Choir decoder's stages on a standard two-user
//! collision: offset estimation (Algorithm 1), phased SIC on one window,
//! and the full packet decode.

use choir_bench::harness::Bench;
use choir_bench::two_user_scenario;
use choir_core::decoder::{ChoirDecoder, SlotView};
use choir_core::estimator::{EstimatorConfig, OffsetEstimator};
use choir_core::sic::{phased_sic, SicConfig};

fn main() {
    let s = two_user_scenario(1);
    let n = s.params.samples_per_symbol();
    let est = OffsetEstimator::new(n, EstimatorConfig::default());
    let win = s.samples[s.slot_start + n..s.slot_start + 2 * n].to_vec();

    let mut b = Bench::group("decoder");
    b.bench("algorithm1_estimate_2users", || est.estimate(&win));
    b.bench("phased_sic_window_2users", || {
        phased_sic(&est, &win, &SicConfig::default())
    });

    let dec = ChoirDecoder::new(s.params);
    let slot = SlotView::known_len(&s.params, &s.samples, s.slot_start, 8);
    b.bench("full_packet_2users", || dec.try_decode_view(slot));
}
