//! Quick per-stage latency profile over a few collision slots.
//!
//! `cargo run --release -p choir-bench --example profile_slots`

use choir_bench::two_user_scenario;
use choir_core::decoder::{ChoirDecoder, SlotView};
use choir_core::profile;
use lora_phy::params::PhyParams;
use std::time::Instant;

fn main() {
    let scenarios: Vec<_> = (0..3u64).map(|i| two_user_scenario(100 + i)).collect();
    let slots: Vec<SlotView<'_>> = scenarios
        .iter()
        .map(|s| SlotView::known_len(&s.params, &s.samples, s.slot_start, 8))
        .collect();
    let dec = ChoirDecoder::new(PhyParams::default());
    let _ = profile::snapshot_and_reset();
    let t = Instant::now();
    let pool = choir_pool::ThreadPool::with_threads(1);
    for out in dec.decode_slot_views_with_pool(&slots, pool) {
        println!("slot: {} users, err={:?}", out.users.len(), out.error);
    }
    let total = t.elapsed().as_secs_f64();
    let snap = profile::snapshot_and_reset();
    let accounted: f64 = snap.iter().sum();
    println!("total {total:.3} s over {} slots", slots.len());
    for (name, secs) in profile::STAGE_NAMES.iter().zip(snap) {
        println!("  {name:<8} {secs:8.3} s  ({:5.1}%)", 100.0 * secs / total);
    }
    println!(
        "  {:<8} {:8.3} s  ({:5.1}%)",
        "other",
        total - accounted,
        100.0 * (total - accounted) / total
    );
}
