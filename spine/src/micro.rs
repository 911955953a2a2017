//! Wall-clock timing of one small call: batches sized from a warm-up,
//! the median batch reported, so a pre-empted batch moves nothing.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per measurement.
const BATCHES: usize = 15;

/// Median nanoseconds per call of `f`, measured for about `budget`.
pub fn time_ns<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let warm_for = budget / 5;
    let warm_start = Instant::now();
    let mut warm_calls = 0u64;
    while warm_calls == 0 || warm_start.elapsed() < warm_for {
        black_box(f());
        warm_calls += 1;
    }
    let per_call = warm_start.elapsed().as_secs_f64() / warm_calls as f64;
    let per_batch = (budget - warm_for).as_secs_f64() / BATCHES as f64;
    let calls = ((per_batch / per_call.max(1e-12)) as u64).max(1);
    let mut batch_ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    batch_ns.sort_by(f64::total_cmp);
    batch_ns.get(BATCHES / 2).copied().unwrap_or(0.0)
}
