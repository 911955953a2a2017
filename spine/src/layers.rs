//! The layer replay of a traced run: direct, timed calls into each
//! layer's public functions — on captures cut from the workload's own
//! input with the station's capture geometry where a layer's cost depends
//! on the input, on fixed operands where it does not.

use std::hint::black_box;
use std::time::{Duration, Instant};

use choir_core::cluster::{assign_components, AssignConfig, UserSignature};
use choir_core::decoder::{ChoirConfig, ChoirDecoder, SlotView};
use choir_core::sic::phased_sic;
use choir_dsp::backend;
use choir_dsp::complex::C64;
use choir_dsp::linalg::CholeskyFactor;
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig};
use lora_phy::detect::StreamScanner;
use lora_phy::modem::Modem;
use lora_phy::params::PhyParams;

use crate::gen::{self, CHUNK, LEAD_SYMBOLS, TAIL_SYMBOLS};
use crate::micro::time_ns;
use crate::report::Measured;
use crate::spans::Spans;
use crate::stats::median;

/// Captures a replay times at most.
pub const REPLAY_CAPTURES: usize = 16;
/// Captures a replay times even when its time is up.
const MIN_REPLAY_CAPTURES: usize = 2;
/// Measuring time per fixed-operand kernel.
const KERNEL_BUDGET: Duration = Duration::from_millis(40);
/// Time [`kernels`] takes, to be left at the end of a traced run.
pub const KERNELS_RESERVE: Duration = Duration::from_millis(800);

/// One slot's capture, cut as the station cuts it.
pub struct Capture {
    pub samples: Vec<C64>,
    /// Sample of the slot boundary inside `samples`.
    pub slot_start: usize,
    pub num_data_symbols: usize,
}

/// Cuts the capture of the slot starting at absolute sample `slot_start`
/// out of `stream`: `LEAD_SYMBOLS` before the boundary, the frame, and
/// `TAIL_SYMBOLS` after it. `None` when the stream ends inside the span.
pub fn cut_capture(
    stream: &[C64],
    slot_start: u64,
    params: &PhyParams,
    payload_len: usize,
) -> Option<Capture> {
    let n = params.samples_per_symbol();
    let start = usize::try_from(slot_start).ok()?;
    let lo = start.saturating_sub(LEAD_SYMBOLS * n);
    let hi = start + gen::frame_samples(params, payload_len) + TAIL_SYMBOLS * n;
    Some(Capture {
        samples: stream.get(lo..hi)?.to_vec(),
        slot_start: start - lo,
        num_data_symbols: lora_phy::frame::frame_symbol_count(params, payload_len),
    })
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `f`, returning its result and wall seconds, under a span.
fn timed<T>(spans: &mut Spans, name: &'static str, item: u64, f: impl FnOnce() -> T) -> (T, f64) {
    spans.enter(name, item);
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    spans.exit();
    (out, dt)
}

/// Replays `captures` through choir-core's and lora-phy's public stages
/// one call at a time: what one window or one view costs on *this*
/// workload's collision order and SNR mix. Stops taking captures at
/// `until`.
pub fn replay_captures(captures: &[Capture], until: Instant, m: &mut Measured, spans: &mut Spans) {
    let params = PhyParams::default();
    let cfg = ChoirConfig::default();
    let dec = ChoirDecoder::with_config(params, cfg);
    let est = dec.estimator();
    let modem = Modem::new(params);
    let n = params.samples_per_symbol();
    let (mut coarse_s, mut refine_s, mut sic_s, mut phases) = (vec![], vec![], vec![], vec![]);
    let (mut assign_s, mut discover_s, mut view_s) = (vec![], vec![], vec![]);
    let (mut frame_s, mut demod_s) = (vec![], vec![]);
    spans.enter("replay", 0);
    for (i, cap) in captures.iter().take(REPLAY_CAPTURES).enumerate() {
        if i >= MIN_REPLAY_CAPTURES && Instant::now() >= until {
            break;
        }
        let item = i as u64;
        spans.enter("replay.capture", item);
        let (users, dt) = timed(spans, "core.decoder.discover_users", item, || {
            dec.discover_users(&cap.samples, cap.slot_start)
        });
        discover_s.push(dt);
        let signatures: Vec<UserSignature> = users
            .iter()
            .map(|u| UserSignature {
                frac: u.frac,
                mag: u.mag,
            })
            .collect();
        // Interior preamble windows: one stable peak per user each.
        for w in 1..params.preamble_len {
            let lo = cap.slot_start + w * n;
            let Some(window) = cap.samples.get(lo..lo + n) else {
                break;
            };
            let (peaks, dt) = timed(spans, "core.estimator.coarse", item, || est.coarse(window));
            coarse_s.push(dt);
            if !peaks.is_empty() {
                let bins: Vec<f64> = peaks.iter().map(|p| p.pos).collect();
                let (_, dt) = timed(spans, "core.estimator.refine", item, || {
                    black_box(est.refine(window, &bins))
                });
                refine_s.push(dt);
            }
            let (sic, dt) = timed(spans, "core.sic.phased_sic", item, || {
                phased_sic(est, window, &cfg.sic)
            });
            sic_s.push(dt);
            phases.push(sic.phases as f64);
            let (_, dt) = timed(spans, "core.cluster.assign_components", item, || {
                black_box(assign_components(
                    &signatures,
                    &sic.components,
                    &AssignConfig::default(),
                ))
            });
            assign_s.push(dt);
        }
        let view = SlotView::new(&cap.samples, cap.slot_start, cap.num_data_symbols);
        let (decoded, dt) = timed(spans, "core.decoder.try_decode_view", item, || {
            dec.try_decode_view(view)
        });
        view_s.push(dt);
        for user in decoded.iter().flatten() {
            let (_, dt) = timed(spans, "phy.frame.decode_frame", item, || {
                black_box(lora_phy::frame::decode_frame(&params, &user.symbols).is_ok())
            });
            frame_s.push(dt);
        }
        let data_lo = cap.slot_start + (params.preamble_len + 2) * n;
        let (symbols, dt) = timed(spans, "phy.modem.demodulate", item, || {
            modem.demodulate(&cap.samples, data_lo, cap.num_data_symbols)
        });
        if !symbols.is_empty() {
            demod_s.push(dt / symbols.len() as f64);
        }
        spans.exit();
    }
    spans.exit();
    m.set("core.estimator.coarse_us", mean(&coarse_s) * 1e6);
    m.set("core.estimator.refine_ms", mean(&refine_s) * 1e3);
    m.set("core.sic.phased_sic_ms", mean(&sic_s) * 1e3);
    m.set("core.sic.phases_mean", mean(&phases));
    m.set("core.cluster.assign_us", mean(&assign_s) * 1e6);
    m.set("core.decoder.discover_users_ms", mean(&discover_s) * 1e3);
    m.set(
        "core.decoder.view_ms_p50",
        median(&view_s).unwrap_or(0.0) * 1e3,
    );
    m.set("phy.frame.decode_us", mean(&frame_s) * 1e6);
    m.set("phy.modem.demod_us_per_symbol", mean(&demod_s) * 1e6);
}

/// Times `StreamScanner::push` alone over `stream`, chunk by chunk.
pub fn scan_stream(stream: &[C64], m: &mut Measured, spans: &mut Spans) {
    let mut scanner = StreamScanner::new(
        Modem::new(PhyParams::default()),
        StationConfig::known_len(PhyParams::default(), gen::PACED_PAYLOAD).detect_threshold,
    );
    let mut hits = Vec::new();
    let (_, dt) = timed(spans, "phy.detect.scan", 0, || {
        for chunk in stream.chunks(CHUNK) {
            scanner.push(chunk, &mut hits);
        }
        scanner.flush(&mut hits);
    });
    m.set(
        "phy.detect.scan_msps",
        stream.len() as f64 / dt.max(1e-9) * 1e-6,
    );
    m.set(
        "phy.detect.windows_scanned",
        scanner.windows_scanned() as f64,
    );
}

/// Ingest rate of a free-running station on noise alone: what
/// `push_chunk` costs when there is nothing to decode.
pub fn idle_ingest(seed: u64, m: &mut Measured, spans: &mut Spans) {
    let noise = gen::noise_stream(seed, 2.0);
    let cfg = StationConfig::known_len(PhyParams::default(), gen::PACED_PAYLOAD);
    let mut station =
        Station::new(cfg, SlotSchedule::FreeRunning).with_pool(ThreadPool::sequential());
    let (_, dt) = timed(spans, "station.idle_ingest", 0, || {
        for chunk in noise.chunks(CHUNK) {
            station.push_chunk(chunk);
        }
    });
    black_box(station.finish());
    m.set(
        "station.idle_ingest_msps",
        noise.len() as f64 / dt.max(1e-9) * 1e-6,
    );
}

/// A Hermitian positive-definite Gram matrix of `k` tones `0.37` bins
/// apart and a matching right-hand side.
fn tone_gram(n: usize, k: usize) -> (Vec<C64>, Vec<C64>) {
    let tones: Vec<Vec<C64>> = (0..k)
        .map(|i| {
            let mut b = vec![C64::ZERO; n];
            backend::tone_into(&mut b, n, 17.3 + 0.37 * i as f64);
            b
        })
        .collect();
    let mut g = vec![C64::ZERO; k * k];
    for (i, a) in tones.iter().enumerate() {
        for (j, b) in tones.iter().enumerate() {
            if let Some(slot) = g.get_mut(i * k + j) {
                *slot = backend::conj_dot(a, b);
            }
        }
    }
    let rhs = tones
        .iter()
        .map(|t| backend::conj_dot(t, &tones[0]))
        .collect();
    (g, rhs)
}

/// Fixed-operand timings of choir-dsp, choir-pool and the lora-phy
/// dechirp: the same operands on every workload, so a difference between
/// workloads here is the host, not the program.
pub fn kernels(m: &mut Measured, spans: &mut Spans) {
    spans.enter("kernels", 0);
    let params = PhyParams::default();
    let n = params.samples_per_symbol();
    let pad = ChoirConfig::default().estimator.pad;
    let modem = Modem::new(params);
    let symbol = modem.modulate(&[77]);

    let dechirp = time_ns(KERNEL_BUDGET, || modem.dechirp(&symbol));
    m.set("phy.modem.dechirp_us", dechirp * 1e-3);

    let plan = choir_dsp::fft::plan(n);
    let mut buf = symbol.clone();
    let fwd = time_ns(KERNEL_BUDGET, || {
        buf.copy_from_slice(&symbol);
        plan.forward(&mut buf);
    });
    m.set("dsp.fft.forward_256_us", fwd * 1e-3);
    let padded = choir_dsp::fft::plan(n * pad);
    let mut wide = vec![C64::ZERO; n * pad];
    let fwd_padded = time_ns(KERNEL_BUDGET, || {
        choir_dsp::workspace::with(|ws| padded.forward_padded_into(&symbol, &mut wide, ws));
    });
    m.set("dsp.fft.forward_padded_us", fwd_padded * 1e-3);

    let w = ChoirConfig::default().estimator.block_width;
    let freqs: Vec<f64> = (0..w).map(|j| 17.3 + 0.01 * j as f64).collect();
    let mut block = vec![C64::ZERO; n * w];
    let tone = time_ns(KERNEL_BUDGET, || {
        backend::tone_block_into(&mut block, n, &freqs)
    });
    m.set("dsp.backend.tone_block_ns_per_cand", tone / w as f64);
    let mut proj = vec![C64::ZERO; w];
    let cdot = time_ns(KERNEL_BUDGET, || {
        backend::conj_dot_block(&block, &symbol, &mut proj)
    });
    m.set("dsp.backend.conj_dot_block_ns_per_cand", cdot / w as f64);
    let mut resid = vec![0.0f64; w];
    let res = time_ns(KERNEL_BUDGET, || {
        backend::residual_block(&block, &symbol, &proj, &mut resid)
    });
    m.set("dsp.backend.residual_block_ns_per_cand", res / w as f64);
    let mut acc = symbol.clone();
    let axpy = time_ns(KERNEL_BUDGET, || {
        backend::axpy(
            &mut acc,
            &symbol,
            C64 {
                re: 1e-3,
                im: -1e-3,
            },
            true,
        )
    });
    m.set("dsp.backend.axpy_256_ns", axpy);

    for k in [2usize, 5] {
        let (g, rhs) = tone_gram(n, k);
        let mut factor = CholeskyFactor::new();
        let mut x = vec![C64::ZERO; k];
        let solve = time_ns(KERNEL_BUDGET, || {
            if factor.factor(k, &g) {
                factor.solve_into(&rhs, &mut x);
            }
        });
        m.set(&format!("dsp.linalg.cholesky_solve_k{k}_ns"), solve);
    }

    let pool = ThreadPool::with_threads(crate::report::pool_threads());
    let items = [0u8; 64];
    let map = time_ns(KERNEL_BUDGET, || pool.map(&items, |i, _| i));
    m.set("pool.map_overhead_us", map * 1e-3);
    spans.exit();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cut_capture_has_the_stations_geometry() {
        let params = PhyParams::default();
        let cfg = StationConfig::known_len(params, gen::PACED_PAYLOAD);
        let stream = vec![C64::ZERO; 3 * cfg.capture_len()];
        let start = (cfg.capture_len() + 77) as u64;
        let cap = cut_capture(&stream, start, &params, gen::PACED_PAYLOAD).unwrap();
        assert_eq!(cap.samples.len(), cfg.capture_len());
        assert_eq!(
            cap.slot_start,
            cfg.lead_symbols * params.samples_per_symbol()
        );
        assert_eq!(cap.num_data_symbols, cfg.num_data_symbols);
        let past_end = (3 * cfg.capture_len() - 10) as u64;
        assert!(cut_capture(&stream, past_end, &params, gen::PACED_PAYLOAD).is_none());
    }
}
