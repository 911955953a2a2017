//! Chirp synthesis — the waveform model everything else rests on.
//!
//! A LoRa symbol `s ∈ [0, 2^SF)` is the base up-chirp cyclically shifted by
//! `s` chips: its instantaneous frequency starts at `(s/N − 1/2)·B`, rises
//! linearly at `B/T` Hz/s, and wraps from `+B/2` back to `−B/2` after
//! `N − s` chips (Fig. 2 of the paper).
//!
//! We evaluate the waveform *analytically at fractional chip time*, which
//! lets the channel simulator delay a transmitter by any sub-sample timing
//! offset exactly — no interpolation error. At integer chip times the
//! wrapped phase coincides with the textbook unwrapped quadratic
//! `exp(j2π(τ²/2N + (s/N − ½)τ))` because the wrap only subtracts whole
//! cycles there; at fractional times the wrap matters and is modelled.

use choir_dsp::complex::C64;
use choir_sync::{Mutex, OnceLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Phase in radians of the symbol-`s` up-chirp at fractional chip time
/// `tau ∈ [0, n)`, for an alphabet of `n = 2^SF` chips.
///
/// The piecewise form subtracts one cycle per chip after the frequency
/// wrap at `tau_w = n − s`:
/// `φ(τ)/2π = τ²/(2n) + (s/n − ½)·τ − max(0, τ − (n − s))`.
pub fn symbol_phase(n: usize, s: u16, tau: f64) -> f64 {
    debug_assert!((s as usize) < n, "symbol value out of alphabet");
    let nf = n as f64;
    let sv = s as f64;
    let wrap = (tau - (nf - sv)).max(0.0);
    2.0 * std::f64::consts::PI * (tau * tau / (2.0 * nf) + (sv / nf - 0.5) * tau - wrap)
}

/// One sample of the symbol-`s` up-chirp at fractional chip time `tau`.
/// Returns zero outside `[0, n)` — the symbol does not exist there.
pub fn symbol_sample(n: usize, s: u16, tau: f64) -> C64 {
    if tau < 0.0 || tau >= n as f64 {
        return C64::ZERO;
    }
    C64::cis(symbol_phase(n, s, tau))
}

/// The base up-chirp (`s = 0`) sampled at integer chips.
pub fn base_upchirp(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::cis(symbol_phase(n, 0, i as f64)))
        .collect()
}

/// The base down-chirp: complex conjugate of the base up-chirp. Multiplying
/// a received symbol by this "dechirps" it into a pure tone.
///
/// Conjugation goes through the DSP backend, which is exact (a sign-bit
/// flip) in every implementation — the table is identical regardless of
/// the backend active when it was first built, so the process-wide
/// caches below stay backend-independent.
pub fn base_downchirp(n: usize) -> Vec<C64> {
    let up = base_upchirp(n);
    let mut down = vec![C64::ZERO; n];
    choir_dsp::backend::conj_into(&up, &mut down);
    down
}

/// Process-wide cached base up-chirp for `n` chips, shared via `Arc`.
///
/// The base tables are pure functions of `n` and every decoder, estimator
/// and modem for the same spreading factor uses the same ones; caching them
/// (mirroring `choir_dsp::fft::plan`) means constructing those objects stops
/// re-deriving `n` transcendentals each. Only a handful of distinct `n`
/// values ever occur (one per spreading factor), so the footprint is tiny.
pub fn base_upchirp_cached(n: usize) -> Arc<Vec<C64>> {
    cached_tables(n).0
}

/// Process-wide cached base down-chirp for `n` chips, shared via `Arc`.
/// See [`base_upchirp_cached`].
pub fn base_downchirp_cached(n: usize) -> Arc<Vec<C64>> {
    cached_tables(n).1
}

fn cached_tables(n: usize) -> (Arc<Vec<C64>>, Arc<Vec<C64>>) {
    type Tables = Mutex<HashMap<usize, (Arc<Vec<C64>>, Arc<Vec<C64>>)>>;
    static GLOBAL: OnceLock<Tables> = OnceLock::new();
    let cache = GLOBAL.get_or_init(|| Mutex::new(HashMap::new()));
    // The facade lock recovers from poisoning; a half-initialised map
    // entry cannot exist (entries are inserted whole).
    let mut map = cache.lock();
    map.entry(n)
        .or_insert_with(|| {
            let up = Arc::new(base_upchirp(n));
            let down = Arc::new(base_downchirp(n));
            (up, down)
        })
        .clone()
}

/// The symbol-`s` up-chirp sampled at integer chips (ideal transmitter).
pub fn modulated_chirp(n: usize, s: u16) -> Vec<C64> {
    (0..n)
        .map(|i| C64::cis(symbol_phase(n, s, i as f64)))
        .collect()
}

/// A whole packet's baseband waveform, evaluable at fractional chip time.
///
/// Symbol `k` occupies global chip time `[k·n, (k+1)·n)`. Each symbol's
/// phase restarts at zero (per-symbol phase reset; the SX1276 is
/// phase-continuous, but the dechirp-per-symbol receiver is insensitive to
/// the difference and the reset makes the per-symbol channel phase model of
/// Sec. 6.2 exact).
#[derive(Clone, Debug)]
pub struct PacketWaveform {
    /// Chips per symbol.
    n: usize,
    /// The symbol sequence, preamble included.
    symbols: Vec<u16>,
}

impl PacketWaveform {
    /// Builds a waveform for `symbols` with `n = 2^SF` chips per symbol.
    ///
    /// # Panics
    /// Panics if any symbol value is outside the alphabet.
    pub fn new(n: usize, symbols: Vec<u16>) -> Self {
        assert!(
            n.is_power_of_two(),
            "chips per symbol must be a power of two"
        );
        for &s in &symbols {
            assert!((s as usize) < n, "symbol {s} out of alphabet {n}");
        }
        PacketWaveform { n, symbols }
    }

    /// Chips per symbol.
    pub fn chips_per_symbol(&self) -> usize {
        self.n
    }

    /// Number of symbols (preamble included).
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The symbol sequence.
    pub fn symbols(&self) -> &[u16] {
        &self.symbols
    }

    /// Total duration in chips.
    pub fn duration_chips(&self) -> f64 {
        (self.n * self.symbols.len()) as f64
    }

    /// Evaluates the waveform at global fractional chip time `tau`
    /// (zero outside the packet).
    pub fn sample(&self, tau: f64) -> C64 {
        if tau < 0.0 {
            return C64::ZERO;
        }
        let sym_idx = (tau / self.n as f64).floor() as usize;
        if sym_idx >= self.symbols.len() {
            return C64::ZERO;
        }
        let local = tau - (sym_idx * self.n) as f64;
        symbol_sample(self.n, self.symbols[sym_idx], local)
    }

    /// Renders the ideal (zero-offset) waveform at integer chips.
    pub fn render(&self) -> Vec<C64> {
        self.symbols
            .iter()
            .flat_map(|&s| modulated_chirp(self.n, s))
            .collect()
    }
}

// Tests assert on exactly-representable values (0.0, bin centres).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;
    use choir_dsp::fft::plan;

    #[test]
    fn base_chirps_are_unit_modulus() {
        for z in base_upchirp(64) {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_tables_are_shared_and_exact() {
        let a = base_upchirp_cached(64);
        let b = base_upchirp_cached(64);
        assert!(Arc::ptr_eq(&a, &b), "same n must share one table");
        assert_eq!(a.as_slice(), base_upchirp(64).as_slice());
        let d = base_downchirp_cached(64);
        assert_eq!(d.as_slice(), base_downchirp(64).as_slice());
    }

    #[test]
    fn downchirp_is_conjugate() {
        let up = base_upchirp(32);
        let down = base_downchirp(32);
        for (u, d) in up.iter().zip(&down) {
            assert!((u.conj() - d).abs() < 1e-12);
        }
    }

    #[test]
    fn dechirped_symbol_is_pure_tone_at_s() {
        let n = 128;
        let down = base_downchirp(n);
        for s in [0u16, 1, 17, 64, 127] {
            let sym = modulated_chirp(n, s);
            let mut spec: Vec<C64> = sym.iter().zip(&down).map(|(a, b)| a * b).collect();
            plan(n).forward(&mut spec);
            let (kmax, _) = spec
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .unwrap();
            assert_eq!(kmax, s as usize, "symbol {s}");
            // All energy in one bin: perfect orthogonality at integer chips.
            assert!((spec[kmax].abs() - n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn wrapped_phase_matches_unwrapped_at_integers() {
        let n = 256;
        let s = 100u16;
        for i in 0..n {
            let tau = i as f64;
            let wrapped = C64::cis(symbol_phase(n, s, tau));
            let nf = n as f64;
            let unwrapped = C64::cis(
                2.0 * std::f64::consts::PI * (tau * tau / (2.0 * nf) + (s as f64 / nf - 0.5) * tau),
            );
            assert!((wrapped - unwrapped).abs() < 1e-9, "chip {i}");
        }
    }

    #[test]
    fn instantaneous_frequency_wraps() {
        // Numeric derivative of phase: before the wrap point the frequency
        // is (s/n - 1/2 + tau/n) cycles/chip; after it drops by 1.
        let n = 128;
        let s = 96u16;
        let h = 1e-6;
        let freq = |tau: f64| {
            (symbol_phase(n, s, tau + h) - symbol_phase(n, s, tau - h))
                / (2.0 * h)
                / (2.0 * std::f64::consts::PI)
        };
        let pre = freq(10.0);
        let expected_pre = s as f64 / n as f64 - 0.5 + 10.0 / n as f64;
        assert!((pre - expected_pre).abs() < 1e-6);
        let post = freq((n - s as usize) as f64 + 10.0);
        let expected_post = expected_pre + ((n - s as usize) as f64) / n as f64 - 1.0;
        assert!(
            (post - expected_post).abs() < 1e-6,
            "post {post} vs {expected_post}"
        );
    }

    #[test]
    fn timing_offset_shifts_dechirp_peak() {
        // Delay by Δ chips → dechirped tone moves by −Δ bins (Eqn. 5).
        let n = 128;
        let s = 40u16;
        let delta = 3.0;
        let down = base_downchirp(n);
        let mut spec: Vec<C64> = (0..n)
            .map(|i| symbol_sample(n, s, i as f64 - delta) * down[i])
            .collect();
        plan(n).forward(&mut spec);
        let (kmax, _) = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap();
        assert_eq!(kmax, (s as usize + n - 3) % n);
    }

    #[test]
    fn packet_waveform_sampling() {
        let pw = PacketWaveform::new(64, vec![0, 5, 63]);
        assert_eq!(pw.num_symbols(), 3);
        assert_eq!(pw.duration_chips(), 192.0);
        // Inside symbol 1 at local chip 10:
        let v = pw.sample(64.0 + 10.0);
        let expect = symbol_sample(64, 5, 10.0);
        assert!((v - expect).abs() < 1e-12);
        // Outside the packet:
        assert_eq!(pw.sample(-0.5), C64::ZERO);
        assert_eq!(pw.sample(192.0), C64::ZERO);
    }

    #[test]
    fn render_matches_sample_at_integers() {
        let pw = PacketWaveform::new(32, vec![3, 31, 0, 16]);
        let r = pw.render();
        assert_eq!(r.len(), 128);
        for (i, v) in r.iter().enumerate() {
            assert!((v - pw.sample(i as f64)).abs() < 1e-12, "chip {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of alphabet")]
    fn symbol_out_of_alphabet_panics() {
        let _ = PacketWaveform::new(64, vec![64]);
    }

    #[test]
    fn adjacent_symbols_orthogonal_under_dechirp() {
        // Energy of symbol a dechirped lands in bin a, not bin b.
        let n = 64;
        let down = base_downchirp(n);
        let a = modulated_chirp(n, 10);
        let mut spec: Vec<C64> = a.iter().zip(&down).map(|(x, d)| x * d).collect();
        plan(n).forward(&mut spec);
        assert!(spec[10].abs() > 1e3 * spec[20].abs());
    }
}
