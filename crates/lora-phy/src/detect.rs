//! Single-user packet synchronisation and decoding — the standard
//! LoRaWAN receive path that Choir's baselines use. Finding where a
//! packet starts in a stream is [`crate::tracker`]'s job.
//!
//! Synchronisation: a combined integer offset `c` (timing plus CFO, which
//! are interchangeable for chirps — Sec. 6.1 of the paper) shifts *every*
//! dechirped peak by the same amount. The known sync-word symbols reveal
//! `c`, and the payload symbols are corrected by `−c`. Fractional residues
//! are harmless to hard-decision demodulation (they shave margin, which the
//! Gray + Hamming chain absorbs).

use crate::frame::{decode_frame, DecodedFrame, FrameError, SYNC_SYMBOLS};
use crate::modem::Modem;
use crate::params::PhyParams;
use choir_dsp::complex::C64;

// `spine/` names the scanner by this path.
pub use crate::tracker::StreamScanner;

/// Result of synchronising to one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketSync {
    /// Sample index of the first data (post-sync) symbol.
    pub data_start: usize,
    /// Combined integer timing+frequency shift, in bins, to subtract from
    /// every demodulated symbol.
    pub shift: u16,
}

/// Errors from the single-user receive path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxError {
    /// No preamble found / not enough samples.
    NotFound,
    /// The two sync symbols disagreed about the integer shift.
    SyncMismatch,
    /// The sync symbols agreed on a shift, but the windows before them do
    /// not demodulate like a preamble — the "packet" was a coincidence in
    /// mid-stream data or noise, not a transmission start.
    NoPreamble,
    /// Frame-level decoding failed.
    Frame(FrameError),
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NotFound => write!(f, "no packet found"),
            RxError::SyncMismatch => write!(f, "sync symbols disagree on shift"),
            RxError::NoPreamble => write!(f, "sync candidate not preceded by a preamble"),
            RxError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for RxError {}

/// Synchronises to a packet whose preamble begins within one symbol after
/// `approx_start` (e.g. a start a [`StreamScanner`] confirmed, or the
/// scheduled slot time in the MAC simulator).
///
/// Uses the sync-word symbols to measure the combined integer shift `c`.
pub fn synchronize(
    samples: &[C64],
    modem: &Modem,
    approx_start: usize,
) -> Result<PacketSync, RxError> {
    let n = modem.n();
    let p = modem.params();
    let sync_at = approx_start + p.preamble_len * n;
    let need = sync_at + 2 * n;
    if need > samples.len() {
        return Err(RxError::NotFound);
    }
    let alphabet = n as u16;
    let s1 = modem.demod_symbol(&samples[sync_at..sync_at + n]);
    let s2 = modem.demod_symbol(&samples[sync_at + n..sync_at + 2 * n]);
    let c1 = (s1 + alphabet - SYNC_SYMBOLS[0]) % alphabet;
    let c2 = (s2 + alphabet - SYNC_SYMBOLS[1]) % alphabet;
    if c1 != c2 {
        return Err(RxError::SyncMismatch);
    }
    // The sync word alone is two symbols — 1-in-2^SF odds of a mid-stream
    // coincidence, which the old code happily returned as a worst-bin
    // "sync". A real packet precedes the sync word with a preamble of base
    // up-chirps, and (timing + CFO being a *common* shift — Sec. 6.1)
    // every interior preamble window must demodulate to the same `c` the
    // sync word measured. Window 0 may straddle the packet edge for a
    // delayed transmitter, so it is excluded; a strict majority of the
    // rest tolerates occasional noise-flipped bins.
    let interior = 1..p.preamble_len;
    let mut matches = 0usize;
    for w in interior.clone() {
        let lo = approx_start + w * n;
        if modem.demod_symbol(&samples[lo..lo + n]) == c1 {
            matches += 1;
        }
    }
    if 2 * matches <= interior.len() {
        return Err(RxError::NoPreamble);
    }
    Ok(PacketSync {
        data_start: sync_at + 2 * n,
        shift: c1,
    })
}

/// Demodulates and decodes one packet starting near `approx_start`.
/// `num_data_symbols` bounds how many symbols to pull (use
/// [`crate::frame::frame_symbol_count`] when the length is known, or a
/// generous maximum otherwise — the frame header trims the rest).
pub fn decode_packet(
    samples: &[C64],
    modem: &Modem,
    approx_start: usize,
    num_data_symbols: usize,
) -> Result<DecodedFrame, RxError> {
    let sync = synchronize(samples, modem, approx_start)?;
    let n = modem.n();
    let alphabet = n as u16;
    let raw = modem.demodulate(samples, sync.data_start, num_data_symbols);
    let corrected: Vec<u16> = raw
        .into_iter()
        .map(|s| (s + alphabet - sync.shift) % alphabet)
        .collect();
    decode_frame(modem.params(), &corrected).map_err(RxError::Frame)
}

/// Convenience: full transmit chain for tests and examples — payload to
/// critically-sampled baseband waveform (preamble + sync + data).
pub fn transmit_packet(params: &PhyParams, payload: &[u8]) -> Vec<C64> {
    let modem = Modem::new(*params);
    let syms = crate::frame::packet_symbols(params, payload);
    modem.modulate(&syms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Bandwidth, CodeRate, SpreadingFactor};

    fn params() -> PhyParams {
        PhyParams {
            sf: SpreadingFactor::Sf8,
            bw: Bandwidth::Khz125,
            cr: CodeRate::Cr48,
            preamble_len: 8,
            explicit_crc: true,
        }
    }

    #[test]
    fn end_to_end_clean_decode() {
        let p = params();
        let modem = Modem::new(p);
        let payload = b"hello, urban LP-WAN".to_vec();
        let wave = transmit_packet(&p, &payload);
        let out = decode_packet(&wave, &modem, 0, 200).unwrap();
        assert_eq!(out.payload, payload);
        assert!(out.crc_ok && out.fec_reliable);
    }

    #[test]
    fn integer_shift_corrected_via_sync_word() {
        // Apply a pure integer CFO of +5 bins to the whole packet: every
        // dechirped symbol shifts by +5; the sync word must absorb it.
        let p = params();
        let modem = Modem::new(p);
        let payload = b"shifted".to_vec();
        let wave = transmit_packet(&p, &payload);
        let n = 256.0;
        let shifted: Vec<C64> = wave
            .iter()
            .enumerate()
            .map(|(i, v)| v * C64::cis(2.0 * std::f64::consts::PI * 5.0 * i as f64 / n))
            .collect();
        let sync = synchronize(&shifted, &modem, 0).unwrap();
        assert_eq!(sync.shift, 5);
        let out = decode_packet(&shifted, &modem, 0, 200).unwrap();
        assert_eq!(out.payload, payload);
    }

    #[test]
    fn truncated_stream_not_found() {
        let p = params();
        let modem = Modem::new(p);
        let wave = transmit_packet(&p, b"cut");
        let cut = &wave[..8 * 256]; // preamble only
        assert_eq!(synchronize(cut, &modem, 0), Err(RxError::NotFound));
    }

    /// Regression (PR 4): `synchronize` used to trust any position where
    /// the two worst-bin guesses at the sync offsets happened to agree.
    /// Mid-stream data containing the sync values at the right spacing —
    /// no preamble anywhere — returned a bogus `Ok(PacketSync)`. It must
    /// be a typed `NoPreamble` miss.
    #[test]
    fn mid_stream_sync_coincidence_is_no_preamble() {
        let p = params();
        let modem = Modem::new(p);
        // Arbitrary data symbols, with the sync word planted where the
        // receiver will look for it (windows 8 and 9 for an 8-symbol
        // preamble) — exactly the coincidence a long payload produces.
        let mut syms: Vec<u16> = vec![17, 203, 91, 54, 140, 222, 9, 180];
        syms.push(SYNC_SYMBOLS[0]);
        syms.push(SYNC_SYMBOLS[1]);
        syms.extend([33u16, 77, 129]);
        let wave = modem.modulate(&syms);
        // Before the fix: Ok(PacketSync { shift: 0 }) — the worst-bin guess.
        assert_eq!(synchronize(&wave, &modem, 0), Err(RxError::NoPreamble));
        // And the true packet still synchronises (the check accepts every
        // legitimate preamble).
        let packet = transmit_packet(&p, b"real");
        assert!(synchronize(&packet, &modem, 0).is_ok());
    }
}
