//! Stage 4: frame-decoding each user's symbol stream through the LoRa
//! chain, with sync validation, CRC-guided list decoding and ghost-user
//! removal.

use lora_phy::frame::{decode_frame, DecodedFrame, SYNC_SYMBOLS};

use super::cancel::UserPass;
use super::demod::CombDecision;
use super::{ChoirDecoder, DecodedUser};
use crate::error::DecodeError;

impl ChoirDecoder {
    /// Turns each user's final symbol decisions into a [`DecodedUser`]:
    /// checks the preamble and sync words, strips them, runs the frame
    /// chain (falling back to list decoding when the CRC fails), drops
    /// unsynchronised candidates when configured to, and removes ghosts.
    pub(super) fn frame_users(&self, slot_start: usize, states: Vec<UserPass>) -> Vec<DecodedUser> {
        let p = self.params.preamble_len;
        let mut decoded = Vec::with_capacity(states.len());
        for UserPass {
            user,
            decisions,
            symbols,
            erasures,
            ..
        } in states
        {
            let sync_errors = symbols[p..p + 2]
                .iter()
                .zip(SYNC_SYMBOLS)
                .filter(|(&got, want)| got != *want)
                .count();
            let preamble_errors = symbols[..p].iter().filter(|&&v| v != 0).count();
            let mut data: Vec<u16> = symbols[p + 2..].to_vec();
            let (mut frame, mut frame_error) = match decode_frame(&self.params, &data) {
                Ok(f) => (Some(f), None),
                Err(source) => (
                    None,
                    Some(
                        DecodeError::Frame {
                            offset_bins: user.offset_bins,
                            source,
                        }
                        .traced(),
                    ),
                ),
            };
            // Preamble-stage tracking occasionally promotes residual skirt
            // or noise into a user candidate; a real transmitter always
            // lands the known sync symbols. An unsynchronised candidate is
            // dropped whatever its frame says, so it is dropped before the
            // list decoder's odometer (up to 3⁸ frame decodes) is spent on
            // it. The first decode above stays ahead of the gate: its
            // error event is part of the slot's trace.
            if sync_errors > 0 || preamble_errors > p / 2 {
                continue;
            }
            let crc_ok = frame.as_ref().map(|f| f.crc_ok).unwrap_or(false);
            if !crc_ok {
                // CRC-guided list decoding: in dense collisions, residual
                // interference occasionally pushes the true symbol to the
                // runner-up slot. Re-try the lowest-confidence windows with
                // their runner-up values until the CRC validates.
                if let Some((fixed_data, fixed_frame)) =
                    self.list_decode(&decisions[p + 2..], &data)
                {
                    data = fixed_data;
                    frame = Some(fixed_frame);
                    frame_error = None;
                }
            }
            decoded.push(DecodedUser {
                user,
                symbols: data,
                sync_errors,
                erasures,
                frame,
                frame_error,
            });
        }
        let out = dedup_ghosts(decoded);
        // Outcome-level provenance: what the slot yielded.
        choir_trace::outcome(|| choir_trace::TraceEvent::SlotOutcome {
            slot_start: slot_start as u64,
            users: u32::try_from(out.len()).unwrap_or(u32::MAX),
            crc_ok: u32::try_from(out.iter().filter(|u| u.payload_ok()).count())
                .unwrap_or(u32::MAX),
        });
        out
    }

    /// Tries alternative values at the most-suspect data windows until a
    /// CRC-passing frame emerges. A window is suspect when its winning
    /// score is low relative to the user's typical winning score — the
    /// signature of the user's own peak having been beaten by residual
    /// interference. Searches the product of the top-3 candidates over up
    /// to `LIST_DECODE_WINDOWS` windows (≤ 3⁸ ≈ 6.6k cheap frame decodes).
    fn list_decode(
        &self,
        decisions: &[CombDecision],
        data: &[u16],
    ) -> Option<(Vec<u16>, DecodedFrame)> {
        const LIST_DECODE_WINDOWS: usize = 8;
        if decisions.is_empty() {
            return None;
        }
        // Typical winning score (median) as the reference.
        let mut scores: Vec<f64> = decisions.iter().map(|d| d.winner_score()).collect();
        scores.sort_by(f64::total_cmp);
        let median = scores[scores.len() / 2];
        // Rank windows by deviation of the winner score from the user's
        // median: too-low means the user's own peak was degraded, too-high
        // means an interferer's peak won outright.
        let mut ranked: Vec<(f64, usize)> = decisions
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let dev = (d.winner_score().max(1e-12) / median.max(1e-12)).ln().abs();
                (dev, i)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let flagged: Vec<usize> = ranked
            .iter()
            .take(LIST_DECODE_WINDOWS)
            .filter(|(dev, _)| *dev > 0.2)
            .map(|&(_, i)| i)
            .collect();
        if flagged.is_empty() {
            return None;
        }
        // Odometer over candidate indices (0..3 per flagged window).
        let k = flagged.len();
        let mut digits = vec![0usize; k];
        let mut trial = data.to_vec();
        loop {
            // Advance odometer.
            let mut carry = 0usize;
            loop {
                digits[carry] += 1;
                if digits[carry] < 3 {
                    break;
                }
                digits[carry] = 0;
                carry += 1;
                if carry == k {
                    return None; // exhausted
                }
            }
            for (d, &w) in digits.iter().zip(&flagged) {
                trial[w] = decisions[w].cands[*d].0;
            }
            if let Ok(frame) = decode_frame(&self.params, &trial) {
                if frame.crc_ok {
                    return Some((trial, frame));
                }
            }
        }
    }
}

/// Removes ghost users: preamble tracking can promote a residual artifact
/// of a real transmitter into a user candidate whose offset and timing are
/// both wrong by cancelling amounts — it then decodes the *same* symbol
/// stream as its parent. Keep the strongest of any identical-stream group.
fn dedup_ghosts(mut decoded: Vec<DecodedUser>) -> Vec<DecodedUser> {
    decoded.sort_by(|a, b| b.user.mag.total_cmp(&a.user.mag));
    let mut out: Vec<DecodedUser> = Vec::with_capacity(decoded.len());
    for d in decoded {
        let dup = out.iter().find_map(|kept| {
            let same = kept
                .symbols
                .iter()
                .zip(&d.symbols)
                .filter(|(a, b)| a == b)
                .count();
            let len = kept.symbols.len().min(d.symbols.len()).max(1);
            // Distinct users share only the frame header (~25 % of a short
            // packet); a ghost reproduces most of its parent's stream.
            if same * 10 >= len * 6 {
                // ≥60 % identical symbols
                Some((kept.user.offset_bins, same as f64 / len as f64))
            } else {
                None
            }
        });
        match dup {
            Some((kept_bins, identical_frac)) => {
                // Provenance: record the ghost verdict (who absorbed whom).
                choir_trace::full(|| choir_trace::TraceEvent::PeakDedup {
                    kept_bins,
                    dropped_bins: d.user.offset_bins,
                    identical_frac,
                });
            }
            None => out.push(d),
        }
    }
    out
}
