//! Stage 4: frame-decoding each user's symbol stream through the LoRa
//! chain, with the header rule that gates a candidate's data windows,
//! CRC-guided list decoding and ghost-user removal.

use lora_phy::frame::{decode_frame, DecodedFrame, SYNC_SYMBOLS};

use super::cancel::UserPass;
use super::demod::CombDecision;
use super::{ChoirDecoder, DecodedUser};
use crate::error::DecodeError;

impl ChoirDecoder {
    /// The rule a real transmitter's header always meets: both sync values
    /// land and at most half the preamble windows read other than 0.
    /// Preamble-stage tracking occasionally promotes residual skirt or
    /// noise into a user candidate, and a candidate that fails this is
    /// dropped whatever its data says — so it is judged on its
    /// `preamble_len + 2` header windows before any data window is
    /// demodulated for it.
    pub(super) fn header_holds(&self, symbols: &[u16]) -> bool {
        let p = self.params.preamble_len;
        let preamble_errors = symbols[..p].iter().filter(|&&v| v != 0).count();
        symbols[p..p + 2] == SYNC_SYMBOLS && preamble_errors <= p / 2
    }

    /// Turns each user's final symbol decisions into a [`DecodedUser`]:
    /// drops candidates whose header failed, strips the header, takes the
    /// frame chain's verdict (falling back to list decoding when the CRC
    /// fails), and removes ghosts.
    pub(super) fn frame_users(&self, slot_start: usize, states: Vec<UserPass>) -> Vec<DecodedUser> {
        let header = self.params.preamble_len + 2;
        let mut decoded = Vec::with_capacity(states.len());
        for UserPass {
            user,
            decisions,
            mut symbols,
            erasures,
            frame,
            ..
        } in states
        {
            // A candidate whose latest turn failed its header carries no
            // data and no frame.
            let Some(frame) = frame else {
                continue;
            };
            let mut data = symbols.split_off(header);
            let (mut frame, mut frame_error) = match frame {
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
            let crc_ok = frame.as_ref().map(|f| f.crc_ok).unwrap_or(false);
            if !crc_ok {
                // CRC-guided list decoding: in dense collisions, residual
                // interference occasionally pushes the true symbol to the
                // runner-up slot. Re-try the lowest-confidence windows with
                // their runner-up values until the frame checks out.
                if let Some((fixed_data, fixed_frame)) =
                    self.list_decode(&decisions[header..], &data)
                {
                    data = fixed_data;
                    frame = Some(fixed_frame);
                    frame_error = None;
                }
            }
            decoded.push(DecodedUser {
                user,
                symbols: data,
                // The header rule admits a clean sync only.
                sync_errors: 0,
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
    /// frame passes its CRC with no Hamming codeword left uncorrectable
    /// (`crc_ok && fec_reliable`): each trial is a 2⁻¹⁶ lottery ticket for
    /// a ghost, and a frame whose FEC gave up is vouched for by the CRC
    /// alone. A window is suspect when its winning
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
                if frame.crc_ok && frame.fec_reliable {
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

#[cfg(test)]
mod tests {
    use super::super::tests::params;
    use super::*;
    use lora_phy::frame::encode_frame;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One decision a window: `top[i]` wins at score 1 and two runners-up
    /// are drawn from `rng`, never equal to `avoid[i]`; the windows in
    /// `suspect` win at a third of that, so list decoding walks exactly
    /// them.
    fn decision_set(
        rng: &mut StdRng,
        n: u16,
        top: &[u16],
        avoid: &[u16],
        suspect: &[usize],
    ) -> Vec<CombDecision> {
        let mut other = |not: [u16; 2]| loop {
            let v = rng.gen_range(0..n);
            if !not.contains(&v) {
                break v;
            }
        };
        top.iter()
            .zip(avoid)
            .enumerate()
            .map(|(i, (&t, &a))| {
                let score = if suspect.contains(&i) { 0.3 } else { 1.0 };
                let second = other([t, a]);
                let third = other([second, a]);
                CombDecision {
                    cands: [(t, score), (second, 0.2), (third, 0.1)],
                }
            })
            .collect()
    }

    /// The frames a walk over `suspect`'s three candidates can reach that
    /// pass their CRC on an FEC that gave up: (all of them, those whose
    /// payload is not `truth`) — what accepting on `crc_ok` alone could
    /// return, and the false accepts among them.
    fn crc_only_passes(
        decisions: &[CombDecision],
        suspect: &[usize],
        truth: &[u8],
    ) -> (usize, usize) {
        let params = params();
        let mut trial: Vec<u16> = decisions.iter().map(|d| d.value()).collect();
        let mut passes = (0, 0);
        for mut code in 0..3usize.pow(suspect.len() as u32) {
            for &w in suspect {
                trial[w] = decisions[w].cands[code % 3].0;
                code /= 3;
            }
            if let Ok(f) = decode_frame(&params, &trial) {
                if f.crc_ok && !f.fec_reliable {
                    passes.0 += 1;
                    passes.1 += usize::from(f.payload != truth);
                }
            }
        }
        passes
    }

    #[test]
    fn list_decoding_never_accepts_a_frame_its_fec_gave_up_on() {
        // Three kinds of decision set whose true values no walk can reach:
        // pure noise; a wrong user — a ghost a whole number of bins off a
        // real one, which reads that user's frame shifted; and a real user
        // whose eight suspect windows an interferer won, the true value
        // among none of the candidates. The last kind's walks reach
        // frames that pass the CRC on an FEC that gave up, some of them
        // with a payload nobody sent; list decoding returns none of them.
        let dec = ChoirDecoder::new(params());
        let n = u16::try_from(dec.est.n()).expect("2^SF fits u16");
        let mut rng = StdRng::seed_from_u64(31);
        let payload: Vec<u8> = (0..8).map(|_| rng.gen()).collect();
        let truth = encode_frame(&params(), &payload);
        let len = truth.len();
        let suspect_anywhere = |rng: &mut StdRng| -> Vec<usize> {
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < 6 {
                let w = rng.gen_range(0..len);
                if !picked.contains(&w) {
                    picked.push(w);
                }
            }
            picked
        };
        let (mut accepted, mut crc_only, mut false_crc_only) = (0, 0, 0);
        for draw in 0..600 {
            let (top, suspect) = match draw % 3 {
                0 => {
                    let top: Vec<u16> = (0..len).map(|_| rng.gen_range(0..n)).collect();
                    (top, suspect_anywhere(&mut rng))
                }
                1 => {
                    let shift = rng.gen_range(1..n);
                    let top = truth.iter().map(|&s| (s + shift) % n).collect();
                    (top, suspect_anywhere(&mut rng))
                }
                _ => {
                    // Eight suspect windows among the payload blocks' (the
                    // header block is the first eight symbols), so some
                    // block holds two.
                    let mut suspect = Vec::new();
                    while suspect.len() < 8 {
                        let w = rng.gen_range(8..len);
                        if !suspect.contains(&w) {
                            suspect.push(w);
                        }
                    }
                    let mut top = truth.clone();
                    for &w in &suspect {
                        top[w] = (truth[w] + rng.gen_range(1..n)) % n;
                    }
                    (top, suspect)
                }
            };
            let decisions = decision_set(&mut rng, n, &top, &truth, &suspect);
            let (all, false_ones) = crc_only_passes(&decisions, &suspect, &payload);
            crc_only += all;
            false_crc_only += false_ones;
            if let Some((symbols, frame)) = dec.list_decode(&decisions, &top) {
                assert!(frame.crc_ok && frame.fec_reliable, "draw {draw}: {frame:?}");
                // Only where the FEC can correct what the interferer did.
                assert_eq!(frame.payload, payload, "draw {draw}");
                assert_eq!(decode_frame(&params(), &symbols), Ok(frame));
                accepted += 1;
            }
        }
        // The walks reached CRC-only passes, false ones among them, and
        // none came back.
        assert!(
            false_crc_only > 0 && crc_only > false_crc_only,
            "{crc_only} / {false_crc_only}"
        );
        assert!(accepted > 0, "no set was recoverable");
    }
}
