//! Stage 4: frame-decoding each user's symbol stream through the LoRa
//! chain, with the header rule that gates a candidate's data windows,
//! CRC-guided list decoding and ghost-user removal.

use lora_phy::frame::{
    decode_block, decode_frame, CodeBlock, DecodedFrame, FrameError, FrameHeader, MAX_PAYLOAD,
    SYNC_SYMBOLS,
};
use lora_phy::CodeRate;

use super::cancel::UserPass;
use super::demod::CombDecision;
use super::{ChoirDecoder, DecodedUser};
use crate::error::DecodeError;
use crate::profile::{scope, Stage};

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
                if let Some((fixed_data, fixed_frame)) = scope(Stage::Demod, || {
                    self.list_decode(&decisions[header..], &data)
                }) {
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
    /// alone. Walks the product of the top-3 candidates of the
    /// [`suspect_windows`] in lexicographic order, the first window's
    /// digit turning fastest, and returns the first trial that holds.
    ///
    /// A trial does not decode a frame: it puts cached blocks together
    /// ([`BlockWalk`]), and a trial that fails skips every later one its
    /// failure decides (DESIGN §17 "List decoding by blocks").
    fn list_decode(
        &self,
        decisions: &[CombDecision],
        data: &[u16],
    ) -> Option<(Vec<u16>, DecodedFrame)> {
        let flagged = suspect_windows(decisions);
        if flagged.is_empty() {
            return None;
        }
        let mut walk = BlockWalk::new(self.params.sf.bits() as usize, decisions, data, &flagged);
        // Odometer over candidate indices (0..3 per flagged window).
        let k = flagged.len();
        let mut digits = vec![0usize; k];
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
            match walk.trial(&digits) {
                Ok(()) => {
                    let mut trial = data.to_vec();
                    for (d, &w) in digits.iter().zip(&flagged) {
                        trial[w] = decisions[w].cands[*d].0;
                    }
                    if let Ok(frame) = decode_frame(&self.params, &trial) {
                        if frame.crc_ok && frame.fec_reliable {
                            return Some((trial, frame));
                        }
                    }
                }
                // Every trial that keeps the digits from `low` up fails
                // as this one did: run the digits below to their last
                // value, so the next advance carries into `low`.
                Err(Some(low)) => digits[..low].fill(2),
                // The failure depends on no flagged window at all.
                Err(None) => return None,
            }
        }
    }
}

/// The windows list decoding varies, most suspect first: at most eight,
/// each one whose winning score strays from the user's median by more
/// than a factor e^0.2 — too low means the user's own peak was degraded,
/// too high means an interferer's peak won outright.
fn suspect_windows(decisions: &[CombDecision]) -> Vec<usize> {
    const LIST_DECODE_WINDOWS: usize = 8;
    if decisions.is_empty() {
        return Vec::new();
    }
    // Typical winning score (median) as the reference.
    let mut scores: Vec<f64> = decisions.iter().map(|d| d.winner_score()).collect();
    scores.sort_by(f64::total_cmp);
    let median = scores[scores.len() / 2];
    let mut ranked: Vec<(f64, usize)> = decisions
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let dev = (d.winner_score().max(1e-12) / median.max(1e-12)).ln().abs();
            (dev, i)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked
        .iter()
        .take(LIST_DECODE_WINDOWS)
        .filter(|(dev, _)| *dev > 0.2)
        .map(|&(_, i)| i)
        .collect()
}

/// The lower of two optional digit indices, `None` only when both are.
fn lowest(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    a.into_iter().chain(b).min()
}

/// One interleaver block of a list-decoding walk, decoded once per
/// combination of the flagged digits whose windows lie inside it.
struct BlockTable {
    /// Window of the block's first symbol.
    first: usize,
    /// The flagged digits inside the block, ascending.
    digits: Vec<usize>,
    /// Decodes by combination, indexed `Σ digit_t · 3^t` over
    /// [`Self::digits`]; `None` until a trial needs one.
    decoded: Vec<Option<Result<CodeBlock, FrameError>>>,
    /// Test probe: decodes this table made.
    #[cfg(test)]
    decodes: usize,
}

impl BlockTable {
    /// The block of `cw_bits` windows from `first`, and the windows of
    /// `flagged` inside it.
    fn new(first: usize, cw_bits: usize, flagged: &[usize]) -> Self {
        let digits: Vec<usize> = (0..flagged.len())
            .filter(|&d| (first..first + cw_bits).contains(&flagged[d]))
            .collect();
        BlockTable {
            first,
            decoded: vec![None; 3usize.pow(digits.len() as u32)],
            digits,
            #[cfg(test)]
            decodes: 0,
        }
    }

    /// The lowest flagged digit inside the block.
    fn low(&self) -> Option<usize> {
        self.digits.first().copied()
    }

    /// The block's decode under `digits`, from the table or made now.
    // hot:noalloc — a table read, or one block decode on a stack copy.
    fn get(
        &mut self,
        walk: &WalkInput<'_>,
        cr: CodeRate,
        digits: &[usize],
    ) -> Result<CodeBlock, FrameError> {
        let combo = self
            .digits
            .iter()
            .rev()
            .fold(0, |combo, &d| combo * 3 + digits[d]);
        if let Some(decoded) = self.decoded[combo] {
            return decoded;
        }
        let cw_bits = cr.codeword_bits();
        let mut symbols = [0u16; 8];
        let symbols = &mut symbols[..cw_bits];
        symbols.copy_from_slice(&walk.data[self.first..self.first + cw_bits]);
        for &d in &self.digits {
            let w = walk.flagged[d];
            symbols[w - self.first] = walk.decisions[w].cands[digits[d]].0;
        }
        let decoded = decode_block(symbols, walk.sf, cr);
        self.decoded[combo] = Some(decoded);
        #[cfg(test)]
        {
            self.decodes += 1;
        }
        decoded
    }
}

/// What a list-decoding walk reads: the user's data windows, their
/// decisions and the flagged windows, digit by digit.
struct WalkInput<'a> {
    sf: usize,
    decisions: &'a [CombDecision],
    data: &'a [u16],
    flagged: &'a [usize],
}

/// The frame chain of a list-decoding walk, block by block: the header
/// block's table, and the data blocks' tables of every code rate a header
/// named so far (a data block's symbols, and so its decode, depend on the
/// rate).
struct BlockWalk<'a> {
    input: WalkInput<'a>,
    header: Option<BlockTable>,
    data_blocks: Vec<(CodeRate, Vec<BlockTable>)>,
}

impl<'a> BlockWalk<'a> {
    fn new(
        sf: usize,
        decisions: &'a [CombDecision],
        data: &'a [u16],
        flagged: &'a [usize],
    ) -> Self {
        let hdr_syms = FrameHeader::symbols();
        BlockWalk {
            // Too short for a header: every trial fails on nothing flagged.
            header: (data.len() >= hdr_syms).then(|| BlockTable::new(0, hdr_syms, flagged)),
            input: WalkInput {
                sf,
                decisions,
                data,
                flagged,
            },
            data_blocks: Vec::new(),
        }
    }

    /// The data blocks at `cr`: every whole block of the windows after
    /// the header, built the first time a header names `cr` — at most
    /// four times a walk.
    fn data_blocks<'t>(
        tables: &'t mut Vec<(CodeRate, Vec<BlockTable>)>,
        input: &WalkInput<'_>,
        cr: CodeRate,
    ) -> &'t mut [BlockTable] {
        let at = match tables.iter().position(|(c, _)| *c == cr) {
            Some(at) => at,
            None => {
                let hdr_syms = FrameHeader::symbols();
                let cw_bits = cr.codeword_bits();
                let whole = (input.data.len() - hdr_syms) / cw_bits;
                let blocks = (0..whole)
                    .map(|b| BlockTable::new(hdr_syms + b * cw_bits, cw_bits, input.flagged))
                    .collect();
                tables.push((cr, blocks));
                tables.len() - 1
            }
        };
        &mut tables[at].1
    }

    /// One trial: `Ok` when the frame chain holds on the flagged windows
    /// set to `digits` — header sound, every data block it requires
    /// reliable, CRC intact. On a failure, the lowest flagged digit among
    /// the blocks that decided it (`None` when they hold none): a header
    /// fails on its own block, an unreliable data block on the header's
    /// and its own, a CRC on the header's and every data block's.
    // hot:noalloc — table reads, and a decode a block and combination.
    fn trial(&mut self, digits: &[usize]) -> Result<(), Option<usize>> {
        let Some(header_table) = self.header.as_mut() else {
            return Err(None);
        };
        let header_low = header_table.low();
        let header = header_table
            .get(&self.input, CodeRate::Cr48, digits)
            .and_then(|block| FrameHeader::parse(&block))
            .map_err(|_| header_low)?;
        let sf = self.input.sf;
        let blocks = header.blocks(sf);
        let hdr_syms = FrameHeader::symbols();
        if self.input.data.len() - hdr_syms < blocks * header.cr.codeword_bits() {
            return Err(header_low);
        }
        let mut body = [0u8; MAX_PAYLOAD + 2];
        let body = &mut body[..header.body_bytes()];
        let mut low = header_low;
        let tables = Self::data_blocks(&mut self.data_blocks, &self.input, header.cr);
        for (b, table) in tables[..blocks].iter_mut().enumerate() {
            let block_low = lowest(header_low, table.low());
            match table.get(&self.input, header.cr, digits) {
                Ok(block) if block.reliable => block.write_body(b * sf, sf, body),
                _ => return Err(block_low),
            }
            low = lowest(low, block_low);
        }
        if header.crc_holds(body) {
            Ok(())
        } else {
            Err(low)
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test probe: `(decodes, 3^flagged windows inside)` of every block
    /// table of every list-decoding walk on this thread.
    static BLOCK_DECODES: std::cell::RefCell<Vec<(usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
impl Drop for BlockWalk<'_> {
    fn drop(&mut self) {
        let tables = self
            .header
            .iter()
            .chain(self.data_blocks.iter().flat_map(|(_, blocks)| blocks));
        BLOCK_DECODES.with(|p| {
            p.borrow_mut()
                .extend(tables.map(|t| (t.decodes, 3usize.pow(t.digits.len() as u32))))
        });
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
    use lora_phy::PhyParams;
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

    /// `list_decode` as it was before it walked blocks, kept as its
    /// oracle: the same odometer over the same windows, one whole
    /// `decode_frame` a trial.
    fn list_decode_by_frames(
        dec: &ChoirDecoder,
        decisions: &[CombDecision],
        data: &[u16],
    ) -> Option<(Vec<u16>, DecodedFrame)> {
        let flagged = suspect_windows(decisions);
        if flagged.is_empty() {
            return None;
        }
        let k = flagged.len();
        let mut digits = vec![0usize; k];
        let mut trial = data.to_vec();
        loop {
            let mut carry = 0usize;
            loop {
                digits[carry] += 1;
                if digits[carry] < 3 {
                    break;
                }
                digits[carry] = 0;
                carry += 1;
                if carry == k {
                    return None;
                }
            }
            for (d, &w) in digits.iter().zip(&flagged) {
                trial[w] = decisions[w].cands[*d].0;
            }
            if let Ok(frame) = decode_frame(&dec.params, &trial) {
                if frame.crc_ok && frame.fec_reliable {
                    return Some((trial, frame));
                }
            }
        }
    }

    /// `list_decode` on one decision set, held to its oracle, and every
    /// block it read to one decode a combination of the flagged windows
    /// inside it.
    fn list_decode_checked(
        dec: &ChoirDecoder,
        decisions: &[CombDecision],
        data: &[u16],
    ) -> Option<(Vec<u16>, DecodedFrame)> {
        BLOCK_DECODES.with(|p| p.borrow_mut().clear());
        let got = dec.list_decode(decisions, data);
        for (decodes, bound) in BLOCK_DECODES.with(|p| p.take()) {
            assert!(
                decodes <= bound,
                "{decodes} decodes of a {bound}-entry block"
            );
        }
        assert_eq!(got, list_decode_by_frames(dec, decisions, data));
        got
    }

    #[test]
    fn list_decoding_by_blocks_returns_what_the_frame_walk_returns() {
        // Suspect windows whose three candidates hold the true value, a
        // random one, and — in the header block — the value of another
        // frame's header (another code rate and length), in random order:
        // two or three suspects in the header block, two to four in one
        // data block, or every header window the two headers tell apart.
        // The walk accepts deep in the odometer, reads headers of another
        // rate, and fails on blocks with and without flagged windows.
        let dec = ChoirDecoder::new(params());
        let n = u16::try_from(dec.est.n()).expect("2^SF fits u16");
        let mut rng = StdRng::seed_from_u64(37);
        let (mut accepted, mut deep) = (0, 0);
        for draw in 0..240 {
            let payload: Vec<u8> = (0..rng.gen_range(2usize..12)).map(|_| rng.gen()).collect();
            let truth = encode_frame(&params(), &payload);
            let alt_params = PhyParams {
                cr: CodeRate::Cr45,
                ..params()
            };
            let alt_len = rng.gen_range(0usize..12);
            let alt = encode_frame(&alt_params, &vec![0x5A; alt_len]);
            let len = truth.len();
            let pick = |rng: &mut StdRng, range: std::ops::Range<usize>, count: usize| {
                let mut picked: Vec<usize> = Vec::new();
                while picked.len() < count.min(range.len()) {
                    let w = rng.gen_range(range.clone());
                    if !picked.contains(&w) {
                        picked.push(w);
                    }
                }
                picked
            };
            let suspect = match draw % 3 {
                0 => {
                    let (in_header, in_data) = (rng.gen_range(2usize..4), rng.gen_range(2usize..5));
                    let mut s = pick(&mut rng, 0..8, in_header);
                    s.extend(pick(&mut rng, 8..len, in_data));
                    s
                }
                1 => {
                    let block = 8 + 8 * rng.gen_range(0..(len - 8) / 8);
                    let in_block = rng.gen_range(2usize..5);
                    let mut s = pick(&mut rng, block..block + 8, in_block);
                    while s.len() < 6 {
                        let w = rng.gen_range(8..len);
                        if !s.contains(&w) {
                            s.push(w);
                        }
                    }
                    s
                }
                _ => (0..8).filter(|&w| truth[w] != alt[w]).collect(),
            };
            let mut top = truth.clone();
            let decisions: Vec<CombDecision> = (0..len)
                .map(|w| {
                    let noise = rng.gen_range(0..n);
                    if !suspect.contains(&w) {
                        return CombDecision {
                            cands: [(truth[w], 1.0), (noise, 0.2), (noise ^ 1, 0.1)],
                        };
                    }
                    let mut values = [truth[w], noise, if w < 8 { alt[w] } else { noise ^ 2 }];
                    // One in six suspects loses its true value.
                    if rng.gen_range(0u8..6) == 0 {
                        values[0] = (truth[w] + rng.gen_range(1..n)) % n;
                    }
                    let first = rng.gen_range(0usize..3);
                    values.swap(0, first);
                    let second = rng.gen_range(1usize..3);
                    values.swap(1, second);
                    top[w] = values[0];
                    CombDecision {
                        cands: [(values[0], 0.3), (values[1], 0.2), (values[2], 0.1)],
                    }
                })
                .collect();
            if let Some((symbols, _)) = list_decode_checked(&dec, &decisions, &top) {
                accepted += 1;
                deep += usize::from(suspect.iter().filter(|&&w| symbols[w] != top[w]).count() >= 2);
            }
        }
        assert!(
            (150..240).contains(&accepted) && deep >= 80,
            "{accepted} accepted, {deep} deep"
        );
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
            if let Some((symbols, frame)) = list_decode_checked(&dec, &decisions, &top) {
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
