//! Framing: the byte → symbol pipeline and back.
//!
//! Transmit side: payload → CRC-16 append → whitening → nibbles → Hamming
//! codewords → diagonal interleaving → Gray mapping → chirp symbols.
//! An explicit PHY header (length, code rate, CRC flag, 4-bit checksum)
//! rides in its own interleaver block, always at the robust CR 4/8 — as in
//! LoRa's explicit header mode.
//!
//! Deviations from the closed LoRa spec, chosen to keep the pipeline
//! well-defined and documented (none affect the collision-decoding physics
//! Choir operates on):
//! * whitening uses the documented PN9 LFSR (see [`crate::whiten`]);
//! * the header block is not sent at reduced SF ("low data-rate
//!   optimisation" is not modelled);
//! * the CRC is computed over the unwhitened payload.

use crate::crc::{crc16, header_checksum};
use crate::gray::{gray_decode, gray_encode};
use crate::hamming::{decode_nibble, encode_nibbles};
use crate::interleave::interleave;
use crate::params::{CodeRate, PhyParams};
use crate::whiten::whiten;

/// Symbol value used for every preamble up-chirp.
pub const PREAMBLE_SYMBOL: u16 = 0;

/// The two sync-word symbols following the preamble (a "network ID"; the
/// values fit every SF ≥ 7 alphabet).
pub const SYNC_SYMBOLS: [u16; 2] = [24, 48];

/// Maximum payload length in bytes (one length byte in the header).
pub const MAX_PAYLOAD: usize = 255;

/// A decoded frame together with its integrity verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Recovered payload bytes (CRC trailer stripped).
    pub payload: Vec<u8>,
    /// True when the payload CRC matched (always true when the frame was
    /// sent without a CRC).
    pub crc_ok: bool,
    /// True when every Hamming codeword decoded without uncorrectable
    /// errors.
    pub fec_reliable: bool,
}

/// Structural decoding failures (before payload integrity is even judged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer symbols than one header block.
    TooShort,
    /// Header checksum mismatch — length/flags untrustworthy.
    BadHeader,
    /// Header demanded more payload symbols than were supplied.
    Truncated,
    /// A symbol the frame chain read lies outside the `2^SF` alphabet.
    SymbolOutOfRange,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame shorter than one header block"),
            FrameError::BadHeader => write!(f, "header checksum mismatch"),
            FrameError::Truncated => write!(f, "frame truncated mid-payload"),
            FrameError::SymbolOutOfRange => write!(f, "symbol outside the 2^SF alphabet"),
        }
    }
}

impl std::error::Error for FrameError {}

fn cr_to_bits(cr: CodeRate) -> u8 {
    match cr {
        CodeRate::Cr45 => 0,
        CodeRate::Cr46 => 1,
        CodeRate::Cr47 => 2,
        CodeRate::Cr48 => 3,
    }
}

fn cr_from_bits(b: u8) -> CodeRate {
    match b & 0b11 {
        0 => CodeRate::Cr45,
        1 => CodeRate::Cr46,
        2 => CodeRate::Cr47,
        _ => CodeRate::Cr48,
    }
}

fn bytes_to_nibbles(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(b & 0x0F);
        out.push(b >> 4);
    }
    out
}

#[cfg(test)]
fn nibbles_to_bytes(nibbles: &[u8]) -> Vec<u8> {
    nibbles
        .chunks(2)
        .map(|c| {
            let lo = c[0] & 0x0F;
            let hi = if c.len() > 1 { c[1] & 0x0F } else { 0 };
            lo | (hi << 4)
        })
        .collect()
}

/// Encodes the 3-byte PHY header into one interleaver block of CR 4/8
/// symbols.
fn encode_header(params: &PhyParams, payload_len: usize) -> Vec<u16> {
    let sf = params.sf.bits() as usize;
    let flags = (cr_to_bits(params.cr) << 1) | params.explicit_crc as u8;
    let base = [payload_len as u8, flags];
    let hdr = [base[0], base[1], header_checksum(&base)];
    let mut nibbles = bytes_to_nibbles(&hdr);
    nibbles.resize(sf, 0); // pad the block (header is 6 nibbles; SF ≥ 7)
    let cws = encode_nibbles(&nibbles, CodeRate::Cr48);
    interleave(&cws, sf, CodeRate::Cr48.codeword_bits())
        .into_iter()
        .map(gray_encode)
        .collect()
}

/// Encodes a payload into the data-symbol sequence (header block included,
/// preamble and sync excluded).
///
/// # Panics
/// Panics when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(params: &PhyParams, payload: &[u8]) -> Vec<u16> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload too long");
    let sf = params.sf.bits() as usize;
    let cw_bits = params.cr.codeword_bits();

    let mut symbols = encode_header(params, payload.len());

    let mut body = payload.to_vec();
    whiten(&mut body);
    if params.explicit_crc {
        let c = crc16(payload);
        body.push((c >> 8) as u8);
        body.push((c & 0xFF) as u8);
    }
    let nibbles = bytes_to_nibbles(&body);
    let cws = encode_nibbles(&nibbles, params.cr);
    symbols.extend(interleave(&cws, sf, cw_bits).into_iter().map(gray_encode));
    symbols
}

/// Builds the complete on-air symbol sequence: preamble up-chirps, sync
/// word, then the encoded frame.
pub fn packet_symbols(params: &PhyParams, payload: &[u8]) -> Vec<u16> {
    let mut syms = vec![PREAMBLE_SYMBOL; params.preamble_len];
    syms.extend_from_slice(&SYNC_SYMBOLS);
    syms.extend(encode_frame(params, payload));
    syms
}

/// Number of data symbols (header block + payload blocks) for a payload of
/// `len` bytes under `params`.
pub fn frame_symbol_count(params: &PhyParams, len: usize) -> usize {
    let sf = params.sf.bits() as usize;
    let hdr = CodeRate::Cr48.codeword_bits();
    let body_bytes = len + if params.explicit_crc { 2 } else { 0 };
    let blocks = (body_bytes * 2).div_ceil(sf);
    hdr + blocks * params.cr.codeword_bits()
}

/// One interleaver block of a received frame, decoded: `sf` nibbles and
/// whether every codeword in it was consistent or corrected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeBlock {
    /// Nibble `i` in bits `4i..4i + 4`.
    nibbles: u64,
    /// False when some codeword held errors its code rate cannot correct.
    pub reliable: bool,
}

impl CodeBlock {
    /// The block's `i`-th nibble.
    fn nibble(&self, i: usize) -> u8 {
        ((self.nibbles >> (4 * i)) & 0x0F) as u8
    }

    /// Writes the block's `sf` nibbles as nibbles `first..first + sf` of
    /// `body` (low nibble of each byte first), dropping those past its
    /// end. A body is filled block by block from nibble 0: an odd nibble
    /// joins the even one written before it.
    pub fn write_body(&self, first: usize, sf: usize, body: &mut [u8]) {
        for i in 0..sf {
            let k = first + i;
            let Some(byte) = body.get_mut(k / 2) else {
                return;
            };
            if k.is_multiple_of(2) {
                *byte = self.nibble(i);
            } else {
                *byte |= self.nibble(i) << 4;
            }
        }
    }
}

/// Decodes one interleaver block of `cr.codeword_bits()` symbols — Gray
/// decode, deinterleave, Hamming — into its `sf` nibbles, without
/// allocating. Every frame decode is made of these.
///
/// # Errors
/// [`FrameError::SymbolOutOfRange`] when a symbol is not below `2^sf`.
///
/// # Panics
/// Panics if `symbols.len() != cr.codeword_bits()`.
pub fn decode_block(symbols: &[u16], sf: usize, cr: CodeRate) -> Result<CodeBlock, FrameError> {
    let cw_bits = cr.codeword_bits();
    assert_eq!(symbols.len(), cw_bits, "decode_block: need 4+CR symbols");
    let mask = (1u32 << sf) - 1;
    // Symbol `j` rotated left by `j` within its `sf` bits: its bit `c` is
    // bit `j` of codeword `c` (the diagonal of `interleave_block`).
    let mut rotated = [0u32; 8];
    for (j, (r, &s)) in rotated.iter_mut().zip(symbols).enumerate() {
        if u32::from(s) > mask {
            return Err(FrameError::SymbolOutOfRange);
        }
        let g = u32::from(gray_decode(s));
        let j = j % sf;
        *r = ((g << j) | (g >> (sf - j))) & mask;
    }
    let mut block = CodeBlock {
        nibbles: 0,
        reliable: true,
    };
    for c in 0..sf {
        let cw = rotated[..cw_bits]
            .iter()
            .enumerate()
            .fold(0u8, |cw, (j, r)| cw | ((((r >> c) & 1) as u8) << j));
        let d = decode_nibble(cw, cr);
        block.reliable &= d.is_reliable();
        block.nibbles |= u64::from(d.nibble()) << (4 * c);
    }
    Ok(block)
}

/// The explicit PHY header's fields, as its CR 4/8 block carries them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub len: usize,
    /// Code rate of the data blocks.
    pub cr: CodeRate,
    /// Whether a CRC-16 trailer follows the payload.
    pub has_crc: bool,
}

impl FrameHeader {
    /// Symbols of the header block.
    pub fn symbols() -> usize {
        CodeRate::Cr48.codeword_bits()
    }

    /// Reads the header from its decoded block.
    ///
    /// # Errors
    /// [`FrameError::BadHeader`] when the checksum does not match or a
    /// codeword of the block was uncorrectable.
    pub fn parse(block: &CodeBlock) -> Result<Self, FrameError> {
        let byte = |k: usize| block.nibble(2 * k) | (block.nibble(2 * k + 1) << 4);
        let (len, flags, check) = (byte(0), byte(1), block.nibble(4));
        if header_checksum(&[len, flags]) != check || !block.reliable {
            return Err(FrameError::BadHeader);
        }
        Ok(FrameHeader {
            len: usize::from(len),
            cr: cr_from_bits(flags >> 1),
            has_crc: flags & 1 == 1,
        })
    }

    /// Bytes the data blocks carry: the payload and its CRC trailer.
    pub fn body_bytes(&self) -> usize {
        self.len + if self.has_crc { 2 } else { 0 }
    }

    /// Data blocks the header requires at spreading factor `sf`.
    pub fn blocks(&self, sf: usize) -> usize {
        (self.body_bytes() * 2).div_ceil(sf)
    }

    /// The CRC verdict on a body of [`Self::body_bytes`] bytes: its
    /// trailer against the CRC-16 of the un-whitened payload (true when
    /// the frame carries no CRC). Allocates nothing.
    pub fn crc_holds(&self, body: &[u8]) -> bool {
        if !self.has_crc {
            return true;
        }
        let mut payload = [0u8; MAX_PAYLOAD];
        let payload = &mut payload[..self.len];
        payload.copy_from_slice(&body[..self.len]);
        whiten(payload);
        crc16(payload) == u16::from_be_bytes([body[self.len], body[self.len + 1]])
    }
}

/// Decodes a data-symbol sequence produced by [`encode_frame`].
///
/// Only `params.sf` is trusted from the caller; code rate, CRC flag and
/// length come from the decoded header, as on a real gateway.
pub fn decode_frame(params: &PhyParams, symbols: &[u16]) -> Result<DecodedFrame, FrameError> {
    let sf = params.sf.bits() as usize;
    let hdr_syms = FrameHeader::symbols();
    if symbols.len() < hdr_syms {
        return Err(FrameError::TooShort);
    }
    let header = FrameHeader::parse(&decode_block(&symbols[..hdr_syms], sf, CodeRate::Cr48)?)?;
    let cw_bits = header.cr.codeword_bits();
    let need = header.blocks(sf) * cw_bits;
    let data_syms = &symbols[hdr_syms..];
    if data_syms.len() < need {
        return Err(FrameError::Truncated);
    }
    let mut body = vec![0u8; header.body_bytes()];
    let mut fec_reliable = true;
    for (b, block) in data_syms[..need].chunks_exact(cw_bits).enumerate() {
        let block = decode_block(block, sf, header.cr)?;
        fec_reliable &= block.reliable;
        block.write_body(b * sf, sf, &mut body);
    }
    let crc_ok = header.crc_holds(&body);
    body.truncate(header.len);
    whiten(&mut body);
    Ok(DecodedFrame {
        payload: body,
        crc_ok,
        fec_reliable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::decode_nibbles;
    use crate::interleave::deinterleave;
    use crate::params::{Bandwidth, SpreadingFactor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `decode_frame` as it was before it was made of [`decode_block`]s,
    /// kept as its oracle: Gray-decode, deinterleave and Hamming-decode
    /// the header and then the whole data stream into vectors, and read
    /// the bytes off the nibble stream. Panics on a symbol outside the
    /// alphabet (`deinterleave_block`'s assertion).
    fn decode_frame_by_streams(
        params: &PhyParams,
        symbols: &[u16],
    ) -> Result<DecodedFrame, FrameError> {
        let sf = params.sf.bits() as usize;
        let hdr_syms = CodeRate::Cr48.codeword_bits();
        if symbols.len() < hdr_syms {
            return Err(FrameError::TooShort);
        }
        let hdr_grayless: Vec<u16> = symbols[..hdr_syms]
            .iter()
            .map(|&s| gray_decode(s))
            .collect();
        let hdr_cws = deinterleave(&hdr_grayless, sf, CodeRate::Cr48.codeword_bits());
        let (hdr_nibbles, hdr_reliable) = decode_nibbles(&hdr_cws, CodeRate::Cr48);
        let hdr_bytes = nibbles_to_bytes(&hdr_nibbles[..6]);
        let (len, flags, check) = (hdr_bytes[0], hdr_bytes[1], hdr_bytes[2] & 0x0F);
        if header_checksum(&[len, flags]) != check || !hdr_reliable {
            return Err(FrameError::BadHeader);
        }
        let cr = cr_from_bits(flags >> 1);
        let has_crc = flags & 1 == 1;
        let cw_bits = cr.codeword_bits();
        let body_bytes = len as usize + if has_crc { 2 } else { 0 };
        let blocks = (body_bytes * 2).div_ceil(sf);
        let need = blocks * cw_bits;
        let data_syms = &symbols[hdr_syms..];
        if data_syms.len() < need {
            return Err(FrameError::Truncated);
        }
        let grayless: Vec<u16> = data_syms[..need].iter().map(|&s| gray_decode(s)).collect();
        let cws = deinterleave(&grayless, sf, cw_bits);
        let (nibbles, fec_reliable) = decode_nibbles(&cws, cr);
        let mut body = nibbles_to_bytes(&nibbles[..body_bytes * 2]);
        body.truncate(body_bytes);
        let (payload_whitened, crc_ok) = if has_crc {
            let trailer = &body[len as usize..];
            let rx_crc = ((trailer[0] as u16) << 8) | trailer[1] as u16;
            let mut p = body[..len as usize].to_vec();
            whiten(&mut p);
            let ok = crc16(&p) == rx_crc;
            (body[..len as usize].to_vec(), ok)
        } else {
            (body, true)
        };
        let mut payload = payload_whitened;
        whiten(&mut payload);
        Ok(DecodedFrame {
            payload,
            crc_ok,
            fec_reliable,
        })
    }

    const ALL_CR: [CodeRate; 4] = [
        CodeRate::Cr45,
        CodeRate::Cr46,
        CodeRate::Cr47,
        CodeRate::Cr48,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn decode_frame_matches_the_stream_decoder(
            sf in prop::sample::select(SpreadingFactor::ALL.to_vec()),
            cr in prop::sample::select(ALL_CR.to_vec()),
            rx_cr in prop::sample::select(ALL_CR.to_vec()),
            crc in any::<bool>(),
            payload in prop::collection::vec(any::<u8>(), 0..48),
            damage in 0u8..6,
            seed in any::<u64>(),
        ) {
            // A clean frame, then one of: a random stream, a few symbols
            // corrupted anywhere, a truncation, a wrecked header block, a
            // header wrecked and the stream cut. Decoded under a code rate
            // the header overrides.
            let tx = params(sf, cr, crc);
            let rx = params(sf, rx_cr, crc);
            let n = sf.chips() as u16;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut syms = encode_frame(&tx, &payload);
            let hdr = CodeRate::Cr48.codeword_bits();
            match damage {
                0 => {
                    let len = rng.gen_range(0..syms.len() + 8);
                    syms = (0..len).map(|_| rng.gen_range(0..n)).collect();
                }
                1 => {
                    for _ in 0..rng.gen_range(1usize..5) {
                        let i = rng.gen_range(0..syms.len());
                        syms[i] = rng.gen_range(0..n);
                    }
                }
                2 => syms.truncate(rng.gen_range(0..syms.len())),
                3 | 4 => {
                    for _ in 0..rng.gen_range(1usize..4) {
                        let i = rng.gen_range(0..hdr);
                        syms[i] = rng.gen_range(0..n);
                    }
                    if damage == 4 {
                        syms.truncate(rng.gen_range(hdr..syms.len() + 1));
                    }
                }
                _ => {}
            }
            prop_assert_eq!(decode_frame(&rx, &syms), decode_frame_by_streams(&rx, &syms));
        }
    }

    #[test]
    fn a_symbol_outside_the_alphabet_is_a_typed_refusal() {
        // SF8 symbols are below 256; the stream decoder's deinterleaver
        // asserted that, in release builds too.
        let p = PhyParams::default();
        assert_eq!(
            decode_frame(&p, &[300; 40]),
            Err(FrameError::SymbolOutOfRange)
        );
        // In a data block the header requires, after a header that holds.
        let mut syms = encode_frame(&p, b"in range");
        let last = syms.len() - 1;
        syms[last] = 256;
        assert_eq!(decode_frame(&p, &syms), Err(FrameError::SymbolOutOfRange));
        // Past the blocks the header requires, a symbol is never read.
        let mut syms = encode_frame(&p, b"in range");
        syms.push(u16::MAX);
        assert_eq!(
            decode_frame(&p, &syms).map(|f| f.payload),
            Ok(b"in range".to_vec())
        );
        assert_eq!(
            decode_block(&[0, 0, 0, 0, 0, 0, 0, 1 << 12], 12, CodeRate::Cr48),
            Err(FrameError::SymbolOutOfRange)
        );
    }

    fn params(sf: SpreadingFactor, cr: CodeRate, crc: bool) -> PhyParams {
        PhyParams {
            sf,
            bw: Bandwidth::Khz125,
            cr,
            preamble_len: 8,
            explicit_crc: crc,
        }
    }

    #[test]
    fn roundtrip_every_sf_and_cr() {
        let payload: Vec<u8> = (0..23).map(|i| (i * 7 + 13) as u8).collect();
        for sf in SpreadingFactor::ALL {
            for cr in ALL_CR {
                let p = params(sf, cr, true);
                let syms = encode_frame(&p, &payload);
                assert_eq!(syms.len(), frame_symbol_count(&p, payload.len()));
                for &s in &syms {
                    assert!((s as usize) < sf.chips());
                }
                let out = decode_frame(&p, &syms).unwrap();
                assert_eq!(out.payload, payload, "sf={sf:?} cr={cr:?}");
                assert!(out.crc_ok);
                assert!(out.fec_reliable);
            }
        }
    }

    #[test]
    fn roundtrip_without_crc() {
        let p = params(SpreadingFactor::Sf8, CodeRate::Cr45, false);
        let payload = b"no crc here".to_vec();
        let out = decode_frame(&p, &encode_frame(&p, &payload)).unwrap();
        assert_eq!(out.payload, payload);
        assert!(out.crc_ok);
    }

    #[test]
    fn empty_payload() {
        let p = params(SpreadingFactor::Sf7, CodeRate::Cr48, true);
        let out = decode_frame(&p, &encode_frame(&p, &[])).unwrap();
        assert_eq!(out.payload, Vec::<u8>::new());
        assert!(out.crc_ok);
    }

    #[test]
    fn header_carries_code_rate() {
        // Encode at CR4/7 but decode with params claiming CR4/5: the header
        // must override and still decode correctly.
        let enc = params(SpreadingFactor::Sf9, CodeRate::Cr47, true);
        let mut dec = enc;
        dec.cr = CodeRate::Cr45;
        let payload = b"rate from header".to_vec();
        let out = decode_frame(&dec, &encode_frame(&enc, &payload)).unwrap();
        assert_eq!(out.payload, payload);
    }

    #[test]
    fn single_symbol_corruption_corrected_at_cr48() {
        let p = params(SpreadingFactor::Sf8, CodeRate::Cr48, true);
        let payload: Vec<u8> = (0..16).collect();
        let mut syms = encode_frame(&p, &payload);
        let hdr = CodeRate::Cr48.codeword_bits();
        // A ±1 bin error (the typical demod error after Gray mapping flips
        // one bit per codeword) in one payload symbol.
        syms[hdr + 3] = gray_encode(gray_decode(syms[hdr + 3]) ^ 1);
        let out = decode_frame(&p, &syms).unwrap();
        assert_eq!(out.payload, payload);
        assert!(out.crc_ok);
    }

    #[test]
    fn gray_plus_interleave_localises_adjacent_bin_error() {
        // Off-by-one bin: gray ensures one bit flip; interleaving spreads it
        // to exactly one codeword bit; Hamming corrects it — even a whole
        // symbol off by one bin per block.
        let p = params(SpreadingFactor::Sf10, CodeRate::Cr48, true);
        let payload: Vec<u8> = (0..30).map(|i| i as u8 ^ 0x5A).collect();
        let mut syms = encode_frame(&p, &payload);
        let n = p.sf.chips() as u16;
        for s in syms
            .iter_mut()
            .skip(CodeRate::Cr48.codeword_bits())
            .step_by(8)
        {
            *s = (*s + 1) % n; // adjacent-bin error in symbol space
        }
        let out = decode_frame(&p, &syms).unwrap();
        assert_eq!(out.payload, payload);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let p = params(SpreadingFactor::Sf8, CodeRate::Cr45, true);
        let payload = b"integrity matters".to_vec();
        let mut syms = encode_frame(&p, &payload);
        let idx = syms.len() - 2;
        syms[idx] ^= 0x3; // two bit errors: beyond CR4/5
        let out = decode_frame(&p, &syms).unwrap();
        assert!(!out.crc_ok || out.payload != payload);
    }

    #[test]
    fn bad_header_detected() {
        let p = params(SpreadingFactor::Sf8, CodeRate::Cr48, true);
        let mut syms = encode_frame(&p, b"x");
        syms[0] ^= 0x33; // wreck the header block badly
        syms[1] ^= 0x1C;
        syms[2] ^= 0x0F;
        match decode_frame(&p, &syms) {
            Err(FrameError::BadHeader) | Err(FrameError::Truncated) => {}
            other => {
                // Header FEC may occasionally correct all damage; in that
                // case the decode must still be fully correct.
                let f = other.expect("decode");
                assert_eq!(f.payload, b"x".to_vec());
            }
        }
    }

    #[test]
    fn too_short_and_truncated() {
        let p = params(SpreadingFactor::Sf8, CodeRate::Cr48, true);
        assert_eq!(decode_frame(&p, &[0; 3]), Err(FrameError::TooShort));
        let syms = encode_frame(&p, b"hello world");
        assert_eq!(
            decode_frame(&p, &syms[..CodeRate::Cr48.codeword_bits() + 2]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn packet_symbols_structure() {
        let p = params(SpreadingFactor::Sf8, CodeRate::Cr48, true);
        let payload = b"abc".to_vec();
        let syms = packet_symbols(&p, &payload);
        assert_eq!(&syms[..8], &[PREAMBLE_SYMBOL; 8]);
        assert_eq!(&syms[8..10], &SYNC_SYMBOLS);
        let frame = &syms[10..];
        let out = decode_frame(&p, frame).unwrap();
        assert_eq!(out.payload, payload);
    }

    #[test]
    fn nibble_helpers_roundtrip() {
        let bytes = vec![0x12, 0xAB, 0xF0];
        let n = bytes_to_nibbles(&bytes);
        assert_eq!(n, vec![0x2, 0x1, 0xB, 0xA, 0x0, 0xF]);
        assert_eq!(nibbles_to_bytes(&n), bytes);
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversize_payload_panics() {
        let p = params(SpreadingFactor::Sf7, CodeRate::Cr45, false);
        encode_frame(&p, &[0u8; 256]);
    }
}
