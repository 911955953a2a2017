//! Payload whitening.
//!
//! LoRa XORs the payload with a pseudo-random sequence so that long runs of
//! identical bits still produce a spectrally flat signal. We use the
//! documented PN9 LFSR (`x⁹ + x⁵ + 1`, seed `0x1FF`) — the same generator
//! the SX127x family uses for FSK whitening and a faithful stand-in for
//! LoRa's undocumented sequence; what matters downstream (Sec. 7 of the
//! paper splices *sensed* bits so that whitening/coding does not destroy
//! MSB overlap) is only that whitening is a fixed, invertible XOR mask.

/// The PN9 LFSR's output bytes from seed `0x1FF`, least significant bit
/// first — an endless stream, so whitening needs no buffer.
struct Pn9(u16);

impl Iterator for Pn9 {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        let mut byte = 0u8;
        for bit in 0..8 {
            let b = (self.0 & 1) as u8;
            byte |= b << bit;
            // Feedback: x^9 + x^5 + 1 → new MSB = bit0 ^ bit5.
            let fb = (self.0 ^ (self.0 >> 5)) & 1;
            self.0 = (self.0 >> 1) | (fb << 8);
        }
        Some(byte)
    }
}

/// Generates `len` whitening bytes from the PN9 LFSR with seed `0x1FF`.
pub fn whitening_sequence(len: usize) -> Vec<u8> {
    Pn9(0x1FF).take(len).collect()
}

/// XORs `data` with the whitening sequence in place. Involutive: applying
/// twice restores the original bytes.
pub fn whiten(data: &mut [u8]) {
    for (d, w) in data.iter_mut().zip(Pn9(0x1FF)) {
        *d ^= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let orig: Vec<u8> = (0..=255).collect();
        let mut data = orig.clone();
        whiten(&mut data);
        assert_ne!(data, orig);
        whiten(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn sequence_is_deterministic_and_prefix_stable() {
        let a = whitening_sequence(16);
        let b = whitening_sequence(32);
        assert_eq!(a, b[..16]);
    }

    #[test]
    fn sequence_is_balanced() {
        // PN9 has period 511 bits; over 64 bytes the ones-density should be
        // close to 1/2.
        let seq = whitening_sequence(64);
        let ones: u32 = seq.iter().map(|b| b.count_ones()).sum();
        let total = 64 * 8;
        let density = ones as f64 / total as f64;
        assert!((density - 0.5).abs() < 0.1, "density {density}");
    }

    #[test]
    fn zero_bytes_become_sequence() {
        let mut data = vec![0u8; 8];
        whiten(&mut data);
        assert_eq!(data, whitening_sequence(8));
    }

    #[test]
    fn lfsr_period_is_511_bits() {
        // 511 bits = the full m-sequence period for a 9-bit LFSR.
        let long = whitening_sequence(511 * 2 / 8 + 2);
        // Compare bit i and bit i+511 for a stretch.
        let bit = |i: usize| (long[i / 8] >> (i % 8)) & 1;
        for i in 0..500 {
            assert_eq!(bit(i), bit(i + 511), "bit {i}");
        }
    }
}
