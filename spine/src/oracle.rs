//! Ground-truth oracle: "payload ≡ what was sent", not "stream ≡ batch".
//!
//! Every CRC-ok payload the program emits is matched against the frames
//! the generator transmitted. A truth frame is delivered at most once; a
//! second copy of a delivered payload (overlapping views decode shared
//! samples twice) is a duplicate and counts for nothing; a CRC-ok payload
//! no transmitter sent is a false accept.

use std::collections::BTreeMap;

use crate::gen::TruthFrame;

/// What one emitted CRC-ok payload turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// First delivery of truth frame `.0`.
    Delivered(usize),
    /// Truth frame `.0` had been delivered already.
    Duplicate(usize),
    /// No transmitted frame carries this payload.
    FalseAccept,
}

/// Matches emitted payloads to transmitted frames.
#[derive(Default)]
pub struct Oracle {
    /// Truth indices by payload (several when payloads collide).
    by_payload: BTreeMap<Vec<u8>, Vec<usize>>,
    delivered: Vec<bool>,
    /// CRC-ok payloads that match no transmitted frame.
    pub false_accepts: u64,
    /// CRC-ok payloads of frames already delivered.
    pub duplicates: u64,
}

impl Oracle {
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Registers frames transmitted since the last call; truth indices
    /// follow registration order.
    pub fn transmit(&mut self, frames: &[TruthFrame]) {
        for f in frames {
            self.by_payload
                .entry(f.payload.clone())
                .or_default()
                .push(self.delivered.len());
            self.delivered.push(false);
        }
    }

    /// Judges one CRC-ok payload.
    pub fn accept(&mut self, payload: &[u8]) -> Verdict {
        let Some(candidates) = self.by_payload.get(payload) else {
            self.false_accepts += 1;
            return Verdict::FalseAccept;
        };
        let fresh = candidates
            .iter()
            .copied()
            .find(|&i| self.delivered.get(i) == Some(&false));
        match (fresh, candidates.first()) {
            (Some(i), _) => {
                if let Some(slot) = self.delivered.get_mut(i) {
                    *slot = true;
                }
                Verdict::Delivered(i)
            }
            (None, Some(&i)) => {
                self.duplicates += 1;
                Verdict::Duplicate(i)
            }
            (None, None) => {
                self.false_accepts += 1;
                Verdict::FalseAccept
            }
        }
    }

    /// Frames transmitted.
    pub fn transmitted(&self) -> u64 {
        self.delivered.len() as u64
    }

    /// Frames delivered with the exact payload.
    pub fn delivered(&self) -> u64 {
        self.delivered.iter().filter(|&&d| d).count() as u64
    }

    /// One character per truth frame in transmission order, `1` when
    /// delivered — what two runs of one seed must agree on.
    pub fn outcomes(&self) -> String {
        self.delivered
            .iter()
            .map(|&d| if d { '1' } else { '0' })
            .collect()
    }
}

/// Whether two runs of one seed delivered the same frames, over the
/// frames both transmitted (a time-bounded run stops where its clock
/// does, so one run's truth list is a prefix of the other's). The last
/// `slack` frames of the shorter list are not compared: the frames in
/// flight when a run stopped are decoded from a truncated capture.
pub fn same_delivered_set(a: &str, b: &str, slack: usize) -> bool {
    let n = a.len().min(b.len()).saturating_sub(slack);
    a.as_bytes().get(..n) == b.as_bytes().get(..n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> TruthFrame {
        TruthFrame {
            payload: payload.to_vec(),
            item: 0,
            snr_db: 10.0,
        }
    }

    #[test]
    fn a_planted_wrong_payload_is_a_false_accept() {
        let mut o = Oracle::new();
        o.transmit(&[frame(b"alpha"), frame(b"bravo")]);
        assert_eq!(o.accept(b"alpha"), Verdict::Delivered(0));
        assert_eq!(o.accept(b"alphA"), Verdict::FalseAccept);
        assert_eq!(o.accept(b"alpha"), Verdict::Duplicate(0));
        assert_eq!((o.delivered(), o.transmitted()), (1, 2));
        assert_eq!((o.false_accepts, o.duplicates), (1, 1));
        assert_eq!(o.outcomes(), "10");
    }

    #[test]
    fn equal_payloads_are_each_delivered_once() {
        let mut o = Oracle::new();
        o.transmit(&[frame(b"same")]);
        o.transmit(&[frame(b"same")]);
        assert_eq!(o.accept(b"same"), Verdict::Delivered(0));
        assert_eq!(o.accept(b"same"), Verdict::Delivered(1));
        assert_eq!(o.accept(b"same"), Verdict::Duplicate(0));
        assert_eq!(o.delivered(), 2);
    }

    #[test]
    fn runs_are_compared_over_their_common_prefix() {
        assert!(same_delivered_set("110101", "1101", 0));
        assert!(!same_delivered_set("110101", "1111", 0));
        assert!(same_delivered_set("110101", "1111", 2));
        assert!(same_delivered_set("", "1", 0));
    }
}
