//! The typed event vocabulary of the decode pipeline, plus hand-rolled
//! JSON serialisation (the workspace builds offline with no serde).

/// One provenance record from the decode pipeline.
///
/// Variants are grouped by the level at which emission sites record them:
/// `Full`-level events describe *how* a decode proceeded (per window, per
/// SIC pass, per user track), `Outcome`-level events describe
/// *what happened* (slot results, typed errors, station transitions).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// One Algorithm-1 offset-search refinement over a dechirped preamble
    /// window: the coarse FFT-peak candidates, the converged fractional
    /// positions and the joint residual they achieved. (`Full`)
    OffsetSearch {
        /// Preamble window index this search ran over.
        window: u64,
        /// Residual evaluations spent before convergence (search effort).
        evals: u64,
        /// Coarse candidate positions entering the search, in bins.
        coarse_bins: Vec<f64>,
        /// Refined candidate positions at convergence, index-aligned with
        /// `coarse_bins`.
        refined_bins: Vec<f64>,
        /// Joint least-squares residual power at the refined positions.
        residual: f64,
    },
    /// One phased-SIC pass: which user components were cancelled and how
    /// much residual power the window retained afterwards. (`Full`)
    SicPass {
        /// Preamble window index the pass ran over.
        window: u64,
        /// Zero-based pass (phase) number.
        phase: u32,
        /// Residual power after subtracting this pass's cohort, relative
        /// to the window's input power.
        relative_residual: f64,
        /// Fractional-bin positions of the components cancelled by this
        /// pass — the pipeline's user identities at this stage.
        cancelled_bins: Vec<f64>,
    },
    /// A peak de-duplication verdict: a candidate decode was dropped as a
    /// ghost of a stronger one because their symbol streams were near
    /// identical. (`Full`)
    PeakDedup {
        /// Offset (bins) of the decode that was kept.
        kept_bins: f64,
        /// Offset (bins) of the decode that was discarded.
        dropped_bins: f64,
        /// Fraction of symbol positions on which the two agreed.
        identical_frac: f64,
    },
    /// One merged user track surviving preamble discovery — the decoder's
    /// working definition of "a user" entering demodulation. (`Full`)
    UserTrack {
        /// Track index (order of discovery).
        track: u32,
        /// Circular-mean position of the track, in bins.
        pos_bins: f64,
        /// Number of preamble windows supporting the track.
        support: u32,
        /// Mean channel magnitude across supporting windows.
        mag: f64,
    },
    /// Entry into a `choir_core::profile` stage scope. (`Full`)
    SpanEnter {
        /// Stage name, index-aligned with `profile::STAGE_NAMES`.
        stage: &'static str,
    },
    /// Exit from a `choir_core::profile` stage scope. (`Full`)
    SpanExit {
        /// Stage name, index-aligned with `profile::STAGE_NAMES`.
        stage: &'static str,
        /// Exclusive nanoseconds billed to the stage by the profiler
        /// (child scopes subtracted).
        exclusive_ns: u64,
    },
    /// A slot finished decoding. (`Outcome`)
    ///
    /// Emitted by the decoder itself, so both batch and streaming paths
    /// produce one per slot; whether a streaming slot ran in degraded
    /// mode is bracketed by the surrounding [`TraceEvent::StationDegrade`]
    /// transitions.
    SlotOutcome {
        /// Start position of the slot within its capture buffer.
        slot_start: u64,
        /// Users decoded from the collision.
        users: u32,
        /// Users whose payload passed CRC.
        crc_ok: u32,
    },
    /// A typed `DecodeError` was constructed — every construction site in
    /// the pipeline emits one of these (enforced by the `trace_event`
    /// lint rule). (`Outcome`)
    DecodeFailed {
        /// Stable error-kind tag (`truncated_slot`, `singular_fit`, ...).
        kind: &'static str,
        /// Human-readable detail (the error's `Display` output).
        detail: String,
    },
    /// A chunk of IQ samples entered the station ring. (`Full`)
    StationIngest {
        /// Samples in the pushed chunk.
        samples: u64,
        /// Ring samples overwritten to make room (0 when keeping up).
        overwritten: u64,
        /// Absolute stream position after the push.
        stream_pos: u64,
    },
    /// The sample ring wrapped: unconsumed samples were overwritten by
    /// newer ones because ingest outran the decode side. (`Full`)
    RingOverwrite {
        /// Samples overwritten by this push.
        overwritten: u64,
        /// Oldest still-resident absolute sample index after the push.
        tail: u64,
        /// Absolute stream position after the push.
        head: u64,
    },
    /// The station shed a scheduled slot instead of decoding it. (`Outcome`)
    StationShed {
        /// Absolute stream position of the shed slot.
        slot_start: u64,
        /// What overflowed.
        reason: ShedReason,
    },
    /// The station crossed its pressure watermark and switched decode
    /// configurations. (`Outcome`)
    StationDegrade {
        /// True when entering degraded mode, false when recovering.
        active: bool,
        /// Dispatch-queue depth at the transition.
        queue_depth: u64,
    },
    /// A station metrics snapshot, embedded as its canonical JSON
    /// object. (`Outcome`)
    MetricsSnapshot {
        /// `StationMetrics::to_json()` output (a valid JSON object).
        json: String,
    },
    /// One lifecycle transition of a tracker hypothesis, emitted by the
    /// tracker at the transition itself. (`Outcome` for confirmations,
    /// `Full` for births, expiries and merges.)
    Hypothesis(Hypothesis),
    /// One MAC-simulation slot outcome from a Choir-backed PHY. (`Full`)
    MacSlot {
        /// Slot number within the simulation.
        slot: u64,
        /// Transmissions offered to the slot (colliders).
        offered: u32,
        /// Frames delivered after collision decoding.
        delivered: u32,
    },
    /// One city-simulator slot outcome at a gateway shard — the
    /// `mac_slot` analogue for `choir-city`, with the gateway and MAC
    /// scheme identifying the shard the slot belongs to. (`Full`)
    CitySlot {
        /// MAC scheme the shard simulates.
        scheme: CityScheme,
        /// Gateway (shard) index within the city.
        gateway: u32,
        /// Slot number within the gateway's simulation.
        slot: u64,
        /// Frames offered to the slot (concurrent transmissions).
        offered: u32,
        /// Frames delivered out of the slot.
        delivered: u32,
    },
}

/// The closed set of MAC schemes the city simulator traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CityScheme {
    /// Unslotted ALOHA (adjacent-slot vulnerability, no coordination).
    Aloha,
    /// Slotted ALOHA with strongest-signal capture.
    Slotted,
    /// Choir beacon slots with collision decoding.
    Choir,
    /// SS5G-style collision resolution (slot-shift decoding).
    Ss5g,
}

impl CityScheme {
    /// Stable snake_case tag used in exported logs.
    pub fn tag(self) -> &'static str {
        match self {
            CityScheme::Aloha => "aloha",
            CityScheme::Slotted => "slotted",
            CityScheme::Choir => "choir",
            CityScheme::Ss5g => "ss5g",
        }
    }
}

/// The closed set of tracker-hypothesis lifecycle transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HypothesisTransition {
    /// A peak no live hypothesis claimed started a new candidate.
    Born,
    /// The hypothesis met the confirmation criteria and was reported.
    Confirmed,
    /// The hypothesis ran out of support (or was evicted) unconfirmed.
    Expired,
    /// The hypothesis was folded into a duplicate tracking the same bin.
    Merged,
}

impl HypothesisTransition {
    /// Stable snake_case tag used in exported logs.
    pub fn tag(self) -> &'static str {
        match self {
            HypothesisTransition::Born => "born",
            HypothesisTransition::Confirmed => "confirmed",
            HypothesisTransition::Expired => "expired",
            HypothesisTransition::Merged => "merged",
        }
    }
}

/// One lifecycle transition of a multi-hypothesis tracker candidate: the
/// single record of the born → confirmed / expired / merged lifecycle.
/// The tracker (`lora_phy::tracker::StreamScanner`) writes one per
/// transition as it bumps its own counts; logs and tests read these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hypothesis {
    /// Which transition this record marks.
    pub transition: HypothesisTransition,
    /// Tracker-unique hypothesis id.
    pub id: u64,
    /// Symbol-window index of the transition.
    pub window: u64,
    /// Absolute sample index of the candidate packet start.
    pub start: u64,
    /// Dechirped bin the candidate persisted at.
    pub bin: u16,
    /// Deflated peak score (single-window at birth, accumulated at
    /// confirmation; 0 where not meaningful).
    pub score: f64,
    /// Supporting windows accumulated at the transition.
    pub support: u32,
}

/// Why a station slot was load-shed instead of decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The capture queue was past `max_in_flight`; the oldest pending
    /// capture was dropped (drop-oldest keeps the freshest slots — stale
    /// decodes are worthless to a live MAC).
    QueueFull,
    /// The ring overwrote part of the capture's sample range before it
    /// could be cut: ingest outran the consumer past the ring's capacity.
    RingOverrun,
}

impl ShedReason {
    /// Stable snake_case tag used in exported logs.
    pub fn tag(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RingOverrun => "ring_overrun",
        }
    }
}

impl TraceEvent {
    /// Stable snake_case tag identifying the variant in exported logs.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::OffsetSearch { .. } => "offset_search",
            TraceEvent::SicPass { .. } => "sic_pass",
            TraceEvent::PeakDedup { .. } => "peak_dedup",
            TraceEvent::UserTrack { .. } => "user_track",
            TraceEvent::SpanEnter { .. } => "span_enter",
            TraceEvent::SpanExit { .. } => "span_exit",
            TraceEvent::SlotOutcome { .. } => "slot_outcome",
            TraceEvent::DecodeFailed { .. } => "decode_failed",
            TraceEvent::StationIngest { .. } => "station_ingest",
            TraceEvent::RingOverwrite { .. } => "ring_overwrite",
            TraceEvent::StationShed { .. } => "station_shed",
            TraceEvent::StationDegrade { .. } => "station_degrade",
            TraceEvent::MetricsSnapshot { .. } => "metrics_snapshot",
            TraceEvent::Hypothesis(_) => "hypothesis",
            TraceEvent::MacSlot { .. } => "mac_slot",
            TraceEvent::CitySlot { .. } => "city_slot",
        }
    }

    /// Appends this event's fields (without the enclosing braces) as
    /// `"key": value` JSON members, `kind` first.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        out.push_str("\"kind\": \"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            TraceEvent::OffsetSearch {
                window,
                evals,
                coarse_bins,
                refined_bins,
                residual,
            } => {
                jint(out, "window", *window);
                jint(out, "evals", *evals);
                jarr(out, "coarse_bins", coarse_bins);
                jarr(out, "refined_bins", refined_bins);
                jnum(out, "residual", *residual);
            }
            TraceEvent::SicPass {
                window,
                phase,
                relative_residual,
                cancelled_bins,
            } => {
                jint(out, "window", *window);
                jint(out, "phase", u64::from(*phase));
                jnum(out, "relative_residual", *relative_residual);
                jarr(out, "cancelled_bins", cancelled_bins);
            }
            TraceEvent::PeakDedup {
                kept_bins,
                dropped_bins,
                identical_frac,
            } => {
                jnum(out, "kept_bins", *kept_bins);
                jnum(out, "dropped_bins", *dropped_bins);
                jnum(out, "identical_frac", *identical_frac);
            }
            TraceEvent::UserTrack {
                track,
                pos_bins,
                support,
                mag,
            } => {
                jint(out, "track", u64::from(*track));
                jnum(out, "pos_bins", *pos_bins);
                jint(out, "support", u64::from(*support));
                jnum(out, "mag", *mag);
            }
            TraceEvent::SpanEnter { stage } => jstr(out, "stage", stage),
            TraceEvent::SpanExit {
                stage,
                exclusive_ns,
            } => {
                jstr(out, "stage", stage);
                jint(out, "exclusive_ns", *exclusive_ns);
            }
            TraceEvent::SlotOutcome {
                slot_start,
                users,
                crc_ok,
            } => {
                jint(out, "slot_start", *slot_start);
                jint(out, "users", u64::from(*users));
                jint(out, "crc_ok", u64::from(*crc_ok));
            }
            TraceEvent::DecodeFailed { kind, detail } => {
                jstr(out, "error", kind);
                jstr(out, "detail", detail);
            }
            TraceEvent::StationIngest {
                samples,
                overwritten,
                stream_pos,
            } => {
                jint(out, "samples", *samples);
                jint(out, "overwritten", *overwritten);
                jint(out, "stream_pos", *stream_pos);
            }
            TraceEvent::RingOverwrite {
                overwritten,
                tail,
                head,
            } => {
                jint(out, "overwritten", *overwritten);
                jint(out, "tail", *tail);
                jint(out, "head", *head);
            }
            TraceEvent::StationShed { slot_start, reason } => {
                jint(out, "slot_start", *slot_start);
                jstr(out, "reason", reason.tag());
            }
            TraceEvent::StationDegrade {
                active,
                queue_depth,
            } => {
                jbool(out, "active", *active);
                jint(out, "queue_depth", *queue_depth);
            }
            TraceEvent::MetricsSnapshot { json } => {
                // Already a JSON object; embed verbatim.
                out.push_str(", \"metrics\": ");
                out.push_str(json);
            }
            TraceEvent::Hypothesis(h) => {
                jstr(out, "transition", h.transition.tag());
                jint(out, "id", h.id);
                jint(out, "window", h.window);
                jint(out, "start", h.start);
                jint(out, "bin", u64::from(h.bin));
                jnum(out, "score", h.score);
                jint(out, "support", u64::from(h.support));
            }
            TraceEvent::MacSlot {
                slot,
                offered,
                delivered,
            } => {
                jint(out, "slot", *slot);
                jint(out, "offered", u64::from(*offered));
                jint(out, "delivered", u64::from(*delivered));
            }
            TraceEvent::CitySlot {
                scheme,
                gateway,
                slot,
                offered,
                delivered,
            } => {
                jstr(out, "scheme", scheme.tag());
                jint(out, "gateway", u64::from(*gateway));
                jint(out, "slot", *slot);
                jint(out, "offered", u64::from(*offered));
                jint(out, "delivered", u64::from(*delivered));
            }
        }
    }
}

fn jkey(out: &mut String, key: &str) {
    out.push_str(", \"");
    out.push_str(key);
    out.push_str("\": ");
}

fn jint(out: &mut String, key: &str, v: u64) {
    jkey(out, key);
    out.push_str(&v.to_string());
}

fn jbool(out: &mut String, key: &str, v: bool) {
    jkey(out, key);
    out.push_str(if v { "true" } else { "false" });
}

/// Finite floats print via Rust's shortest-round-trip `Display`; NaN and
/// infinities (invalid JSON numbers) serialise as `null`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = v.to_string();
        out.push_str(&s);
        // Bare integers like "3" are valid JSON but lose the "this was a
        // float" signal round-trip; keep a decimal point.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn jnum(out: &mut String, key: &str, v: f64) {
    jkey(out, key);
    write_f64(out, v);
}

fn jarr(out: &mut String, key: &str, vs: &[f64]) {
    jkey(out, key);
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_f64(out, *v);
    }
    out.push(']');
}

/// JSON string escaping: quotes, backslashes and control characters.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn jstr(out: &mut String, key: &str, v: &str) {
    jkey(out, key);
    out.push('"');
    escape_into(out, v);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_stable() {
        let e = TraceEvent::SicPass {
            window: 2,
            phase: 0,
            relative_residual: 0.25,
            cancelled_bins: vec![3.5],
        };
        assert_eq!(e.kind(), "sic_pass");
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        let mut out = String::new();
        let e = TraceEvent::PeakDedup {
            kept_bins: f64::NAN,
            dropped_bins: f64::INFINITY,
            identical_frac: 0.5,
        };
        e.write_json_fields(&mut out);
        assert!(out.contains("\"kept_bins\": null"));
        assert!(out.contains("\"dropped_bins\": null"));
        assert!(out.contains("\"identical_frac\": 0.5"));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let mut out = String::new();
        let e = TraceEvent::UserTrack {
            track: 0,
            pos_bins: 17.0,
            support: 6,
            mag: 1.0,
        };
        e.write_json_fields(&mut out);
        assert!(out.contains("\"pos_bins\": 17.0"), "got: {out}");
    }

    /// The enum-typed vocabularies serialise to the tags the string-typed
    /// fields used to carry: each line is PR 16's output, byte for byte.
    #[test]
    fn typed_vocabularies_serialise_to_their_tags() {
        let cases = [
            (
                TraceEvent::Hypothesis(Hypothesis {
                    transition: HypothesisTransition::Confirmed,
                    id: 7,
                    window: 42,
                    start: 10752,
                    bin: 219,
                    score: 1290.5,
                    support: 8,
                }),
                r#""kind": "hypothesis", "transition": "confirmed", "id": 7, "window": 42, "start": 10752, "bin": 219, "score": 1290.5, "support": 8"#,
            ),
            (
                TraceEvent::CitySlot {
                    scheme: CityScheme::Ss5g,
                    gateway: 12,
                    slot: 480,
                    offered: 3,
                    delivered: 3,
                },
                r#""kind": "city_slot", "scheme": "ss5g", "gateway": 12, "slot": 480, "offered": 3, "delivered": 3"#,
            ),
            (
                TraceEvent::StationShed {
                    slot_start: 4096,
                    reason: ShedReason::QueueFull,
                },
                r#""kind": "station_shed", "slot_start": 4096, "reason": "queue_full""#,
            ),
        ];
        for (event, want) in cases {
            let mut out = String::new();
            event.write_json_fields(&mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        let e = TraceEvent::DecodeFailed {
            kind: "frame",
            detail: "bad \"sync\"\nline".to_string(),
        };
        e.write_json_fields(&mut out);
        assert!(out.contains("bad \\\"sync\\\"\\nline"), "got: {out}");
    }
}
