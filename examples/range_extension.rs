//! Range extension with sensor teams (Sec. 7): a team of sensors, each
//! individually far beyond the base station's decoding range, delivers a
//! shared reading by answering the beacon together — accumulation reveals
//! the buried preamble and power-combining decodes the common symbols.
//!
//! ```text
//! cargo run --release --example range_extension
//! ```

use choir::prelude::*;

fn main() {
    let params = PhyParams::default();
    let topo = Topology::cmu_campus(7);

    // A sensor 1.4 km out — the single-node limit in this urban budget is
    // about 1 km (the paper measures the same).
    let distance = 1400.0;
    let member_snr = topo.link.snr_db(distance, params.bw.hz());
    let single_floor = params.sf.demod_floor_db();
    println!(
        "distance {distance} m → per-sensor SNR {member_snr:.1} dB (demod floor {single_floor:.1} dB)"
    );
    assert!(member_snr < single_floor, "pick a distance beyond range");

    // The shared packet: a spliced MSB chunk of the team's common reading.
    let reading = 21.8f64;
    let q = Quantizer::temperature();
    let code = choir::sensors::splice::quantize(reading, q.lo, q.hi, q.bits);
    let chunks = choir::sensors::splice::splice(code, q.bits, q.chunk_bits);
    let payload: Vec<u8> = chunks.clone();
    println!("reading {reading} °C → code {code:#05x} → MSB chunks {chunks:?}");

    for team in [1usize, 6, 14, 24] {
        let scenario = ScenarioBuilder::new(params)
            .snrs_db(&vec![member_snr; team])
            .shared_payload(payload.clone())
            .oscillator(OscillatorModel::default())
            .seed(99 + team as u64)
            .build();
        let dec = TeamDecoder::new(params);
        match dec.decode(
            &scenario.samples,
            scenario.slot_start,
            scenario.slot_start + 1,
            payload.len(),
        ) {
            Some((det, Some(frame))) if frame.crc_ok && frame.payload == payload => {
                let rec_chunks: Vec<Option<u8>> = frame.payload.iter().map(|&c| Some(c)).collect();
                let rec_code =
                    choir::sensors::splice::reassemble(&rec_chunks, q.bits, q.chunk_bits);
                let rec = choir::sensors::splice::dequantize(rec_code, q.lo, q.hi, q.bits);
                println!(
                    "team of {team:2}: DECODED (detection metric {:5.1}, {} members visible) → {rec:.2} °C",
                    det.metric,
                    det.offsets.len()
                );
            }
            Some((det, _)) => println!(
                "team of {team:2}: detected (metric {:5.1}) but data not recoverable",
                det.metric
            ),
            None => println!("team of {team:2}: not even detectable"),
        }
    }
    println!("\nlarger teams reach further — the Fig. 9 mechanism");
}
