//! Seeded golden transcripts for the city simulator.
//!
//! The pinned digests below were produced by this exact test; they are
//! the cross-thread determinism contract. CI runs this file under both
//! `CHOIR_THREADS=1` and `CHOIR_THREADS=4` (the golden config routes
//! through the env-sized global pool), so any scheduling- or
//! shard-dependence shows up as a digest mismatch on one leg.
//!
//! If a *deliberate* model change shifts the transcripts, rerun with
//! `CITY_GOLDEN_PRINT=1 cargo test -p choir-city --test golden -- --nocapture`
//! and paste the new table — the 1-vs-4-thread equality is re-proven on
//! the next CI run, not assumed.

use choir_city::model::Scheme;
use choir_city::sim::{run_city, run_city_global, CityConfig};
use choir_pool::ThreadPool;

fn golden_cfg() -> CityConfig {
    let mut cfg = CityConfig::new(0xC17C_17C1, 8, 200, 600);
    cfg.client.period_slots = 500;
    cfg.shards = 4;
    cfg
}

/// (scheme, digest, offered, delivered) — regenerate via
/// `CITY_GOLDEN_PRINT=1`.
const GOLDEN: [(Scheme, u64, u64, u64); 4] = [
    (Scheme::Aloha, 0x5e75b67c21ebe6ac, 1920, 96),
    (Scheme::Slotted, 0x8dff7e52bb8618a1, 1920, 1592),
    (Scheme::Choir, 0xf5825ea7c6927db0, 1920, 1844),
    (Scheme::Ss5g, 0xf4ac5ef1aa45c9a5, 1920, 1653),
];

/// The paper's urban scale — 10⁶ duty-cycled clients over 100 gateways —
/// at the heaviest point of the capacity sweep, 4 fresh frames per slot
/// per gateway (one frame per client per period, so the period is
/// clients ÷ load). The claim is only reproduced at this scale, so the
/// rows are pinned here and not on a smaller city.
fn city_scale_cfg() -> CityConfig {
    let mut cfg = CityConfig::new(0x00C1_7C17, 100, 10_000, 400);
    cfg.client.period_slots = 10_000 / 4;
    cfg.shards = 16;
    cfg
}

/// As [`GOLDEN`], at [`city_scale_cfg`].
const CITY_SCALE: [(Scheme, u64, u64, u64); 4] = [
    (Scheme::Aloha, 0xe67c550976433f24, 160000, 0),
    (Scheme::Slotted, 0x209a3bd70d2c8545, 160000, 760),
    (Scheme::Choir, 0xf3439454888a79d1, 160000, 85252),
    (Scheme::Ss5g, 0x1f18f476737e5e06, 160000, 0),
];

/// Runs every pinned row of `table` on the env-sized global pool and
/// returns the rows that differ; under `CITY_GOLDEN_PRINT` prints the
/// table to paste instead.
fn divergence(name: &str, cfg: &CityConfig, table: &[(Scheme, u64, u64, u64); 4]) -> Vec<String> {
    let mut print = String::new();
    let mut failures = Vec::new();
    for &(scheme, digest, offered, delivered) in table {
        let st = run_city_global(cfg, scheme);
        print.push_str(&format!(
            "    (Scheme::{:?}, 0x{:016x}, {}, {}),\n",
            scheme, st.digest, st.totals.offered, st.totals.delivered
        ));
        if (st.digest, st.totals.offered, st.totals.delivered) != (digest, offered, delivered) {
            failures.push(format!(
                "{scheme:?}: digest 0x{:016x} offered {} delivered {} (pinned 0x{digest:016x}/{offered}/{delivered})",
                st.digest, st.totals.offered, st.totals.delivered
            ));
        }
    }
    if std::env::var("CITY_GOLDEN_PRINT").is_ok() {
        println!("const {name}: [(Scheme, u64, u64, u64); 4] = [\n{print}];");
        return Vec::new();
    }
    failures
}

#[test]
fn golden_transcripts_match_pinned_digests() {
    let failures = divergence("GOLDEN", &golden_cfg(), &GOLDEN);
    assert!(
        failures.is_empty(),
        "golden divergence:\n{}",
        failures.join("\n")
    );
}

/// The capacity claim at city scale: the four pinned transcripts, Choir
/// delivering at least what slotted ALOHA does at 4× load, and Choir's
/// transcript independent of the worker count.
#[test]
fn city_scale_rows_match_pinned_digests() {
    let cfg = city_scale_cfg();
    let failures = divergence("CITY_SCALE", &cfg, &CITY_SCALE);
    assert!(
        failures.is_empty(),
        "city-scale divergence:\n{}",
        failures.join("\n")
    );
    let delivered = |scheme| {
        CITY_SCALE
            .iter()
            .find(|row| row.0 == scheme)
            .map_or(0, |row| row.3)
    };
    assert!(
        delivered(Scheme::Choir) >= delivered(Scheme::Slotted),
        "Choir under slotted ALOHA at 4x load"
    );
    let a = run_city(&cfg, Scheme::Choir, &ThreadPool::with_threads(1));
    let b = run_city(&cfg, Scheme::Choir, &ThreadPool::with_threads(4));
    assert_eq!(
        (a.digest, a.totals),
        (b.digest, b.totals),
        "city-scale Choir transcript depends on worker count"
    );
}

#[test]
fn golden_is_identical_on_one_and_four_workers() {
    let cfg = golden_cfg();
    let seq = ThreadPool::with_threads(1);
    let par = ThreadPool::with_threads(4);
    for scheme in Scheme::ALL {
        let a = run_city(&cfg, scheme, &seq);
        let b = run_city(&cfg, scheme, &par);
        assert_eq!(
            (a.digest, a.totals),
            (b.digest, b.totals),
            "{scheme:?} transcript depends on worker count"
        );
    }
}

#[test]
fn iq_escalated_run_is_thread_invariant() {
    // The IQ tier synthesises real collisions through choir-core; its
    // verdicts must be just as thread-independent as the closed form.
    let mut cfg = CityConfig::new(99, 2, 40, 240);
    cfg.client.period_slots = 30;
    cfg.iq_slots_per_gw = 4;
    cfg.shards = 2;
    let seq = ThreadPool::with_threads(1);
    let par = ThreadPool::with_threads(4);
    let a = run_city(&cfg, Scheme::Choir, &seq);
    let b = run_city(&cfg, Scheme::Choir, &par);
    assert!(a.totals.iq_slots > 0, "escalation budget never spent");
    assert_eq!((a.digest, a.totals), (b.digest, b.totals));
}
