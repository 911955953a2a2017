//! Pins what a second packet-level SIC pass is for: over 300 draws of
//! `ablate_sic`'s six-user ladder it delivers at least what one pass
//! does. A user whose first-pass frame checks out is final, so the second
//! pass only retries the rest on a cleaner signal and cannot take a
//! delivered frame away. Release only — 600 six-user decodes.
#![cfg(not(debug_assertions))]

use choir_testbed::ablations::sic_ladder_delivered;

#[test]
fn a_second_sic_pass_delivers_at_least_what_one_does() {
    let seeds = 4200..4500;
    let one = sic_ladder_delivered(1, seeds.clone());
    let two = sic_ladder_delivered(2, seeds);
    let (better, worse) = one.iter().zip(&two).fold((0, 0), |(b, w), (o, t)| {
        (b + usize::from(t > o), w + usize::from(t < o))
    });
    let (one, two): (usize, usize) = (one.iter().sum(), two.iter().sum());
    assert!(
        two >= one,
        "two passes deliver {two}, one pass {one} (better in {better} draws, worse in {worse})"
    );
}
