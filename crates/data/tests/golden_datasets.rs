//! Golden fingerprints of the simulator's output. Every model, checkpoint
//! and bitwise suite downstream trains on these datasets, so a generator
//! change that moves any coordinate, category, visit or timestamp fails
//! here first, before it surfaces as a drifted score elsewhere.
//!
//! Fingerprint: FNV-1a 64 over the little-endian bytes of a stream of u64
//! words. For each POI in id order: `lat.to_bits()`, `lon.to_bits()`,
//! `cate`. Then for each user and each of their trajectories: the word
//! `0xFFFF`, then `poi` and `time` for each visit.
//!
//! Every pinned config also checks the city step alone: `generate_city`
//! must give bitwise the region, category count and POIs of the full
//! dataset, and no users, because a serving backend boots from it while
//! its offline references use `generate_dataset`.

use tspn_data::presets::{california_mini, florida_mini, nyc_mini, tky_mini};
use tspn_data::synth::{generate_city, generate_dataset, SynthConfig};
use tspn_data::LbsnDataset;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(ds: &LbsnDataset) -> u64 {
    let mut h = Fnv1a::new();
    for p in &ds.pois {
        h.word(p.loc.lat.to_bits());
        h.word(p.loc.lon.to_bits());
        h.word(p.cate.0 as u64);
    }
    for u in &ds.users {
        for t in &u.trajectories {
            h.word(0xFFFF);
            for v in &t.visits {
                h.word(v.poi.0 as u64);
                h.word(v.time as u64);
            }
        }
    }
    h.0
}

/// The city as words: the region's corner bits, the category count, then
/// `lat.to_bits()`, `lon.to_bits()` and `cate` for each POI in id order.
fn city_words(ds: &LbsnDataset) -> Vec<u64> {
    let r = &ds.region;
    let mut words = vec![
        r.min_lat.to_bits(),
        r.min_lon.to_bits(),
        r.max_lat.to_bits(),
        r.max_lon.to_bits(),
        ds.num_categories as u64,
    ];
    for p in &ds.pois {
        words.extend([p.loc.lat.to_bits(), p.loc.lon.to_bits(), p.cate.0 as u64]);
    }
    words
}

fn with_days(mut cfg: SynthConfig, days: usize) -> SynthConfig {
    cfg.days = days;
    cfg
}

fn assert_golden(cfg: SynthConfig, want: u64) {
    let label = format!("{} ({} POIs, {} days)", cfg.name, cfg.num_pois, cfg.days);
    let (ds, _) = generate_dataset(cfg.clone());
    let got = fingerprint(&ds);
    assert_eq!(
        got, want,
        "{label}: fingerprint {got:016x}, want {want:016x}"
    );
    let (city, _) = generate_city(cfg);
    assert!(
        city.users.is_empty(),
        "{label}: the city step simulated users"
    );
    assert!(
        city_words(&city) == city_words(&ds),
        "{label}: the city step alone differs from the full dataset's city"
    );
}

#[test]
fn nyc_full_scale_is_pinned() {
    assert_golden(with_days(nyc_mini(1.0), 80), 0xf837_a62e_7a5d_2535);
}

#[test]
fn nyc_small_scale_is_pinned() {
    assert_golden(with_days(nyc_mini(0.15), 12), 0x7ffa_8e2c_196e_8dac);
}

#[test]
fn tky_full_scale_is_pinned() {
    assert_golden(with_days(tky_mini(1.0), 80), 0x52e0_b64e_7d2b_0679);
}

#[test]
fn florida_full_scale_is_pinned() {
    assert_golden(with_days(florida_mini(1.0), 80), 0xe754_3039_12c5_83d6);
}

#[test]
fn california_half_scale_is_pinned() {
    assert_golden(with_days(california_mini(0.5), 40), 0x385d_470c_dd4a_5606);
}
