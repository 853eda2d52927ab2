//! Agent-based LBSN check-in simulator — the stand-in for Foursquare /
//! Weeplaces data.
//!
//! Real next-POI predictability comes from four generating factors, all of
//! which this simulator encodes so that models exploiting more of them
//! score higher (the paper's headline comparison shape):
//!
//! 1. **Revisit habit** — users keep a favourite-venue set anchored around
//!    home and work and mostly rotate within it.
//! 2. **Temporal routine** — venue *categories* follow time-of-day
//!    archetypes (food at meal slots, nightlife late, offices at commute
//!    hours).
//! 3. **Spatial locality** — the next venue is distance-decayed from the
//!    current one.
//! 4. **Environmental affinity** — venues exist where the world model puts
//!    attractive land (downtown, beachfront), so tile imagery carries real
//!    signal about what can be visited where.
//!
//! Every pure term of the agent's choice weights is tabulated once per
//! [`SynthGenerator::generate`] call: each POI's popularity, the
//! time-of-day fit of every (slot, archetype) pair, and the category
//! weights of every land-use class. The tables are exact hoists — each
//! entry is the same expression the per-step code used to evaluate, and
//! every product keeps its original order — so the output is bitwise
//! unchanged; `tests/golden_datasets.rs` pins it for all four presets.
//! Only the distance decay, which depends on where the agent stands, is
//! computed per step.
//!
//! Generation has two steps. The **city step** ([`generate_city`])
//! places the POIs with the master-seeded RNG: that fixes the region,
//! the POI table and the category count, which is all a served model
//! reads. The **check-in simulation** then runs every
//! user's calendar over that city, each user on an RNG seeded by its own
//! id. No user draw touches the master RNG, so a city built alone is
//! bitwise the city of the full [`generate_dataset`]; `generate` runs the
//! city step itself, so the two cannot drift. A serving backend builds
//! the city only; training and evaluation need the check-ins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tspn_geo::{BBox, GeoPoint};
use tspn_world::{LandUse, World, WorldConfig};

use crate::dataset::LbsnDataset;
use crate::poi::{CategoryId, Poi, PoiId, UserId, DAY_SECS, TIME_SLOTS};
use crate::trajectory::{UserHistory, Visit, DEFAULT_GAP_SECS};

/// Venue archetypes: coarse behavioural groups categories belong to.
/// Category `c` has archetype `c % 6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Archetype {
    /// Restaurants, cafés — meal-time peaks.
    Food,
    /// Retail — daytime/afternoon.
    Shopping,
    /// Offices, coworking — commute-hour peaks, commercial districts.
    Work,
    /// Bars, clubs — evening/night, downtown.
    Nightlife,
    /// Parks, beaches, trails — daylight, park/coastal land.
    Outdoors,
    /// Stations, terminals — commute peaks, high road density.
    Transport,
}

impl Archetype {
    /// Archetype of a category id.
    pub fn of(cate: CategoryId) -> Archetype {
        match cate.0 % 6 {
            0 => Archetype::Food,
            1 => Archetype::Shopping,
            2 => Archetype::Work,
            3 => Archetype::Nightlife,
            4 => Archetype::Outdoors,
            _ => Archetype::Transport,
        }
    }

    /// Affinity of this archetype for a land-use class — how plausible it
    /// is for such a venue to exist there.
    pub fn land_affinity(self, land: LandUse) -> f64 {
        use Archetype::*;
        use LandUse::*;
        match (self, land) {
            (_, Water) => 0.0,
            (Outdoors, Park) => 1.0,
            (_, Park) => 0.05,
            (Food, Commercial) => 1.0,
            (Food, Residential) => 0.6,
            (Shopping, Commercial) => 1.0,
            (Shopping, Residential) => 0.4,
            (Work, Commercial) => 1.0,
            (Work, Industrial) => 0.8,
            (Nightlife, Commercial) => 1.0,
            (Nightlife, Residential) => 0.25,
            (Transport, Commercial) => 0.8,
            (Transport, Industrial) => 0.6,
            (Outdoors, Suburban) => 0.5,
            (Outdoors, Commercial) => 0.1,
            (_, Residential) => 0.3,
            (_, Suburban) => 0.15,
            (_, Industrial) => 0.1,
        }
    }

    /// Time-of-day weight for a half-hour slot (0–47).
    pub fn slot_weight(self, slot: usize) -> f64 {
        let hour = slot as f64 / 2.0;
        let peak = |center: f64, width: f64| -> f64 {
            let d = (hour - center).abs().min(24.0 - (hour - center).abs());
            (-(d * d) / (2.0 * width * width)).exp()
        };
        match self {
            Archetype::Food => peak(8.0, 1.5) + peak(12.5, 1.5) + peak(19.0, 2.0),
            Archetype::Shopping => peak(15.0, 3.0),
            Archetype::Work => peak(9.0, 1.5) + 0.6 * peak(14.0, 2.5),
            Archetype::Nightlife => peak(22.0, 2.5),
            Archetype::Outdoors => peak(11.0, 3.5) + 0.5 * peak(16.0, 2.0),
            Archetype::Transport => peak(8.5, 1.0) + peak(18.0, 1.5),
        }
    }
}

/// Simulator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Master seed.
    pub seed: u64,
    /// Dataset name.
    pub name: String,
    /// World generation parameters (coast, districts, falloff).
    pub world: WorldConfig,
    /// Study region in lat/lon.
    pub region: BBox,
    /// Venue count.
    pub num_pois: usize,
    /// Category count.
    pub num_categories: usize,
    /// User count.
    pub num_users: usize,
    /// Simulated calendar length.
    pub days: usize,
    /// Probability a user is active on a given day (low values create the
    /// ≥ 72 h gaps that split trajectories).
    pub active_day_prob: f64,
    /// Mean visits on an active day.
    pub visits_per_active_day: f64,
    /// Probability a visit explores beyond the favourite set.
    pub explore_prob: f64,
    /// Size of each user's favourite-venue pool.
    pub favorites_per_user: usize,
}

fn weighted_choice(rng: &mut impl Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// The pure terms of the agent's choice weights, tabulated once per
/// [`SynthGenerator::generate`].
struct ChoiceTables {
    /// Normalised `(x, y)` position by POI id.
    norm: Vec<(f64, f64)>,
    /// `popularity(poi)` by POI id.
    popularity: Vec<f64>,
    /// `Archetype::of(cate) as usize` by POI id: its column of `fit`.
    archetype: Vec<usize>,
    /// `0.05 + arch.slot_weight(slot)` by `[slot][arch as usize]`.
    fit: [[f64; 6]; TIME_SLOTS],
}

/// The generator, retaining the world so downstream crates can render
/// imagery / roads consistent with the data.
pub struct SynthGenerator {
    config: SynthConfig,
    world: World,
}

impl SynthGenerator {
    /// Creates a generator (instantiates the world).
    pub fn new(config: SynthConfig) -> Self {
        let world = World::new(config.world);
        SynthGenerator { config, world }
    }

    /// The world model backing this dataset.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    fn to_geo(&self, x: f64, y: f64) -> GeoPoint {
        let r = &self.config.region;
        GeoPoint::new(
            r.min_lat + y.clamp(0.0, 1.0 - 1e-9) * r.lat_span(),
            r.min_lon + x.clamp(0.0, 1.0 - 1e-9) * r.lon_span(),
        )
    }

    fn to_norm(&self, p: &GeoPoint) -> (f64, f64) {
        self.config.region.normalize(p)
    }

    /// Places POIs by rejection-sampling world attractiveness and matching
    /// category archetypes to local land use.
    fn place_pois(&self, rng: &mut StdRng) -> Vec<Poi> {
        // Category conditioned on land use via archetype affinity: one
        // weight row per land-use class, indexed by `land as usize`.
        let cate_weights = LandUse::ALL.map(|land| {
            (0..self.config.num_categories)
                .map(|c| Archetype::of(CategoryId(c)).land_affinity(land).max(1e-3))
                .collect::<Vec<f64>>()
        });
        let mut pois = Vec::with_capacity(self.config.num_pois);
        let mut attempts = 0usize;
        while pois.len() < self.config.num_pois {
            attempts += 1;
            assert!(
                attempts < self.config.num_pois * 10_000,
                "POI placement failed to converge — world too hostile"
            );
            let x = rng.gen_range(0.0..1.0);
            let y = rng.gen_range(0.0..1.0);
            let land = self.world.land_use(x, y);
            if rng.gen::<f64>() >= self.world.attractiveness(land, x, y) {
                continue;
            }
            let cate = CategoryId(weighted_choice(rng, &cate_weights[land as usize]));
            pois.push(Poi {
                id: PoiId(pois.len()),
                loc: self.to_geo(x, y),
                cate,
            });
        }
        pois
    }

    /// Zipf-ish popularity: POI `i` has weight `1 / (1 + i mod 97)^0.8`,
    /// shuffled by id hash so popularity is independent of placement order.
    fn popularity(&self, poi: PoiId) -> f64 {
        let h = (poi.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.config.seed;
        let rank = (h % 97) as f64;
        1.0 / (1.0 + rank).powf(0.8)
    }

    fn sample_location_by(
        &self,
        rng: &mut StdRng,
        score: impl Fn(&World, f64, f64) -> f64,
    ) -> (f64, f64) {
        for _ in 0..10_000 {
            let x = rng.gen_range(0.0..1.0);
            let y = rng.gen_range(0.0..1.0);
            if rng.gen::<f64>() < score(&self.world, x, y) {
                return (x, y);
            }
        }
        // Fall back to the first district centre.
        self.world.districts()[0]
    }

    /// The city step: the region, category count and POIs, placed by the
    /// master-seeded RNG. The dataset has no users.
    fn city(&self) -> LbsnDataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        LbsnDataset {
            name: cfg.name.clone(),
            region: cfg.region,
            pois: self.place_pois(&mut rng),
            num_categories: cfg.num_categories,
            users: Vec::new(),
        }
    }

    /// Runs the full simulation: the city step, then every user's
    /// check-in calendar.
    pub fn generate(&self) -> LbsnDataset {
        let mut ds = self.city();
        ds.users = self.simulate_users(&ds.pois);
        ds
    }

    /// The check-in simulation over a placed city. Each user draws from an
    /// RNG seeded by its own id, so it never perturbs the city step.
    fn simulate_users(&self, pois: &[Poi]) -> Vec<UserHistory> {
        let cfg = &self.config;
        let mut fit = [[0.0; 6]; TIME_SLOTS];
        for (slot, row) in fit.iter_mut().enumerate() {
            for c in 0..6 {
                let arch = Archetype::of(CategoryId(c));
                row[arch as usize] = 0.05 + arch.slot_weight(slot);
            }
        }
        let tables = ChoiceTables {
            norm: pois.iter().map(|p| self.to_norm(&p.loc)).collect(),
            popularity: pois.iter().map(|p| self.popularity(p.id)).collect(),
            archetype: pois
                .iter()
                .map(|p| Archetype::of(p.cate) as usize)
                .collect(),
            fit,
        };
        // One choice-weight buffer, refilled at every decision step.
        let mut weights = Vec::with_capacity(pois.len());

        let mut users = Vec::with_capacity(cfg.num_users);
        for uid in 0..cfg.num_users {
            let mut urng = StdRng::seed_from_u64(cfg.seed ^ (0xA11CE + uid as u64 * 7919));
            // Home in residential-ish land, work in commercial-ish land.
            // In coastal worlds a quarter of the population lives on the
            // shoreline band (beach towns) — the coastal-active users of
            // the paper's Florida case study.
            let coastal_dweller =
                self.world.config().coast != tspn_world::Coast::None && urng.gen::<f64>() < 0.25;
            let home = self.sample_location_by(&mut urng, |w, x, y| {
                if coastal_dweller {
                    if w.is_coastal(x, y) {
                        return 0.9;
                    }
                    return 0.005;
                }
                match w.land_use(x, y) {
                    LandUse::Residential => 0.9,
                    LandUse::Suburban => 0.4,
                    _ => 0.02,
                }
            });
            let work = self.sample_location_by(&mut urng, |w, x, y| match w.land_use(x, y) {
                LandUse::Commercial => 0.9,
                LandUse::Industrial => 0.3,
                _ => 0.02,
            });
            // Favourite pool: popularity × proximity to home or work.
            let mut fav_weights: Vec<f64> = tables
                .norm
                .iter()
                .zip(&tables.popularity)
                .map(|(&(x, y), &pop)| {
                    let dh = ((x - home.0).powi(2) + (y - home.1).powi(2)).sqrt();
                    let dw = ((x - work.0).powi(2) + (y - work.1).powi(2)).sqrt();
                    let prox = (-12.0 * dh.min(dw)).exp();
                    pop * prox
                })
                .collect();
            let mut favorites = Vec::with_capacity(cfg.favorites_per_user);
            for _ in 0..cfg.favorites_per_user.min(pois.len()) {
                let pick = weighted_choice(&mut urng, &fav_weights);
                favorites.push(PoiId(pick));
                fav_weights[pick] = 0.0;
            }

            // Simulate the calendar.
            let mut visits: Vec<Visit> = Vec::new();
            for day in 0..cfg.days {
                if urng.gen::<f64>() >= cfg.active_day_prob {
                    continue;
                }
                let n_visits = 1 + (urng.gen::<f64>() * cfg.visits_per_active_day * 2.0) as usize;
                // Day starts morning-ish at home.
                let mut current = home;
                let mut t = day as i64 * DAY_SECS + 7 * 3600 + urng.gen_range(0..3600 * 2);
                for _ in 0..n_visits {
                    let slot = crate::poi::time_slot(t);
                    let poi = self.pick_next_poi(
                        &mut urng,
                        &tables,
                        &favorites,
                        current,
                        slot,
                        &mut weights,
                    );
                    visits.push(Visit { poi, time: t });
                    current = tables.norm[poi.0];
                    t += urng.gen_range(45 * 60..4 * 3600);
                    if crate::poi::time_slot(t) < slot {
                        break; // wrapped past midnight — end the day
                    }
                }
            }
            visits.sort_by_key(|v| v.time);
            users.push(UserHistory::from_visits(
                UserId(uid),
                &visits,
                DEFAULT_GAP_SECS,
            ));
        }
        users
    }

    /// One decision step of the agent; `weights` is a reused buffer.
    fn pick_next_poi(
        &self,
        rng: &mut StdRng,
        tables: &ChoiceTables,
        favorites: &[PoiId],
        current: (f64, f64),
        slot: usize,
        weights: &mut Vec<f64>,
    ) -> PoiId {
        let fit = &tables.fit[slot];
        let explore = rng.gen::<f64>() < self.config.explore_prob;
        weights.clear();
        if !explore && !favorites.is_empty() {
            // Favourite weighted by time-of-day archetype fit.
            weights.extend(favorites.iter().map(|f| fit[tables.archetype[f.0]]));
            return favorites[weighted_choice(rng, weights)];
        }
        // Explore: every POI weighted by distance decay × popularity ×
        // archetype/time fit.
        weights.extend(
            tables
                .norm
                .iter()
                .zip(&tables.popularity)
                .zip(&tables.archetype)
                .map(|((&(x, y), &pop), &a)| {
                    let d = ((x - current.0).powi(2) + (y - current.1).powi(2)).sqrt();
                    (-9.0 * d).exp() * pop * fit[a]
                }),
        );
        PoiId(weighted_choice(rng, weights))
    }
}

/// Convenience: build generator + dataset in one call.
pub fn generate_dataset(config: SynthConfig) -> (LbsnDataset, World) {
    let g = SynthGenerator::new(config);
    (g.generate(), g.world)
}

/// Convenience: build generator + city in one call. The POIs, region and
/// category count are bitwise those of [`generate_dataset`] on the same
/// config; `users` is empty and `days` is never read.
pub fn generate_city(config: SynthConfig) -> (LbsnDataset, World) {
    let g = SynthGenerator::new(config);
    (g.city(), g.world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_world::Coast;

    fn small_config() -> SynthConfig {
        SynthConfig {
            seed: 42,
            name: "test-city".into(),
            world: WorldConfig {
                seed: 42,
                coast: Coast::East,
                ocean_fraction: 0.25,
                num_districts: 3,
                density_falloff: 5.0,
            },
            region: BBox::new(25.0, -81.0, 26.0, -80.0),
            num_pois: 120,
            num_categories: 24,
            num_users: 10,
            days: 30,
            active_day_prob: 0.45,
            visits_per_active_day: 2.0,
            explore_prob: 0.3,
            favorites_per_user: 8,
        }
    }

    #[test]
    fn generates_requested_counts() {
        let (ds, _) = generate_dataset(small_config());
        assert_eq!(ds.pois.len(), 120);
        assert_eq!(ds.users.len(), 10);
        let stats = ds.stats();
        assert!(
            stats.checkins > 100,
            "too few check-ins: {}",
            stats.checkins
        );
        assert!(stats.categories == 24);
    }

    #[test]
    fn deterministic_for_seed() {
        let (a, _) = generate_dataset(small_config());
        let (b, _) = generate_dataset(small_config());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.pois, b.pois);
    }

    #[test]
    fn pois_stay_on_land_and_in_region() {
        let cfg = small_config();
        let g = SynthGenerator::new(cfg.clone());
        let ds = g.generate();
        for p in &ds.pois {
            assert!(ds.region.contains_closed(&p.loc), "POI outside region");
            let (x, y) = ds.region.normalize(&p.loc);
            assert!(!g.world().is_water_at(x, y), "POI in the ocean");
        }
    }

    #[test]
    fn trajectories_respect_gap_splitting() {
        let (ds, _) = generate_dataset(small_config());
        for u in &ds.users {
            for t in &u.trajectories {
                for w in t.visits.windows(2) {
                    assert!(w[1].time - w[0].time < DEFAULT_GAP_SECS);
                    assert!(w[1].time >= w[0].time);
                }
            }
        }
    }

    #[test]
    fn users_revisit_favorites() {
        // With explore_prob 0.3, most visits should hit a small pool:
        // the revisit signal MC and sequence models learn from.
        let (ds, _) = generate_dataset(small_config());
        let mut repeat_users = 0;
        for u in &ds.users {
            let mut counts = std::collections::HashMap::new();
            for t in &u.trajectories {
                for v in &t.visits {
                    *counts.entry(v.poi).or_insert(0usize) += 1;
                }
            }
            let total: usize = counts.values().sum();
            let top5: usize = {
                let mut c: Vec<usize> = counts.values().copied().collect();
                c.sort_unstable_by(|a, b| b.cmp(a));
                c.iter().take(5).sum()
            };
            if total > 10 && top5 * 2 > total {
                repeat_users += 1;
            }
        }
        assert!(
            repeat_users >= 6,
            "only {repeat_users}/10 users show revisit concentration"
        );
    }

    #[test]
    fn consecutive_visits_are_spatially_local() {
        let (ds, _) = generate_dataset(small_config());
        let mut hops = Vec::new();
        for u in &ds.users {
            for t in &u.trajectories {
                for w in t.visits.windows(2) {
                    hops.push(
                        ds.poi_loc(w[0].poi)
                            .equirectangular_km(&ds.poi_loc(w[1].poi)),
                    );
                }
            }
        }
        assert!(!hops.is_empty());
        let mean_hop = hops.iter().sum::<f64>() / hops.len() as f64;
        // Region is ~111 km wide; locality means hops far below random
        // (~52 km for uniform pairs).
        assert!(
            mean_hop < 30.0,
            "mean hop {mean_hop} km too large — no locality"
        );
    }

    #[test]
    fn archetype_slot_weights_peak_sensibly() {
        // Nightlife peaks later than food's lunch peak.
        let night_at_22 = Archetype::Nightlife.slot_weight(44);
        let night_at_10 = Archetype::Nightlife.slot_weight(20);
        assert!(night_at_22 > night_at_10 * 3.0);
        let food_at_noon = Archetype::Food.slot_weight(25);
        assert!(food_at_noon > 0.5);
    }

    #[test]
    fn water_archetype_affinity_is_zero() {
        for c in 0..6 {
            assert_eq!(
                Archetype::of(CategoryId(c)).land_affinity(LandUse::Water),
                0.0
            );
        }
    }
}
