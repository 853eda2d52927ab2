//! The synthetic urban world: a deterministic land-use / road-density field
//! standing in for the real geography behind the paper's remote-sensing
//! imagery, OpenStreetMap road networks, and POI placement.
//!
//! Everything is a pure function of `(WorldConfig, location)`, so the
//! imagery renderer, the road-network generator and the check-in simulator
//! all observe a mutually consistent city.

use serde::{Deserialize, Serialize};

use crate::noise::ValueNoise;

/// Land-use classes distinguishable from aerial imagery (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LandUse {
    /// Open water (ocean, rivers); carries no POIs or roads.
    Water,
    /// Vegetated park land — visually repetitive, little mobility.
    Park,
    /// Dense downtown commercial blocks.
    Commercial,
    /// Residential neighbourhoods.
    Residential,
    /// Industrial zones on district fringes.
    Industrial,
    /// Low-density suburban / rural outskirts.
    Suburban,
}

impl LandUse {
    /// Every land-use class, for iteration in tests and benchmarks.
    pub const ALL: [LandUse; 6] = [
        LandUse::Water,
        LandUse::Park,
        LandUse::Commercial,
        LandUse::Residential,
        LandUse::Industrial,
        LandUse::Suburban,
    ];

    /// Base RGB colour used by the imagery renderer (aerial palette).
    pub fn base_color(self) -> [u8; 3] {
        match self {
            LandUse::Water => [24, 68, 124],
            LandUse::Park => [46, 110, 52],
            LandUse::Commercial => [148, 138, 130],
            LandUse::Residential => [120, 104, 90],
            LandUse::Industrial => [104, 100, 108],
            LandUse::Suburban => [96, 110, 72],
        }
    }
}

/// Which side of the region an ocean occupies, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Coast {
    /// Land-locked region (e.g. the Tokyo-like preset's core area).
    None,
    /// Ocean to the east — the Florida case-study configuration.
    East,
    /// Ocean to the west — the California-like configuration.
    West,
}

/// World generation parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; all fields derive from it.
    pub seed: u64,
    /// Coastline placement.
    pub coast: Coast,
    /// Fraction of the region width occupied by ocean when a coast exists.
    pub ocean_fraction: f64,
    /// Number of high-density district centres.
    pub num_districts: usize,
    /// How sharply density decays away from district centres (larger =
    /// more concentrated city, like NYC vs a dispersed state region).
    pub density_falloff: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 17,
            coast: Coast::None,
            ocean_fraction: 0.25,
            num_districts: 4,
            density_falloff: 6.0,
        }
    }
}

/// A fully instantiated world. Coordinates everywhere are *normalised*:
/// `(x, y) ∈ [0, 1]²` over the study region — callers convert from
/// lat/lon via their bounding box.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    terrain: ValueNoise,
    parks: ValueNoise,
    districts: Vec<(f64, f64)>,
}

impl World {
    /// Instantiates a world from its config.
    pub fn new(config: WorldConfig) -> Self {
        assert!(config.num_districts >= 1, "need at least one district");
        assert!(
            (0.05..0.9).contains(&config.ocean_fraction),
            "ocean_fraction out of range"
        );
        let placer = ValueNoise::new(config.seed ^ 0xD15_7121C7);
        let mut districts = Vec::with_capacity(config.num_districts);
        for i in 0..config.num_districts {
            // Low-discrepancy-ish placement jittered by noise, kept away
            // from the edges (and off the ocean later via land snapping).
            let t = (i as f64 + 0.5) / config.num_districts as f64;
            let jx = placer.sample(i as f64 * 3.7, 0.31) - 0.5;
            let jy = placer.sample(0.83, i as f64 * 5.1) - 0.5;
            let x = (0.15 + 0.7 * t + 0.25 * jx).clamp(0.08, 0.92);
            let y = (0.15 + 0.7 * ((t * 2.33) % 1.0) + 0.25 * jy).clamp(0.08, 0.92);
            districts.push((x, y));
        }
        let mut world = World {
            terrain: ValueNoise::new(config.seed),
            parks: ValueNoise::new(config.seed ^ 0x9E37_79B9),
            config,
            districts,
        };
        // Snap district centres onto land.
        let snapped: Vec<(f64, f64)> = world
            .districts
            .iter()
            .map(|&(x, y)| {
                let mut cx = x;
                while world.is_water_at(cx, y) && cx > 0.02 {
                    cx -= 0.02;
                }
                (cx, y)
            })
            .collect();
        world.districts = snapped;
        world
    }

    /// World parameters.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// District (downtown) centres in normalised coordinates.
    pub fn districts(&self) -> &[(f64, f64)] {
        &self.districts
    }

    /// Signed distance (in normalised x units) from the coastline;
    /// positive = water. `0` everywhere for land-locked worlds.
    pub fn coast_depth(&self, x: f64, y: f64) -> f64 {
        match self.config.coast {
            Coast::None => -1.0,
            Coast::East => {
                let shore = 1.0 - self.config.ocean_fraction
                    + 0.08 * (self.terrain.fbm(0.37, y * 3.0, 3) - 0.5);
                x - shore
            }
            Coast::West => {
                let shore =
                    self.config.ocean_fraction + 0.08 * (self.terrain.fbm(0.37, y * 3.0, 3) - 0.5);
                shore - x
            }
        }
    }

    /// True when `(x, y)` is open water.
    pub fn is_water_at(&self, x: f64, y: f64) -> bool {
        self.coast_depth(x, y) > 0.0
    }

    /// Distance to the nearest district centre.
    pub fn district_distance(&self, x: f64, y: f64) -> f64 {
        self.districts
            .iter()
            .map(|&(dx, dy)| ((x - dx).powi(2) + (y - dy).powi(2)).sqrt())
            .fold(f64::INFINITY, f64::min)
    }

    /// Urban intensity in `[0, 1]`: 1 downtown, decaying with distance,
    /// zero over water.
    pub fn urban_intensity(&self, x: f64, y: f64) -> f64 {
        if self.is_water_at(x, y) {
            return 0.0;
        }
        let d = self.district_distance(x, y);
        (-self.config.density_falloff * d).exp()
    }

    /// Land-use classification at a point.
    pub fn land_use(&self, x: f64, y: f64) -> LandUse {
        if self.is_water_at(x, y) {
            return LandUse::Water;
        }
        // Parks carve out a noise band regardless of urbanity (Central
        // Park-like voids inside dense districts).
        let park_field = self.parks.fbm(x * 6.0, y * 6.0, 3);
        if park_field > 0.78 {
            return LandUse::Park;
        }
        let intensity = self.urban_intensity(x, y);
        let texture = self.terrain.fbm(x * 9.0, y * 9.0, 3);
        if intensity > 0.55 {
            LandUse::Commercial
        } else if intensity > 0.25 {
            // Industrial pockets sit on the commercial fringe.
            if texture > 0.72 {
                LandUse::Industrial
            } else {
                LandUse::Residential
            }
        } else if intensity > 0.06 {
            LandUse::Residential
        } else {
            LandUse::Suburban
        }
    }

    /// Road density in `[0, 1]` — the environmental factor the paper calls
    /// out in challenge 1 ("high road density implies commuting visits").
    pub fn road_density(&self, x: f64, y: f64) -> f64 {
        self.road_density_on(self.land_use(x, y), x, y)
    }

    /// [`World::road_density`] at a point whose land use the caller
    /// already holds: `land` must be `self.land_use(x, y)`.
    ///
    /// Classifying a point evaluates the coast, park and terrain noise
    /// fields, the most expensive part of every field here. The imagery
    /// renderer and [`World::attractiveness`] already hold the class, so
    /// they call this and no point is classified twice. The result is
    /// bitwise the one [`World::road_density`] returns.
    pub fn road_density_on(&self, land: LandUse, x: f64, y: f64) -> f64 {
        match land {
            LandUse::Water => 0.0,
            LandUse::Park => 0.05,
            _ => {
                let intensity = self.urban_intensity(x, y);
                let texture = self.terrain.fbm(x * 12.0 + 31.0, y * 12.0 + 31.0, 2);
                (0.15 + 0.85 * intensity) * (0.7 + 0.3 * texture)
            }
        }
    }

    /// True when `(x, y)` is land within the narrow shoreline band —
    /// beachfront. Always false for land-locked worlds.
    pub fn is_coastal(&self, x: f64, y: f64) -> bool {
        if self.config.coast == Coast::None {
            return false;
        }
        let d = self.coast_depth(x, y);
        d <= 0.0 && d > -0.08
    }

    /// POI attractiveness in `[0, 1]`: how likely a venue is to exist here.
    /// Concentrated in commercial/residential land with road access;
    /// beachfront strips get a bonus (boardwalks, resorts — the venues the
    /// Florida case study revolves around).
    ///
    /// `land` must be `self.land_use(x, y)`; POI placement classifies the
    /// point to pick a category, so it passes the class in once (see
    /// [`World::road_density_on`]).
    pub fn attractiveness(&self, land: LandUse, x: f64, y: f64) -> f64 {
        let base = match land {
            LandUse::Water => return 0.0,
            LandUse::Park => 0.08,
            LandUse::Commercial => 1.0,
            LandUse::Residential => 0.55,
            LandUse::Industrial => 0.2,
            LandUse::Suburban => 0.12,
        };
        let coastal_bonus = if self.is_coastal(x, y) { 0.8 } else { 0.0 };
        ((base + coastal_bonus) * (0.4 + 0.6 * self.road_density_on(land, x, y))).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coastal() -> World {
        World::new(WorldConfig {
            seed: 99,
            coast: Coast::East,
            ocean_fraction: 0.3,
            num_districts: 3,
            density_falloff: 5.0,
        })
    }

    #[test]
    fn deterministic_given_config() {
        let a = World::new(WorldConfig::default());
        let b = World::new(WorldConfig::default());
        for i in 0..50 {
            let (x, y) = (i as f64 / 50.0, (i as f64 * 0.37) % 1.0);
            assert_eq!(a.land_use(x, y), b.land_use(x, y));
            assert_eq!(a.road_density(x, y), b.road_density(x, y));
        }
    }

    #[test]
    fn east_coast_puts_water_east() {
        let w = coastal();
        let mut water_east = 0;
        let mut water_west = 0;
        for i in 0..40 {
            let y = i as f64 / 40.0;
            if w.is_water_at(0.95, y) {
                water_east += 1;
            }
            if w.is_water_at(0.05, y) {
                water_west += 1;
            }
        }
        assert!(
            water_east > 35,
            "east edge should be ocean ({water_east}/40)"
        );
        assert_eq!(water_west, 0, "west edge should be land");
    }

    #[test]
    fn landlocked_world_has_no_water() {
        let w = World::new(WorldConfig::default());
        for i in 0..100 {
            let (x, y) = ((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0);
            assert_ne!(w.land_use(x, y), LandUse::Water);
        }
    }

    #[test]
    fn district_centres_are_commercial_and_on_land() {
        let w = coastal();
        for &(x, y) in w.districts() {
            assert!(!w.is_water_at(x, y), "district centre in the ocean");
            assert!(
                w.urban_intensity(x, y) > 0.5,
                "district centre not urban: intensity {}",
                w.urban_intensity(x, y)
            );
        }
    }

    #[test]
    fn intensity_decays_with_distance() {
        let w = World::new(WorldConfig::default());
        let (dx, dy) = w.districts()[0];
        let near = w.urban_intensity(dx + 0.01, dy);
        let far = w.urban_intensity((dx + 0.45).min(0.99), dy);
        assert!(
            near > far,
            "urban intensity must decay: near {near}, far {far}"
        );
    }

    #[test]
    fn water_has_no_roads_or_pois() {
        let w = coastal();
        for i in 0..20 {
            let y = i as f64 / 20.0;
            if w.is_water_at(0.97, y) {
                assert_eq!(w.road_density(0.97, y), 0.0);
                assert_eq!(w.attractiveness(w.land_use(0.97, y), 0.97, y), 0.0);
            }
        }
    }

    #[test]
    fn all_land_use_classes_appear() {
        // On a reasonably sized sample the generator should produce a
        // diverse map — guards against a degenerate classifier.
        let w = coastal();
        let mut seen = std::collections::HashSet::new();
        for i in 0..60 {
            for j in 0..60 {
                seen.insert(w.land_use(i as f64 / 60.0, j as f64 / 60.0));
            }
        }
        assert!(
            seen.len() >= 5,
            "only {} land-use classes generated: {seen:?}",
            seen.len()
        );
    }

    #[test]
    fn attractiveness_highest_downtown() {
        let w = World::new(WorldConfig::default());
        let (dx, dy) = w.districts()[0];
        let downtown = w.attractiveness(w.land_use(dx, dy), dx, dy);
        let fringe = w.attractiveness(w.land_use(0.02, 0.02), 0.02, 0.02);
        assert!(downtown > fringe, "downtown {downtown} vs fringe {fringe}");
    }
}
