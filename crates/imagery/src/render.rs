//! The synthetic remote-sensing renderer: turns a world-model tile into an
//! RGB "satellite" image.
//!
//! The paper extracts a 256×256 Google-Maps image per quad-tree tile
//! (Sec. III, phase 1). Here each pixel samples the world's land-use field,
//! modulated by per-pixel texture noise and a road overlay, so the rendered
//! tile carries exactly the environmental signal (coastlines, parks, road
//! density, district structure) that the paper's `Me1` CNN is meant to
//! exploit.

use tspn_geo::BBox;
use tspn_world::{LandUse, ValueNoise, World};

use crate::image::TileImage;

/// Renderer over one world. Cheap to clone; holds only seeds.
#[derive(Debug, Clone)]
pub struct TileRenderer<'w> {
    world: &'w World,
    /// The full study region; tiles are sub-boxes of it.
    region: BBox,
    texture: ValueNoise,
}

impl<'w> TileRenderer<'w> {
    /// Creates a renderer for a world over the given study region.
    pub fn new(world: &'w World, region: BBox) -> Self {
        let seed = world.config().seed ^ 0x1A6E_52AD_D15C_0B01;
        TileRenderer {
            world,
            region,
            texture: ValueNoise::new(seed),
        }
    }

    /// Renders the tile covering `tile_bbox` at `size × size` pixels.
    pub fn render(&self, tile_bbox: &BBox, size: usize) -> TileImage {
        let mut img = TileImage::black(size);
        for py in 0..size {
            for px in 0..size {
                // Pixel centre in normalised world coordinates. Image y
                // grows downward; latitude grows upward.
                let fx = (px as f64 + 0.5) / size as f64;
                let fy = (py as f64 + 0.5) / size as f64;
                let lon = tile_bbox.min_lon + fx * tile_bbox.lon_span();
                let lat = tile_bbox.max_lat - fy * tile_bbox.lat_span();
                let (wx, wy) = self.region.normalize(&tspn_geo::GeoPoint::new(
                    lat.clamp(-90.0, 90.0),
                    lon.clamp(-180.0, 180.0),
                ));
                img.set(px, py, self.pixel(wx, wy));
            }
        }
        img
    }

    /// Colour of a single world location.
    fn pixel(&self, wx: f64, wy: f64) -> [u8; 3] {
        let land = self.world.land_use(wx, wy);
        let base = land.base_color();
        // Texture: high-frequency brightness variation so tiles of the same
        // class are similar but not identical.
        let tex = self.texture.fbm(wx * 220.0, wy * 220.0, 2) - 0.5;
        let brightness = 1.0 + 0.25 * tex;
        let mut rgb = [0u8; 3];
        for c in 0..3 {
            rgb[c] = (base[c] as f64 * brightness).clamp(0.0, 255.0) as u8;
        }
        // Road overlay: thin bright lines where the road field peaks.
        if land != LandUse::Water {
            let road = self.world.road_density_on(land, wx, wy);
            let grid = self.texture.sample(wx * 900.0, wy * 900.0);
            if road > 0.35 && grid > 0.82 {
                rgb = [208, 204, 196]; // asphalt-grey road pixels
            }
        }
        rgb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_world::{Coast, WorldConfig};

    fn setup() -> (World, BBox) {
        let world = World::new(WorldConfig {
            seed: 5,
            coast: Coast::East,
            ocean_fraction: 0.3,
            num_districts: 3,
            density_falloff: 5.0,
        });
        (world, BBox::new(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn render_is_deterministic() {
        let (world, region) = setup();
        let r = TileRenderer::new(&world, region);
        let tile = BBox::new(0.2, 0.2, 0.4, 0.4);
        assert_eq!(r.render(&tile, 32), r.render(&tile, 32));
    }

    #[test]
    fn ocean_tiles_are_blue_dominant() {
        let (world, region) = setup();
        let r = TileRenderer::new(&world, region);
        // Far-east tile: ocean in this config.
        let tile = BBox::new(0.4, 0.92, 0.6, 0.99);
        let img = r.render(&tile, 32);
        let [mr, _mg, mb] = img.mean_rgb();
        assert!(mb > mr * 1.5, "ocean should be blue: R {mr}, B {mb}");
    }

    #[test]
    fn downtown_differs_from_ocean() {
        let (world, region) = setup();
        let r = TileRenderer::new(&world, region);
        let (dx, dy) = world.districts()[0];
        let downtown = r.render(
            &BBox::new(
                (dy - 0.02).max(0.0),
                (dx - 0.02).max(0.0),
                (dy + 0.02).min(1.0),
                (dx + 0.02).min(1.0),
            ),
            32,
        );
        let ocean = r.render(&BBox::new(0.4, 0.93, 0.6, 0.99), 32);
        let d = downtown.mean_rgb();
        let o = ocean.mean_rgb();
        let dist: f32 = d.iter().zip(o).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist > 60.0, "downtown and ocean tiles too similar: {dist}");
    }

    #[test]
    fn different_tiles_render_differently() {
        let (world, region) = setup();
        let r = TileRenderer::new(&world, region);
        let a = r.render(&BBox::new(0.1, 0.1, 0.2, 0.2), 16);
        let b = r.render(&BBox::new(0.5, 0.3, 0.6, 0.4), 16);
        assert_ne!(a, b);
    }
}
