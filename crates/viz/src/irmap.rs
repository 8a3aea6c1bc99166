//! IR-drop heat maps in the style of the paper's Fig. 6.

use copack_power::IrMap;

use crate::{heat_color, SvgCanvas};

/// Renders an [`IrMap`] as an SVG heat map: one cell per grid node,
/// white → yellow → red with increasing drop, annotated with the maximum
/// drop in millivolts (the number the paper prints under each Fig. 6
/// panel).
///
/// `scale_mv` fixes the colour scale's red point (so several panels can
/// share a scale); pass the worst of the maps being compared, or the map's
/// own [`IrMap::max_drop`] for a standalone rendering.
#[must_use]
pub fn irmap_svg(map: &IrMap, scale_mv: f64) -> String {
    let (nx, ny) = (map.nx(), map.ny());
    let mut canvas = SvgCanvas::new(0.0, -1.5, nx as f64, ny as f64);
    let scale = scale_mv.max(1e-9);
    for j in 0..ny {
        for i in 0..nx {
            let drop_mv = map.drop_at(i, j) * 1000.0;
            canvas.rect(i as f64, j as f64, 1.0, 1.0, &heat_color(drop_mv / scale));
        }
    }
    canvas.text(
        nx as f64 / 2.0,
        -1.0,
        (nx as f64 / 24.0).max(0.8),
        &format!("max IR-drop: {:.1} mV", map.max_drop() * 1000.0),
    );
    canvas.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_power::{solve_mg, GridSpec, PadRing};

    fn sample_map() -> IrMap {
        let spec = GridSpec::default_chip(8);
        solve_mg(&spec, &PadRing::uniform(4)).unwrap()
    }

    #[test]
    fn heat_map_has_one_cell_per_node() {
        let map = sample_map();
        let svg = irmap_svg(&map, map.max_drop() * 1000.0);
        // 64 node cells + 1 background rect.
        assert_eq!(svg.matches("<rect").count(), 8 * 8 + 1);
        assert!(svg.contains("max IR-drop"));
    }

    #[test]
    fn worst_node_is_red_under_its_own_scale() {
        let map = sample_map();
        let svg = irmap_svg(&map, map.max_drop() * 1000.0);
        assert!(svg.contains("#c80000"), "worst cell saturates the scale");
    }

    #[test]
    fn shared_scale_desaturates_better_maps() {
        let map = sample_map();
        // With a scale 10× the map's own worst, nothing is deep red.
        let svg = irmap_svg(&map, map.max_drop() * 10_000.0);
        assert!(!svg.contains("#c80000"));
    }
}
