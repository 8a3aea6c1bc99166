//! Regenerates the paper's **Fig. 6**: IR-drop maps of the same 138-pad
//! chip under (A) randomly planned power pads, (B) regularly planned power
//! pads, and (C) pads planned by DFA + the finger/pad exchange.
//!
//! The paper's commercial-tool numbers are 117.4 mV, 77.3 mV and 55.2 mV;
//! here the same comparison runs on the finite-difference Eq. 1 model (the
//! substitution documented in DESIGN.md), with the current density
//! calibrated so the regular plan lands in the paper's ~77 mV regime. The
//! "random" panel is the worst of 20 random plans — the paper shows one
//! unspecified random plan; taking the worst makes the panel reproducible.
//!
//! A second sweep repeats the comparison with two power-density hotspots:
//! under non-uniform load the pad plan matters even more (the likely
//! reason the paper's optimised plan beats even the regular ring — a
//! uniform-load model cannot, since the uniform ring is near-optimal
//! there; see EXPERIMENTS.md).
//!
//! The SVG heat maps land in `target/fig6_*.svg` under the working
//! directory, which is created if it is missing.
//!
//! Run with `cargo run --release -p copack-bench --bin fig6`.

use std::fs;

use copack_core::Codesign;
use copack_gen::{Circuit, NetMix};
use copack_power::{solve_mg, GridSpec, Hotspot, IrMap, PadRing};
use copack_viz::irmap_svg;
use rand::{Rng, SeedableRng};

fn main() {
    // A 138-finger/pad design like the paper's real chip (2.3 M gates,
    // 138 pads). 140 = nearest multiple of 4.
    let chip = Circuit {
        name: "fig6 chip".into(),
        finger_count: 140,
        ball_pitch: 1.2,
        finger_width: 0.006,
        finger_height: 0.2,
        finger_space: 0.007,
        rows: 4,
        mix: NetMix {
            power_fraction: 0.15,
            ground_fraction: 0.15,
        },
        profile: copack_gen::RowProfile::default(),
        tiers: 1,
        seed: 0xF166,
    };
    let quadrant = chip.build_quadrant().expect("chip builds");

    // Current density calibrated to the paper's millivolt regime.
    let grid = GridSpec {
        current_density: 4.6e-7,
        ..GridSpec::default_chip(64)
    };
    let mut hotspot_grid = grid.clone();
    hotspot_grid.hotspots = vec![
        Hotspot {
            cx: 0.3,
            cy: 0.7,
            radius: 0.18,
            multiplier: 3.0,
        },
        Hotspot {
            cx: 0.75,
            cy: 0.25,
            radius: 0.12,
            multiplier: 4.0,
        },
    ];

    let pads = quadrant.nets_of_kind(copack_geom::NetKind::Power).count() * 4;

    fs::create_dir_all("target").expect("target directory created");
    for (label, g, paper) in [
        ("uniform load", &grid, Some((117.4, 77.3, 55.2))),
        ("hotspot load", &hotspot_grid, None),
    ] {
        println!("Fig. 6 [{label}]: maximum IR-drop ({pads} power pads, 64x64 grid)");

        // (A) Worst of 20 random pad plans.
        let mut worst: Option<IrMap> = None;
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ts: Vec<f64> = (0..pads).map(|_| rng.gen::<f64>()).collect();
            let map = solve_mg(g, &PadRing::from_ts(ts).expect("ring")).expect("solves");
            let better = match &worst {
                Some(w) => map.max_drop() > w.max_drop(),
                None => true,
            };
            if better {
                worst = Some(map);
            }
        }
        let random = worst.expect("twenty plans solved");

        // (B) Regular pad plan.
        let regular = solve_mg(g, &PadRing::uniform(pads)).expect("solves");

        // (C) Our co-design flow: DFA + exchange.
        let report = Codesign {
            grid: g.clone(),
            ..Codesign::default()
        }
        .run(&quadrant)
        .expect("pipeline runs");
        let ours_ts: Vec<f64> = {
            let a = &report.final_assignment;
            let alpha = a.finger_count() as f64;
            quadrant
                .nets_of_kind(copack_geom::NetKind::Power)
                .flat_map(|n| {
                    let frac = (a.position_of(n).expect("placed").get() as f64 - 0.5) / alpha;
                    (0..4).map(move |side| (f64::from(side) + frac) / 4.0)
                })
                .collect()
        };
        let ours = solve_mg(g, &PadRing::from_ts(ours_ts).expect("ring")).expect("solves");

        let scale = random.max_drop() * 1000.0;
        let suffix = if label.starts_with("hotspot") {
            "_hot"
        } else {
            ""
        };
        let paper_mv = paper.map_or([None, None, None], |(a, b, c)| [Some(a), Some(b), Some(c)]);
        for ((name, map), paper_mv) in [("random", &random), ("regular", &regular), ("ours", &ours)]
            .into_iter()
            .zip(paper_mv)
        {
            let mv = map.max_drop() * 1000.0;
            match paper_mv {
                Some(p) => println!("  {name:<8} {mv:8.2} mV   (paper: {p} mV)"),
                None => println!("  {name:<8} {mv:8.2} mV"),
            }
            let path = format!("target/fig6_{name}{suffix}.svg");
            fs::write(&path, irmap_svg(map, scale)).expect("svg written");
        }
        assert!(
            random.max_drop() > regular.max_drop(),
            "a bad random plan must be worse than the regular ring"
        );
        assert!(
            ours.max_drop() <= regular.max_drop() * 1.05,
            "the co-design plan must be competitive with the regular plan"
        );
        println!(
            "  random > regular; ours/regular = {:.4} (asserted <= 1.05); maps -> target/fig6_*{suffix}.svg\n",
            ours.max_drop() / regular.max_drop()
        );
    }
}
