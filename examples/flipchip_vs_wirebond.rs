//! Wire-bond vs flip-chip IR-drop (the paper's §2.4 claim, quantified).
//!
//! The paper adopts wire-bond packaging for cost and notes its IR-drop is
//! worse than flip-chip's, "because the distance from the power pad to the
//! module in a flip-chip package is shorter". This example sweeps pad
//! budgets and measures the gap on the same die and power grid.
//!
//! Run with `cargo run --release --example flipchip_vs_wirebond`.

use copack::power::{solve_plan, GridSpec, Hotspot, PadArray, PadPlan, PadRing};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = GridSpec {
        current_density: 4.6e-7,
        ..GridSpec::default_chip(48)
    };

    println!("wire-bond (boundary ring) vs flip-chip (area array), 48x48 grid");
    println!(
        "{:>6} {:>18} {:>18} {:>8}",
        "pads", "wire-bond (mV)", "flip-chip (mV)", "ratio"
    );
    for side in [2usize, 3, 4, 6, 8] {
        let pads = side * side;
        let wb = solve_plan(&grid, &PadPlan::WireBond(PadRing::uniform(pads)))?;
        let fc = solve_plan(&grid, &PadPlan::FlipChip(PadArray::new(side, side)?))?;
        println!(
            "{pads:>6} {:>18.2} {:>18.2} {:>8.2}",
            wb.max_drop() * 1000.0,
            fc.max_drop() * 1000.0,
            wb.max_drop() / fc.max_drop()
        );
    }

    println!("\nsame comparison over a hotspot (3x power in the die centre):");
    let hot = GridSpec {
        hotspots: vec![Hotspot {
            cx: 0.5,
            cy: 0.5,
            radius: 0.2,
            multiplier: 3.0,
        }],
        ..grid.clone()
    };
    let wb = solve_plan(&hot, &PadPlan::WireBond(PadRing::uniform(16)))?;
    let fc = solve_plan(&hot, &PadPlan::FlipChip(PadArray::new(4, 4)?))?;
    println!(
        "  16 pads: wire-bond {:.2} mV, flip-chip {:.2} mV (ratio {:.2})",
        wb.max_drop() * 1000.0,
        fc.max_drop() * 1000.0,
        wb.max_drop() / fc.max_drop()
    );
    println!(
        "\nFlip-chip wins at every budget — §2.4's rationale for why wire-bond\n\
         designs (the paper's setting) need IR-drop-aware pad planning at all."
    );
    Ok(())
}
