//! Seeded inputs. The run seed draws the large-family instance seeds and
//! every exchange seed; the Table 1 circuits are the paper's own. The
//! program under test only ever sees the serialised circuit text.

use copack_core::{Codesign, CoreError};
use copack_gen::{circuits, large_circuit, SplitMix64};
use copack_geom::StackConfig;
use copack_io::write_quadrant;
use copack_power::GridSpec;

/// Side of the power grid every plan is evaluated on (the paper's 48×48).
pub const GRID: usize = 48;

/// One plan request: circuit text, stacking tiers ψ and exchange seed.
#[derive(Clone)]
pub struct PlanInput {
    pub text: String,
    pub psi: u8,
    pub seed: u64,
}

impl PlanInput {
    /// The co-design flow configuration for this request: the library
    /// defaults on the [`GRID`] grid, at the request's ψ and seed.
    pub fn codesign(&self, threads: usize) -> Result<Codesign, CoreError> {
        let mut config = Codesign {
            stack: stack_of(self.psi)?,
            grid: GridSpec::default_chip(GRID),
            threads,
            ..Codesign::default()
        };
        config.exchange.seed = self.seed;
        Ok(config)
    }
}

pub fn stack_of(psi: u8) -> Result<StackConfig, CoreError> {
    let stack = if psi <= 1 {
        StackConfig::planar()
    } else {
        StackConfig::stacked(psi)?
    };
    Ok(stack)
}

/// The five Table 1 circuits as Table 3 rows, `sets` times over: each
/// circuit planar and at ψ = 4 (`Circuit::stacked(4)`, as
/// `table3_report` builds it), with fresh exchange seeds.
pub fn table1_rows(rng: &mut SplitMix64, sets: usize) -> Vec<[PlanInput; 2]> {
    let circuits = circuits();
    (0..sets)
        .flat_map(|_| circuits.iter())
        .map(|circuit| {
            [circuit.clone(), circuit.stacked(4)].map(|c| {
                let quadrant = c.build_quadrant().expect("Table 1 circuits build");
                PlanInput {
                    text: write_quadrant(&c.name, &quadrant),
                    psi: c.tiers,
                    seed: rng.next_u64(),
                }
            })
        })
        .collect()
}

/// `count` seeded large-1k quadrants (1 000 nets, ψ = 2).
pub fn large_1k(rng: &mut SplitMix64, count: usize) -> Vec<PlanInput> {
    (0..count)
        .map(|_| {
            let spec = large_circuit("1k", rng.next_u64()).expect("1k is a preset size");
            let quadrant = spec.build_quadrant().expect("large-1k builds");
            PlanInput {
                text: write_quadrant(&spec.name, &quadrant),
                psi: spec.tiers,
                seed: rng.next_u64(),
            }
        })
        .collect()
}
