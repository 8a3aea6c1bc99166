//! The `core::portfolio` layer, measured in `table1-flow`'s traced run on
//! the same Table 1 quadrants: DFA → `exchange_portfolio` (K = 4, `race`)
//! at 2 threads and again at 1, outside the flow's job spans.
//!
//! A portfolio workload of its own was left out: with 1–12 ms jobs, every
//! sync epoch hands work to the other vCPU, and its throughput swung 2.3×
//! between runs as the host's steal time came and went, far past any
//! bound a regression check could use.

use std::time::Instant;

use copack_core::{
    assign, exchange_portfolio, AssignMethod, PortfolioConfig, PortfolioMode, PortfolioResult,
};
use copack_geom::Quadrant;
use copack_io::parse_quadrant;

use crate::harness::{text, Layers};
use crate::inputs::{stack_of, PlanInput};
use crate::stats::{ms_since, ratio};

/// DFA, then the portfolio at `threads`.
fn anneal(
    input: &PlanInput,
    quadrant: &Quadrant,
    threads: usize,
) -> Result<PortfolioResult, String> {
    let initial = assign(quadrant, AssignMethod::dfa_default()).map_err(text)?;
    let stack = stack_of(input.psi).map_err(text)?;
    let config = input.codesign(1).map_err(text)?.exchange;
    let portfolio = PortfolioConfig {
        starts: 4,
        mode: PortfolioMode::Race,
        threads,
        ..PortfolioConfig::default()
    };
    exchange_portfolio(quadrant, &initial, &stack, &config, &portfolio).map_err(text)
}

/// Portfolio time at 2 and at 1 threads and pruned starts, summed over
/// the rows probed.
#[derive(Default)]
pub struct Probe {
    rows: usize,
    two_threads_ms: f64,
    one_thread_ms: f64,
    pruned: usize,
}

impl Probe {
    /// Anneals both plans of a row at 2 and at 1 threads; the winners
    /// must be identical.
    pub fn row(&mut self, row: &[PlanInput; 2]) -> Result<(), String> {
        for input in row {
            let (_, quadrant) = parse_quadrant(&input.text).map_err(text)?;
            let t = Instant::now();
            let two = anneal(input, &quadrant, 2)?;
            self.two_threads_ms += ms_since(t);
            let t = Instant::now();
            let one = anneal(input, &quadrant, 1)?;
            self.one_thread_ms += ms_since(t);
            if one != two {
                return Err("the portfolio winner differs between 1 and 2 threads".into());
            }
            self.pruned += two.pruned();
        }
        self.rows += 1;
        Ok(())
    }

    /// `core.portfolio_ms` per row at 2 threads, the 1 → 2 thread
    /// speedup, and pruned starts per row.
    pub fn report(&self, layers: &mut Layers) {
        let rows = self.rows as f64;
        let n = self.rows;
        layers.set("core.portfolio_ms", ratio(self.two_threads_ms, rows), n);
        let speedup = ratio(self.one_thread_ms, self.two_threads_ms);
        layers.set("core.portfolio_speedup", speedup, n);
        layers.set("core.portfolio_pruned", ratio(self.pruned as f64, rows), n);
    }
}
