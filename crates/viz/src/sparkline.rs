//! ASCII sparklines for telemetry curves (acceptance rates, solver
//! residuals).

use copack_obs::{acceptance_curve, portfolio_cost_curves, residual_curve, Event, Solver};
use std::fmt::Write as _;

/// The eight block glyphs, lowest to highest.
const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a one-line block-glyph sparkline, scaled linearly
/// between the slice's min and max. A flat (or single-value) series
/// renders at the lowest glyph; an empty slice gives an empty string.
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return ' ';
            }
            if span <= 0.0 {
                return BLOCKS[0];
            }
            let t = ((v - min) / span * 7.0).round() as usize;
            BLOCKS[t.min(7)]
        })
        .collect()
}

/// [`sparkline`] over `log10(value)` — the right scale for solver
/// residuals, which fall over many orders of magnitude. Non-positive
/// values render as blanks.
#[must_use]
pub fn sparkline_log(values: &[f64]) -> String {
    let logs: Vec<f64> = values
        .iter()
        .map(|&v| if v > 0.0 { v.log10() } else { f64::NAN })
        .collect();
    sparkline(&logs)
}

/// Downsamples `values` to at most `width` points (bucket means) so long
/// curves fit one terminal line.
#[must_use]
pub fn downsample(values: &[f64], width: usize) -> Vec<f64> {
    if width == 0 || values.is_empty() || values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|b| {
            let lo = b * values.len() / width;
            let hi = (((b + 1) * values.len()) / width).max(lo + 1);
            let bucket = &values[lo..hi];
            bucket.iter().sum::<f64>() / bucket.len() as f64
        })
        .collect()
}

/// Multi-line telemetry view of a trace: one sparkline for the SA
/// acceptance-rate curve (per temperature step), one per solver for
/// the residual curves (log scale), and — for multi-start portfolio
/// traces — one cost curve per start (pruned starts flagged), each
/// capped at `width` glyphs. Curves absent from the trace are omitted;
/// an empty trace gives an empty string.
#[must_use]
pub fn trace_sparklines(events: &[Event], width: usize) -> String {
    let mut out = String::new();
    let acceptance = acceptance_curve(events);
    if !acceptance.is_empty() {
        out.push_str("acceptance ");
        out.push_str(&sparkline(&downsample(&acceptance, width)));
        out.push('\n');
    }
    for (solver, label) in [(Solver::Mg, "mg resid  "), (Solver::Cg, "cg resid  ")] {
        let residuals = residual_curve(events, solver);
        if !residuals.is_empty() {
            out.push_str(label);
            out.push(' ');
            out.push_str(&sparkline_log(&downsample(&residuals, width)));
            out.push('\n');
        }
    }
    for curve in portfolio_cost_curves(events) {
        if curve.costs.is_empty() {
            continue;
        }
        let _ = write!(out, "start {:<4} ", curve.start);
        out.push_str(&sparkline(&downsample(&curve.costs, width)));
        if curve.pruned {
            out.push_str(" (pruned)");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_the_glyph_range() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s, "▁█");
        let flat = sparkline(&[2.0, 2.0, 2.0]);
        assert_eq!(flat, "▁▁▁");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_is_monotone_in_its_input() {
        let s: Vec<char> = sparkline(&[0.0, 0.25, 0.5, 0.75, 1.0]).chars().collect();
        for pair in s.windows(2) {
            assert!(pair[0] <= pair[1], "{s:?}");
        }
    }

    #[test]
    fn log_sparkline_handles_decades_and_zeros() {
        let s: Vec<char> = sparkline_log(&[1.0, 1e-6, 1e-12, 0.0]).chars().collect();
        assert_eq!(s.len(), 4);
        assert!(s[0] > s[1] && s[1] > s[2], "{s:?}");
        assert_eq!(s[3], ' ');
    }

    #[test]
    fn downsample_caps_the_width() {
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        let short = downsample(&long, 40);
        assert_eq!(short.len(), 40);
        // Bucket means preserve monotonicity.
        for pair in short.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(downsample(&long, 0), long);
        assert_eq!(downsample(&[1.0], 40), vec![1.0]);
    }

    #[test]
    fn trace_sparklines_renders_present_curves_only() {
        let events = vec![
            Event::TempStep {
                step: 0,
                temperature: 1.0,
                proposed: 10,
                accepted: 8,
                uphill_accepted: 2,
                constraint_rejected: 0,
                ir_noop_applied: 0,
                cost: 5.0,
            },
            Event::TempStep {
                step: 1,
                temperature: 0.9,
                proposed: 10,
                accepted: 2,
                uphill_accepted: 0,
                constraint_rejected: 1,
                ir_noop_applied: 0,
                cost: 4.0,
            },
        ];
        let text = trace_sparklines(&events, 60);
        assert!(text.starts_with("acceptance "), "{text}");
        assert!(!text.contains("resid"), "{text}");
        assert!(!text.contains("start"), "{text}");
        assert_eq!(trace_sparklines(&[], 60), "");
    }

    #[test]
    fn portfolio_traces_get_one_line_per_start() {
        let temp_step = |cost: f64| Event::TempStep {
            step: 0,
            temperature: 1.0,
            proposed: 10,
            accepted: 5,
            uphill_accepted: 0,
            constraint_rejected: 0,
            ir_noop_applied: 0,
            cost,
        };
        let events = vec![
            Event::PortfolioStart { start: 0, seed: 1 },
            temp_step(9.0),
            temp_step(7.0),
            Event::PortfolioStart { start: 1, seed: 2 },
            temp_step(9.5),
            Event::PortfolioPrune {
                start: 1,
                epoch: 0,
                best_cost: 9.5,
                global_best: 7.0,
            },
        ];
        let text = trace_sparklines(&events, 60);
        assert!(text.contains("start 0"), "{text}");
        assert!(text.contains("start 1"), "{text}");
        assert!(text.contains("(pruned)"), "{text}");
        assert_eq!(text.matches("(pruned)").count(), 1, "{text}");
    }
}
