//! Fidelity reference: the paper's six §4.4 PP̄ values.
//!
//! Source: §4.4 of the paper (Pennycook–Sewall PP̄ over all six
//! platforms, failures ignored for the structured apps), as tabulated
//! in EXPERIMENTS.md "§4.4 — Pennycook–Sewall PP̄". Table 1 is left out
//! on purpose: its CPU rows calibrate the model, so they are inputs,
//! not held-out results.

/// (metric suffix, paper PP̄), in `SummaryStats` order.
pub const PAPER_PP: [(&str, f64); 6] = [
    ("dpcpp_nd", 0.49),
    ("opensycl_nd", 0.46),
    ("dpcpp_flat", 0.35),
    ("opensycl_flat", 0.29),
    ("mgcfd_opensycl_atomics", 0.42),
    ("mgcfd_best", 0.67),
];

/// The six simulated PP̄ values, in [`PAPER_PP`] order.
pub fn simulated_pp() -> [f64; 6] {
    let s = bench_harness::summary_stats();
    [
        s.pp_structured[0],
        s.pp_structured[1],
        s.pp_structured[2],
        s.pp_structured[3],
        s.pp_mgcfd_opensycl_atomics,
        s.pp_mgcfd_best,
    ]
}

/// Absolute error of each simulated PP̄ against the paper's.
pub fn pp_errors(simulated: &[f64; 6]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for (o, (s, (_, paper))) in out.iter_mut().zip(simulated.iter().zip(PAPER_PP)) {
        *o = (s - paper).abs();
    }
    out
}

/// `pp_err`: the mean absolute error over the six values.
pub fn pp_err(simulated: &[f64; 6]) -> f64 {
    pp_errors(simulated).iter().sum::<f64>() / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perfect_model_has_zero_error() {
        let paper = PAPER_PP.map(|(_, v)| v);
        assert_eq!(pp_err(&paper), 0.0);
        let mut off = paper;
        off[5] += 0.06;
        assert!((pp_err(&off) - 0.01).abs() < 1e-12);
    }
}
