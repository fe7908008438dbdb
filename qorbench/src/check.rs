//! Correctness checks applied to every operation.
//!
//! An operation (one design through one pass) fails when its network is
//! not proven equivalent to its input, or when the script's own report
//! flags it. A SAT miter that gives up is never taken as a pass on its
//! own: the simulation screen then has to agree on every output.

use sbm_aig::sim::Signatures;
use sbm_aig::Aig;
use sbm_core::pipeline::PipelineReport;
use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

/// Conflict budget of the correctness miter.
pub const MITER_CONFLICTS: u64 = 200_000;

/// Simulation words per node of the fallback screen (64 patterns each).
const SCREEN_WORDS: usize = 64;

/// Checks `optimized` against `original`: the SAT miter first, the
/// simulation screen whenever the miter returns `Unknown`.
pub fn equivalence(original: &Aig, optimized: &Aig) -> Result<(), String> {
    if original.num_inputs() != optimized.num_inputs()
        || original.num_outputs() != optimized.num_outputs()
    {
        return Err("interface changed".to_string());
    }
    let verdict = MiterOracle::new()
        .with_conflict_budget(Some(MITER_CONFLICTS))
        .check(original, optimized);
    match verdict {
        Verdict::Equivalent => Ok(()),
        Verdict::Refuted(_) => Err("SAT miter refuted the output".to_string()),
        Verdict::Unknown if sim_agrees(original, optimized) => Ok(()),
        Verdict::Unknown => Err("miter gave up and the simulation screen disagrees".to_string()),
    }
}

/// Random-simulation screen: every output agrees on
/// `SCREEN_WORDS * 64` shared random patterns.
fn sim_agrees(a: &Aig, b: &Aig) -> bool {
    let sa = Signatures::random(a, SCREEN_WORDS, 0x5EED_CAFE);
    let sb = Signatures::random(b, SCREEN_WORDS, 0x5EED_CAFE);
    a.outputs()
        .into_iter()
        .zip(b.outputs())
        .all(|(x, y)| (0..SCREEN_WORDS).all(|w| sa.lit_word(x, w) == sb.lit_word(y, w)))
}

/// The report-level failure conditions of one script call.
pub fn report_failures(report: &PipelineReport) -> Vec<String> {
    let mut failures = Vec::new();
    for violation in &report.check_violations {
        failures.push(format!(
            "check violation in {} ({})",
            violation.engine, violation.stage
        ));
    }
    if let Some(error) = &report.checkpoint_error {
        failures.push(format!("checkpoint error: {error}"));
    }
    if report.fault.degraded_windows > 0 {
        failures.push(format!(
            "{} degraded windows",
            report.fault.degraded_windows
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_screen_sees_a_flipped_output() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        aig.add_output(a);
        let mut flipped = aig.clone();
        flipped.set_output(0, !f);
        assert!(sim_agrees(&aig, &aig));
        assert!(!sim_agrees(&aig, &flipped));
        assert!(equivalence(&aig, &aig).is_ok());
        assert!(equivalence(&aig, &flipped).is_err());
    }
}
