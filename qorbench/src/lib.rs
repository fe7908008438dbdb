//! `qorbench` — the repository benchmark: QoR-gated latency of the SBM
//! script on fixed workloads of reduced-scale EPFL designs, with a
//! step-level trace taken from outside the program through the script's
//! `ReportSink`.
//!
//! The benchmark drives the program only through public functions:
//! `sbm_epfl::benchmark` makes the designs, `sbm_aig::aiger` hands them
//! over as text, `sbm_core::script` runs them, `sbm_lutmap::map_luts`
//! maps them and `sbm_sat::MiterOracle` checks them. See `README.md`.

pub mod check;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "script_s.p50",
    "script_s.p90",
    "ands",
    "levels",
    "luts",
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub fn per_layer() -> Vec<String> {
    let mut names = Vec::new();
    for step in trace::STEP_NAMES {
        names.push(format!("step.{step}_s"));
        for counter in ["ands_saved", "sat_conflicts", "bdd_ite_calls"] {
            names.push(format!("step.{step}.{counter}"));
        }
    }
    for name in [
        "extract_s",
        "optimize_s",
        "stitch_s",
        "windows",
        "windows_improved",
        "nodes_saved",
    ] {
        names.push(format!("pipeline.{name}"));
    }
    for engine in trace::ENGINE_NAMES {
        for counter in ["busy_s", "tried", "accepted"] {
            names.push(format!("engine.{engine}.{counter}"));
        }
    }
    let fixed = [
        "sat.solves",
        "sat.conflicts",
        "sat.propagations",
        "sat.unknown",
        "sat.miter_s",
        "bdd.ite_calls",
        "bdd.nodes_allocated",
        "bdd.peak_nodes",
        "bdd.cache_hits",
        "bdd.managers_recycled",
        "sim.filter_hits",
        "sim.filter_misses",
        "sim.filter_screened",
        "sim.filter_reject_ratio",
        "sim.cex_committed",
        "lutmap.map_s",
        "lutmap.depth",
        "journal.snapshots",
        "resume.park_s",
        "resume.park_waste_s",
        "resume.resume_s",
        "resume.steps_skipped",
        "aig.parse_s",
        "epfl.input_ands",
        "trace.untraced_script_s",
        "trace.traced_script_s",
        "trace.overhead_s",
        "trace.coverage",
        "peak_rss_mb",
    ];
    names.extend(fixed.iter().map(|s| (*s).to_string()));
    names
}
