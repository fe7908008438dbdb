//! The traced run: per-layer metrics taken from outside the program.
//!
//! A round is an untraced straight pass, a traced straight pass and a
//! park/resume probe. The traced pass sets a temporary checkpoint
//! directory and calls `sbm_script_budgeted_observed`, so the script's
//! `ReportSink` fires after each of its steps. Each firing gives a
//! timestamp for the step boundary, the cumulative `PipelineReport`
//! gives the step's counter deltas, and the step's snapshot gives its
//! AND count. Rounds repeat while another one fits in the run time;
//! times are medians over rounds, counters come from the first round
//! (they repeat exactly). Traced runs use the seed's first variant.

use std::sync::mpsc;
use std::time::Duration;

use sbm_budget::Budget;
use sbm_core::pipeline::PipelineReport;
use sbm_core::script::{sbm_script_budgeted_observed, ReportSink, SbmOptions};
use sbm_journal::{read_aig_snapshot, SCRIPT_STATE_FILE};
use sbm_metrics::Timer;

use crate::check;
use crate::metrics::Outcome;
use crate::run::{
    describe, median, park_resume, reference_bytes, straight, verify, Config, Design, Op, Park, Qor,
};
use crate::workload::{Mode, Workload};

/// The eight steps of one script iteration, in order.
pub const STEP_NAMES: [&str; 8] = [
    "resyn2rs",
    "gradient",
    "hetero",
    "mspf",
    "refactor",
    "bdiff",
    "sweep",
    "redundancy",
];

/// Windowed engines whose pipeline rows are reported.
pub const ENGINE_NAMES: [&str; 5] = ["resub", "rewrite", "refactor", "mspf", "bdiff"];

/// Smallest share of a traced pass its step spans must cover.
pub const MIN_TRACE_COVERAGE: f64 = 0.95;

/// One step boundary seen by the tracing sink.
#[derive(Debug, Clone, Copy)]
struct StepMark {
    seq: u64,
    at: Duration,
    ands: usize,
    sat_conflicts: u64,
    bdd_ite_calls: u64,
}

/// Per-step totals over the designs of one traced pass.
#[derive(Debug, Clone, Default)]
struct StepTotals {
    secs: [f64; 8],
    ands_saved: [i64; 8],
    sat_conflicts: [u64; 8],
    bdd_ite_calls: [u64; 8],
    /// Seconds covered by step spans.
    covered: f64,
    snapshots: usize,
}

impl StepTotals {
    /// Adds one design's step boundaries; `input_ands` is the AND count
    /// of the cleaned input (the step-0 snapshot).
    fn add(&mut self, input_ands: usize, marks: &[StepMark]) {
        let mut prev = (Duration::ZERO, input_ands, 0u64, 0u64);
        for mark in marks {
            let i = (mark.seq as usize + STEP_NAMES.len() - 1) % STEP_NAMES.len();
            self.secs[i] += mark.at.saturating_sub(prev.0).as_secs_f64();
            self.ands_saved[i] += prev.1 as i64 - mark.ands as i64;
            self.sat_conflicts[i] += mark.sat_conflicts.saturating_sub(prev.2);
            self.bdd_ite_calls[i] += mark.bdd_ite_calls.saturating_sub(prev.3);
            prev = (mark.at, mark.ands, mark.sat_conflicts, mark.bdd_ite_calls);
        }
        self.covered += prev.0.as_secs_f64();
        self.snapshots += marks.len();
    }
}

/// A straight run observed through the script's `ReportSink`: one
/// timestamp, snapshot AND count and counter reading per step.
fn traced(d: &Design, options: &SbmOptions) -> (Op, Vec<StepMark>) {
    let (tx, rx) = mpsc::channel();
    let state_file = d.dir.join(SCRIPT_STATE_FILE);
    let clock = Timer::start();
    let sink = move |report: &PipelineReport| {
        let at = clock.elapsed();
        let mark = read_aig_snapshot(&state_file)
            .map(|(aig, meta)| StepMark {
                seq: meta.seq,
                at,
                ands: aig.num_ands(),
                sat_conflicts: report.sat.conflicts,
                bdd_ite_calls: report.bdd.ite_calls,
            })
            .map_err(|e| e.to_string());
        let _ = tx.send(mark);
    };
    let out =
        sbm_script_budgeted_observed(&d.input, options, &Budget::unlimited(), ReportSink(&sink));
    drop(sink);
    let failures = check::report_failures(&out.stats);
    let mut op = Op::new(out.aig, out.stats, failures);
    let mut marks = Vec::new();
    for mark in rx.try_iter() {
        match mark {
            Ok(mark) => marks.push(mark),
            Err(e) => op.failures.push(format!("trace snapshot unreadable: {e}")),
        }
    }
    let expected = options.iterations * STEP_NAMES.len();
    let in_order = marks.iter().enumerate().all(|(i, m)| m.seq == i as u64 + 1);
    if marks.len() != expected || !in_order {
        op.failures.push(format!(
            "trace saw {} step boundaries, expected {expected} in order",
            marks.len()
        ));
    }
    (op, marks)
}

/// Every operation's report of one pass, merged.
fn merged(ops: &[Op]) -> PipelineReport {
    let mut total = PipelineReport::default();
    for op in ops {
        total.merge(&op.report);
    }
    total
}

/// The traced run; see the module documentation.
pub(crate) fn traced_run(
    config: &Config,
    designs: &[Design],
    parse: &[f64],
    outcome: &mut Outcome,
) {
    let w = &config.workload;
    let straight_options = w.options(None);
    // The park/resume probe: every design on the resume workload, the
    // largest design elsewhere (on control that is i2c, whose SAT steps
    // run on after the cancel), always in the job server's configuration
    // at the workload's thread count.
    let probe_workload = Workload {
        mode: Mode::ParkResume,
        ..w.clone()
    };
    let probe: Vec<Design> = if w.mode == Mode::ParkResume {
        designs.to_vec()
    } else {
        designs
            .iter()
            .max_by_key(|d| d.input.num_ands())
            .into_iter()
            .cloned()
            .collect()
    };
    let clock = Timer::start();
    let mut rounds = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut plain_passes: Vec<Vec<Op>> = Vec::new();
    let mut traced_passes: Vec<Vec<Op>> = Vec::new();
    let mut step_rounds: Vec<StepTotals> = Vec::new();
    let mut probe_passes: Vec<Vec<Op>> = Vec::new();
    while rounds.is_empty() || clock.elapsed().as_secs_f64() + median(&rounds) <= config.seconds {
        let round = Timer::start();
        let timer = Timer::start();
        let plain: Vec<Op> = designs
            .iter()
            .map(|d| straight(d, &straight_options))
            .collect();
        plain_walls.push(timer.stop().as_secs_f64());

        let timer = Timer::start();
        let traced: Vec<(Op, Vec<StepMark>)> = designs
            .iter()
            .map(|d| traced(d, &w.traced_options(d.dir.clone())))
            .collect();
        let wall = timer.stop().as_secs_f64();
        traced_walls.push(wall);
        let mut totals = StepTotals::default();
        let mut ops = Vec::new();
        for (d, (op, marks)) in designs.iter().zip(traced) {
            totals.add(d.input.cleanup().num_ands(), &marks);
            ops.push(op);
        }
        totals.covered /= wall;
        step_rounds.push(totals);

        probe_passes.push(
            probe
                .iter()
                .map(|d| {
                    let timer = Timer::start();
                    let mut op = park_resume(d, &probe_workload.options(Some(d.dir.clone())));
                    op.secs = timer.stop().as_secs_f64();
                    op
                })
                .collect(),
        );
        plain_passes.push(plain);
        traced_passes.push(ops);
        rounds.push(round.stop().as_secs_f64());
    }

    // Verification: the plain passes as in an untraced run, the traced
    // passes byte-identical to them and covered by their step spans, the
    // probes byte-identical to a straight canonical run.
    let miter = verify(designs, &mut plain_passes, None, outcome);
    for (index, ops) in traced_passes.iter_mut().enumerate() {
        let coverage = step_rounds[index].covered;
        for ((d, op), plain) in designs.iter().zip(ops.iter_mut()).zip(&plain_passes[0]) {
            if op.bytes != plain.bytes {
                op.failures
                    .push("traced network differs from the untraced run".to_string());
            }
            if coverage < MIN_TRACE_COVERAGE {
                op.failures.push(format!(
                    "step spans cover {:.1}% of the traced pass",
                    coverage * 100.0
                ));
            }
            outcome.count(d.name, index, &op.failures);
        }
    }
    // On the resume workload the plain passes already are straight
    // canonical runs of the probed designs.
    let probe_reference = if w.mode == Mode::ParkResume {
        Some(plain_passes[0].iter().map(|op| op.bytes.clone()).collect())
    } else {
        reference_bytes(&probe_workload, &probe)
    };
    verify(
        &probe,
        &mut probe_passes,
        probe_reference.as_deref(),
        outcome,
    );

    let steps = &step_rounds[0];
    for (i, name) in STEP_NAMES.iter().enumerate() {
        let secs: Vec<f64> = step_rounds.iter().map(|s| s.secs[i]).collect();
        outcome.push(&format!("step.{name}_s"), median(&secs), "s");
        let counters = [
            ("ands_saved", steps.ands_saved[i] as f64),
            ("sat_conflicts", steps.sat_conflicts[i] as f64),
            ("bdd_ite_calls", steps.bdd_ite_calls[i] as f64),
        ];
        for (counter, value) in counters {
            outcome.push(&format!("step.{name}.{counter}"), value, "count");
        }
    }

    let totals: Vec<PipelineReport> = plain_passes.iter().map(|ops| merged(ops)).collect();
    let r = &totals[0];
    let wall = |f: fn(&PipelineReport) -> Duration| {
        median(
            &totals
                .iter()
                .map(|t| f(t).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    outcome.push("pipeline.extract_s", wall(|t| t.extract_wall), "s");
    outcome.push("pipeline.optimize_s", wall(|t| t.optimize_wall), "s");
    outcome.push("pipeline.stitch_s", wall(|t| t.stitch_wall), "s");
    let pipeline = [
        ("windows", r.windows_total),
        ("windows_improved", r.windows_improved),
        ("nodes_saved", r.nodes_saved),
    ];
    for (name, value) in pipeline {
        outcome.push(&format!("pipeline.{name}"), value as f64, "count");
    }
    for name in ENGINE_NAMES {
        let stats = |t: &PipelineReport| {
            t.engines
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or_default()
        };
        let busy: Vec<f64> = totals.iter().map(|t| stats(t).busy.as_secs_f64()).collect();
        outcome.push(&format!("engine.{name}.busy_s"), median(&busy), "s");
        outcome.push(
            &format!("engine.{name}.tried"),
            stats(r).tried as f64,
            "count",
        );
        outcome.push(
            &format!("engine.{name}.accepted"),
            stats(r).accepted as f64,
            "count",
        );
    }

    let screened = r.sim.filter_hits + r.sim.filter_misses;
    let counters = [
        ("sat.solves", r.sat.solves),
        ("sat.conflicts", r.sat.conflicts),
        ("sat.propagations", r.sat.propagations),
        ("sat.unknown", r.sat.unknown),
        ("bdd.ite_calls", r.bdd.ite_calls),
        ("bdd.nodes_allocated", r.bdd.nodes_allocated),
        ("bdd.peak_nodes", r.bdd.peak_nodes),
        ("bdd.cache_hits", r.bdd.cache_hits),
        ("bdd.managers_recycled", r.bdd.managers_recycled),
        ("sim.filter_hits", r.sim.filter_hits),
        ("sim.filter_misses", r.sim.filter_misses),
        ("sim.filter_screened", screened),
        ("sim.cex_committed", r.sim.cex_committed),
    ];
    for (name, value) in counters {
        outcome.push(name, value as f64, "count");
    }
    outcome.push("sat.miter_s", miter, "s");
    // Base: candidates screened (filter hits + misses).
    let reject_ratio = if screened == 0 {
        0.0
    } else {
        r.sim.filter_hits as f64 / screened as f64
    };
    outcome.push("sim.filter_reject_ratio", reject_ratio, "ratio");

    let qor = Qor::of(&plain_passes[0]);
    outcome.push("lutmap.map_s", qor.map_s, "s");
    outcome.push("lutmap.depth", qor.lut_depth as f64, "count");

    outcome.push("journal.snapshots", steps.snapshots as f64, "count");
    let parks: Vec<Vec<Park>> = probe_passes
        .iter()
        .map(|ops| ops.iter().filter_map(|op| op.park).collect())
        .collect();
    let park_median = |f: fn(&Park) -> Duration| {
        let per_round: Vec<f64> = parks
            .iter()
            .map(|round| round.iter().map(|p| f(p).as_secs_f64()).sum())
            .collect();
        median(&per_round)
    };
    outcome.push("resume.park_s", park_median(|p| p.park), "s");
    outcome.push("resume.park_waste_s", park_median(|p| p.waste), "s");
    outcome.push("resume.resume_s", park_median(|p| p.resume), "s");
    let skipped: usize = parks[0].iter().map(|p| p.steps_skipped).sum();
    outcome.push("resume.steps_skipped", skipped as f64, "count");

    outcome.push("aig.parse_s", median(parse), "s");
    let input_ands: usize = designs.iter().map(|d| d.input.num_ands()).sum();
    outcome.push("epfl.input_ands", input_ands as f64, "count");

    let plain = median(&plain_walls);
    let traced = median(&traced_walls);
    let coverage: Vec<f64> = step_rounds.iter().map(|s| s.covered).collect();
    outcome.push("trace.untraced_script_s", plain, "s");
    outcome.push("trace.traced_script_s", traced, "s");
    outcome.push("trace.overhead_s", traced - plain, "s");
    outcome.push("trace.coverage", median(&coverage), "ratio");
    outcome.push("peak_rss_mb", crate::run::peak_rss_mb(), "MB");
    outcome.note(format!(
        "{}: {} traced rounds; park/resume probe on {}",
        w.name,
        plain_walls.len(),
        probe.iter().map(|d| d.name).collect::<Vec<_>>().join(",")
    ));
    describe(&probe, &probe_passes[0], outcome);
}
