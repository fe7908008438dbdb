//! One benchmark run: set-up, timed passes, verification and the
//! end-to-end metrics.
//!
//! A pass sends every design of the workload through the workload's
//! script calls once; one design through one pass is an operation. An
//! untraced run times whole cycles of passes, one per input variant,
//! while another cycle fits in the run time.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use sbm_aig::{aiger, Aig};
use sbm_budget::Budget;
use sbm_core::pipeline::PipelineReport;
use sbm_core::script::{
    sbm_script_budgeted_observed, sbm_script_report, sbm_script_resumable_budgeted, ReportSink,
    SbmOptions,
};
use sbm_journal::encode_aig;
use sbm_lutmap::{map_luts, MapOptions};
use sbm_metrics::Timer;
use sbm_vfs::{RealVfs, Vfs};

use crate::check;
use crate::metrics::Outcome;
use crate::workload::{inputs, Input, Mode, Workload, PARK_AFTER_STEP};

/// Set-up batches before the first pass. An untraced run adds one more
/// after every operation, so that `setup_s`, the median of their times
/// per repetition, samples the host's speed across the whole run.
pub const SETUP_BATCHES: usize = 3;

/// Least wall time of one set-up batch: a single set-up takes about a
/// millisecond, too little to time on its own.
pub const SETUP_BATCH_SECS: f64 = 0.05;

/// Times of the run's set-up batches, per repetition.
#[derive(Debug, Clone, Default)]
struct Setup {
    /// Whole set-up.
    secs: Vec<f64>,
    /// The parsing part of it.
    parse: Vec<f64>,
}

impl Setup {
    /// One set-up batch: parses every variant's AIGER and prepares fresh
    /// checkpoint directories, repeated for at least
    /// [`SETUP_BATCH_SECS`]; returns the last repetition's designs.
    fn batch(&mut self, config: &Config, texts: &[Vec<Input>]) -> Result<Vec<Vec<Design>>, String> {
        let timer = Timer::start();
        let mut parse_s = 0.0;
        let mut reps = 0u32;
        loop {
            let loaded = texts
                .iter()
                .map(|texts| load(config, texts, &mut parse_s))
                .collect::<Result<Vec<_>, _>>()?;
            reps += 1;
            if timer.elapsed().as_secs_f64() >= SETUP_BATCH_SECS {
                self.secs.push(timer.stop().as_secs_f64() / f64::from(reps));
                self.parse.push(parse_s / f64::from(reps));
                return Ok(loaded);
            }
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; at least one pass (or traced round) always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for checkpoints; created by the run, removed by
    /// the caller.
    pub work_dir: PathBuf,
}

/// A parsed design with its checkpoint directory.
#[derive(Debug, Clone)]
pub(crate) struct Design {
    pub(crate) name: &'static str,
    pub(crate) input: Aig,
    pub(crate) dir: PathBuf,
}

/// Times of one park/resume of one design.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Park {
    pub(crate) park: Duration,
    pub(crate) waste: Duration,
    pub(crate) resume: Duration,
    pub(crate) steps_skipped: usize,
}

/// One operation's result.
#[derive(Debug)]
pub(crate) struct Op {
    pub(crate) aig: Aig,
    /// `encode_aig` of the network, for byte-identity checks.
    pub(crate) bytes: Vec<u8>,
    pub(crate) report: PipelineReport,
    pub(crate) park: Option<Park>,
    pub(crate) failures: Vec<String>,
    /// Wall time of the operation's script calls.
    pub(crate) secs: f64,
}

impl Op {
    pub(crate) fn new(aig: Aig, report: PipelineReport, mut failures: Vec<String>) -> Op {
        let bytes = encode_aig(&aig).unwrap_or_else(|e| {
            failures.push(format!("network does not encode: {e}"));
            Vec::new()
        });
        Op {
            aig,
            bytes,
            report,
            park: None,
            failures,
            secs: 0.0,
        }
    }
}

/// Runs the benchmark once.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let texts: Result<Vec<Vec<Input>>, String> = (0..config.workload.variants)
        .map(|variant| inputs(&config.workload, config.seed, variant))
        .collect();
    let texts = match texts {
        Ok(texts) => texts,
        Err(e) => return outcome.abort(e),
    };
    let mut setup = Setup::default();
    let mut variants = Vec::new();
    for _ in 0..SETUP_BATCHES {
        match setup.batch(config, &texts) {
            Ok(loaded) => variants = loaded,
            Err(e) => return outcome.abort(e),
        }
    }
    if config.trace {
        crate::trace::traced_run(config, &variants[0], &setup.parse, &mut outcome);
    } else {
        timed_run(config, &texts, &variants, &mut setup, &mut outcome);
    }
    outcome.push("setup_s", median(&setup.secs), "s");
    outcome.note(format!(
        "set-up: {:.3} ms per repetition, {:.3} ms of it parsing, median of {} batches",
        median(&setup.secs) * 1e3,
        median(&setup.parse) * 1e3,
        setup.secs.len()
    ));
    outcome
}

/// Parses one variant's inputs and prepares a fresh checkpoint
/// directory per design; adds the parse time to `parse_s`.
fn load(config: &Config, texts: &[Input], parse_s: &mut f64) -> Result<Vec<Design>, String> {
    let timer = Timer::start();
    let parsed: Vec<Aig> = texts
        .iter()
        .map(|t| aiger::parse(&t.aiger).map_err(|e| format!("{} does not parse: {e}", t.design)))
        .collect::<Result<_, _>>()?;
    *parse_s += timer.stop().as_secs_f64();
    texts
        .iter()
        .zip(parsed)
        .map(|(text, input)| {
            let dir = config.work_dir.join(text.design);
            fresh_dir(&RealVfs, &dir)
                .map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
            Ok(Design {
                name: text.design,
                input,
                dir,
            })
        })
        .collect()
}

/// Removes whatever a previous run left in `dir` and recreates it.
fn fresh_dir(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<()> {
    if vfs.exists(dir) {
        for file in vfs.list_dir(dir)? {
            vfs.remove_file(&file)?;
        }
    }
    vfs.create_dir_all(dir)
}

/// The untraced run: cycles of passes, one per variant, while another
/// cycle fits in the run time, with a set-up batch after every
/// operation (not part of the pass time); then the end-to-end metrics of
/// the verified outputs.
fn timed_run(
    config: &Config,
    texts: &[Vec<Input>],
    variants: &[Vec<Design>],
    setup: &mut Setup,
    outcome: &mut Outcome,
) {
    let w = &config.workload;
    let references: Vec<_> = variants.iter().map(|d| reference_bytes(w, d)).collect();
    let clock = Timer::start();
    let mut wall = Vec::new();
    let mut passes: Vec<Vec<Vec<Op>>> = variants.iter().map(|_| Vec::new()).collect();
    // Whole cycles over the variants only, so every variant weighs the
    // same in the percentiles. A cycle runs design by design, each
    // through every variant in turn, so that every pass's operations are
    // spread over the whole cycle and all its pass times see the same
    // host speed.
    let mut cycle = 0.0;
    while wall.is_empty() || clock.elapsed().as_secs_f64() + cycle <= config.seconds {
        let started = clock.elapsed().as_secs_f64();
        let mut cycle_ops: Vec<Vec<Op>> = variants.iter().map(|_| Vec::new()).collect();
        for i in 0..w.designs.len() {
            for (ops, designs) in cycle_ops.iter_mut().zip(variants) {
                ops.push(operation(w, &designs[i]));
                if let Err(e) = setup.batch(config, texts) {
                    outcome.count("setup", wall.len(), &[e]);
                    return;
                }
            }
        }
        for (variant, ops) in cycle_ops.into_iter().enumerate() {
            let secs: f64 = ops.iter().map(|op| op.secs).sum();
            outcome.note(format!(
                "pass {} (variant {variant}): {secs:.3} s",
                wall.len() + 1
            ));
            wall.push(secs);
            passes[variant].push(ops);
        }
        cycle = clock.elapsed().as_secs_f64() - started;
    }
    let mut qor = Vec::new();
    for ((designs, ops), reference) in variants.iter().zip(&mut passes).zip(&references) {
        verify(designs, ops, reference.as_deref(), outcome);
        qor.push(Qor::of(&ops[0]));
    }
    let mean = |f: fn(&Qor) -> f64| qor.iter().map(f).sum::<f64>() / qor.len() as f64;
    outcome.push("script_s.p50", percentile(&wall, 0.5), "s");
    outcome.push("script_s.p90", percentile(&wall, 0.9), "s");
    outcome.push("ands", mean(|q| q.ands as f64), "count");
    outcome.push("levels", mean(|q| q.levels as f64), "count");
    outcome.push("luts", mean(|q| q.luts as f64), "count");
    outcome.note(format!(
        "{}: script_s over {} passes of {} variants",
        w.name,
        wall.len(),
        variants.len()
    ));
    describe(&variants[0], &passes[0][0], outcome);
}

/// Byte encodings of a straight canonical run of every design, the
/// reference a park/resume must reproduce; `None` for straight
/// workloads.
pub(crate) fn reference_bytes(w: &Workload, designs: &[Design]) -> Option<Vec<Vec<u8>>> {
    (w.mode == Mode::ParkResume).then(|| {
        let options = w.options(None);
        designs
            .iter()
            .map(|d| straight(d, &options).bytes)
            .collect()
    })
}

/// One design through the workload's own script calls, timed.
fn operation(w: &Workload, d: &Design) -> Op {
    let timer = Timer::start();
    let mut op = match w.mode {
        Mode::Straight => straight(d, &w.options(None)),
        Mode::ParkResume => park_resume(d, &w.options(Some(d.dir.clone()))),
    };
    op.secs = timer.stop().as_secs_f64();
    op
}

pub(crate) fn straight(d: &Design, options: &SbmOptions) -> Op {
    let out = sbm_script_report(&d.input, options);
    let failures = check::report_failures(&out.stats);
    Op::new(out.aig, out.stats, failures)
}

/// Parks a checkpointed run by cancelling its budget from the
/// `ReportSink` after [`PARK_AFTER_STEP`] steps, then resumes it.
pub(crate) fn park_resume(d: &Design, options: &SbmOptions) -> Op {
    let budget = Budget::cancellable();
    let fired = AtomicUsize::new(0);
    let cancelled_at = AtomicU64::new(0);
    let clock = Timer::start();
    let sink = |_: &PipelineReport| {
        if fired.fetch_add(1, Relaxed) + 1 == PARK_AFTER_STEP {
            cancelled_at.store(clock.elapsed().as_nanos() as u64, Relaxed);
            budget.cancel();
        }
    };
    let _parked = sbm_script_budgeted_observed(&d.input, options, &budget, ReportSink(&sink));
    let park = clock.stop();
    let waste = park.saturating_sub(Duration::from_nanos(cancelled_at.load(Relaxed)));
    let timer = Timer::start();
    let resumed = sbm_script_resumable_budgeted(&d.input, options, &Budget::unlimited());
    let resume = timer.stop();
    let out = match resumed {
        Ok(out) => out,
        Err(e) => {
            return Op::new(
                d.input.clone(),
                PipelineReport::default(),
                vec![format!("resume failed: {e}")],
            )
        }
    };
    let steps_skipped = out.stats.resume.map_or(0, |r| r.steps_skipped);
    let mut failures = check::report_failures(&out.stats);
    if steps_skipped != PARK_AFTER_STEP {
        failures.push(format!(
            "resume skipped {steps_skipped} steps, expected {PARK_AFTER_STEP}"
        ));
    }
    let mut op = Op::new(out.aig, out.stats, failures);
    op.park = Some(Park {
        park,
        waste,
        resume,
        steps_skipped,
    });
    op
}

/// Verifies every operation and counts the failed ones: the first
/// pass's outputs are checked for equivalence (and, on park/resume, for
/// byte identity with the straight canonical run); later passes must
/// reproduce the first pass byte for byte. Returns the miter time.
pub(crate) fn verify(
    designs: &[Design],
    passes: &mut [Vec<Op>],
    reference: Option<&[Vec<u8>]>,
    outcome: &mut Outcome,
) -> f64 {
    let mut miter = 0.0;
    let first: Vec<Vec<u8>> = passes[0].iter().map(|op| op.bytes.clone()).collect();
    for (index, ops) in passes.iter_mut().enumerate() {
        for (i, (d, op)) in designs.iter().zip(ops.iter_mut()).enumerate() {
            if index == 0 {
                let timer = Timer::start();
                if let Err(e) = check::equivalence(&d.input, &op.aig) {
                    op.failures.push(e);
                }
                miter += timer.stop().as_secs_f64();
            } else if op.bytes != first[i] {
                op.failures
                    .push("output differs from the first pass".to_string());
            }
            if reference.is_some_and(|r| op.bytes != r[i]) {
                op.failures
                    .push("resumed network differs from the straight run".to_string());
            }
            outcome.count(d.name, index, &op.failures);
        }
    }
    miter
}

/// The QoR of one pass: summed final AND count, depth and LUT-6 count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Qor {
    pub(crate) ands: usize,
    pub(crate) levels: u64,
    pub(crate) luts: usize,
    pub(crate) lut_depth: u64,
    pub(crate) map_s: f64,
}

impl Qor {
    pub(crate) fn of(ops: &[Op]) -> Qor {
        let mut qor = Qor::default();
        for op in ops {
            qor.ands += op.aig.num_ands();
            qor.levels += u64::from(op.aig.depth());
            let timer = Timer::start();
            let luts = map_luts(&op.aig, &MapOptions::default());
            qor.map_s += timer.stop().as_secs_f64();
            qor.luts += luts.num_luts();
            qor.lut_depth += u64::from(luts.depth());
        }
        qor
    }
}

/// Per-design lines for the human-readable log.
pub(crate) fn describe(designs: &[Design], ops: &[Op], outcome: &mut Outcome) {
    for (d, op) in designs.iter().zip(ops) {
        let mut line = format!(
            "  {:<9} ands {:>5} -> {:>5}  {:.3} s",
            d.name,
            d.input.num_ands(),
            op.aig.num_ands(),
            op.secs
        );
        if let Some(p) = op.park {
            line.push_str(&format!(
                "  park_s {:.3}  park_waste_s {:.3}  resume_s {:.3}  steps_skipped {}",
                p.park.as_secs_f64(),
                p.waste.as_secs_f64(),
                p.resume.as_secs_f64(),
                p.steps_skipped
            ));
        }
        outcome.note(line);
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linearly interpolated percentile, `q` in `[0, 1]`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn small_design() -> Design {
        let workload = Workload::named("control")
            .and_then(|w| w.with_designs("ctrl"))
            .expect("known design");
        let text = &inputs(&workload, 7, 0).expect("known design")[0];
        Design {
            name: text.design,
            input: aiger::parse(&text.aiger).expect("generated AIGER parses"),
            dir: PathBuf::new(),
        }
    }

    #[test]
    fn a_flipped_output_is_a_failed_operation() {
        let design = small_design();
        let good = straight(&design, &SbmOptions::default());
        let mut bad = good.aig.clone();
        let first = bad.outputs()[0];
        bad.set_output(0, !first);
        let designs = [design];
        let mut passes = vec![
            vec![Op::new(
                good.aig.clone(),
                PipelineReport::default(),
                Vec::new(),
            )],
            vec![Op::new(good.aig, PipelineReport::default(), Vec::new())],
        ];
        let mut outcome = Outcome::default();
        verify(&designs, &mut passes, None, &mut outcome);
        assert_eq!((outcome.attempted, outcome.failed), (2, 0));

        // Corrupt the first pass: the miter refutes it.
        let mut outcome = Outcome::default();
        passes[0][0] = Op::new(bad.clone(), PipelineReport::default(), Vec::new());
        verify(&designs, &mut passes, None, &mut outcome);
        assert_eq!((outcome.attempted, outcome.failed), (2, 2));
        assert!(
            outcome.failures[0].contains("refuted"),
            "{:?}",
            outcome.failures
        );
        assert!(!outcome.correct());

        // Corrupt a later pass only: it no longer matches the first.
        let mut outcome = Outcome::default();
        passes[0][0] = Op::new(
            straight(&designs[0], &SbmOptions::default()).aig,
            PipelineReport::default(),
            Vec::new(),
        );
        passes[1][0] = Op::new(bad, PipelineReport::default(), Vec::new());
        verify(&designs, &mut passes, None, &mut outcome);
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
    }

    #[test]
    fn a_report_violation_is_a_failed_operation() {
        let design = small_design();
        let mut report = PipelineReport::default();
        report.fault.degraded_windows = 1;
        let failures = check::report_failures(&report);
        let op = Op::new(design.input.clone(), report, failures);
        let mut outcome = Outcome::default();
        verify(&[design], &mut [vec![op]], None, &mut outcome);
        assert_eq!((outcome.attempted, outcome.failed), (1, 1));
    }

    #[test]
    fn percentiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert!((percentile(&values, 0.9) - 3.7).abs() < 1e-12);
    }
}
