//! The benchmark's workloads and the seeded inputs they hand over.
//!
//! A workload is a fixed list of reduced-scale EPFL designs plus the
//! script configuration they run under. The seed only relabels each
//! design's primary-input and primary-output order; the program under
//! test receives nothing but the resulting AIGER text. One seed yields a
//! fixed number of relabellings ("variants") per design, so a run
//! averages over several input orders instead of resting on one.

use std::path::PathBuf;

use sbm_aig::{aiger, Aig, Lit};
use sbm_core::script::SbmOptions;
use sbm_epfl::Scale;
use sbm_vfs::splitmix64;

/// How a workload drives the script for one design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `sbm_script_report` call with the default options.
    Straight,
    /// The job server's configuration (`canonical_steps`, a checkpoint
    /// after every step): the run is parked by a cancel after
    /// [`PARK_AFTER_STEP`] steps, then resumed from its checkpoint.
    ParkResume,
}

/// Steps a parked run completes before its budget is cancelled.
pub const PARK_AFTER_STEP: usize = 3;

/// One workload: designs, worker threads and how each design is run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Reduced-scale EPFL designs, in pass order.
    pub designs: Vec<&'static str>,
    /// `SbmOptions::num_threads`.
    pub threads: usize,
    /// How each design goes through the script.
    pub mode: Mode,
    /// Relabellings of every design per seed; pass `k` runs variant
    /// `k % variants`.
    pub variants: usize,
}

impl Workload {
    /// The named workload, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Workload> {
        let (name, designs, threads, mode, variants): (_, &[&'static str], _, _, _) = match name {
            "control" => (
                "control",
                &["i2c", "router", "arbiter", "priority", "cavlc"],
                1,
                Mode::Straight,
                3,
            ),
            "arith" => ("arith", &["adder", "max", "log2"], 2, Mode::Straight, 5),
            "resume" => (
                "resume",
                &["priority", "adder", "max"],
                1,
                Mode::ParkResume,
                3,
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            designs: designs.to_vec(),
            threads,
            mode,
            variants,
        })
    }

    /// The same workload on other designs, named as in `sbm_epfl::NAMES`
    /// (for quick checks on small inputs); `None` on an unknown name.
    pub fn with_designs(mut self, names: &str) -> Option<Workload> {
        self.designs = names
            .split(',')
            .map(|name| sbm_epfl::NAMES.iter().copied().find(|n| *n == name))
            .collect::<Option<_>>()?;
        Some(self)
    }

    /// The script options of this workload; `checkpoint_dir` is used
    /// only by the park/resume mode and by traced runs.
    pub fn options(&self, checkpoint_dir: Option<PathBuf>) -> SbmOptions {
        let canonical = self.mode == Mode::ParkResume;
        SbmOptions {
            num_threads: self.threads,
            canonical_steps: canonical,
            checkpoint_every: 1,
            checkpoint_dir: if canonical { checkpoint_dir } else { None },
            ..SbmOptions::default()
        }
    }

    /// The same options with checkpointing forced on, so the script's
    /// `ReportSink` fires after every step. Checkpointing does not change
    /// the live network, so results stay byte-identical.
    pub fn traced_options(&self, checkpoint_dir: PathBuf) -> SbmOptions {
        SbmOptions {
            checkpoint_dir: Some(checkpoint_dir),
            ..self.options(None)
        }
    }
}

/// One handed-over input: a design name and its AIGER text.
#[derive(Debug, Clone)]
pub struct Input {
    /// EPFL design name.
    pub design: &'static str,
    /// ASCII AIGER of the relabelled design.
    pub aiger: String,
}

/// Generates the workload's inputs for `seed`, relabelling `variant`;
/// fails on a design name `sbm_epfl` does not know.
pub fn inputs(workload: &Workload, seed: u64, variant: usize) -> Result<Vec<Input>, String> {
    workload
        .designs
        .iter()
        .enumerate()
        .map(|(index, &design)| {
            let bench = sbm_epfl::benchmark(design, Scale::Reduced)
                .ok_or_else(|| format!("unknown EPFL design {design}"))?;
            let stream = splitmix64(((variant as u64) << 32) | index as u64);
            let mut state = splitmix64(seed ^ stream);
            Ok(Input {
                design,
                aiger: aiger::write(&relabel(&bench.aig, &mut state)),
            })
        })
        .collect()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        *state = splitmix64(*state);
        order.swap(i, (*state % (i as u64 + 1)) as usize);
    }
    order
}

/// Rebuilds `aig` with its primary inputs and outputs in a seeded
/// random order. The function per output is unchanged; only the
/// interface order, and with it node numbering, differs.
fn relabel(aig: &Aig, state: &mut u64) -> Aig {
    let in_order = permutation(aig.num_inputs(), state);
    let out_order = permutation(aig.num_outputs(), state);
    let mut out = Aig::new();
    // Old node index -> new literal; `topo_order` maps every fanin
    // before its fanouts, and node 0 is the constant in both networks.
    let mut map = vec![Lit::FALSE; aig.num_nodes()];
    for &old in &in_order {
        map[aig.inputs()[old].index()] = out.add_input();
    }
    let translate =
        |map: &[Lit], lit: Lit| map[lit.node().index()].complement_if(lit.is_complemented());
    for id in aig.topo_order() {
        let (a, b) = aig.fanins(id);
        map[id.index()] = out.and(translate(&map, a), translate(&map, b));
    }
    let outputs = aig.outputs();
    for &old in &out_order {
        let lit = translate(&map, aig.resolve(outputs[old]));
        out.add_output(lit);
    }
    out
}
