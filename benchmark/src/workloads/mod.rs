//! The four workloads. Each runs set-up (timed as `setup_s`), then a fixed
//! number of closed-loop ops, checks every op's output, and returns what it
//! measured; `main` turns that into the reported metrics.

pub mod flowd;
pub mod mesh;
pub mod replay;

use crate::metrics::Layers;
use crate::trace::Tracer;
use std::path::PathBuf;

/// The mesh workloads' generator seed. Pinned: `scale_mesh`'s seed moves the
/// synthesized size by +-12 % (27k-35k cells at the 20k target), which would
/// turn `--seed` into a size knob; `--seed` is the flow seed instead, which
/// leaves the size alone and moves the routed work by about 2 %.
pub const MESH_GENERATOR_SEED: u64 = 1;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub tracer: Tracer,
    /// Workload seed: the flow seed of every request (`FlowConfig::seed`,
    /// `SubmitSpec::seed`), i.e. the stochastic choices of placement and
    /// routing on the workload's stated designs.
    pub seed: u64,
    /// `--seconds`: sets the fixed op count, see [`Ctx::ops`].
    pub seconds: f64,
    /// `--quick`: one op on small inputs (smoke test of the harness).
    pub quick: bool,
    /// Per-run scratch directory for store files and sockets, relative to
    /// the working directory; removed when the run ends.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// The number of timed ops: `--seconds` divided by the op's nominal
    /// wall on the sizing host, at least 1. A count — never a time box — so
    /// two runs with the same arguments do the same work.
    pub fn ops(&self, nominal_op_s: f64) -> usize {
        if self.quick {
            return 1;
        }
        ((self.seconds / nominal_op_s).floor() as usize).max(1)
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Wall seconds of every timed op that completed, passed or not.
    pub op_walls: Vec<f64>,
    /// Wall seconds from the first timed op's start to the last one's end.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// QoR fingerprints, printed for the record and never gated.
    pub fingerprints: Vec<(String, u64)>,
    /// Per-layer samples (traced runs only).
    pub layers: Layers,
    /// Why ops failed, for the human-readable output.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one timed op that ended without a result to time.
    pub fn lost(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    /// Counts one timed op.
    pub fn op(&mut self, wall_s: f64, passed: Result<(), String>) {
        self.attempted += 1;
        self.op_walls.push(wall_s);
        if let Err(why) = passed {
            self.failed += 1;
            self.failures.push(why);
        }
    }
}

/// A set-up step that did not produce what the timed ops need. Nothing can
/// be measured after it, so the run ends without a result.
#[derive(Debug)]
pub struct SetupError(pub String);

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "set-up failed: {}", self.0)
    }
}

impl std::error::Error for SetupError {}

/// Wraps any displayable error as a [`SetupError`] with context.
pub fn setup_err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> SetupError {
    move |e| SetupError(format!("{what}: {e}"))
}
