//! The three activities. Each module opens with why it was chosen and
//! which layers it loads and bypasses.
//!
//! Every run measures all three activities, so every run reports every
//! end-to-end metric; the workload named on the command line picks
//! whose set-up time and peak memory are reported. The activities are
//! set up once, then take equal turns in short windows for the whole
//! run, so each one samples the whole run
//! rather than one stretch of it: on a shared host whose speed swings
//! from one second to the next, that keeps a slow stretch from landing
//! on one activity alone.

pub mod anti_entropy;
pub mod iterate;
pub mod read_mix;

use crate::stats::Samples;
use crate::trace::Span;
use crate::wrap::RtCounts;
use std::path::PathBuf;
use std::time::Duration;

/// A workload name as given on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Threaded membership reads under three policies with churn.
    ReadMix,
    /// `elements` enumerations of a few thousand members under churn.
    Iterate,
    /// Push-pull exchanges between two 10^6-dot replicas.
    AntiEntropy,
}

impl Workload {
    /// Every workload, in the order the activities take turns.
    pub const ALL: [Workload; 3] = [
        Workload::ReadMix,
        Workload::Iterate,
        Workload::AntiEntropy,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMix => "read_mix",
            Workload::Iterate => "iterate",
            Workload::AntiEntropy => "anti_entropy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sets up (and warms up) this workload's activity.
    pub fn set_up(self, cfg: &PhaseCfg) -> Box<dyn Activity> {
        match self {
            Workload::ReadMix => Box::new(read_mix::ReadMix::set_up(cfg)),
            Workload::Iterate => Box::new(iterate::Iterate::set_up(cfg)),
            Workload::AntiEntropy => Box::new(anti_entropy::AntiEntropy::set_up(cfg)),
        }
    }
}

/// One activity, set up and warmed up, measured in windows.
pub trait Activity {
    /// Median set-up time, in seconds.
    fn setup_s(&self) -> f64;
    /// Measures for about `dur` (whole units: an activity whose unit of
    /// work is longer finishes the unit). Traced windows record spans
    /// and feed the per-layer metrics; untraced windows feed the
    /// end-to-end metrics.
    fn window(&mut self, dur: Duration, traced: bool);
    /// Computes the metrics and tears the activity down.
    fn finish(self: Box<Self>) -> PhaseOut;
}

/// How to set up an activity.
#[derive(Clone, Debug)]
pub struct PhaseCfg {
    /// Input seed.
    pub seed: u64,
    /// How many times to set up; the median set-up time is reported.
    pub setup_reps: usize,
    /// Wrap the services for per-layer timing.
    pub trace: bool,
    /// Where the run may write files (flight-recorder dumps).
    pub out: PathBuf,
}

/// Runtime-layer readings from the traced window of a threaded
/// activity, pooled across activities by the caller.
#[derive(Debug, Default)]
pub struct RtLayer {
    /// Rpc durations.
    pub rpc: Samples,
    /// Rpc self time: the rpc minus its handler span.
    pub transit: Samples,
    /// Transport counts.
    pub counts: RtCounts,
}

/// What one activity reports when it finishes.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Operations attempted (reads, writes, enumerations, exchanges).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run
    /// incorrect.
    pub check_failures: Vec<String>,
    /// End-to-end metrics owned by this activity.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
    /// Runtime-layer readings (traced threaded runs only).
    pub rt: Option<RtLayer>,
    /// Spans of the traced window.
    pub spans: Vec<Span>,
}

/// Tracing overhead of a traced activity, in percent: how much slower
/// its operations are in traced windows than in untraced ones. Each
/// slice holds one sample set per operation group (e.g. per iterator
/// semantics), so windows that ran the groups in different proportions
/// still compare: each group's median counts once. Medians, not means:
/// one stall on the shared host would move a mean.
///
/// There is no separate self-time closure figure: the self times of a
/// traced operation's spans partition its duration exactly (child spans
/// run one after another on the operation's thread), so they add up to
/// the traced time by construction, and their gap to the untraced time
/// is this overhead.
pub fn overhead(untraced: &[Samples], traced: &[Samples]) -> f64 {
    let total = |groups: &[Samples]| -> f64 {
        groups
            .iter()
            .map(|g| g.clone().quantile_ns(0.5).unwrap_or(f64::NAN))
            .sum()
    };
    (total(traced) / total(untraced) - 1.0) * 100.0
}

/// Builds with `build` `reps` times (at least once), tearing each
/// earlier build down with `stop`, and returns the last build with the
/// median build time in seconds.
pub fn set_up_repeatedly<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut stop: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(t) = kept.take() {
            stop(t);
        }
        let t0 = std::time::Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one build"),
        crate::stats::median(&times),
    )
}

/// The `q`-quantile of `s` in microseconds, or NaN when empty (a NaN
/// metric is refused when the result is written).
pub fn q_us(s: &mut Samples, q: f64) -> f64 {
    s.quantile_us(q).unwrap_or(f64::NAN)
}
