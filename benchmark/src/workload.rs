//! What every workload gives the harness.

use crate::json::Json;
use crate::probes::ProbeInput;
use crate::spans::{SpanId, Spans};
use sia_runtime::RunOutput;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["ccsd_dense", "putget_fine", "served_sweep", "serve_mix"];

/// The workloads whose time is wake-ups between threads, which run on one
/// CPU (see `host::restrict_this_thread`). `ccsd_dense` computes on two.
pub const ON_ONE_CPU: [&str; 3] = ["putget_fine", "served_sweep", "serve_mix"];

pub trait Workload {
    /// Everything between generated inputs and the first run: compile,
    /// verify, plan, start-up. Part of `setup_s`.
    fn prepare(&mut self, spans: &Spans, parent: SpanId) -> Result<(), String>;

    /// One repeat: the unit `wall_s` times. `traced` turns the program's own
    /// event recording on and fills [`Repeat::runs`].
    fn repeat(&mut self, traced: bool, spans: &Spans, parent: SpanId) -> Repeat;

    /// The program, configuration and block shape the layer probes use.
    fn probe_input(&self) -> &ProbeInput;

    /// Deletes what finished repeats left on disk. Never inside a timed
    /// region.
    fn tidy(&mut self);
}

/// What one repeat did.
#[derive(Default)]
pub struct Repeat {
    /// Seconds the repeat took: data directory, run and check for a
    /// one-program workload, the whole round for `serve_mix`. Reading the
    /// run's facts back for the layer metrics is not part of it.
    pub wall_s: f64,
    /// Operations attempted: 1 for a one-program workload, the jobs of a
    /// `serve_mix` round.
    pub attempted: u64,
    /// One line per failed operation; a wrong result is a failure.
    pub failures: Vec<String>,
    /// Kind and submit→done seconds of each job: one `Sip::run` (`"run"`),
    /// or one daemon job (`"dense"`, `"sparse"`, `"served"`).
    pub jobs: Vec<(&'static str, f64)>,
    /// Per-run facts for the layer metrics (traced repeats only).
    pub runs: Vec<RunFacts>,
}

impl Repeat {
    /// A repeat that could not start.
    pub fn failed(why: impl Into<String>) -> Self {
        Repeat {
            attempted: 1,
            failures: vec![why.into()],
            ..Repeat::default()
        }
    }
}

/// What the harness can see of one finished run from outside.
pub struct RunFacts {
    /// The run's `sia.profile.v1` document.
    pub profile: Json,
    pub messages: f64,
    pub bytes: f64,
    pub events: f64,
    pub events_dropped: f64,
    /// `serve_mix` only: what `JobStatus` says about the job.
    pub job: Option<JobFacts>,
}

pub struct JobFacts {
    pub queued_ms: f64,
    pub run_ms: f64,
    /// Share of the job's iteration space granted per second of run time,
    /// the quantity the Jain index is taken over.
    pub rate: f64,
}

impl RunFacts {
    pub fn from_run(out: &RunOutput) -> Self {
        let ranks = out.trace.as_ref().map_or(&[][..], |t| &t.ranks);
        RunFacts {
            profile: Json::parse(&out.profile.to_json()).unwrap_or(Json::Null),
            messages: out.traffic.messages as f64,
            bytes: out.traffic.bytes as f64,
            events: ranks.iter().map(|r| r.events.len() as f64).sum(),
            events_dropped: ranks.iter().map(|r| r.dropped as f64).sum(),
            job: None,
        }
    }
}

/// The seeded generator behind every generated input (splitmix64).
pub struct Seed(u64);

impl Seed {
    pub fn new(seed: u64) -> Self {
        Seed(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fill coefficient in `0.250..=1.249`, exact in three decimals so
    /// the SIAL text and the closed form read the same number.
    pub fn coeff(&mut self) -> f64 {
        (250 + self.next() % 1000) as f64 / 1000.0
    }
}

/// `got` within 1e-9 relative (plus `abs_tol`) of `want`.
pub fn close(got: f64, want: f64, abs_tol: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs() + abs_tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_repeats_and_differs() {
        let draw = |s| {
            let mut g = Seed::new(s);
            [g.coeff(), g.coeff(), g.coeff()]
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(draw(0).iter().all(|c| (0.25..1.25).contains(c)));
        assert_eq!(format!("{}", 0.734_f64), "0.734");
    }

    #[test]
    fn close_is_relative() {
        assert!(close(1e9 + 0.5, 1e9, 0.0));
        assert!(!close(1.0 + 1e-8, 1.0, 0.0));
        assert!(close(1.0 + 1e-8, 1.0, 1e-7));
        assert!(!close(f64::NAN, 1.0, 0.0));
    }
}
