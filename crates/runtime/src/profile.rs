//! Per-super-instruction profiling.
//!
//! "Because basic operations are relatively time consuming, we can keep track
//! of very detailed performance metrics without an impact on performance."
//! Each worker records, per program counter: execution count, cumulative
//! busy time, and cumulative *wait* time (time blocked on block arrival,
//! chunk assignment, or barriers). Counters beyond the per-pc table live in
//! the unified [`Metrics`] registry the profile carries. The master merges
//! the per-worker profiles into a [`ProfileReport`] whose lines reference
//! the disassembled instruction, keeping the source↔profile relationship
//! transparent.
//!
//! Wait accounting happens at exactly one point — the `wait_until` call
//! sites feed [`Metrics::wait`] via [`WorkerProfile::add_wait`] — and
//! [`WorkerProfile::record`] only *attributes* wait to a pc. A blocked
//! instruction that retries (re-arms its fetch and waits again) therefore
//! cannot double-count wait into both the per-pc table and the totals.

use crate::events::TraceEvent;
use crate::json::{Document, Json};
use crate::metrics::{quiet, Merge, Metrics, WaitCause};
use sia_bytecode::{InstructionClass, Program};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// One worker's raw counters (shipped to the master in `WorkerDone`).
#[derive(Debug, Clone, Default)]
pub struct WorkerProfile {
    /// (count, busy nanos, wait nanos) indexed by pc, up to the highest pc
    /// executed; all zero for an instruction this worker never executed.
    pub per_pc: Vec<(u64, u64, u64)>,
    /// Total wall time of the worker's run in nanos.
    pub total_nanos: u64,
    /// Pardo iterations executed.
    pub iterations: u64,
    /// Pardo chunks the master granted this worker.
    pub chunks: u64,
    /// The unified counter registry (cache, memory, contraction, comm,
    /// wait causes, fault tolerance).
    pub metrics: Metrics,
    /// Trace events recorded by this rank (empty unless tracing is on).
    pub events: Vec<TraceEvent>,
    /// Trace events lost to ring overwrite on this rank.
    pub events_dropped: u64,
}

impl WorkerProfile {
    /// Records one instruction execution. `wait` is attribution only: it
    /// lands in the per-pc table, while the authoritative wait totals are
    /// accumulated once per actual blocked interval via [`add_wait`]
    /// (called from the wait sites themselves).
    ///
    /// [`add_wait`]: WorkerProfile::add_wait
    pub fn record(&mut self, pc: u32, busy: Duration, wait: Duration) {
        let pc = pc as usize;
        if pc >= self.per_pc.len() {
            self.per_pc.resize(pc + 1, (0, 0, 0));
        }
        let e = &mut self.per_pc[pc];
        e.0 += 1;
        e.1 += busy.as_nanos() as u64;
        e.2 += wait.as_nanos() as u64;
    }

    /// The single accounting point for wait totals: adds one blocked
    /// interval to the by-cause breakdown.
    pub fn add_wait(&mut self, cause: WaitCause, d: Duration) {
        self.metrics.wait.add(cause, d);
    }

    /// Total wait nanoseconds (sum of the by-cause breakdown).
    pub fn wait_nanos(&self) -> u64 {
        self.metrics.wait.total_nanos()
    }
}

/// One line of the merged report.
#[derive(Debug, Clone)]
pub struct ProfileLine {
    /// Program counter.
    pub pc: u32,
    /// Instruction class.
    pub class: InstructionClass,
    /// Disassembled instruction text.
    pub text: String,
    /// Executions summed over workers.
    pub count: u64,
    /// Busy time summed over workers.
    pub busy: Duration,
    /// Wait time summed over workers.
    pub wait: Duration,
}

/// The merged profile of a run.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-instruction lines, hottest (by busy time) first.
    pub lines: Vec<ProfileLine>,
    /// Per-worker total wall time.
    pub worker_totals: Vec<Duration>,
    /// Per-worker wait time.
    pub worker_waits: Vec<Duration>,
    /// Per-worker overlap: fraction of comm-flight time hidden under
    /// compute (`None` for workers that fetched nothing remote).
    pub worker_overlap: Vec<Option<f64>>,
    /// The merged counter registry (workers + master recovery + I/O
    /// servers + fabric injection).
    pub metrics: Metrics,
    /// The dry run's per-worker byte estimate (filled in by the runtime
    /// after the merge), so `--profile` can put the predicted and the
    /// observed peak side by side.
    pub dry_run_estimate_bytes: u64,
    /// Total pardo iterations executed.
    pub iterations: u64,
    /// Total pardo chunks granted: `iterations / chunks` is the grain the
    /// chunk policy scheduled at.
    pub chunks: u64,
}

impl ProfileReport {
    /// Merges per-worker profiles against the program for disassembly.
    pub fn merge(program: &Program, profiles: &[WorkerProfile]) -> Self {
        let mut per_pc: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
        let mut metrics = Metrics::default();
        let (mut iterations, mut chunks) = (0, 0);
        for p in profiles {
            for (pc, &(c, b, w)) in p.per_pc.iter().enumerate().filter(|(_, e)| e.0 > 0) {
                let e = per_pc.entry(pc as u32).or_insert((0, 0, 0));
                e.0 += c;
                e.1 += b;
                e.2 += w;
            }
            metrics.merge(&p.metrics);
            iterations += p.iterations;
            chunks += p.chunks;
        }
        let mut lines: Vec<ProfileLine> = per_pc
            .into_iter()
            .map(|(pc, (count, busy, wait))| {
                let ins = program.code.get(pc as usize);
                ProfileLine {
                    pc,
                    class: ins
                        .map(sia_bytecode::Instruction::class)
                        .unwrap_or(InstructionClass::Control),
                    text: ins
                        .map(|i| sia_bytecode::disasm::disassemble_instruction(program, i))
                        .unwrap_or_else(|| "?".into()),
                    count,
                    busy: Duration::from_nanos(busy),
                    wait: Duration::from_nanos(wait),
                }
            })
            .collect();
        lines.sort_by_key(|l| std::cmp::Reverse(l.busy));
        ProfileReport {
            lines,
            worker_totals: profiles
                .iter()
                .map(|p| Duration::from_nanos(p.total_nanos))
                .collect(),
            worker_waits: profiles
                .iter()
                .map(|p| Duration::from_nanos(p.wait_nanos()))
                .collect(),
            worker_overlap: profiles.iter().map(|p| p.metrics.comm.overlap()).collect(),
            metrics,
            dry_run_estimate_bytes: 0,
            iterations,
            chunks,
        }
    }

    /// Total busy time over all instructions and workers.
    pub fn total_busy(&self) -> Duration {
        self.lines.iter().map(|l| l.busy).sum()
    }

    /// Total wait time over all workers.
    pub fn total_wait(&self) -> Duration {
        self.worker_waits.iter().sum()
    }

    /// Wait time as a fraction of total worker wall time (the paper's
    /// headline overlap metric: 8.4–13.4% in Figure 2).
    pub fn wait_fraction(&self) -> f64 {
        let total: Duration = self.worker_totals.iter().sum();
        if total.is_zero() {
            return 0.0;
        }
        self.total_wait().as_secs_f64() / total.as_secs_f64()
    }

    /// Fleet-wide overlap: fraction of comm-flight time hidden under
    /// compute, over all workers' flights. `None` when nothing flew.
    pub fn overlap(&self) -> Option<f64> {
        self.metrics.comm.overlap()
    }

    /// The machine-readable profile (the `--profile-json` payload,
    /// `sia.profile.v1`): schema marker, headline numbers, the overlap
    /// metric, the metrics object of [`Metrics::to_json`], per-worker
    /// figures, and the per-pc lines.
    pub fn to_json(&self) -> String {
        let ns = |d: Duration| Json::from(d.as_nanos() as u64);
        let workers = self.worker_totals.iter().enumerate().map(|(i, &total)| {
            let wait = self.worker_waits.get(i).copied().unwrap_or_default();
            Json::obj([("total_ns", ns(total)), ("wait_ns", ns(wait))])
        });
        let lines = self.lines.iter().map(|l| {
            Json::obj([
                ("pc", l.pc.into()),
                ("class", format!("{:?}", l.class).into()),
                ("count", l.count.into()),
                ("busy_ns", ns(l.busy)),
                ("wait_ns", ns(l.wait)),
                ("text", l.text.as_str().into()),
            ])
        });
        Json::obj([
            ("schema", "sia.profile.v1".into()),
            ("iterations", self.iterations.into()),
            ("chunks", self.chunks.into()),
            ("total_busy_ns", ns(self.total_busy())),
            ("total_wait_ns", ns(self.total_wait())),
            ("wait_fraction", self.wait_fraction().into()),
            ("dry_run_estimate_bytes", self.dry_run_estimate_bytes.into()),
            (
                "overlap",
                Json::obj([
                    ("mean", self.overlap().into()),
                    (
                        "per_worker",
                        self.worker_overlap.iter().map(|&o| o.into()).collect(),
                    ),
                ]),
            ),
            ("workers", workers.collect()),
            ("metrics", self.metrics.to_json()),
            ("lines", lines.collect()),
        ])
        .to_string()
    }
}

/// Validates the `--profile-json` export: the `sia.profile.v1` schema
/// marker and the required top-level members.
pub fn lint_profile_json(doc: &(impl Document + ?Sized)) -> Result<(), String> {
    let doc = doc.tree()?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sia.profile.v1") => {}
        other => return Err(format!("bad schema marker {other:?}")),
    }
    for key in [
        "iterations",
        "wait_fraction",
        "total_busy_ns",
        "total_wait_ns",
    ] {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric {key}"))?;
    }
    let overlap = doc.get("overlap").ok_or("missing overlap")?;
    overlap
        .get("per_worker")
        .and_then(Json::as_array)
        .ok_or("missing overlap.per_worker")?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("missing metrics object")?;
    for name in ["cache", "memory", "comm", "wait"] {
        if !metrics.iter().any(|(k, _)| k == name) {
            return Err(format!("missing metrics.{name}"));
        }
    }
    doc.get("lines")
        .and_then(Json::as_array)
        .ok_or("missing lines array")?;
    Ok(())
}

impl fmt::Display for ProfileReport {
    /// The one text renderer: a headline, the unified metrics sections
    /// (driven by the same model as the JSON export), the overlap line,
    /// and the hottest-instructions table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SIP profile: {} iterations in {} chunks, wait fraction {:.1}%",
            self.iterations,
            self.chunks,
            self.wait_fraction() * 100.0
        )?;
        match self.overlap() {
            Some(v) => {
                let per_worker: Vec<String> = self
                    .worker_overlap
                    .iter()
                    .map(|o| match o {
                        Some(v) => format!("{:.0}%", v * 100.0),
                        None => "-".into(),
                    })
                    .collect();
                writeln!(
                    f,
                    "overlap: {:.1}% of comm-flight time hidden under compute \
                     (per worker: {})",
                    v * 100.0,
                    per_worker.join(", ")
                )?;
            }
            None => writeln!(f, "overlap: no remote block fetches")?,
        }
        if self.dry_run_estimate_bytes > 0 || !quiet(&self.metrics.memory) {
            writeln!(
                f,
                "memory plan: dry run predicted {} bytes/worker",
                self.dry_run_estimate_bytes
            )?;
        }
        write!(f, "{}", self.metrics)?;
        writeln!(
            f,
            "{:>5} {:>10} {:>12} {:>12}  instruction",
            "pc", "count", "busy", "wait"
        )?;
        for l in self.lines.iter().take(25) {
            writeln!(
                f,
                "{:>5} {:>10} {:>12?} {:>12?}  {}",
                l.pc, l.count, l.busy, l.wait, l.text
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut p = WorkerProfile::default();
        p.record(3, Duration::from_micros(10), Duration::from_micros(2));
        p.record(3, Duration::from_micros(5), Duration::ZERO);
        let (c, b, w) = p.per_pc[3];
        assert_eq!(c, 2);
        assert_eq!(b, 15_000);
        assert_eq!(w, 2_000);
    }

    /// Regression for the wait double-count: a blocked instruction that
    /// retries passes its (already counted) wait to `record` again, but
    /// the totals are fed only by `add_wait` — one call per actual
    /// blocked interval — so re-recording can't inflate them.
    #[test]
    fn retried_record_cannot_double_count_wait() {
        let mut p = WorkerProfile::default();
        let blocked = Duration::from_micros(7);
        // The actual blocked interval is accounted once, at the wait site.
        p.add_wait(WaitCause::SipBarrier, blocked);
        // The instruction is recorded, then retried after a re-arm and
        // recorded again with the same attributed wait.
        p.record(4, Duration::from_micros(1), blocked);
        p.record(4, Duration::from_micros(1), blocked);
        assert_eq!(p.wait_nanos(), 7_000, "totals come from add_wait alone");
        assert_eq!(p.metrics.wait.get(WaitCause::SipBarrier), 7_000);
        // Per-pc attribution did accumulate both records (it is a
        // breakdown of where waits were observed, not a second total).
        assert_eq!(p.per_pc[4].2, 14_000);
    }

    #[test]
    fn merge_sums_workers() {
        let program = Program {
            code: vec![sia_bytecode::Instruction::Halt],
            ..Default::default()
        };
        let mut a = WorkerProfile::default();
        a.record(0, Duration::from_micros(5), Duration::from_micros(1));
        a.add_wait(WaitCause::BlockArrival, Duration::from_micros(1));
        a.total_nanos = 10_000;
        a.iterations = 3;
        let mut b = WorkerProfile::default();
        b.record(0, Duration::from_micros(7), Duration::from_micros(3));
        b.add_wait(WaitCause::ChunkAssign, Duration::from_micros(3));
        b.total_nanos = 10_000;
        b.iterations = 4;
        let r = ProfileReport::merge(&program, &[a, b]);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].count, 2);
        assert_eq!(r.lines[0].busy, Duration::from_micros(12));
        assert_eq!(r.iterations, 7);
        assert!((r.wait_fraction() - 0.2).abs() < 1e-9);
        assert_eq!(r.metrics.wait.total_nanos(), 4_000);
    }

    #[test]
    fn lines_sorted_by_busy() {
        let program = Program {
            code: vec![
                sia_bytecode::Instruction::Halt,
                sia_bytecode::Instruction::SipBarrier,
            ],
            ..Default::default()
        };
        let mut a = WorkerProfile::default();
        a.record(0, Duration::from_micros(1), Duration::ZERO);
        a.record(1, Duration::from_micros(9), Duration::ZERO);
        let r = ProfileReport::merge(&program, &[a]);
        assert_eq!(r.lines[0].pc, 1);
        assert_eq!(r.lines[0].class, InstructionClass::Sync);
    }

    #[test]
    fn wait_fraction_zero_when_empty() {
        let r = ProfileReport::default();
        assert_eq!(r.wait_fraction(), 0.0);
    }

    #[test]
    fn profile_json_lints() {
        let program = Program {
            code: vec![sia_bytecode::Instruction::Halt],
            ..Default::default()
        };
        let mut a = WorkerProfile::default();
        a.record(0, Duration::from_micros(5), Duration::from_micros(1));
        a.add_wait(WaitCause::BlockArrival, Duration::from_micros(1));
        a.metrics.comm.fetches = 2;
        a.metrics.comm.flight_nanos = 1_000;
        a.metrics.comm.exposed_nanos = 250;
        a.total_nanos = 10_000;
        let mut r = ProfileReport::merge(&program, &[a]);
        r.dry_run_estimate_bytes = 4096;
        let doc = crate::json::parse_json(&r.to_json()).unwrap();
        lint_profile_json(&doc).expect("profile json lints");
        let mean = doc
            .get("overlap")
            .and_then(|o| o.get("mean"))
            .and_then(Json::as_f64)
            .expect("overlap mean present");
        assert!((mean - 0.75).abs() < 1e-9);
    }
}
