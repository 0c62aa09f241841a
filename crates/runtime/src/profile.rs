//! Per-super-instruction profiling.
//!
//! "Because basic operations are relatively time consuming, we can keep track
//! of very detailed performance metrics without an impact on performance."
//! Each worker records, per program counter: execution count, busy time, and
//! *wait* time (time blocked on block arrival, chunk assignment, or
//! barriers). Counts and waits are exact. Busy time is exact per worker —
//! its run time minus its waits — and split across pcs in proportion to the
//! samples the process-wide sampler took ([`crate::sampler`]), so an
//! instruction boundary reads no clock. Counters beyond the per-pc table
//! live in the unified [`Metrics`] registry the profile carries. The master
//! merges the per-worker profiles into a [`ProfileReport`] whose lines
//! reference the disassembled instruction, keeping the source↔profile
//! relationship transparent.
//!
//! Wait accounting happens at exactly one point — the `wait_until` call
//! sites feed [`Metrics::wait`] and the waiting instruction's per-pc wait
//! together, via [`WorkerProfile::add_wait`] — so no wait is counted twice.

use crate::json::{Document, Json};
use crate::metrics::{quiet, Merge, Metrics, WaitCause};
use crate::sampler::SAMPLE_TICK;
use sia_bytecode::{InstructionClass, Program};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// One worker's raw counters (shipped to the master in `WorkerDone`).
#[derive(Debug, Clone, Default)]
pub struct WorkerProfile {
    /// (count, busy nanos, wait nanos) indexed by pc; all zero for an
    /// instruction this worker never executed.
    pub per_pc: Vec<(u64, u64, u64)>,
    /// Total wall time of the worker's run in nanos.
    pub total_nanos: u64,
    /// Busy-time samples the sampler took of this worker's run.
    pub samples: u64,
    /// Pardo iterations executed.
    pub iterations: u64,
    /// Pardo chunks the master granted this worker.
    pub chunks: u64,
    /// The unified counter registry (cache, memory, contraction, comm,
    /// wait causes, fault tolerance).
    pub metrics: Metrics,
}

impl WorkerProfile {
    /// An empty profile of a program of `pcs` instructions.
    pub fn for_program(pcs: usize) -> Self {
        WorkerProfile {
            per_pc: vec![(0, 0, 0); pcs],
            ..WorkerProfile::default()
        }
    }

    /// Counts one execution of the instruction at `pc`.
    #[inline]
    pub fn record(&mut self, pc: u32) {
        if let Some(e) = self.per_pc.get_mut(pc as usize) {
            e.0 += 1;
        }
    }

    /// The single accounting point for waits: adds one blocked interval to
    /// the by-cause breakdown and, when it blocked an instruction, to that
    /// instruction's per-pc wait.
    pub fn add_wait(&mut self, cause: WaitCause, d: Duration, pc: Option<usize>) {
        self.metrics.wait.add(cause, d);
        if let Some(e) = pc.and_then(|pc| self.per_pc.get_mut(pc)) {
            e.2 += d.as_nanos() as u64;
        }
    }

    /// Total wait nanoseconds (sum of the by-cause breakdown).
    pub fn wait_nanos(&self) -> u64 {
        self.metrics.wait.total_nanos()
    }

    /// Splits `busy` nanoseconds across the pcs in proportion to
    /// `samples(pc)`, exactly: the parts sum to `busy`, the rounding
    /// remainder going to the most-sampled pc. A worker that took no sample
    /// (a run shorter than a tick) splits by execution count instead.
    pub fn apportion_busy(&mut self, busy: u64, samples: impl Fn(usize) -> u64) {
        let sampled: u64 = (0..self.per_pc.len()).map(&samples).sum();
        self.samples = sampled;
        let weight = |pc: usize, e: &(u64, u64, u64)| match sampled {
            0 => e.0,
            _ => samples(pc),
        };
        let total: u64 = self
            .per_pc
            .iter()
            .enumerate()
            .map(|(pc, e)| weight(pc, e))
            .sum();
        if total == 0 {
            return;
        }
        let (mut given, mut heaviest) = (0, (0, 0));
        for pc in 0..self.per_pc.len() {
            let w = weight(pc, &self.per_pc[pc]);
            let part = (u128::from(busy) * u128::from(w) / u128::from(total)) as u64;
            self.per_pc[pc].1 = part;
            given += part;
            if w > heaviest.1 {
                heaviest = (pc, w);
            }
        }
        self.per_pc[heaviest.0].1 += busy - given;
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
    /// Busy-time samples, summed over workers, that split each worker's
    /// busy time across the lines.
    pub samples: u64,
}

impl ProfileReport {
    /// Merges per-worker profiles against the program for disassembly.
    pub fn merge(program: &Program, profiles: &[WorkerProfile]) -> Self {
        let mut per_pc: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
        let mut metrics = Metrics::default();
        let (mut iterations, mut chunks, mut samples) = (0, 0, 0);
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
            samples += p.samples;
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
            samples,
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
    /// figures, and the per-pc lines. `sample_tick_ns` and `samples` say
    /// what the lines' busy split rests on.
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
            ("sample_tick_ns", ns(SAMPLE_TICK)),
            ("samples", self.samples.into()),
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
        "sample_tick_ns",
        "samples",
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
            "SIP profile: {} iterations in {} chunks, wait fraction {:.1}%, \
             busy split by {} samples at {:?}",
            self.iterations,
            self.chunks,
            self.wait_fraction() * 100.0,
            self.samples,
            SAMPLE_TICK
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

    /// A profile of `pcs` instructions that executed pc `i` `counts[i]`
    /// times, busy `busy[i]` µs.
    fn profile(counts: &[u64], busy_us: &[u64]) -> WorkerProfile {
        let mut p = WorkerProfile::for_program(counts.len());
        for (pc, &n) in counts.iter().enumerate() {
            (0..n).for_each(|_| p.record(pc as u32));
        }
        let busy: u64 = busy_us.iter().sum::<u64>() * 1_000;
        p.apportion_busy(busy, |pc| busy_us.get(pc).copied().unwrap_or(0));
        p
    }

    #[test]
    fn record_accumulates() {
        let mut p = WorkerProfile::for_program(4);
        p.record(3);
        p.record(3);
        p.record(9); // past the program: nothing to count
        assert_eq!(p.per_pc[3], (2, 0, 0));
        assert_eq!(p.per_pc.iter().map(|e| e.0).sum::<u64>(), 2);
    }

    /// Regression for the wait double-count: a blocked instruction that
    /// retries is recorded again, but a wait lands — in the totals and in
    /// its pc — only at `add_wait`, once per actual blocked interval. A wait
    /// outside any instruction reaches the totals alone.
    #[test]
    fn retried_record_cannot_double_count_wait() {
        let mut p = WorkerProfile::for_program(5);
        p.record(4);
        p.add_wait(WaitCause::SipBarrier, Duration::from_micros(7), Some(4));
        p.record(4);
        assert_eq!(p.per_pc[4], (2, 0, 7_000));
        p.add_wait(WaitCause::SipBarrier, Duration::from_micros(5), None);
        assert_eq!(p.wait_nanos(), 12_000, "totals hold every wait");
        assert_eq!(p.metrics.wait.get(WaitCause::SipBarrier), 12_000);
        assert_eq!(p.per_pc[4].2, 7_000);
    }

    #[test]
    fn busy_splits_by_samples_exactly() {
        let mut p = WorkerProfile::for_program(3);
        p.record(0);
        p.record(1);
        p.record(2);
        let samples = [1, 0, 2];
        p.apportion_busy(1_000, |pc| samples[pc]);
        assert_eq!(p.samples, 3);
        // 333 + 0 + 666 = 999: the remainder goes to the most-sampled pc.
        assert_eq!(
            p.per_pc.iter().map(|e| e.1).collect::<Vec<_>>(),
            [333, 0, 667]
        );
    }

    #[test]
    fn an_unsampled_worker_splits_by_execution_count() {
        let mut p = WorkerProfile::for_program(2);
        p.record(0);
        (0..3).for_each(|_| p.record(1));
        p.apportion_busy(800, |_| 0);
        assert_eq!(p.samples, 0);
        assert_eq!((p.per_pc[0].1, p.per_pc[1].1), (200, 600));
    }

    #[test]
    fn merge_sums_workers() {
        let program = Program {
            code: vec![sia_bytecode::Instruction::Halt],
            ..Default::default()
        };
        let mut a = profile(&[1], &[5]);
        a.add_wait(WaitCause::BlockArrival, Duration::from_micros(1), Some(0));
        a.total_nanos = 10_000;
        a.iterations = 3;
        let mut b = profile(&[1], &[7]);
        b.add_wait(WaitCause::ChunkAssign, Duration::from_micros(3), Some(0));
        b.total_nanos = 10_000;
        b.iterations = 4;
        let r = ProfileReport::merge(&program, &[a, b]);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].count, 2);
        assert_eq!(r.lines[0].busy, Duration::from_micros(12));
        assert_eq!(r.lines[0].wait, Duration::from_micros(4));
        assert_eq!(r.iterations, 7);
        assert_eq!(r.samples, 12);
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
        let r = ProfileReport::merge(&program, &[profile(&[1, 1], &[1, 9])]);
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
        let mut a = profile(&[1], &[5]);
        a.add_wait(WaitCause::BlockArrival, Duration::from_micros(1), Some(0));
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
        let tick = doc.get("sample_tick_ns").and_then(Json::as_f64);
        assert_eq!(tick, Some(SAMPLE_TICK.as_nanos() as f64));
        assert_eq!(doc.get("samples").and_then(Json::as_f64), Some(5.0));
    }
}
