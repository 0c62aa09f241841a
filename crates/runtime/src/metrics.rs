//! The unified metrics model.
//!
//! Every counter the runtime keeps — cache, memory, contraction, comm
//! flights, wait causes, fault tolerance, recovery, I/O servers, fabric
//! injection — lives behind one [`Metrics`] registry with one merge
//! discipline (the [`Merge`] trait), one JSON export and one text
//! renderer, both driven by the same [`Section`] model. Workers carry
//! a `Metrics` in their [`WorkerProfile`](crate::profile::WorkerProfile);
//! the master folds them (plus its own recovery counters and the I/O
//! servers' counters) into the merged registry surfaced by
//! [`ProfileReport`](crate::profile::ProfileReport).
//!
//! The paper's SIP "keeps track of very detailed performance metrics
//! without an impact on performance"; all counters here are plain integer
//! adds on paths that already do block-sized work.

use crate::json::Json;
use std::fmt;

/// One merge discipline for every counter group.
///
/// Replaces the old per-struct conventions (`FaultStats::absorb`,
/// `MemoryStats::absorb`, `ContractStats::merge`, ad-hoc `+=` loops):
/// every group documents its semantics (sum vs per-rank maximum) in its
/// one `merge` impl, and [`Metrics::merge`] delegates to all of them.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// True when a counter group is all-default (nothing to report).
pub fn quiet<T: Default + PartialEq>(t: &T) -> bool {
    *t == T::default()
}

/// Why a worker was blocked. Every `wait_until` in the runtime attributes
/// its elapsed time to exactly one cause, giving the `--profile` wait
/// breakdown and the trace wait spans a shared vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitCause {
    /// Waiting for a remote block to arrive (GET/REQUEST reply).
    BlockArrival,
    /// Waiting for the master to assign a pardo chunk.
    ChunkAssign,
    /// Waiting for a sip_barrier release.
    SipBarrier,
    /// Waiting for a server_barrier release (served-array epoch commit).
    ServerBarrier,
    /// Draining outstanding PUT/PREPARE acks before a barrier.
    AckDrain,
    /// Waiting for a collective (sip_allreduce) result.
    Collective,
    /// Waiting for checkpoint save/restore round-trips.
    Checkpoint,
    /// Waiting on recovery work (takeover replays, inherited acks).
    Recovery,
}

impl WaitCause {
    /// All causes, in stable report order.
    pub const ALL: [WaitCause; 8] = [
        WaitCause::BlockArrival,
        WaitCause::ChunkAssign,
        WaitCause::SipBarrier,
        WaitCause::ServerBarrier,
        WaitCause::AckDrain,
        WaitCause::Collective,
        WaitCause::Checkpoint,
        WaitCause::Recovery,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            WaitCause::BlockArrival => 0,
            WaitCause::ChunkAssign => 1,
            WaitCause::SipBarrier => 2,
            WaitCause::ServerBarrier => 3,
            WaitCause::AckDrain => 4,
            WaitCause::Collective => 5,
            WaitCause::Checkpoint => 6,
            WaitCause::Recovery => 7,
        }
    }

    /// Machine-readable key (JSON field name).
    pub fn key(self) -> &'static str {
        match self {
            WaitCause::BlockArrival => "block_arrival",
            WaitCause::ChunkAssign => "chunk_assign",
            WaitCause::SipBarrier => "sip_barrier",
            WaitCause::ServerBarrier => "server_barrier",
            WaitCause::AckDrain => "ack_drain",
            WaitCause::Collective => "collective",
            WaitCause::Checkpoint => "checkpoint",
            WaitCause::Recovery => "recovery",
        }
    }

    /// Human label for the rendered report and trace span names.
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::BlockArrival => "block arrival",
            WaitCause::ChunkAssign => "chunk assignment",
            WaitCause::SipBarrier => "sip barrier",
            WaitCause::ServerBarrier => "server barrier",
            WaitCause::AckDrain => "ack drain",
            WaitCause::Collective => "collective",
            WaitCause::Checkpoint => "checkpoint",
            WaitCause::Recovery => "recovery",
        }
    }
}

/// Wall time blocked, attributed by [`WaitCause`]. Nanoseconds.
///
/// This is the *single* accounting point for wait totals: the per-pc wait
/// column in the profile is attribution only, so a blocked instruction
/// that retries (re-arms its fetch and waits again) can never double-count
/// into a total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Nanoseconds blocked, indexed by `WaitCause::index`.
    pub nanos: [u64; 8],
}

impl WaitStats {
    /// Adds `d` to one cause.
    pub fn add(&mut self, cause: WaitCause, d: std::time::Duration) {
        self.nanos[cause.index()] += d.as_nanos() as u64;
    }

    /// Nanoseconds attributed to one cause.
    pub fn get(&self, cause: WaitCause) -> u64 {
        self.nanos[cause.index()]
    }

    /// Total wait nanoseconds over all causes.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

impl Merge for WaitStats {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
    }
}

/// Communication-flight counters: the data behind the overlap metric.
///
/// A *flight* is the interval from issuing a remote block fetch
/// (GET/REQUEST) to its `Block` arrival. The *exposed* share is the
/// part the worker spent blocked waiting for that specific block; the
/// rest was hidden under computation (the paper's prefetch/look-ahead
/// claim, measured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Remote block fetches completed (GET/REQUEST round-trips).
    pub fetches: u64,
    /// Total nanoseconds fetches spent in flight.
    pub flight_nanos: u64,
    /// Nanoseconds of flight time the worker spent blocked on the block.
    pub exposed_nanos: u64,
    /// PUT round-trips acknowledged.
    pub puts_acked: u64,
    /// PREPARE round-trips acknowledged.
    pub prepares_acked: u64,
}

impl CommStats {
    /// Flight nanoseconds hidden under computation.
    pub fn hidden_nanos(&self) -> u64 {
        self.flight_nanos
            .saturating_sub(self.exposed_nanos.min(self.flight_nanos))
    }

    /// Fraction of comm-flight time hidden under compute, in `[0, 1]`.
    /// `None` when no fetches flew (nothing to overlap).
    pub fn overlap(&self) -> Option<f64> {
        if self.fetches == 0 || self.flight_nanos == 0 {
            return None;
        }
        Some(self.hidden_nanos() as f64 / self.flight_nanos as f64)
    }
}

impl Merge for CommStats {
    fn merge(&mut self, other: &Self) {
        self.fetches += other.fetches;
        self.flight_nanos += other.flight_nanos;
        self.exposed_nanos += other.exposed_nanos;
        self.puts_acked += other.puts_acked;
        self.prepares_acked += other.prepares_acked;
    }
}

/// Per-worker fault-tolerance counters (all zero on fault-free runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// PUT retries after an ack timeout.
    pub put_retries: u64,
    /// PREPARE retries after an ack timeout.
    pub prepare_retries: u64,
    /// GET/REQUEST re-issues after a reply timeout.
    pub fetch_retries: u64,
    /// Duplicate PUTs suppressed on the receiving side.
    pub dup_puts_suppressed: u64,
    /// Journaled puts replayed to a new home after a rank death.
    pub journal_replays: u64,
    /// Operations re-routed because their home died.
    pub reroutes: u64,
}

impl FaultStats {
    /// Total retried operations (the `--profile` headline number).
    pub fn retries(&self) -> u64 {
        self.put_retries + self.prepare_retries + self.fetch_retries
    }
}

impl Merge for FaultStats {
    fn merge(&mut self, other: &Self) {
        self.put_retries += other.put_retries;
        self.prepare_retries += other.prepare_retries;
        self.fetch_retries += other.fetch_retries;
        self.dup_puts_suppressed += other.dup_puts_suppressed;
        self.journal_replays += other.journal_replays;
        self.reroutes += other.reroutes;
    }
}

/// Master-side recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Workers the master declared dead on the fabric's verdict.
    pub ranks_died: u64,
    /// Pardo chunks re-queued from dead workers to survivors.
    pub requeued_chunks: u64,
    /// Blocks restored from a dead worker's epoch checkpoint.
    pub restored_blocks: u64,
    /// Re-queued chunks dispatched to workers parked at a barrier.
    pub takeover_chunks: u64,
    /// Times the master resent an unacknowledged restore flight — the only
    /// thing its clock is for.
    pub restore_resends: u64,
}

impl Merge for RecoveryStats {
    fn merge(&mut self, other: &Self) {
        self.ranks_died += other.ranks_died;
        self.requeued_chunks += other.requeued_chunks;
        self.restored_blocks += other.restored_blocks;
        self.takeover_chunks += other.takeover_chunks;
        self.restore_resends += other.restore_resends;
    }
}

/// Counters an I/O server reports (shipped to the master at shutdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// REQUESTs served from the server's block cache.
    pub cache_hits: u64,
    /// REQUESTs that went to disk.
    pub disk_reads: u64,
    /// Dirty blocks written back to disk.
    pub disk_writes: u64,
    /// REQUESTs for never-written blocks served as zeros.
    pub zero_serves: u64,
    /// PREPAREs applied.
    pub prepares: u64,
    /// Duplicate PREPAREs suppressed by op-id dedup.
    pub dup_prepares_suppressed: u64,
}

impl Merge for ServerStats {
    fn merge(&mut self, other: &Self) {
        self.cache_hits += other.cache_hits;
        self.disk_reads += other.disk_reads;
        self.disk_writes += other.disk_writes;
        self.zero_serves += other.zero_serves;
        self.prepares += other.prepares;
        self.dup_prepares_suppressed += other.dup_prepares_suppressed;
    }
}

/// Counters for block-sparse screening: work and traffic the runtime proved
/// away instead of performing (Cauchy–Schwarz norm bounds, typed absence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Contractions skipped because an operand block was absent or the
    /// norm-product bound fell under the screening threshold.
    pub blocks_skipped: u64,
    /// Payload bytes that never crossed the fabric: dropped puts/prepares
    /// plus absent replies to get/request.
    pub bytes_not_shipped: u64,
    /// Floating-point operations avoided by skipped contractions.
    pub flops_avoided: u64,
}

impl Merge for SparseStats {
    fn merge(&mut self, other: &Self) {
        self.blocks_skipped += other.blocks_skipped;
        self.bytes_not_shipped += other.bytes_not_shipped;
        self.flops_avoided += other.flops_avoided;
    }
}

/// Communication-planner counters: what the plan predicted, what the run
/// measured, and how many messages envelope batching saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Fabric messages coalesced away by envelope batching (n staged
    /// messages shipped as one envelope count n−1 here).
    pub coalesced_messages: u64,
    /// Planner-predicted fabric bytes for the whole run (filled on the
    /// merged fleet view).
    pub predicted_bytes: u64,
    /// Measured fabric bytes (filled on the merged fleet view).
    pub actual_bytes: u64,
}

impl Merge for PlanStats {
    /// Event counters sum; the run-level predicted/actual figures are
    /// filled on the merged view only, so the max keeps them intact.
    fn merge(&mut self, other: &Self) {
        self.coalesced_messages += other.coalesced_messages;
        self.predicted_bytes = self.predicted_bytes.max(other.predicted_bytes);
        self.actual_bytes = self.actual_bytes.max(other.actual_bytes);
    }
}

impl Merge for crate::cache::CacheStats {
    /// Event counters: fleet sums.
    fn merge(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.in_flight_hits += other.in_flight_hits;
        self.evictions += other.evictions;
        self.refetches += other.refetches;
        self.reissues += other.reissues;
    }
}

impl Merge for crate::memory::MemoryStats {
    /// Byte gauges take the per-rank maximum (the quantity comparable to
    /// the per-worker dry-run estimate and budget); event counters sum.
    fn merge(&mut self, other: &Self) {
        self.pinned_bytes = self.pinned_bytes.max(other.pinned_bytes);
        self.cached_bytes = self.cached_bytes.max(other.cached_bytes);
        self.high_water_bytes = self.high_water_bytes.max(other.high_water_bytes);
        self.budget_bytes = self.budget_bytes.max(other.budget_bytes);
        self.clones_avoided += other.clones_avoided;
        self.bytes_clone_avoided += other.bytes_clone_avoided;
        self.deep_copies += other.deep_copies;
        self.budget_evictions += other.budget_evictions;
    }
}

impl Merge for sia_blocks::ContractStats {
    /// Event counters: fleet sums (delegates to the blocks crate).
    fn merge(&mut self, other: &Self) {
        sia_blocks::ContractStats::merge(self, other);
    }
}

impl Merge for sia_fabric::FaultSnapshot {
    /// Injection counters sum; `crashed` ors.
    fn merge(&mut self, other: &Self) {
        self.absorb(other);
    }
}

/// The unified counter registry: one instance per rank, merged into one
/// fleet view by the master. All groups are plain `Copy` counter structs;
/// merging follows each group's [`Merge`] impl.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Remote-copy cache counters.
    pub cache: crate::cache::CacheStats,
    /// Block-manager byte accounting and zero-copy counters.
    pub memory: crate::memory::MemoryStats,
    /// Contraction hot-path counters (contractions, bytes packed, pack
    /// pool reuse).
    pub contraction: sia_blocks::ContractStats,
    /// Communication flights and the overlap measurement.
    pub comm: CommStats,
    /// Blocked time by cause.
    pub wait: WaitStats,
    /// Fault-tolerance retry/dedup counters.
    pub fault: FaultStats,
    /// Master-side recovery counters.
    pub recovery: RecoveryStats,
    /// I/O-server counters.
    pub server: ServerStats,
    /// Fabric-level injection counters.
    pub fabric: sia_fabric::FaultSnapshot,
    /// Block-sparse screening counters.
    pub sparse: SparseStats,
    /// Communication-planner counters (batching, predicted-vs-actual
    /// volume).
    pub plan: PlanStats,
}

impl Merge for Metrics {
    fn merge(&mut self, other: &Self) {
        self.cache.merge(&other.cache);
        self.memory.merge(&other.memory);
        Merge::merge(&mut self.contraction, &other.contraction);
        self.comm.merge(&other.comm);
        self.wait.merge(&other.wait);
        self.fault.merge(&other.fault);
        self.recovery.merge(&other.recovery);
        self.server.merge(&other.server);
        Merge::merge(&mut self.fabric, &other.fabric);
        self.sparse.merge(&other.sparse);
        self.plan.merge(&other.plan);
    }
}

/// A single field of the report model: a JSON key, a human label, and a
/// value. The text renderer prints `"{value} {label}"`, the JSON export
/// `"key": value` — one model, two encodings.
#[derive(Debug, Clone)]
pub struct Field {
    /// JSON object key.
    pub key: &'static str,
    /// Human-readable label (rendered after the value).
    pub label: &'static str,
    /// The value: an integer counter, a ratio, or a flag.
    pub value: Json,
}

/// A named group of fields (one JSON sub-object, one report line).
#[derive(Debug, Clone)]
pub struct Section {
    /// Group name (JSON key and report line prefix).
    pub name: &'static str,
    /// Suppress the report line when the whole group is default-valued.
    pub quiet: bool,
    /// The fields.
    pub fields: Vec<Field>,
}

fn field(key: &'static str, label: &'static str, v: u64) -> Field {
    Field {
        key,
        label,
        value: v.into(),
    }
}

impl Metrics {
    /// The report model: every counter group as a [`Section`]. Both the
    /// text renderer (`Metrics`' `Display` impl) and the JSON export
    /// ([`Metrics::to_json`]) are driven by this one model.
    pub fn sections(&self) -> Vec<Section> {
        let c = &self.cache;
        let m = &self.memory;
        let k = &self.contraction;
        let f = &self.fault;
        let r = &self.recovery;
        let s = &self.server;
        let fb = &self.fabric;
        let sp = &self.sparse;
        let pl = &self.plan;
        let mut wait_fields: Vec<Field> = WaitCause::ALL
            .iter()
            .map(|&cause| Field {
                key: cause.key(),
                label: cause.label(),
                value: self.wait.get(cause).into(),
            })
            .collect();
        wait_fields.insert(0, field("total_ns", "ns total", self.wait.total_nanos()));
        let mut comm_fields = vec![
            field("fetches", "fetches", self.comm.fetches),
            field("flight_ns", "ns in flight", self.comm.flight_nanos),
            field("exposed_ns", "ns exposed", self.comm.exposed_nanos),
            field("hidden_ns", "ns hidden", self.comm.hidden_nanos()),
            field("puts_acked", "puts acked", self.comm.puts_acked),
            field("prepares_acked", "prepares acked", self.comm.prepares_acked),
        ];
        comm_fields.push(Field {
            key: "overlap",
            label: "overlap",
            value: self.comm.overlap().unwrap_or(0.0).into(),
        });
        vec![
            Section {
                name: "cache",
                quiet: quiet(c),
                fields: vec![
                    field("hits", "hits", c.hits),
                    field("misses", "misses", c.misses),
                    field("in_flight_hits", "in-flight hits", c.in_flight_hits),
                    field("evictions", "evictions", c.evictions),
                    field("refetches", "refetches", c.refetches),
                    field("reissues", "reissues", c.reissues),
                ],
            },
            Section {
                name: "memory",
                quiet: quiet(m),
                fields: vec![
                    field("high_water_bytes", "bytes high water", m.high_water_bytes),
                    field("budget_bytes", "bytes budget", m.budget_bytes),
                    field("pinned_bytes", "bytes pinned", m.pinned_bytes),
                    field("cached_bytes", "bytes cached", m.cached_bytes),
                    field("clones_avoided", "clones avoided", m.clones_avoided),
                    field(
                        "bytes_clone_avoided",
                        "bytes uncopied",
                        m.bytes_clone_avoided,
                    ),
                    field("deep_copies", "deep copies", m.deep_copies),
                    field("budget_evictions", "budget evictions", m.budget_evictions),
                ],
            },
            Section {
                name: "contract",
                quiet: quiet(k),
                fields: vec![
                    field("contractions", "contractions", k.contractions),
                    field("packed_bytes", "bytes packed", k.packed_bytes),
                    field("pack_pool_hits", "pack pool hits", k.pack_pool_hits),
                    field("pack_pool_misses", "pack pool misses", k.pack_pool_misses),
                ],
            },
            Section {
                name: "comm",
                quiet: quiet(&self.comm),
                fields: comm_fields,
            },
            Section {
                name: "wait",
                quiet: quiet(&self.wait),
                fields: wait_fields,
            },
            Section {
                name: "fault",
                quiet: quiet(f),
                fields: vec![
                    field("put_retries", "put retries", f.put_retries),
                    field("prepare_retries", "prepare retries", f.prepare_retries),
                    field("fetch_retries", "fetch retries", f.fetch_retries),
                    field(
                        "dup_puts_suppressed",
                        "duplicate puts suppressed",
                        f.dup_puts_suppressed,
                    ),
                    field("journal_replays", "journal replays", f.journal_replays),
                    field("reroutes", "re-routes", f.reroutes),
                ],
            },
            Section {
                name: "recovery",
                quiet: quiet(r),
                fields: vec![
                    field("ranks_died", "ranks died", r.ranks_died),
                    field("requeued_chunks", "chunks re-queued", r.requeued_chunks),
                    field("restored_blocks", "blocks restored", r.restored_blocks),
                    field("takeover_chunks", "takeover chunks", r.takeover_chunks),
                    field("restore_resends", "restore resends", r.restore_resends),
                ],
            },
            Section {
                name: "server",
                quiet: quiet(s),
                fields: vec![
                    field("cache_hits", "cache hits", s.cache_hits),
                    field("disk_reads", "disk reads", s.disk_reads),
                    field("disk_writes", "disk writes", s.disk_writes),
                    field("zero_serves", "zero serves", s.zero_serves),
                    field("prepares", "prepares", s.prepares),
                    field(
                        "dup_prepares_suppressed",
                        "duplicate prepares suppressed",
                        s.dup_prepares_suppressed,
                    ),
                ],
            },
            Section {
                name: "fabric",
                quiet: quiet(fb),
                fields: vec![
                    field("dropped", "dropped", fb.dropped),
                    field("duplicated", "duplicated", fb.duplicated),
                    field("delayed", "delayed", fb.delayed),
                    Field {
                        key: "crashed",
                        label: "rank crash",
                        value: fb.crashed.into(),
                    },
                ],
            },
            Section {
                name: "sparse",
                quiet: quiet(sp),
                fields: vec![
                    field("blocks_skipped", "blocks skipped", sp.blocks_skipped),
                    field(
                        "bytes_not_shipped",
                        "bytes not shipped",
                        sp.bytes_not_shipped,
                    ),
                    field("flops_avoided", "flops avoided", sp.flops_avoided),
                ],
            },
            Section {
                name: "comm_plan",
                quiet: quiet(pl),
                fields: vec![
                    field(
                        "coalesced_messages",
                        "messages coalesced",
                        pl.coalesced_messages,
                    ),
                    field("predicted_bytes", "bytes predicted", pl.predicted_bytes),
                    field("actual_bytes", "bytes measured", pl.actual_bytes),
                ],
            },
        ]
    }

    /// The metrics object of the JSON exports: one member per section,
    /// keys from the section model.
    pub fn to_json(&self) -> Json {
        Json::obj(self.sections().into_iter().map(|s| {
            (
                s.name,
                Json::obj(s.fields.into_iter().map(|f| (f.key, f.value))),
            )
        }))
    }
}

impl fmt::Display for Metrics {
    /// The one text renderer: `name: v label, v label, ...` per section,
    /// quiet sections suppressed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in self.sections() {
            if s.quiet {
                continue;
            }
            write!(f, "{}:", s.name)?;
            for (i, fl) in s.fields.iter().enumerate() {
                let sep = if i == 0 { " " } else { ", " };
                match fl.value {
                    Json::Bool(b) => {
                        // Flags read as presence: print the label alone
                        // when set, skip when clear.
                        if b {
                            write!(f, "{sep}{}", fl.label)?;
                        } else if i == 0 {
                            write!(f, " ")?;
                        }
                    }
                    Json::Num(x) => write!(f, "{sep}{x:.3} {}", fl.label)?,
                    ref v => write!(f, "{sep}{v} {}", fl.label)?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Metrics::default();
        a.cache.hits = 3;
        a.memory.high_water_bytes = 100;
        a.memory.clones_avoided = 1;
        a.wait.add(WaitCause::BlockArrival, Duration::from_nanos(5));
        let mut b = Metrics::default();
        b.cache.hits = 4;
        b.memory.high_water_bytes = 70;
        b.memory.clones_avoided = 2;
        b.wait.add(WaitCause::SipBarrier, Duration::from_nanos(7));
        a.merge(&b);
        assert_eq!(a.cache.hits, 7);
        assert_eq!(a.memory.high_water_bytes, 100); // max, not sum
        assert_eq!(a.memory.clones_avoided, 3);
        assert_eq!(a.wait.total_nanos(), 12);
        assert_eq!(a.wait.get(WaitCause::SipBarrier), 7);
    }

    #[test]
    fn overlap_clamps_and_reports_none_when_idle() {
        let mut c = CommStats::default();
        assert_eq!(c.overlap(), None);
        c.fetches = 2;
        c.flight_nanos = 100;
        c.exposed_nanos = 25;
        assert!((c.overlap().unwrap() - 0.75).abs() < 1e-12);
        c.exposed_nanos = 1000; // exposure can overshoot flight by polling granularity
        assert_eq!(c.overlap().unwrap(), 0.0);
    }

    #[test]
    fn json_is_parseable_and_covers_sections() {
        let mut m = Metrics::default();
        m.cache.hits = 1;
        m.recovery.ranks_died = 2;
        let j = m.to_json().to_string();
        let v = crate::json::parse_json(&j).expect("metrics json parses");
        let obj = v.as_object().expect("top-level object");
        for name in [
            "cache",
            "memory",
            "contract",
            "comm",
            "wait",
            "fault",
            "recovery",
            "server",
            "fabric",
            "sparse",
            "comm_plan",
        ] {
            assert!(obj.iter().any(|(k, _)| k == name), "missing section {name}");
        }
    }

    #[test]
    fn renderer_keeps_recovery_phrase() {
        let mut m = Metrics::default();
        m.recovery.ranks_died = 1;
        let text = m.to_string();
        assert!(text.contains("ranks died"), "{text}");
        // Quiet sections are suppressed.
        assert!(!text.contains("fabric:"), "{text}");
    }
}
