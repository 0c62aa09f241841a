// The synthetic documents behind the golden files next to this one. The
// files were written once by the writers of the commit before the JSON
// writers were unified, from exactly these inputs; change an input and the
// golden file no longer describes it.

use sia_bytecode::diag::{Diagnostic, Severity, Span};
use sia_bytecode::{ArrayId, InstructionClass};
use sia_runtime::events::{CommOp, EventKind, RankTrace, RecoveryEvent, TraceEvent, TraceTimeline};
use sia_runtime::{BlockKey, Metrics, ProfileLine, ProfileReport, WaitCause};
use std::time::Duration;

/// Every counter non-zero, and every flag set.
pub fn metrics() -> Metrics {
    let mut m = Metrics::default();
    let c = &mut m.cache;
    (c.hits, c.misses, c.in_flight_hits) = (11, 12, 13);
    (c.evictions, c.refetches, c.reissues) = (14, 15, 16);
    let mm = &mut m.memory;
    (mm.pinned_bytes, mm.cached_bytes, mm.high_water_bytes) = (21, 22, 23);
    (mm.budget_bytes, mm.clones_avoided, mm.bytes_clone_avoided) = (24, 25, 26);
    (mm.deep_copies, mm.budget_evictions) = (27, 28);
    let k = &mut m.contraction;
    (k.contractions, k.packed_bytes) = (31, 43);
    (k.pack_pool_hits, k.pack_pool_misses) = (44, 45);
    let cm = &mut m.comm;
    (cm.fetches, cm.flight_nanos, cm.exposed_nanos) = (3, 3_000, 1_000);
    (cm.puts_acked, cm.prepares_acked) = (51, 52);
    for (i, cause) in WaitCause::ALL.into_iter().enumerate() {
        m.wait.add(cause, Duration::from_nanos(101 + i as u64));
    }
    let f = &mut m.fault;
    (f.put_retries, f.prepare_retries, f.fetch_retries) = (61, 62, 63);
    (f.dup_puts_suppressed, f.journal_replays, f.reroutes) = (64, 65, 66);
    let r = &mut m.recovery;
    (r.ranks_died, r.requeued_chunks, r.restored_blocks) = (71, 72, 73);
    (r.takeover_chunks, r.restore_resends) = (74, 75);
    let s = &mut m.server;
    (s.cache_hits, s.disk_reads, s.disk_writes, s.zero_serves) = (81, 82, 83, 84);
    (s.prepares, s.dup_prepares_suppressed) = (85, 86);
    let fb = &mut m.fabric;
    (fb.dropped, fb.duplicated, fb.delayed, fb.crashed) = (91, 92, 93, true);
    let sp = &mut m.sparse;
    (sp.blocks_skipped, sp.bytes_not_shipped, sp.flops_avoided) = (94, 95, 96);
    let pl = &mut m.plan;
    pl.coalesced_messages = 97;
    (pl.predicted_bytes, pl.actual_bytes) = (123_456_789_012, 9_876_543_210);
    m
}

/// A profile with every metric non-zero and one worker that fetched
/// nothing (its overlap is `None`).
pub fn profile() -> ProfileReport {
    ProfileReport {
        lines: vec![
            ProfileLine {
                pc: 3,
                class: InstructionClass::Compute,
                text: "contract \"R\" <- V * T".into(),
                count: 5,
                busy: Duration::from_nanos(123_456),
                wait: Duration::from_nanos(789),
            },
            ProfileLine {
                pc: 0,
                class: InstructionClass::Control,
                text: "halt".into(),
                count: 2,
                busy: Duration::from_nanos(17),
                wait: Duration::ZERO,
            },
        ],
        worker_totals: vec![
            Duration::from_nanos(1_000_003),
            Duration::from_nanos(2_000_001),
        ],
        worker_waits: vec![Duration::from_nanos(333_333), Duration::from_nanos(7)],
        worker_overlap: vec![Some(2.0 / 3.0), None],
        metrics: metrics(),
        dry_run_estimate_bytes: 4096,
        iterations: 42,
        chunks: 6,
        samples: 120,
    }
}

fn ev(t_start_ns: u64, t_end_ns: u64, kind: EventKind) -> TraceEvent {
    TraceEvent {
        t_start_ns,
        t_end_ns,
        kind,
    }
}

/// One event of every kind — `Serve` both as an instant and as a span.
pub fn timeline() -> TraceTimeline {
    let key = BlockKey::new(ArrayId(1), &[2, 3]);
    TraceTimeline {
        ranks: vec![
            RankTrace {
                rank: 0,
                label: "master".into(),
                events: vec![
                    ev(
                        5,
                        5,
                        EventKind::Recovery {
                            what: RecoveryEvent::RankDead,
                        },
                    ),
                    ev(7, 7, EventKind::Checkpoint { restore: false }),
                    ev(10, 10, EventKind::Checkpoint { restore: true }),
                ],
                dropped: 0,
            },
            RankTrace {
                rank: 1,
                label: "worker 1".into(),
                events: vec![
                    ev(
                        1_500,
                        2_750,
                        EventKind::Wait {
                            cause: WaitCause::BlockArrival,
                            pc: Some(3),
                        },
                    ),
                    ev(
                        1_200,
                        3_000_001,
                        EventKind::Flight {
                            op: CommOp::Get,
                            key,
                            id: 7,
                        },
                    ),
                    ev(2_200, 2_200, EventKind::Serve { key, disk: false }),
                ],
                dropped: 0,
            },
            RankTrace {
                rank: 2,
                label: "io 2".into(),
                events: vec![
                    ev(100, 900, EventKind::Serve { key, disk: true }),
                    ev(1_000, 1_000, EventKind::Flush),
                    ev(
                        3_000,
                        4_000,
                        EventKind::Flight {
                            op: CommOp::Put,
                            key,
                            id: u64::MAX,
                        },
                    ),
                    ev(
                        3_100,
                        3_900,
                        EventKind::Flight {
                            op: CommOp::Prepare,
                            key,
                            id: 9,
                        },
                    ),
                ],
                dropped: 0,
            },
        ],
    }
}

/// The file name `sial check --json` was given for [`diagnostics`].
pub const DIAG_FILE: &str = "dir\\a \"b\".sial";

/// Diagnostics whose strings need every kind of escape.
pub fn diagnostics() -> Vec<Diagnostic> {
    vec![
        Diagnostic {
            file: DIAG_FILE.into(),
            span: Span::new(3, 9),
            line: 2,
            col: 4,
            severity: Severity::Error,
            code: "sema/unknown-array".into(),
            message: "no array `y\"` \u{2014}\nsee \u{1} \\ é".into(),
        },
        Diagnostic {
            file: DIAG_FILE.into(),
            span: Span::new(0, 0),
            line: 0,
            col: 0,
            severity: Severity::Warning,
            code: "verify/possible-race".into(),
            message: "tab\there".into(),
        },
        Diagnostic {
            file: "<memory>".into(),
            span: Span::new(10, 12),
            line: 3,
            col: 1,
            severity: Severity::Note,
            code: "note/x".into(),
            message: String::new(),
        },
    ]
}
