//! Integration tests for the unified observability surface: the overlap
//! metric (prefetch on/off), the cross-rank trace export, wait-cause
//! attribution, and the `--trace`/`--profile-json` file outputs.

use sia_bytecode::ConstBindings;
use sia_runtime::json::parse_json;
use sia_runtime::prelude::*;
use sia_runtime::{lint_chrome_trace, lint_profile_json};

/// A two-phase program whose second phase gets a remote block and uses it
/// on the very next instruction: with prefetch off every flight is fully
/// exposed, with look-ahead the next row's flights hide under the blocked
/// wait and the accumulate. The second phase reads `X` transposed: a row of
/// `X` lies in one worker's slab, so a column crosses the fabric whichever
/// worker runs the iteration.
const OVERLAP_SRC: &str = r#"
sial overlap_probe
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp t(i,j)
scalar acc
pardo i, j
  t(i,j) = 1.5
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i
  do j
    get X(j,i)
    acc += X(j,i) * X(j,i)
  enddo j
endpardo i
sip_barrier
execute sip_allreduce acc
endsial
"#;

fn run_overlap(prefetch: usize, trace: bool) -> RunOutput {
    let program = sial_frontend::compile(OVERLAP_SRC).unwrap();
    let mut bindings = ConstBindings::new();
    bindings.insert("n".into(), 6);
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .prefetch_depth(prefetch)
        .cache_blocks(64)
        .collect_distributed(false)
        .trace(trace)
        .build()
        .unwrap();
    Sip::new(config).run(program, &bindings).unwrap()
}

#[test]
fn serialized_gets_expose_flights_prefetch_hides_them() {
    let serial = run_overlap(0, false);
    let ahead = run_overlap(4, false);
    let sc = serial.profile.metrics.comm;
    let ac = ahead.profile.metrics.comm;
    assert!(sc.fetches > 0, "remote fetches expected: {sc:?}");
    assert!(ac.fetches > 0, "remote fetches expected: {ac:?}");
    let serial_overlap = sc.overlap().expect("fetches flew");
    let ahead_overlap = ac.overlap().expect("fetches flew");
    assert!(
        serial_overlap < 0.35,
        "back-to-back get/use must expose its flights, measured {serial_overlap:.3} ({sc:?})"
    );
    assert!(
        ahead_overlap > 0.5,
        "look-ahead must hide most flight time, measured {ahead_overlap:.3} ({ac:?})"
    );
    assert!(
        ahead_overlap > serial_overlap,
        "prefetch must improve overlap: {ahead_overlap:.3} vs {serial_overlap:.3}"
    );
}

#[test]
fn wait_time_is_attributed_by_cause() {
    let out = run_overlap(0, false);
    let wait = &out.profile.metrics.wait;
    assert!(
        wait.get(WaitCause::BlockArrival) > 0,
        "serialized gets must block on block arrival: {wait:?}"
    );
    let barrierish = wait.get(WaitCause::SipBarrier)
        + wait.get(WaitCause::ChunkAssign)
        + wait.get(WaitCause::AckDrain)
        + wait.get(WaitCause::Collective);
    assert!(
        barrierish > 0,
        "barriers/collectives must account: {wait:?}"
    );
    // The per-cause breakdown IS the total (single accounting point).
    let sum: u64 = WaitCause::ALL.iter().map(|&c| wait.get(c)).sum();
    assert_eq!(sum, wait.total_nanos());
    // The report totals come from the same breakdown.
    let report_wait: u64 = out
        .profile
        .worker_waits
        .iter()
        .map(|d| d.as_nanos() as u64)
        .sum();
    assert_eq!(report_wait, wait.total_nanos());
}

/// The trace records what a worker waited on, not what it executed: its
/// busy time is the gaps between the wait spans. On each worker the waits
/// are disjoint and in order, each names an instruction the profile
/// counted, and together they fit in the worker's exact wait total (a
/// sub-microsecond wait is counted but not traced). The time attributed
/// per pc — busy plus wait — fits in the workers' wall time.
#[test]
fn wait_spans_are_disjoint_and_fit_the_profile() {
    use sia_runtime::events::EventKind;
    let out = run_overlap(2, true);
    let tl = out.trace.as_ref().expect("tracing was enabled");
    let counted = |pc: u32| {
        let line = out.profile.lines.iter().find(|l| l.pc == pc);
        line.map_or(0, |l| l.count)
    };
    for (w, waited) in tl.ranks[1..3].iter().zip(&out.profile.worker_waits) {
        assert_eq!(w.dropped, 0, "the ring held the whole run");
        let (mut last_end, mut traced, mut with_pc) = (0, 0, 0);
        for e in &w.events {
            let EventKind::Wait { pc, .. } = e.kind else {
                continue;
            };
            assert!(
                e.t_start_ns >= last_end && e.t_end_ns >= e.t_start_ns,
                "{}: {e:?} starts before its predecessor's end {last_end}",
                w.label
            );
            last_end = e.t_end_ns;
            traced += e.t_end_ns - e.t_start_ns;
            if let Some(pc) = pc {
                assert!(
                    counted(pc) > 0,
                    "{}: {e:?} blocked an uncounted pc",
                    w.label
                );
                with_pc += 1;
            }
        }
        assert!(with_pc > 0, "{} traced no wait inside the program", w.label);
        assert!(
            u128::from(traced) <= waited.as_nanos(),
            "{}: traced waits {traced} ns exceed the profile's {waited:?}",
            w.label
        );
    }
    let attributed: std::time::Duration = out.profile.lines.iter().map(|l| l.busy + l.wait).sum();
    let total: std::time::Duration = out.profile.worker_totals.iter().sum();
    assert!(
        attributed <= total,
        "per-pc time {attributed:?} exceeds the workers' {total:?}"
    );
}

/// Two phases, the second a contraction in a loop: that one pc holds most of
/// the busy time, so its share of the samples must rank it first.
const HOT_PC_SRC: &str = r#"
sial hot_pc
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, m
distributed X(i,j)
temp t(i,j)
temp a(i,k)
temp b(k,j)
temp c(i,j)
pardo i, j
  t(i,j) = 1.5
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  do k
    a(i,k) = 0.5
    b(k,j) = 2.0
    c(i,j) += a(i,k) * b(k,j)
  enddo k
endpardo i, j
sip_barrier
endsial
"#;

/// Busy time is sampled, not timed: each worker's exact busy time — its run
/// time minus its exact waits — is split across pcs by the sampler's
/// counts. The split ranks the hot pc first, the lines sum to the workers'
/// exact busy total to the nanosecond, and busy plus wait still fits in
/// the workers' wall time.
#[test]
fn sampled_busy_ranks_the_hot_pc_first_and_sums_to_the_exact_total() {
    let program = sial_frontend::compile(HOT_PC_SRC).unwrap();
    let bindings: ConstBindings = [("n".to_string(), 4), ("m".to_string(), 64)]
        .into_iter()
        .collect();
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .segment_size(96)
        .collect_distributed(false)
        .build()
        .unwrap();
    let out = Sip::new(config).run(program, &bindings).unwrap();
    let p = &out.profile;
    assert!(p.samples > 0, "a run of many ticks took no sample");
    assert!(
        p.lines[0].text.contains("a(i,k) * b(k,j)"),
        "the contraction must rank first: {:?}",
        &p.lines[..3]
    );
    let busy: u128 = p.lines.iter().map(|l| l.busy.as_nanos()).sum();
    let exact: u128 = (p.worker_totals.iter().zip(&p.worker_waits))
        .map(|(total, wait)| (*total - *wait).as_nanos())
        .sum();
    assert_eq!(busy, exact, "the lines split the workers' exact busy time");
    let attributed: std::time::Duration = p.lines.iter().map(|l| l.busy + l.wait).sum();
    let total: std::time::Duration = p.worker_totals.iter().sum();
    assert!(
        attributed <= total,
        "per-pc time {attributed:?} exceeds the workers' {total:?}"
    );
}

#[test]
fn trace_covers_every_rank_and_lints_clean() {
    let out = run_overlap(2, true);
    let tl = out.trace.as_ref().expect("tracing was enabled");
    // master (0) + 2 workers (1, 2) + 1 I/O server (3).
    let ranks: Vec<usize> = tl.ranks.iter().map(|r| r.rank).collect();
    assert_eq!(ranks, vec![0, 1, 2, 3], "one timeline entry per rank");
    assert_eq!(tl.ranks[0].label, "master");
    assert_eq!(tl.ranks[1].label, "worker 1");
    assert_eq!(tl.ranks[3].label, "io 3");
    for w in &tl.ranks[1..3] {
        assert!(!w.events.is_empty(), "{} recorded no events", w.label);
    }
    assert!(tl.total_events() > 0);

    let json = tl.to_chrome_json();
    let lint = lint_chrome_trace(&parse_json(&json).unwrap()).expect("chrome trace lints clean");
    assert!(lint.events >= tl.total_events());
    for widx in [1u64, 2] {
        let r = lint.ranks.get(&widx).expect("worker rank in trace");
        assert!(r.spans > 0, "worker {widx} has no spans");
        assert!(
            r.cats.contains("wait"),
            "worker {widx} missing wait spans: {:?}",
            r.cats
        );
        assert!(
            !r.cats.contains("instruction"),
            "worker {widx} traced instruction spans: {:?}",
            r.cats
        );
        assert!(
            r.cats.contains("comm"),
            "worker {widx} missing comm flights: {:?}",
            r.cats
        );
    }
}

#[test]
fn trace_and_profile_files_are_written_and_lint() {
    let dir = std::env::temp_dir().join(format!("sia-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let profile_path = dir.join("profile.json");

    let program = sial_frontend::compile(OVERLAP_SRC).unwrap();
    let mut bindings = ConstBindings::new();
    bindings.insert("n".into(), 4);
    let config = SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .collect_distributed(false)
        .trace_path(&trace_path)
        .profile_json(&profile_path)
        .build()
        .unwrap();
    let out = Sip::new(config).run(program, &bindings).unwrap();
    assert!(out.trace.is_some(), "trace_path implies tracing");

    let trace_text = std::fs::read_to_string(&trace_path).expect("trace file written");
    lint_chrome_trace(&parse_json(&trace_text).unwrap()).expect("written trace lints clean");
    let profile_text = std::fs::read_to_string(&profile_path).expect("profile file written");
    lint_profile_json(&profile_text).expect("written profile lints clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_off_leaves_no_timeline() {
    let out = run_overlap(2, false);
    assert!(out.trace.is_none());
    assert!(
        out.profile.metrics.comm.fetches > 0,
        "overlap metric is always on"
    );
}
