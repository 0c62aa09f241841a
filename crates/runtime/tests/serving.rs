//! Multi-tenant serving tests: admission control reports exact bytes,
//! concurrent jobs sharing a served array read it from one store file and
//! stay bitwise-identical to a serial run, concurrent jobs writing one served
//! array share its store file without colliding, one job's rank death
//! never fails a neighbor job (each job runs on its own fabric world), a
//! daemon job is scheduled exactly as a one-shot run, jobs queued for a
//! run slot take it in priority order, the job table keeps a bounded
//! number of finished records, a traced job is charged its trace rings, an
//! oversized cache or world is refused at admission, and concurrent jobs
//! each count only their own busy-time samples.

use sia_bytecode::ConstBindings;
use sia_runtime::json::{parse_json, Json};
use sia_runtime::serve::{
    AdmitError, Daemon, DaemonConfig, JobSpec, JobState, FINISHED_JOBS_KEPT, RANK_THREAD_BYTES,
};
use sia_runtime::{
    CrashSchedule, FaultConfig, FaultPlan, Sip, SipConfig, SuperRegistry, SAMPLE_TICK,
};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Writer: primes the served array `B` and checks it back.
const WRITER: &str = "sial served_writer
aoindex i = 1, n
aoindex j = 1, n
served B(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 2.0 * i - j
  prepare B(i,j) = t(i,j)
endpardo i, j
server_barrier
pardo i, j
  request B(i,j)
  total += B(i,j) * B(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
";

/// Reader: the same declarations (so `B` resolves to the same slots of the
/// same store file in a shared served directory), but only requests — a
/// fresh job's server must fill from the store, never from its own prepares.
const READER: &str = "sial served_reader
aoindex i = 1, n
aoindex j = 1, n
served B(i,j)
temp t(i,j)
scalar total
pardo i, j
  request B(i,j)
  total += B(i,j) * B(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
";

/// An I/O-free distributed job used as the crashing neighbor.
const NEIGHBOR: &str = "sial neighbor
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 100.0 * i + j
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get X(i,j)
  total += X(i,j) * X(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
";

fn job(src: &str, tenant: &str, n: i64, workers: usize, fault: Option<FaultConfig>) -> JobSpec {
    let program = sial_frontend::compile(src).unwrap();
    let bindings: ConstBindings = [("n".to_string(), n)].into_iter().collect();
    let mut b = SipConfig::builder()
        .workers(workers)
        .io_servers(1)
        .segment_size(4);
    if let Some(f) = fault {
        b = b.fault(f);
    }
    JobSpec {
        tenant: tenant.to_string(),
        priority: 1,
        program,
        bindings,
        config: b.build().unwrap(),
        registry: SuperRegistry::new(),
        export: false,
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sia-serving-{tag}-{}", std::process::id()))
}

const WAIT: Duration = Duration::from_secs(120);

/// A daemon over `dir` with `max_concurrent` run slots and room for any of
/// these tests' jobs.
fn daemon_over(dir: &std::path::Path, max_concurrent: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        budget_bytes: 1 << 30,
        max_concurrent,
        data_dir: dir.to_path_buf(),
    })
}

/// Admission control must reject a job that does not fit the remaining
/// budget and report the *exact* bytes involved — the same footprint the
/// dry run computes.
#[test]
fn admission_rejects_infeasible_job_with_exact_bytes() {
    let needed = Daemon::footprint(&job(WRITER, "t", 6, 2, None)).unwrap();
    assert!(needed > 0);

    let dir = tmp("admit");
    let daemon = Daemon::new(DaemonConfig {
        budget_bytes: needed - 1,
        max_concurrent: 2,
        data_dir: dir.clone(),
    });
    match daemon.submit(job(WRITER, "t", 6, 2, None)) {
        Err(AdmitError::OverBudget {
            needed_bytes,
            available_bytes,
            budget_bytes,
        }) => {
            assert_eq!(
                needed_bytes, needed,
                "rejection must cite the dry-run footprint"
            );
            assert_eq!(available_bytes, needed - 1);
            assert_eq!(budget_bytes, needed - 1);
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    drop(daemon);

    // The same job fits a budget of exactly its footprint — and once it
    // finishes, its bytes return to the pool for the next admission.
    let daemon = Daemon::new(DaemonConfig {
        budget_bytes: needed,
        max_concurrent: 2,
        data_dir: dir.clone(),
    });
    let id = daemon.submit(job(WRITER, "t", 6, 2, None)).unwrap();
    let s = daemon.wait(id, WAIT).expect("job must finish");
    assert_eq!(s.state, JobState::Done, "{:?}", s.state);
    assert_eq!(s.admitted_bytes, needed);
    let id2 = daemon.submit(job(WRITER, "t", 6, 2, None)).unwrap();
    let s2 = daemon.wait(id2, WAIT).expect("second job must finish");
    assert_eq!(s2.state, JobState::Done, "{:?}", s2.state);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job's trace buffer size comes off the socket. Admission charges every
/// rank's preallocated ring, so a job asking for 2^40 events per rank is
/// refused as over budget before anything allocates, and the daemon runs
/// the next ordinary job as if nothing happened.
#[test]
fn an_oversized_trace_buffer_is_refused_by_admission() {
    let dir = tmp("ring");
    let daemon = daemon_over(&dir, 1);
    let mut greedy = job(WRITER, "t", 4, 2, None);
    greedy.export = true;
    greedy.config.trace_buffer_events = 1 << 40;
    match daemon.submit(greedy) {
        Err(AdmitError::OverBudget {
            needed_bytes,
            budget_bytes,
            ..
        }) => assert!(
            needed_bytes > budget_bytes,
            "{needed_bytes} ≤ {budget_bytes}"
        ),
        other => panic!("expected OverBudget, got {other:?}"),
    }
    let id = daemon.submit(job(WRITER, "t", 4, 2, None)).unwrap();
    let s = daemon.wait(id, WAIT).expect("the next job must finish");
    assert_eq!(s.state, JobState::Done, "{:?}", s.state);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job's `--cache` comes off the socket too. The dry run's cache bytes
/// saturate instead of overflowing, so a job asking for 2^60 cache blocks
/// is refused as over budget, and the daemon runs the next job.
#[test]
fn an_oversized_cache_is_refused_by_admission() {
    let dir = tmp("cache");
    let daemon = daemon_over(&dir, 1);
    for server_side in [false, true] {
        let mut greedy = job(WRITER, "t", 4, 2, None);
        if server_side {
            greedy.config.server_cache_blocks = 1 << 60;
        } else {
            greedy.config.cache_blocks = 1 << 60;
        }
        match daemon.submit(greedy) {
            Err(AdmitError::OverBudget {
                needed_bytes,
                budget_bytes,
                ..
            }) => assert!(
                needed_bytes > budget_bytes,
                "{needed_bytes} ≤ {budget_bytes}"
            ),
            other => panic!("expected OverBudget, got {other:?}"),
        }
    }
    let id = daemon.submit(job(WRITER, "t", 4, 2, None)).unwrap();
    let s = daemon.wait(id, WAIT).expect("the next job must finish");
    assert_eq!(s.state, JobState::Done, "{:?}", s.state);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job's `--workers` comes off the socket too, and every rank is an OS
/// thread. A world of 20 000 workers has a dry-run footprint that fits the
/// budget, but not with each rank's thread charged: it is refused before
/// any thread starts, and the daemon runs the next job.
#[test]
fn an_oversized_world_is_refused_by_admission() {
    let dir = tmp("world");
    let daemon = daemon_over(&dir, 1);
    let crowd = job(WRITER, "t", 4, 20_000, None);
    let ranks = 20_000 + 2;
    match daemon.submit(crowd) {
        Err(AdmitError::OverBudget {
            needed_bytes,
            budget_bytes,
            ..
        }) => {
            let threads = ranks * RANK_THREAD_BYTES;
            assert!(
                needed_bytes > budget_bytes,
                "{needed_bytes} ≤ {budget_bytes}"
            );
            assert!(
                needed_bytes - threads <= budget_bytes,
                "{needed_bytes} less {threads} thread bytes no longer fits {budget_bytes}"
            );
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    let id = daemon.submit(job(WRITER, "t", 4, 2, None)).unwrap();
    let s = daemon.wait(id, WAIT).expect("the next job must finish");
    assert_eq!(s.state, JobState::Done, "{:?}", s.state);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two jobs sharing a served array: the second reads the first one's blocks
/// from the store, its result is bitwise-identical to a serial run, and a
/// neighbor job whose worker rank dies mid-run neither fails itself (its own
/// master recovers it) nor the reader running beside it.
#[test]
fn concurrent_jobs_share_served_array_and_survive_neighbor_crash() {
    // Serial baseline: writer then reader, one job at a time. The reader
    // runs on one worker, so its reduction order is deterministic.
    let dir_serial = tmp("serial");
    let serial_total = {
        let daemon = Daemon::new(DaemonConfig {
            budget_bytes: 1 << 30,
            max_concurrent: 1,
            data_dir: dir_serial.clone(),
        });
        let w = daemon.submit(job(WRITER, "alice", 6, 2, None)).unwrap();
        assert_eq!(daemon.wait(w, WAIT).unwrap().state, JobState::Done);
        let r = daemon.submit(job(READER, "bob", 6, 1, None)).unwrap();
        let s = daemon.wait(r, WAIT).unwrap();
        assert_eq!(s.state, JobState::Done);
        s.scalars
            .iter()
            .find(|(k, _)| k == "total")
            .map(|(_, v)| *v)
            .expect("reader total")
    };
    let _ = std::fs::remove_dir_all(&dir_serial);

    // Concurrent: prime the served array, then run the reader beside a
    // neighbor whose worker 1 is scheduled to die mid-pardo.
    let dir = tmp("concurrent");
    let daemon = Daemon::new(DaemonConfig {
        budget_bytes: 1 << 30,
        max_concurrent: 3,
        data_dir: dir.clone(),
    });
    let w = daemon.submit(job(WRITER, "alice", 6, 2, None)).unwrap();
    assert_eq!(daemon.wait(w, WAIT).unwrap().state, JobState::Done);

    let mut plan = FaultPlan::seeded(0xD1E);
    plan.drop = 0.02;
    let mut fault = FaultConfig::new(plan);
    fault.crash = Some(CrashSchedule {
        worker: 1,
        after_iterations: 3,
    });
    let crashy = daemon
        .submit(job(NEIGHBOR, "mallory", 6, 3, Some(fault)))
        .unwrap();
    let reader = daemon.submit(job(READER, "bob", 6, 1, None)).unwrap();

    let rs = daemon.wait(reader, WAIT).expect("reader must finish");
    assert_eq!(
        rs.state,
        JobState::Done,
        "a neighbor's rank death must not fail this job"
    );
    let total = rs
        .scalars
        .iter()
        .find(|(k, _)| k == "total")
        .map(|(_, v)| *v)
        .expect("reader total");
    assert_eq!(
        total.to_bits(),
        serial_total.to_bits(),
        "concurrent reader must be bitwise-identical to the serial run \
         ({total} vs {serial_total})"
    );

    let cs = daemon.wait(crashy, WAIT).expect("crashy job must finish");
    assert_eq!(
        cs.state,
        JobState::Done,
        "the crashing job's own master must recover its rank death"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two jobs that both `prepare` and `request` the same served array at the
/// same time: their I/O servers write and read the same slots of one store
/// file in the shared served directory, through caches too small to hold
/// the array. Both must finish, each with the right total — no write
/// collides with another, and no read serves part of one. The blocks are
/// 8 KiB, slots of three pages: small ones rarely tear.
#[test]
fn concurrent_jobs_writing_one_served_array_both_finish() {
    const N: i64 = 6;
    const SEG: usize = 32;
    let want: f64 = (1..=N)
        .flat_map(|i| (1..=N).map(move |j| (2 * i - j) as f64))
        .map(|v| (SEG * SEG) as f64 * v * v)
        .sum();
    let dir = tmp("cowrite");
    let daemon = Daemon::new(DaemonConfig {
        budget_bytes: 1 << 30,
        max_concurrent: 2,
        data_dir: dir.clone(),
    });
    let writer = || {
        let mut spec = job(WRITER, "alice", N, 1, None);
        spec.config.server_cache_blocks = 4;
        spec.config.segments.default = SEG;
        spec
    };
    for round in 0..20 {
        let ids = [writer(), writer()].map(|spec| daemon.submit(spec).unwrap());
        for id in ids {
            let s = daemon.wait(id, WAIT).expect("job must finish");
            assert_eq!(s.state, JobState::Done, "round {round}: {:?}", s.state);
            let total = s.scalars.iter().find(|(k, _)| k == "total").unwrap().1;
            assert_eq!(total, want, "round {round}");
        }
    }
    let served: Vec<_> = std::fs::read_dir(dir.join("served"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(served, ["a0.srv"], "one store file per served array");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job of one `execute <name> s` instruction on one worker, with `f`
/// registered under that name: the tests' hook into when a job runs.
fn hooked_job(priority: u32, name: &str, f: impl Fn() + Send + Sync + 'static) -> JobSpec {
    let src = format!("sial hooked\nscalar s\nexecute {name} s\nendsial\n");
    let mut registry = SuperRegistry::new();
    registry.register(name, move |_, _| {
        f();
        Ok(())
    });
    JobSpec {
        tenant: "t".to_string(),
        priority,
        program: sial_frontend::compile(&src).unwrap(),
        bindings: ConstBindings::new(),
        config: SipConfig::builder().workers(1).build().unwrap(),
        registry,
        export: false,
    }
}

/// One run slot, held by a job the test lets go of only after three more
/// are queued behind it with priorities 1, 3, 1: they take the slot highest
/// priority first, and in submission order within a priority.
#[test]
fn queued_jobs_start_by_priority_then_submission_order() {
    let dir = tmp("priority");
    let daemon = daemon_over(&dir, 1);
    let (started_tx, started) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let (started_tx, released) = (Mutex::new(started_tx), Mutex::new(released));
    let blocker = daemon
        .submit(hooked_job(1, "hold", move || {
            started_tx.lock().unwrap().send(()).unwrap();
            released.lock().unwrap().recv().unwrap();
        }))
        .unwrap();
    started.recv().unwrap(); // the blocker holds the slot from here on

    let ran = Arc::new(Mutex::new(Vec::new()));
    let ids: Vec<_> = [("first low", 1), ("high", 3), ("second low", 1)]
        .into_iter()
        .map(|(tag, priority)| {
            let ran = Arc::clone(&ran);
            let job = hooked_job(priority, "mark", move || ran.lock().unwrap().push(tag));
            daemon.submit(job).unwrap()
        })
        .collect();
    for &id in &ids {
        assert_eq!(daemon.status(id).unwrap().state, JobState::Queued);
    }
    release.send(()).unwrap();

    let done: Vec<_> = ids
        .iter()
        .map(|&id| daemon.wait(id, WAIT).unwrap())
        .collect();
    for s in &done {
        assert_eq!(s.state, JobState::Done, "{:?}", s.state);
    }
    assert_eq!(daemon.wait(blocker, WAIT).unwrap().state, JobState::Done);
    assert_eq!(*ran.lock().unwrap(), ["high", "first low", "second low"]);
    // The same order off the status fields: submitted after the first low
    // job, the high one was nevertheless over before that one started.
    let (low, high) = (&done[0], &done[1]);
    assert!(
        low.queued_ms >= high.queued_ms + high.run_ms,
        "low queued {} ms, high queued {} ms and ran {} ms",
        low.queued_ms,
        high.queued_ms,
        high.run_ms
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The number after `"key":` in a JSON text.
fn json_u64(text: &str, key: &str) -> u64 {
    let at = text.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let digits: String = text[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect(key)
}

/// The daemon adds nothing to how a job is scheduled: the same program and
/// configuration get the same chunks, and so the same bits, from
/// `Daemon::submit` as from `Sip::run`.
#[test]
fn a_daemon_job_is_a_one_shot_run() {
    let mut spec = job(NEIGHBOR, "t", 8, 1, None);
    spec.export = true;
    let one_shot = Sip::new(spec.config.clone())
        .run(spec.program.clone(), &spec.bindings)
        .unwrap();
    assert!(one_shot.profile.chunks > 0);

    let dir = tmp("oneshot");
    let daemon = daemon_over(&dir, 1);
    let id = daemon.submit(spec).unwrap();
    let served = daemon.wait(id, WAIT).unwrap();
    assert_eq!(served.state, JobState::Done, "{:?}", served.state);
    let profile = std::fs::read_to_string(served.profile_json.as_ref().unwrap()).unwrap();
    assert_eq!(json_u64(&profile, "chunks"), one_shot.profile.chunks);
    assert_eq!(
        json_u64(&profile, "iterations"),
        one_shot.profile.iterations
    );
    let bits = |v: &f64| v.to_bits();
    assert_eq!(
        served
            .scalars
            .iter()
            .map(|(_, v)| bits(v))
            .collect::<Vec<_>>(),
        one_shot.scalars.values().map(bits).collect::<Vec<_>>()
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job's total grows each time a pardo is met — here the same pardo, five
/// times over — and a finished job was granted all of it.
#[test]
fn progress_ends_at_granted_equals_total() {
    const SWEEPS: &str = "sial pardo_in_do
index sweep = 1, 5
aoindex i = 1, n
scalar count
do sweep
  pardo i
    count += 1.0
  endpardo i
  sip_barrier
enddo sweep
execute sip_allreduce count
endsial
";
    let dir = tmp("progress");
    let daemon = daemon_over(&dir, 1);
    let id = daemon.submit(job(SWEEPS, "t", 4, 2, None)).unwrap();
    let s = daemon.wait(id, WAIT).unwrap();
    assert_eq!(s.state, JobState::Done, "{:?}", s.state);
    assert_eq!((s.granted, s.total), (20, 20), "5 sweeps of 4 iterations");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A long-lived daemon's job table does not grow with every job it ran: a
/// submission past the bound prunes the oldest finished record, and the
/// job that just finished is still there to be asked about.
#[test]
fn the_job_table_keeps_a_bounded_number_of_finished_records() {
    let dir = tmp("prune");
    let daemon = daemon_over(&dir, 1);
    let mut ids = Vec::new();
    for _ in 0..FINISHED_JOBS_KEPT + 2 {
        let id = daemon.submit(job(NEIGHBOR, "t", 1, 1, None)).unwrap();
        assert_eq!(daemon.wait(id, WAIT).unwrap().state, JobState::Done);
        ids.push(id);
    }
    let (oldest, newest) = (ids[0], *ids.last().unwrap());
    assert!(
        daemon.status(oldest).is_none(),
        "the oldest record outlived the bound"
    );
    assert!(daemon.wait(oldest, WAIT).is_none());
    assert_eq!(daemon.status(ids[1]).unwrap().state, JobState::Done);
    assert_eq!(daemon.status(newest).unwrap().state, JobState::Done);
    assert_eq!(daemon.list().len(), FINISHED_JOBS_KEPT + 1);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant name becomes a directory under the data dir: anything but a
/// plain name is refused before it can name a place outside it.
#[test]
fn tenant_names_that_are_not_plain_are_refused() {
    let dir = tmp("tenant");
    let daemon = daemon_over(&dir, 1);
    for bad in ["../x", "a/b", "", "..", "."] {
        let mut spec = job(NEIGHBOR, bad, 2, 1, None);
        spec.export = true;
        match daemon.submit(spec) {
            Err(AdmitError::Invalid(m)) => assert!(m.contains("tenant"), "{m}"),
            other => panic!("tenant {bad:?}: expected Invalid, got {other:?}"),
        }
    }
    assert!(daemon.list().is_empty(), "a refused job leaves no record");
    let ok = daemon.submit(job(NEIGHBOR, "a.b_c-1", 2, 1, None)).unwrap();
    assert_eq!(daemon.wait(ok, WAIT).unwrap().state, JobState::Done);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A contraction in a loop: long, and busy at one pc.
const CONTRACTIONS: &str = "sial contractions
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, m
temp a(i,k)
temp b(k,j)
temp c(i,j)
pardo i, j
  do k
    a(i,k) = 0.5
    b(k,j) = 2.0
    c(i,j) += a(i,k) * b(k,j)
  enddo k
endpardo i, j
endsial
";

/// Fills in a loop: short, and no contraction anywhere.
const FILLS: &str = "sial fills
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, m
temp t(i,j)
pardo i, j
  do k
    t(i,j) = 1.5
  enddo k
endpardo i, j
endsial
";

/// Two jobs run side by side under one process-wide sampler, and each job
/// counts only its own samples: a worker is counted only while its word
/// reads busy, and ticks are at least [`SAMPLE_TICK`] apart, so no worker
/// can hold more samples than its own run time has ticks — however long
/// its neighbour runs. Each job's lines split its own exact busy time, and
/// the long job's contraction ranks first.
#[test]
fn concurrent_jobs_each_count_only_their_own_samples() {
    let spec = |src: &str, m: i64| JobSpec {
        bindings: [("n".to_string(), 4), ("m".to_string(), m)]
            .into_iter()
            .collect(),
        config: SipConfig::builder()
            .workers(1)
            .segment_size(96)
            .build()
            .unwrap(),
        export: true,
        ..job(src, "t", 4, 1, None)
    };
    let dir = tmp("samples");
    let daemon = daemon_over(&dir, 2);
    let long = daemon.submit(spec(CONTRACTIONS, 32)).unwrap();
    let short = daemon.submit(spec(FILLS, 16)).unwrap();
    for (id, hot) in [(long, Some("a(i,k) * b(k,j)")), (short, None)] {
        let s = daemon.wait(id, WAIT).expect("the job must finish");
        assert_eq!(s.state, JobState::Done, "{:?}", s.state);
        let text = std::fs::read_to_string(s.profile_json.as_ref().unwrap()).unwrap();
        let doc = parse_json(&text).unwrap();
        let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).expect(key) as u64;
        assert_eq!(num(&doc, "sample_tick_ns"), SAMPLE_TICK.as_nanos() as u64);
        let workers = doc.get("workers").and_then(Json::as_array).unwrap();
        let ticks: u64 = (workers.iter())
            .map(|w| num(w, "total_ns") / SAMPLE_TICK.as_nanos() as u64 + 1)
            .sum();
        let samples = num(&doc, "samples");
        assert!(
            samples <= ticks,
            "job {id}: {samples} samples, but its workers' run time has {ticks} ticks"
        );
        let lines = doc.get("lines").and_then(Json::as_array).unwrap();
        let busy: u64 = lines.iter().map(|l| num(l, "busy_ns")).sum();
        let exact: u64 = (workers.iter())
            .map(|w| num(w, "total_ns") - num(w, "wait_ns"))
            .sum();
        assert_eq!(busy, exact, "job {id}'s lines split its exact busy time");
        if let Some(hot) = hot {
            assert!(samples > 0, "the long job took no sample");
            let top = lines[0].get("text").and_then(Json::as_str).unwrap();
            assert!(top.contains(hot), "job {id} ranks {top:?} first");
        }
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
