//! # sia-runtime — the SIP (Super Instruction Processor)
//!
//! A parallel virtual machine executing SIA bytecode, reproducing the runtime
//! of *A Block-Oriented Language and Runtime System for Tensor Algebra with
//! Very Large Arrays* (SC 2010):
//!
//! * a **master** that dry-runs the program for memory feasibility, doles out
//!   pardo chunks with guided scheduling, and coordinates barriers,
//!   collectives, and checkpoints;
//! * **workers** that interpret the bytecode SPMD-style with a block pool,
//!   an LRU block cache, asynchronous get/put with prefetch look-ahead, and
//!   per-instruction profiling;
//! * **I/O servers** backing `served` arrays on disk with write-behind LRU
//!   caches.
//!
//! The MPI layer of the original is replaced by [`sia_fabric`] (ranks are
//! threads); everything above it — the protocol, the overlap machinery, the
//! scheduling policies — follows the paper.
//!
//! ```
//! use sia_runtime::{Sip, SipConfig};
//! use sia_bytecode::ConstBindings;
//!
//! let src = r#"
//! sial axpy
//! aoindex i = 1, n
//! distributed X(i)
//! temp t(i)
//! scalar total
//! pardo i
//!   t(i) = 2.5
//!   put X(i) = t(i)
//! endpardo i
//! sip_barrier
//! pardo i
//!   get X(i)
//!   total += X(i) * X(i)
//! endpardo i
//! sip_barrier
//! execute sip_allreduce total
//! endsial
//! "#;
//! let program = sial_frontend::compile(src).unwrap();
//! let mut bindings = ConstBindings::new();
//! bindings.insert("n".into(), 4);
//! let mut config = SipConfig::default();
//! config.workers = 2;
//! let out = Sip::new(config).run(program, &bindings).unwrap();
//! // 4 segments × 8 elements × 2.5² each:
//! assert!((out.scalars["total"] - 4.0 * 8.0 * 6.25).abs() < 1e-9);
//! ```

// The public modules: each is a coherent surface on its own (the event
// tracer, the metrics model, the verifier, the simulator trace, …).
pub mod cache;
pub mod dryrun;
pub mod events;
pub mod ioserver;
pub mod json;
pub mod metrics;
pub mod scheduler;
pub mod serve;
pub mod trace;
pub mod verify;

// Runtime internals: reachable only through the re-exports below.
pub(crate) mod access;
pub(crate) mod diag;
pub(crate) mod error;
pub(crate) mod ft;
pub(crate) mod interp;
pub(crate) mod layout;
pub(crate) mod master;
pub(crate) mod memory;
pub(crate) mod msg;
pub(crate) mod profile;
pub(crate) mod registry;
pub(crate) mod sampler;
pub(crate) mod store;
pub(crate) mod worker;

pub use cache::{BlockGet, CacheStats};
pub use diag::{diagnostics_to_json, lint_diag_json};
pub use dryrun::MemoryEstimate;
pub use error::{CommKind, RuntimeError};
pub use events::{
    lint_chrome_trace, CommOp, EventKind, RankTrace, RecoveryEvent, TraceEvent, TraceLint,
    TraceSink, TraceTimeline,
};
pub use layout::{
    ConfigError, CrashSchedule, FaultConfig, Layout, SegmentConfig, SipConfig, SipConfigBuilder,
    Topology,
};
pub use memory::{BlockManager, MemoryStats};
pub use metrics::{
    CommStats, FaultStats, Merge, Metrics, RecoveryStats, ServerStats, SparseStats, WaitCause,
    WaitStats,
};
pub use msg::{BlockKey, OpId, Payload, SipMsg};
pub use profile::{lint_profile_json, ProfileLine, ProfileReport, WorkerProfile};
pub use registry::{SuperArg, SuperEnv, SuperRegistry};
pub use sampler::SAMPLE_TICK;
pub use serve::{
    jain_index, AdmitError, Daemon, DaemonConfig, JobId, JobProgress, JobSpec, JobState, JobStatus,
    ServeHandles,
};
pub use sia_fabric::{FaultPlan, FaultSnapshot};
pub use verify::{check_program, Diagnostic, Rule};

/// The items most embedders need: configure a SIP, run it, read the
/// metrics/profile, and handle the trace.
pub mod prelude {
    pub use crate::{
        BlockGet, Merge, Metrics, ProfileReport, RunOutput, Sip, SipConfig, SipConfigBuilder,
        SparseStats, TraceSink, TraceTimeline, WaitCause,
    };
}

use sia_blocks::Block;
use sia_bytecode::{ConstBindings, Program};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fabric traffic totals for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Messages sent across all ranks.
    pub messages: u64,
    /// Bytes sent across all ranks.
    pub bytes: u64,
}

/// Per-rank traffic (index = rank: 0 master, then workers, then I/O servers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Messages sent by this rank.
    pub sent_messages: u64,
    /// Bytes sent by this rank.
    pub sent_bytes: u64,
    /// Messages received by this rank.
    pub received_messages: u64,
    /// Bytes received by this rank.
    pub received_bytes: u64,
    /// Times this rank's blocking receive ended on its deadline rather than
    /// on a message: the wake-ups a timer — not traffic — caused.
    pub deadline_wakeups: u64,
}

/// Everything a SIP run returns.
#[derive(Debug)]
pub struct RunOutput {
    /// Final scalar values (worker 0's view; collectives make these global).
    pub scalars: BTreeMap<String, f64>,
    /// Distributed arrays gathered to the master (only when
    /// `collect_distributed` is set): array name → segment key → block.
    pub collected: BTreeMap<String, BTreeMap<Vec<i64>, Block>>,
    /// Merged per-instruction profile.
    pub profile: ProfileReport,
    /// Diagnostics from all ranks (barrier misuse detections, …).
    pub warnings: Vec<String>,
    /// The dry-run estimate computed before execution.
    pub dry_run: MemoryEstimate,
    /// Fabric traffic totals.
    pub traffic: TrafficSummary,
    /// Per-rank traffic (rank 0 = master, then workers, then I/O servers) —
    /// the load-balance view.
    pub traffic_per_rank: Vec<RankTraffic>,
    /// The merged cross-rank event timeline (`Some` when tracing was
    /// enabled via [`SipConfig::trace`] or a `trace_path`).
    pub trace: Option<TraceTimeline>,
}

/// The SIP entry point: configure, register super instructions, run.
pub struct Sip {
    config: SipConfig,
    registry: SuperRegistry,
    /// Serving hooks (job id + progress counters) when this run is a
    /// daemon job; `None` for one-shot runs.
    serving: Option<serve::ServeHandles>,
}

impl Sip {
    /// Creates a SIP with the given configuration and an empty registry.
    pub fn new(config: SipConfig) -> Self {
        Sip {
            config,
            registry: SuperRegistry::new(),
            serving: None,
        }
    }

    /// Installs the multi-tenant serving hooks (called by
    /// [`serve::Daemon`] before running a job): the job's master counts
    /// its progress where the daemon can read it. The run itself is
    /// scheduled exactly as a one-shot run.
    pub fn set_serving(&mut self, handles: serve::ServeHandles) {
        self.serving = Some(handles);
    }

    /// Mutable access to the super-instruction registry.
    pub fn registry_mut(&mut self) -> &mut SuperRegistry {
        &mut self.registry
    }

    /// Replaces the registry wholesale.
    pub fn with_registry(mut self, registry: SuperRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SipConfig {
        &self.config
    }

    /// Runs a program to completion.
    ///
    /// Performs the dry run first; if a `memory_budget` is configured and the
    /// estimate exceeds it, returns [`RuntimeError::Infeasible`] *without*
    /// launching the run (reporting a sufficient worker count, as the paper
    /// prescribes).
    pub fn run(
        &self,
        program: Program,
        bindings: &ConstBindings,
    ) -> Result<RunOutput, RuntimeError> {
        if self.config.workers == 0 {
            return Err(RuntimeError::Resolve("need at least one worker".into()));
        }
        let layout = Arc::new(Layout::for_config(
            Arc::new(program),
            bindings,
            &self.config,
        )?);
        let topology = layout.topology;

        // ---- dry run -------------------------------------------------------
        let estimate = dryrun::estimate(&layout, &self.config);
        if let Some(budget) = self.config.memory_budget {
            if !estimate.feasible(budget) {
                let sufficient =
                    dryrun::sufficient_workers(&layout, &self.config, budget).unwrap_or(usize::MAX);
                return Err(RuntimeError::Infeasible {
                    needed_per_worker: estimate.per_worker_bytes,
                    budget,
                    sufficient_workers: sufficient,
                });
            }
        }

        // The walk's predicted fabric bytes feed only the `comm_plan`
        // metrics. A program the trace walker cannot model (e.g. one that
        // would nest pardos) predicts 0 bytes; the run itself is unaffected.
        let predicted_bytes =
            trace::predicted_fabric_bytes(&layout, &self.config.sparsity_density).unwrap_or(0);

        // ---- run directory ---------------------------------------------------
        let (run_dir, owned_dir) = match &self.config.run_dir {
            Some(d) => (d.clone(), false),
            None => {
                let d = std::env::temp_dir().join(format!(
                    "sia-run-{}-{}",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos())
                        .unwrap_or(0)
                ));
                (d, true)
            }
        };
        // Workers see the resolved run directory (epoch checkpoints land
        // there) and the served-epoch count a previous, interrupted run left
        // behind (surfaced to programs via `execute sip_resume_epoch s`);
        // the master counts its epoch commits on from the same count. A
        // corrupt manifest fails the run here, before any rank starts.
        let resumed_epochs = master::read_epoch_manifest(&run_dir)?;
        std::fs::create_dir_all(&run_dir)
            .map_err(|e| RuntimeError::ServedIo(format!("create run dir: {e}")))?;
        let mut worker_config = self.config.clone();
        worker_config.run_dir = Some(run_dir.clone());

        // ---- spawn the virtual machine -----------------------------------------
        let fault_plan = self.config.fault.as_ref().map(|f| f.plan.clone());
        // A daemon job's fabric world carries the job id as its tag, so
        // every envelope of the run attributes to one tenant.
        let world_tag = self.serving.as_ref().map(|h| h.job).unwrap_or(0);
        let (mut endpoints, stats) =
            sia_fabric::build_tagged::<SipMsg>(topology.world_size(), fault_plan, world_tag);
        let mut io_eps: Vec<_> = endpoints.split_off(1 + topology.workers);
        let worker_eps: Vec<_> = endpoints.split_off(1);
        let master_ep = endpoints.pop().expect("master endpoint");

        let mut master = master::Master::new(
            Arc::clone(&layout),
            master_ep,
            run_dir.clone(),
            self.config.fault.as_ref(),
        );
        master.served_epochs = resumed_epochs;
        if let Some(h) = &self.serving {
            master.set_progress(Arc::clone(&h.progress));
        }

        // One epoch `Instant` shared by every rank's trace sink: merged
        // timestamps need no clock alignment.
        let trace_on = self.config.tracing();
        let trace_cap = self.config.trace_buffer_events;
        let trace_epoch = std::time::Instant::now();
        let mk_sink = move || {
            if trace_on {
                TraceSink::enabled(trace_cap, trace_epoch)
            } else {
                TraceSink::disabled()
            }
        };
        if trace_on {
            master.set_trace(mk_sink());
        }

        // The run's sampling table, allocated here rather than on the
        // sampler's thread, and sampled until the world is gone.
        let samples = sampler::RunSamples::new(topology.workers, layout.program.code.len());
        let sampling = sampler::Sampler::global().register(&samples);

        let result = std::thread::scope(|scope| {
            // Workers.
            for (i, ep) in worker_eps.into_iter().enumerate() {
                let word = samples.rank(i);
                let layout = Arc::clone(&layout);
                let config = worker_config.clone();
                let registry = self.registry.clone();
                let collect = self.config.collect_distributed;
                scope.spawn(move || {
                    let mut w = worker::Worker::new(layout, config, ep, registry);
                    w.resumed_epochs = resumed_epochs;
                    w.set_sampling(word);
                    if trace_on {
                        w.set_trace(mk_sink());
                    }
                    run_worker(&mut w, collect);
                });
            }
            // I/O servers. Serving daemons point every job at one shared
            // served directory; one-shot runs keep the private default
            // under the run directory.
            let served_dir = self
                .config
                .served_dir
                .clone()
                .unwrap_or_else(|| run_dir.join("served"));
            for ep in io_eps.drain(..) {
                let layout = Arc::clone(&layout);
                let dir = served_dir.clone();
                let cap = self.config.server_cache_blocks;
                scope.spawn(move || {
                    match ioserver::IoServer::new(layout, ep, dir, cap) {
                        Ok(mut server) => {
                            server.epoch = resumed_epochs;
                            if trace_on {
                                server.set_trace(mk_sink());
                            }
                            let _ = server.run();
                        }
                        Err(_) => { /* workers will fail on prepare/request */ }
                    }
                });
            }
            // The master runs on the calling thread.
            master.run()
        });
        drop(sampling);

        if owned_dir {
            let _ = std::fs::remove_dir_all(&run_dir);
        }

        let mut master_out = result?;

        // ---- assemble output -----------------------------------------------------
        let mut scalars = BTreeMap::new();
        if let Some(first) = master_out.scalars.first() {
            for (decl, value) in layout.program.scalars.iter().zip(first) {
                scalars.insert(decl.name.clone(), *value);
            }
        }
        let mut collected: BTreeMap<String, BTreeMap<Vec<i64>, Block>> = BTreeMap::new();
        for (key, block) in master_out.collected {
            let name = layout.program.arrays[key.array.index()].name.clone();
            collected
                .entry(name)
                .or_default()
                .insert(key.segs().iter().map(|&s| s as i64).collect(), block);
        }
        let mut profile = ProfileReport::merge(&layout.program, &master_out.profiles);
        // Fold in the counters the workers can't carry themselves: master
        // recovery, I/O-server totals, and fabric injection.
        profile.metrics.recovery.merge(&master_out.recovery);
        profile.metrics.server.merge(&master_out.server);
        Merge::merge(&mut profile.metrics.fabric, &stats.total_faults());
        // Run-level fabric figures: what the walk predicted against what
        // the fabric measured, plus envelope-batching savings.
        profile.metrics.plan.coalesced_messages = stats.total_messages_coalesced();
        profile.metrics.plan.predicted_bytes = predicted_bytes;
        profile.metrics.plan.actual_bytes = stats.total_bytes_sent();
        profile.dry_run_estimate_bytes = estimate.per_worker_bytes;

        // ---- merged trace timeline -------------------------------------------
        let trace = trace_on.then(|| {
            let mut ranks = std::mem::take(&mut master_out.traces);
            ranks.sort_by_key(|r| r.rank);
            TraceTimeline { ranks }
        });
        if let (Some(tl), Some(path)) = (&trace, &self.config.trace_path) {
            std::fs::write(path, tl.to_chrome_json())
                .map_err(|e| RuntimeError::ServedIo(format!("write trace {path:?}: {e}")))?;
        }
        if let Some(path) = &self.config.profile_json {
            std::fs::write(path, profile.to_json())
                .map_err(|e| RuntimeError::ServedIo(format!("write profile {path:?}: {e}")))?;
        }
        let traffic_per_rank: Vec<RankTraffic> = (0..topology.world_size())
            .map(|r| {
                let c = stats.counters_of(sia_fabric::Rank(r));
                RankTraffic {
                    sent_messages: c.messages_sent(),
                    sent_bytes: c.bytes_sent(),
                    received_messages: c.messages_received(),
                    received_bytes: c.bytes_received(),
                    deadline_wakeups: c.deadline_wakeups(),
                }
            })
            .collect();
        Ok(RunOutput {
            scalars,
            collected,
            profile,
            warnings: master_out.warnings,
            dry_run: estimate,
            traffic: TrafficSummary {
                messages: stats.total_messages_sent(),
                bytes: stats.total_bytes_sent(),
            },
            traffic_per_rank,
            trace,
        })
    }

    /// Runs the dry-run analysis only (no threads spawned).
    pub fn dry_run(
        &self,
        program: Program,
        bindings: &ConstBindings,
    ) -> Result<MemoryEstimate, RuntimeError> {
        let layout = Layout::for_config(Arc::new(program), bindings, &self.config)?;
        Ok(dryrun::estimate(&layout, &self.config))
    }

    /// Runs the dry-run analysis *and* the trace walk's fabric-byte
    /// prediction (no threads spawned) — `sial dryrun` prints both.
    pub fn plan(
        &self,
        program: Program,
        bindings: &ConstBindings,
    ) -> Result<(MemoryEstimate, u64), RuntimeError> {
        let layout = Layout::for_config(Arc::new(program), bindings, &self.config)?;
        Ok((
            dryrun::estimate(&layout, &self.config),
            trace::predicted_fabric_bytes(&layout, &self.config.sparsity_density)?,
        ))
    }
}

fn run_worker(w: &mut worker::Worker, collect: bool) {
    let master = w.layout.topology.master();
    match w.execute_program() {
        // A worker that executed its scheduled crash unwinds silently: its
        // endpoint is dead and the master recovers around it.
        Err(_) if w.endpoint.is_crashed() => {}
        Ok(()) => {
            // A peer's put to a block homed here can still be in flight when
            // our own program text ends. Before snapshotting the store for
            // collection, cross an end-of-run barrier: every worker first
            // drains its own put acks (an ack means the home applied the
            // put), so once all workers have entered, every put has landed.
            let blocks: Vec<(BlockKey, sia_blocks::BlockHandle)> = if collect {
                match w.barrier(crate::msg::BarrierKind::Sip) {
                    Ok(_) => w.mem.drain_home(),
                    // The run is aborting; the master won't read these.
                    Err(_) => Vec::new(),
                }
            } else {
                Vec::new()
            };
            let rank = w.endpoint.rank().0;
            let msg = SipMsg::WorkerDone {
                scalars: w.scalars.clone(),
                blocks,
                profile: Box::new(std::mem::take(&mut w.profile)),
                warnings: std::mem::take(&mut w.warnings),
                trace: w.trace.drain(rank, format!("worker {rank}")),
            };
            let _ = w.endpoint.send(master, msg);
            w.service_until_shutdown();
        }
        Err(e) => {
            let _ = w.endpoint.send(
                master,
                SipMsg::WorkerFailed {
                    error: e.to_string(),
                },
            );
            w.service_until_shutdown();
        }
    }
}
