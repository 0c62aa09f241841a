//! The SIP simulator: a chunk-grained discrete-event model.
//!
//! Policies reproduced from the real runtime (`sia-runtime`):
//!
//! * **Guided scheduling** — the identical [`GuidedScheduler`] chunk
//!   sequence, with every chunk request/assignment an explicit event through
//!   a serialized master (so master contention at extreme scale emerges
//!   naturally, as in Figure 6's ≥84k-core regression).
//! * **Overlap** — within a chunk, iterations run as a software pipeline:
//!   with prefetch depth ≥ 1 the per-iteration cost is `max(compute, comm)`
//!   plus one exposed fill; with depth 0 (or the GA baseline) costs add.
//! * **Cache pressure** — prefetching more block buffers than the cache
//!   holds causes eviction/refetch, inflating communication (the paper's
//!   BlueGene/P tuning anecdote, §VI-A).
//! * **Barriers and collectives** — log-tree costs plus straggler wait,
//!   using each worker's actual finish time.

use crate::machine::MachineModel;
use sia_runtime::scheduler::{ChunkPolicy, GuidedScheduler};
use sia_runtime::trace::{IterProfile, Trace, TracePhase};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Worker count (the paper's "processors").
    pub workers: u64,
    /// I/O server count (for served-array disk bandwidth aggregation).
    pub io_servers: u64,
    /// The machine.
    pub machine: MachineModel,
    /// Prefetch look-ahead depth (0 disables overlap).
    pub prefetch_depth: u32,
    /// Worker block-cache capacity in blocks.
    pub cache_blocks: u64,
    /// Chunk-sizing policy: guided ÷2 as in the real SIP; the scheduling
    /// ablation swaps it.
    pub chunk_policy: ChunkPolicy,
    /// Extra software overhead per transfer (seconds); the GA baseline uses
    /// a higher value for its one-sided handshakes.
    pub per_transfer_overhead: f64,
}

impl SimConfig {
    /// A SIP-flavored config on `machine` with `workers` workers.
    pub fn sip(machine: MachineModel, workers: u64) -> Self {
        SimConfig {
            workers,
            io_servers: (workers / 32).max(1),
            machine,
            prefetch_depth: 2,
            cache_blocks: 256,
            chunk_policy: ChunkPolicy::default(),
            per_transfer_overhead: 1.0e-6,
        }
    }
}

/// Per-phase simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase label (pardo pc, "serial", "barrier", …).
    pub label: String,
    /// Wall time of the phase (seconds).
    pub time: f64,
    /// Total worker-seconds spent waiting in the phase.
    pub wait: f64,
    /// Bytes moved in the phase (all workers).
    pub bytes: u64,
}

/// Whole-run simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Wall time (seconds).
    pub total_time: f64,
    /// Mean fraction of worker time spent waiting (the paper's Figure 2
    /// bottom line).
    pub wait_fraction: f64,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Total simulated flops.
    pub total_flops: u64,
}

impl SimReport {
    /// Parallel efficiency of this run relative to a reference run:
    /// `(T_ref · P_ref) / (T · P)`.
    pub fn efficiency_vs(&self, reference: &SimReport, p_ref: u64, p: u64) -> f64 {
        (reference.total_time * p_ref as f64) / (self.total_time * p as f64)
    }
}

/// Cost of one iteration of a pardo on this machine/config.
#[derive(Debug, Clone, Copy)]
struct IterCost {
    /// Compute seconds.
    compute: f64,
    /// Communication seconds (network + disk), after cache-pressure
    /// inflation.
    comm: f64,
    /// Bytes moved.
    bytes: u64,
}

fn iter_cost(p: &IterProfile, cfg: &SimConfig) -> IterCost {
    let m = &cfg.machine;
    let compute = p.flops as f64 / m.flops_per_core;
    let net_msgs = p.gets + p.puts;
    let net_bytes = p.get_bytes + p.put_bytes;
    let mut comm = m.transfer_time(net_msgs, net_bytes, cfg.workers)
        + net_msgs as f64 * cfg.per_transfer_overhead;
    // Served traffic: shared disk bandwidth across all workers.
    let disk_msgs = p.requests + p.prepares;
    let disk_bytes = p.request_bytes + p.prepare_bytes;
    if disk_msgs > 0 {
        let agg_disk = m.disk_bw * cfg.io_servers as f64;
        let share = agg_disk / cfg.workers as f64;
        comm += m.transfer_time(disk_msgs, 0, cfg.workers)
            + disk_bytes as f64 / share
            + disk_msgs as f64 * cfg.per_transfer_overhead;
    }
    // Cache pressure: the prefetch stream keeps ~depth+1 block buffers
    // resident ahead of the consumer; when the cache cannot hold them,
    // early arrivals evict blocks still awaiting use and must be refetched
    // ("blocks arriving too early, causing eviction and refetching of
    // blocks that would be reused" — §VI-A). Effective traffic multiplies
    // by the oversubscription ratio.
    if cfg.prefetch_depth > 0 && p.gets > 0 {
        let in_flight = cfg.prefetch_depth as u64 + 1;
        if in_flight > cfg.cache_blocks.max(1) {
            comm *= in_flight as f64 / cfg.cache_blocks.max(1) as f64;
        }
    }
    IterCost {
        compute,
        comm,
        bytes: net_bytes + disk_bytes,
    }
}

/// Time and wait for a chunk of `n` homogeneous iterations.
fn chunk_cost(n: u64, c: IterCost, cfg: &SimConfig) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    if cfg.prefetch_depth == 0 {
        // No overlap: communication fully exposed.
        let t = n as f64 * (c.compute + c.comm);
        (t, n as f64 * c.comm)
    } else {
        // Pipeline: first fetch exposed, then the longer of the two streams.
        let per_iter = c.compute.max(c.comm);
        let exposed = (c.comm - c.compute).max(0.0);
        let t = c.comm + n as f64 * per_iter;
        (t, c.comm + n as f64 * exposed)
    }
}

/// Simulates a traced program.
pub fn simulate(trace: &Trace, cfg: &SimConfig) -> SimReport {
    let w = cfg.workers.max(1) as usize;
    let m = &cfg.machine;
    let mut clocks = vec![0.0f64; w];
    let mut waits = vec![0.0f64; w];
    let mut phases = Vec::with_capacity(trace.phases.len());
    let mut total_bytes = 0u64;

    for phase in &trace.phases {
        match phase {
            TracePhase::Serial(p) => {
                // Every worker executes the serial section redundantly.
                let c = iter_cost(p, cfg);
                let t0 = max_clock(&clocks);
                let (t, wait) = chunk_cost(1, c, cfg);
                for (cl, wl) in clocks.iter_mut().zip(waits.iter_mut()) {
                    *cl += t;
                    *wl += wait;
                }
                total_bytes += c.bytes * w as u64;
                phases.push(PhaseReport {
                    label: "serial".into(),
                    time: max_clock(&clocks) - t0,
                    wait: wait * w as f64,
                    bytes: c.bytes * w as u64,
                });
            }
            TracePhase::Pardo {
                pc,
                iterations,
                per_iter,
            } => {
                let t0 = max_clock(&clocks);
                let (phase_wait, phase_bytes) =
                    simulate_pardo(*iterations, per_iter, cfg, &mut clocks, &mut waits);
                total_bytes += phase_bytes;
                phases.push(PhaseReport {
                    label: format!("pardo@{pc}"),
                    time: max_clock(&clocks) - t0,
                    wait: phase_wait,
                    bytes: phase_bytes,
                });
            }
            TracePhase::SipBarrier | TracePhase::ServerBarrier | TracePhase::Collective => {
                let t0 = max_clock(&clocks);
                let sync = t0 + m.barrier_time(cfg.workers);
                let mut wait_sum = 0.0;
                for (cl, wl) in clocks.iter_mut().zip(waits.iter_mut()) {
                    let wait = sync - *cl;
                    *wl += wait;
                    wait_sum += wait;
                    *cl = sync;
                }
                phases.push(PhaseReport {
                    label: match phase {
                        TracePhase::SipBarrier => "sip_barrier".into(),
                        TracePhase::ServerBarrier => "server_barrier".into(),
                        _ => "collective".into(),
                    },
                    time: sync - t0,
                    wait: wait_sum,
                    bytes: 0,
                });
            }
        }
    }

    let total_time = max_clock(&clocks);
    let total_worker_time: f64 = total_time * w as f64;
    let total_wait: f64 = waits.iter().sum();
    SimReport {
        total_time,
        wait_fraction: if total_worker_time > 0.0 {
            total_wait / total_worker_time
        } else {
            0.0
        },
        phases,
        total_bytes,
        total_flops: trace.total_flops(),
    }
}

fn max_clock(clocks: &[f64]) -> f64 {
    clocks.iter().copied().fold(0.0, f64::max)
}

/// The chunk-grained DES for one pardo.
fn simulate_pardo(
    iterations: u64,
    per_iter: &IterProfile,
    cfg: &SimConfig,
    clocks: &mut [f64],
    waits: &mut [f64],
) -> (f64, u64) {
    let w = clocks.len();
    let m = &cfg.machine;
    let cost = iter_cost(per_iter, cfg);
    let mut sched = GuidedScheduler::with_policy(iterations, w, cfg.chunk_policy);
    let mut phase_wait = 0.0;
    let mut phase_bytes = 0u64;

    // Event queue of chunk-request arrivals at the master, ordered by time.
    // f64 isn't Ord; times are finite so bit-ordering is sound for positives.
    #[derive(PartialEq)]
    struct Ev(f64, usize);
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.1.cmp(&other.1))
        }
    }

    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    for (i, &c) in clocks.iter().enumerate() {
        heap.push(Reverse(Ev(c + m.net_latency, i)));
    }
    let mut master_free = 0.0f64;

    while let Some(Reverse(Ev(arrive, worker))) = heap.pop() {
        // The master serializes scheduler requests; assigning a chunk also
        // costs per-iteration enumeration/marshalling time (the real master
        // builds each chunk's explicit iteration list).
        let service_start = arrive.max(master_free);
        match sched.next_chunk() {
            Some(range) => {
                let n = range.end - range.start;
                master_free = service_start + m.master_service + n as f64 * m.master_per_iter;
                let assign_arrive = master_free + m.net_latency;
                // Idle from sending the request until the assignment lands.
                let idle = assign_arrive - clocks[worker];
                waits[worker] += idle;
                phase_wait += idle;
                let (t, chunk_wait) = chunk_cost(n, cost, cfg);
                waits[worker] += chunk_wait;
                phase_wait += chunk_wait;
                clocks[worker] = assign_arrive + t;
                phase_bytes += cost.bytes * n;
                heap.push(Reverse(Ev(clocks[worker] + m.net_latency, worker)));
            }
            None => {
                // NoMoreChunks: the reply itself still costs a round trip.
                master_free = service_start + m.master_service;
                let done_at = master_free + m.net_latency;
                if done_at > clocks[worker] {
                    let idle = done_at - clocks[worker];
                    waits[worker] += idle;
                    phase_wait += idle;
                    clocks[worker] = done_at;
                }
            }
        }
    }
    (phase_wait, phase_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CRAY_XT5, SUN_OPTERON_IB};

    fn flat_trace(iterations: u64, flops: u64, get_bytes: u64) -> Trace {
        Trace {
            phases: vec![TracePhase::Pardo {
                pc: 0,
                iterations,
                per_iter: IterProfile {
                    gets: if get_bytes > 0 { 1 } else { 0 },
                    get_bytes,
                    flops,
                    ..Default::default()
                },
            }],
        }
    }

    #[test]
    fn more_workers_faster_until_saturation() {
        let t = flat_trace(10_000, 2_000_000_000, 2_000_000);
        let t1 = simulate(&t, &SimConfig::sip(CRAY_XT5, 10)).total_time;
        let t2 = simulate(&t, &SimConfig::sip(CRAY_XT5, 100)).total_time;
        let t3 = simulate(&t, &SimConfig::sip(CRAY_XT5, 1000)).total_time;
        assert!(t2 < t1 * 0.5, "10→100 workers must speed up: {t1} {t2}");
        assert!(t3 < t2, "100→1000 still faster: {t2} {t3}");
        // Efficiency decays.
        let e2 = (t1 * 10.0) / (t2 * 100.0);
        let e3 = (t1 * 10.0) / (t3 * 1000.0);
        assert!(e2 <= 1.02);
        assert!(e3 < e2);
    }

    #[test]
    fn tiny_work_at_huge_scale_slows_down() {
        // Figure 6 regime: few small tasks over very many workers — adding
        // workers past the knee must not help (master RTT dominates).
        let t = flat_trace(200_000, 2_000_000, 0);
        let t72k = simulate(&t, &SimConfig::sip(CRAY_XT5, 72_000)).total_time;
        let t108k = simulate(&t, &SimConfig::sip(CRAY_XT5, 108_000)).total_time;
        assert!(
            t108k > t72k * 0.95,
            "no meaningful speedup past saturation: {t72k} vs {t108k}"
        );
    }

    #[test]
    fn overlap_beats_no_overlap_when_comm_bound() {
        let t = flat_trace(5_000, 10_000_000, 4_000_000);
        let mut with = SimConfig::sip(SUN_OPTERON_IB, 64);
        with.prefetch_depth = 2;
        let mut without = with;
        without.prefetch_depth = 0;
        let tw = simulate(&t, &with).total_time;
        let to = simulate(&t, &without).total_time;
        assert!(tw < to, "overlap must help: {tw} vs {to}");
    }

    #[test]
    fn wait_fraction_small_when_compute_bound() {
        // Heavy compute, light comm → the paper's 8–13% (or less).
        let t = flat_trace(5_000, 4_000_000_000, 400_000);
        let r = simulate(&t, &SimConfig::sip(SUN_OPTERON_IB, 64));
        assert!(r.wait_fraction < 0.15, "wait fraction {}", r.wait_fraction);
    }

    #[test]
    fn wait_fraction_high_when_comm_bound_without_overlap() {
        let t = flat_trace(5_000, 1_000_000, 8_000_000);
        let mut cfg = SimConfig::sip(SUN_OPTERON_IB, 64);
        cfg.prefetch_depth = 0;
        let r = simulate(&t, &cfg);
        assert!(r.wait_fraction > 0.5, "wait fraction {}", r.wait_fraction);
    }

    #[test]
    fn cache_pressure_inflates_comm() {
        let mut per_iter = IterProfile {
            gets: 100,
            get_bytes: 100 * 64 * 1024,
            flops: 50_000_000,
            ..Default::default()
        };
        let trace = Trace {
            phases: vec![TracePhase::Pardo {
                pc: 0,
                iterations: 1000,
                per_iter,
            }],
        };
        let mut small_cache = SimConfig::sip(CRAY_XT5, 64);
        small_cache.cache_blocks = 3;
        small_cache.prefetch_depth = 8;
        let mut big_cache = small_cache;
        big_cache.cache_blocks = 10_000;
        let ts = simulate(&trace, &small_cache).total_time;
        let tb = simulate(&trace, &big_cache).total_time;
        assert!(ts > tb, "thrashing cache must be slower: {ts} vs {tb}");
        per_iter.gets = 0;
        let _ = per_iter;
    }

    #[test]
    fn barriers_synchronize_clocks() {
        let t = Trace {
            phases: vec![
                TracePhase::Pardo {
                    pc: 0,
                    iterations: 7, // uneven over 4 workers
                    per_iter: IterProfile {
                        flops: 1_000_000_000,
                        ..Default::default()
                    },
                },
                TracePhase::SipBarrier,
            ],
        };
        let r = simulate(&t, &SimConfig::sip(CRAY_XT5, 4));
        assert_eq!(r.phases.len(), 2);
        assert!(r.phases[1].wait > 0.0, "stragglers create barrier wait");
    }

    #[test]
    fn serial_phase_costs_everyone() {
        let t = Trace {
            phases: vec![TracePhase::Serial(IterProfile {
                flops: 1_000_000_000,
                ..Default::default()
            })],
        };
        let one = simulate(&t, &SimConfig::sip(CRAY_XT5, 1)).total_time;
        let many = simulate(&t, &SimConfig::sip(CRAY_XT5, 1000)).total_time;
        assert!((one - many).abs() / one < 1e-9, "serial does not scale");
    }

    #[test]
    fn efficiency_helper() {
        let t = flat_trace(10_000, 1_000_000_000, 100_000);
        let r32 = simulate(&t, &SimConfig::sip(SUN_OPTERON_IB, 32));
        let r256 = simulate(&t, &SimConfig::sip(SUN_OPTERON_IB, 256));
        let eff = r256.efficiency_vs(&r32, 32, 256);
        assert!(eff > 0.3 && eff <= 1.05, "eff {eff}");
    }

    #[test]
    fn report_totals() {
        let t = flat_trace(100, 1_000_000, 1024);
        let r = simulate(&t, &SimConfig::sip(CRAY_XT5, 8));
        assert_eq!(r.total_flops, 100 * 1_000_000);
        assert_eq!(r.total_bytes, 100 * 1024);
        assert!(r.total_time > 0.0);
    }
}
