//! The host gauge: how much slower than quiet the host is, sampled while the
//! workload runs.
//!
//! The sandbox's vCPUs share physical cores with other tenants. While a
//! neighbour is busy on the same core, a loop bound by arithmetic throughput
//! takes 1.7 times as long and more, the system's 256³ GEMM 1.3 times, a
//! thread ping-pong 1.35–1.4 times — and a loop bound by the latency of one
//! dependent chain is not slowed at all. Neighbours come and go in phases
//! ten seconds to minutes long, so a whole invocation can sit in one: sets
//! of ten runs of the same code had medians 30 % apart, which no number of
//! repeats inside an invocation averages out (README, probe finding 5).
//!
//! So one thread per CPU the workload uses samples, every [`PERIOD`], the CPU
//! time of a throughput-bound kernel over that of a latency-bound one. The
//! quotient does not depend on the clock frequency, costs under 1 % of the
//! CPU, and — being CPU time of the sampling thread, not wall time — does not
//! count the time the thread waited for a CPU the workload was using. Its
//! value on a quiet host is [`QUIET_RATIO`]; a sample's *slowdown* is the
//! quotient over that. Every timed region is reported as the seconds it
//! would have taken on a quiet host, [`quiet_seconds`]; the report keeps the
//! seconds as measured and the slowdown beside them.

use crate::host;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two samples on one CPU.
const PERIOD: Duration = Duration::from_millis(50);

/// [`multiply_adds`] over [`dependent_chain`] in CPU time on a quiet host:
/// a property of the two loops as this compiler builds them and of the core
/// (the report names the compiler; the core was a 2.1 GHz Xeon of the
/// sandbox). On another core the value differs by a constant factor, which
/// moves every reported time by the same share and no comparison between
/// two builds on that host.
const QUIET_RATIO: f64 = 1.16;

/// Share of the gauge's loss that the workloads lose. Fitted on 369 repeats
/// (79 to 102 of each workload) that ran under slowdowns from 1.0 to 2.3:
/// taken five at a time as the runs of an invocation, their medians spread
/// (interquartile distance over median) by 8.9 / 23.9 / 21.0 / 12.5 % as
/// measured and by 4.9 / 6.6 / 3.1 / 5.3 % after [`quiet_seconds`]
/// (`ccsd_dense`, `putget_fine`, `served_sweep`, `serve_mix`). Each
/// workload's own best value lies between 0.6 and 1.0 and its spread is flat
/// around it, so one value serves all four.
const WORKLOAD_SHARE: f64 = 0.8;

/// 256 independent multiply-add chains in an array that stays in the first
/// cache level: bound by how many the core can issue per cycle, which is
/// what a busy neighbour on the core takes away.
fn multiply_adds() -> f64 {
    let mut a = [1.0f64; 256];
    for _ in 0..8_000 {
        for x in a.iter_mut() {
            *x = *x * 0.999_999 + 1e-9;
        }
    }
    a.iter().sum()
}

/// One chain of multiply-adds, each waiting for the one before: bound by
/// latency, which a busy neighbour leaves alone.
fn dependent_chain() -> f64 {
    let mut x = 1.0f64;
    for _ in 0..100_000 {
        x = x * 0.999_999 + 1e-9;
    }
    x
}

/// CPU nanoseconds the calling thread spends in `f`.
fn cpu_ns(f: fn() -> f64) -> f64 {
    let before = host::thread_cpu_ns();
    black_box(f());
    (host::thread_cpu_ns() - before) as f64
}

/// One sample: the quotient of the two kernels' CPU times.
fn ratio() -> f64 {
    let chain = cpu_ns(dependent_chain);
    cpu_ns(multiply_adds) / chain
}

/// When a sample was taken and the slowdown it read.
type Samples = Arc<Mutex<Vec<(Instant, f64)>>>;

/// The running gauge. Dropping it stops and joins its threads.
pub struct Gauge {
    stop: Arc<AtomicBool>,
    samples: Samples,
    threads: Vec<JoinHandle<()>>,
}

impl Gauge {
    /// Starts one sampling thread on each of `cpus`.
    pub fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Samples::default();
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (stop, samples) = (stop.clone(), samples.clone());
                std::thread::spawn(move || {
                    if let Err(e) = host::restrict_this_thread(&[cpu]) {
                        eprintln!("sia-benchmark: host gauge on CPU {cpu}: {e}");
                        return;
                    }
                    // `stop` publishes nothing: the samples are behind the mutex.
                    while !stop.load(Ordering::Relaxed) {
                        let slowdown = ratio() / QUIET_RATIO;
                        samples
                            .lock()
                            .expect("a gauge thread panicked")
                            .push((Instant::now(), slowdown));
                        std::thread::sleep(PERIOD);
                    }
                })
            })
            .collect();
        Gauge {
            stop,
            samples,
            threads,
        }
    }

    /// Mean slowdown over the samples taken from `from` to `to`, on all
    /// CPUs; 1.0 for a region too short to hold a sample.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("a gauge thread panicked");
        let (sum, count) = samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .fold((0.0, 0u32), |(sum, count), &(_, s)| (sum + s, count + 1));
        if count == 0 {
            1.0
        } else {
            sum / f64::from(count)
        }
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A gauge thread that panicked already said so on standard error.
            let _ = t.join();
        }
    }
}

/// The seconds a region that took `raw_s` under `slowdown` would have taken
/// on a quiet host.
pub fn quiet_seconds(raw_s: f64, slowdown: f64) -> f64 {
    raw_s / (1.0 + WORKLOAD_SHARE * (slowdown - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_seconds_undoes_the_workloads_share_of_the_slowdown() {
        assert_eq!(quiet_seconds(3.0, 1.0), 3.0);
        let contended = 3.0 * (1.0 + WORKLOAD_SHARE * 0.7);
        assert!(contended > 3.0);
        assert!((quiet_seconds(contended, 1.7) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_samples_each_cpu_and_stops() {
        let cpus = host::allowed_cpus().unwrap();
        let from = Instant::now();
        let gauge = Gauge::start(&cpus[..1]);
        std::thread::sleep(4 * PERIOD);
        let read = gauge.slowdown(from, Instant::now());
        assert!(read > 0.1 && read < 10.0, "slowdown {read}");
        assert!(gauge.samples.lock().unwrap().len() >= 2);
        assert_eq!(gauge.slowdown(from, from), 1.0, "no sample, no correction");
        drop(gauge);
    }
}
