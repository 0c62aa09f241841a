//! The host descriptor, the data directory and peak memory.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Where the harness keeps its own outputs (trace and report files) and,
/// by default, the data directories of the runs.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of `clock_gettime(2)` on Linux.
const THREAD_CPU_CLOCK: i32 = 3;

extern "C" {
    // The C library's wrappers of sched_getaffinity(2), sched_setaffinity(2)
    // and clock_gettime(2), in the library every Rust program on Linux
    // links. All return 0 on success.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut allowed = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: pid 0 is the calling thread, and `allowed` is `size` writable
    // bytes that outlive the call.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// `cpus`.
///
/// On the 2-vCPU sandbox a wake-up that crosses vCPUs goes through the
/// hypervisor: the harness's own 64-byte ping-pong takes 45 µs between two
/// CPUs and 3 µs on one. Which wake-ups cross is the scheduler's choice from
/// one run to the next, so the workloads whose time is wake-ups moved by
/// 20–40 % between runs of the same code on two CPUs and by 3–15 % on one —
/// where two of the three are also faster. Those workloads run on one CPU.
pub fn restrict_this_thread(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        *mask
            .get_mut(cpu / 64)
            .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 is the calling thread, and `mask` is readable for the
    // `size_of_val` bytes passed and outlives the call.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity to {cpus:?}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Nanoseconds of CPU time the calling thread has used. Unlike the wall
/// clock it does not count the time the thread was waiting for its CPU.
pub fn thread_cpu_ns() -> u64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a writable `struct timespec` that outlives the call.
    let rc = unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as u64 * 1_000_000_000 + t.nsec as u64
}

/// File-system type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// Restarts the kernel's peak-resident-set counter of this process at its
/// current resident set, so that the next [`peak_rss_mb`] is the peak of
/// what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process since the last reset, in MiB
/// (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The fields every report starts with. `host_cpus` is the count before any
/// pinning; `cpus_used` lists the CPUs the workload's threads may run on.
pub fn describe(host_cpus: usize, cpus_used: &[usize], data_dir: &Path) -> Vec<(String, Json)> {
    let cpus_used: Vec<f64> = cpus_used.iter().map(|&c| c as f64).collect();
    vec![
        ("host_cpus".into(), Json::Num(host_cpus as f64)),
        ("cpus_used".into(), Json::nums(&cpus_used)),
        (
            "microkernel".into(),
            Json::str(sia_blocks::active_microkernel()),
        ),
        ("rustc".into(), Json::str(env!("BENCH_RUSTC"))),
        ("data_dir".into(), Json::str(data_dir.display().to_string())),
        ("data_fs".into(), Json::str(fs_type(data_dir))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn thread_cpu_time_advances_with_work_not_with_sleep() {
        let before = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = thread_cpu_ns() - before;
        assert!(slept < 10_000_000, "sleeping used {slept} ns of CPU");
        let mut x = 1.0f64;
        while thread_cpu_ns() - before < 12_000_000 {
            x = std::hint::black_box(x * 0.999 + 0.001);
        }
    }

    #[test]
    fn this_thread_may_run_somewhere() {
        assert!(!allowed_cpus().unwrap().is_empty());
    }

    #[test]
    fn root_has_a_file_system() {
        assert_ne!(fs_type(Path::new("/")), "unknown");
    }
}
