//! The busy-time sampler: one process-wide thread that reads every running
//! worker's state word each [`SAMPLE_TICK`] and counts where the busy ones
//! are.
//!
//! The paper's SIP "keeps track of very detailed performance metrics without
//! an impact on performance". So an instruction boundary reads no clock: the
//! worker stores `(pc, busy)` into its [`RankWord`], one relaxed atomic
//! store, and `wait_until` switches the word to its [`WaitCause`] while it
//! blocks (waits keep their exact timing). Each tick the sampler counts one
//! `(rank, pc)` sample for every word that reads busy, into a table the
//! run's caller allocated. When a worker's program ends it splits its exact
//! busy time — run time minus exact waits — across pcs in proportion to its
//! samples ([`WorkerProfile::apportion_busy`]).
//!
//! One thread serves every run of the process, a daemon's concurrent jobs
//! included: each run registers its own words and table, so a run counts
//! only its own samples. With no run registered the thread parks with no
//! deadline, so an idle `siald` or test process never wakes for it. It
//! allocates nothing per tick.
//!
//! [`WorkerProfile::apportion_busy`]: crate::profile::WorkerProfile::apportion_busy

// Every atomic here is `Relaxed`: a word and a count publish no other data,
// and a sample read a moment early or late only moves one count.

use crate::metrics::WaitCause;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// How often the sampler reads every registered run's words. Ticks are at
/// least this far apart; per-pc busy is resolved to about one tick per
/// rank.
pub const SAMPLE_TICK: Duration = Duration::from_millis(1);

// A word is `state << 32 | pc`.
/// Outside the program: before its first instruction or after `halt`.
const OFF: u64 = 0;
/// Executing the instruction at the word's pc.
const BUSY: u64 = 1;
/// Blocked in `wait_until`; the state is `WAITING + cause index`.
const WAITING: u64 = 2;

/// One worker's state word, alone on its cache line: every instruction
/// boundary of the rank stores to it.
#[repr(align(128))]
struct Word(AtomicU64);

/// One run's sampling state: a word per worker and a sample count per
/// `(worker, pc)`, both allocated by the run's caller.
pub(crate) struct RunSamples {
    words: Box<[Word]>,
    counts: Box<[AtomicU64]>,
    pcs: usize,
}

impl RunSamples {
    /// The state of a run of `ranks` workers over a program of `pcs`
    /// instructions.
    pub(crate) fn new(ranks: usize, pcs: usize) -> Arc<Self> {
        Arc::new(RunSamples {
            words: (0..ranks).map(|_| Word(AtomicU64::new(OFF))).collect(),
            counts: (0..ranks * pcs).map(|_| AtomicU64::new(0)).collect(),
            pcs,
        })
    }

    /// Worker `rank`'s handle on its word and its row of counts.
    pub(crate) fn rank(self: &Arc<Self>, rank: usize) -> RankWord {
        assert!(rank < self.words.len(), "rank {rank} has no word");
        RankWord {
            run: Arc::clone(self),
            rank,
        }
    }

    /// Counts one sample for every busy word.
    fn tick(&self) {
        for (rank, word) in self.words.iter().enumerate() {
            if let Some(pc) = busy_pc(word.0.load(Relaxed)) {
                if pc < self.pcs {
                    // The sampler is the table's only writer.
                    let count = &self.counts[rank * self.pcs + pc];
                    count.store(count.load(Relaxed) + 1, Relaxed);
                }
            }
        }
    }
}

/// The pc a word charges, when it reads busy.
pub(crate) fn busy_pc(word: u64) -> Option<usize> {
    (word >> 32 == BUSY).then_some(word as u32 as usize)
}

/// A worker's handle on its state word and its row of sample counts.
pub(crate) struct RankWord {
    run: Arc<RunSamples>,
    rank: usize,
}

impl RankWord {
    /// A word no sampler reads, for a worker outside any run's world: it
    /// takes no samples, so its busy time splits by execution count.
    pub(crate) fn detached() -> Self {
        RunSamples::new(1, 0).rank(0)
    }

    fn word(&self) -> &AtomicU64 {
        &self.run.words[self.rank].0
    }

    /// Marks the rank busy executing `pc`: an instruction boundary.
    #[inline]
    pub(crate) fn busy(&self, pc: u32) {
        self.word().store(BUSY << 32 | u64::from(pc), Relaxed);
    }

    /// Marks the rank outside its program.
    pub(crate) fn off(&self) {
        self.word().store(OFF, Relaxed);
    }

    /// Switches the word to waiting on `cause`, keeping its pc, and returns
    /// the word it held, for [`RankWord::restore`].
    pub(crate) fn enter_wait(&self, cause: WaitCause) -> u64 {
        let held = self.word().load(Relaxed);
        let state = WAITING + cause.index() as u64;
        self.word()
            .store(state << 32 | (held & 0xffff_ffff), Relaxed);
        held
    }

    /// Puts back the word [`RankWord::enter_wait`] returned.
    pub(crate) fn restore(&self, held: u64) {
        self.word().store(held, Relaxed);
    }

    /// Samples this rank took at `pc`.
    pub(crate) fn samples(&self, pc: usize) -> u64 {
        let run = &self.run;
        if pc < run.pcs {
            run.counts[self.rank * run.pcs + pc].load(Relaxed)
        } else {
            0
        }
    }
}

/// What the sampler thread and the runs share.
struct Shared {
    runs: Mutex<Vec<Arc<RunSamples>>>,
    /// Signalled when a run registers.
    wake: Condvar,
    /// Ticks taken.
    ticks: AtomicU64,
}

impl Shared {
    /// The registered runs. A push or a retain leaves the list valid at
    /// every step, so a lock poisoned by a panicking holder is still sound.
    fn runs(&self) -> MutexGuard<'_, Vec<Arc<RunSamples>>> {
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sampler thread: parks until a run registers, then ticks every
    /// [`SAMPLE_TICK`] while any run is registered.
    fn sample(&self) {
        let mut runs = self.runs();
        loop {
            let idle = self.wake.wait_while(runs, |r| r.is_empty());
            runs = idle.unwrap_or_else(PoisonError::into_inner);
            let registered = |r: &mut Vec<_>| !r.is_empty();
            let tick = self.wake.wait_timeout_while(runs, SAMPLE_TICK, registered);
            runs = tick.unwrap_or_else(PoisonError::into_inner).0;
            if runs.is_empty() {
                continue;
            }
            for run in runs.iter() {
                run.tick();
            }
            self.ticks.fetch_add(1, Relaxed);
        }
    }
}

/// A sampler thread and the runs it reads.
pub(crate) struct Sampler(Arc<Shared>);

impl Sampler {
    /// The process's sampler, started by the first call.
    pub(crate) fn global() -> &'static Sampler {
        static GLOBAL: OnceLock<Sampler> = OnceLock::new();
        GLOBAL.get_or_init(Sampler::start)
    }

    /// Starts a sampler thread. It lives as long as the process and is
    /// never joined: it holds no resource but its parked stack, and nothing
    /// in its loop panics. If it cannot be spawned no run takes a sample,
    /// and every rank's busy time splits by execution count.
    fn start() -> Sampler {
        let shared = Arc::new(Shared {
            runs: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            ticks: AtomicU64::new(0),
        });
        let thread = Arc::clone(&shared);
        let _ =
            (std::thread::Builder::new().name("sia-sampler".into())).spawn(move || thread.sample());
        Sampler(shared)
    }

    /// Samples `run` until the returned registration drops.
    pub(crate) fn register(&self, run: &Arc<RunSamples>) -> Registration<'_> {
        self.0.runs().push(Arc::clone(run));
        self.0.wake.notify_one();
        Registration {
            shared: &self.0,
            run: Arc::clone(run),
        }
    }

    /// Ticks taken so far.
    #[cfg(test)]
    fn ticks(&self) -> u64 {
        self.0.ticks.load(Relaxed)
    }
}

/// A run's place in the sampler's list; dropping it ends the run's
/// sampling. A tick runs under the list's lock, so none is in progress on
/// the run once the drop returns.
pub(crate) struct Registration<'a> {
    shared: &'a Shared,
    run: Arc<RunSamples>,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.shared.runs().retain(|r| !Arc::ptr_eq(r, &self.run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Polls `f` for up to ten seconds.
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn an_idle_sampler_takes_no_tick() {
        let sampler = Sampler::start();
        std::thread::sleep(SAMPLE_TICK * 20);
        assert_eq!(sampler.ticks(), 0, "no run registered, yet it ticked");

        let run = RunSamples::new(1, 1);
        let registration = sampler.register(&run);
        assert!(
            eventually(|| sampler.ticks() > 0),
            "a registered run is sampled"
        );
        drop(registration);
        let stopped = sampler.ticks();
        std::thread::sleep(SAMPLE_TICK * 20);
        assert_eq!(
            sampler.ticks(),
            stopped,
            "it ticked after the last run left"
        );
    }

    #[test]
    fn only_busy_words_are_counted_at_their_pc() {
        let sampler = Sampler::start();
        let run = RunSamples::new(2, 4);
        let (busy, waiting) = (run.rank(0), run.rank(1));
        busy.busy(3);
        waiting.busy(1);
        let held = waiting.enter_wait(WaitCause::SipBarrier);
        assert_eq!(busy_pc(held), Some(1));
        let registration = sampler.register(&run);
        assert!(eventually(|| busy.samples(3) >= 3));
        drop(registration);
        assert_eq!((0..4).map(|pc| waiting.samples(pc)).sum::<u64>(), 0);
        assert_eq!((0..3).map(|pc| busy.samples(pc)).sum::<u64>(), 0);
        assert_eq!(busy.samples(4), 0, "a pc past the program has no count");
        waiting.restore(held);
        assert_eq!(busy_pc(waiting.word().load(Relaxed)), Some(1));
        busy.off();
        assert_eq!(busy_pc(busy.word().load(Relaxed)), None);
    }
}
