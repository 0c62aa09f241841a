//! Deterministic fault injection for the fabric.
//!
//! Real SIP deployments run over interconnects that drop, reorder, and
//! duplicate traffic, and over nodes that die mid-campaign. To exercise the
//! runtime's recovery paths reproducibly, the fabric can be built with a
//! seeded [`FaultPlan`]: every send of a *faultable* message rolls a
//! per-endpoint deterministic RNG and may be dropped, duplicated, or held
//! back for a few operations (which breaks cross-pair ordering the same way
//! adaptive routing does). Killing a rank is not the plan's business: the
//! runtime calls [`Endpoint::kill`](crate::Endpoint::kill) at a point of its
//! own choosing.
//!
//! Determinism contract: for a fixed `(seed, rank)` pair the decision
//! sequence is a pure function of that endpoint's send order, so a
//! single-threaded replay of the same program sees the same faults.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A seeded, deterministic description of the faults to inject.
///
/// Probabilities apply per *faultable* message (see
/// [`Message::faultable`](crate::Message::faultable)); control-plane traffic
/// is never perturbed, mirroring the common deployment where the control
/// network is reliable but the data network is best-effort.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed. The same seed reproduces the same fault sequence.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is held back and delivered late.
    pub delay: f64,
    /// Maximum number of fabric operations a delayed message is held for.
    pub max_delay_ops: u64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; set fields to taste.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_ops: 8,
        }
    }

    /// True when the plan can actually perturb traffic.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.delay > 0.0
    }

    /// Validates the probabilities.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("delay", self.delay),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {name} probability {p} outside [0, 1]"));
            }
        }
        if self.drop + self.duplicate + self.delay > 1.0 {
            return Err("fault probabilities sum past 1.0".into());
        }
        Ok(())
    }
}

/// splitmix64: tiny, seedable, and plenty for fault decisions.
#[derive(Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the injector decided to do with one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    /// Hold back for this many fabric operations.
    Delay(u64),
}

/// Per-rank fault counters (lock-free; written by the rank's own thread).
#[derive(Debug, Default)]
pub struct FaultCounters {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    crashed: AtomicBool,
}

impl FaultCounters {
    /// Messages silently dropped on send.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Messages delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Messages held back and delivered late.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// True once this rank's endpoint was killed.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    pub(crate) fn mark_crashed(&self) {
        self.crashed.store(true, Ordering::Relaxed);
    }
}

/// A plain-data snapshot of one rank's fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Messages silently dropped on send.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back and delivered late.
    pub delayed: u64,
    /// Whether the rank's endpoint was killed.
    pub crashed: bool,
}

impl FaultSnapshot {
    /// Total perturbed messages.
    pub fn perturbed(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed
    }

    /// Accumulates another snapshot into this one.
    pub fn absorb(&mut self, other: &FaultSnapshot) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.crashed |= other.crashed;
    }
}

impl FaultCounters {
    /// Copies the counters out.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            dropped: self.dropped(),
            duplicated: self.duplicated(),
            delayed: self.delayed(),
            crashed: self.crashed(),
        }
    }
}

/// Per-endpoint injector state. One per rank, owned via the endpoint, so the
/// mutex is uncontended; it exists only to keep `Endpoint: Sync`-compatible
/// interior mutability.
pub(crate) struct Injector<E> {
    plan: FaultPlan,
    rng: Mutex<Rng>,
    /// Fabric operations performed by this rank (sends + receive attempts);
    /// the clock that releases delayed messages.
    ops: AtomicU64,
    /// Held-back messages: `(release_at_ops, destination rank, envelope)`.
    holdback: Mutex<VecDeque<(u64, usize, E)>>,
}

impl<E> Injector<E> {
    pub(crate) fn new(plan: FaultPlan, rank: usize) -> Self {
        // Mix the rank into the seed so each endpoint draws an independent
        // but reproducible stream.
        let seed = plan.seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Injector {
            plan,
            rng: Mutex::new(Rng::new(seed)),
            ops: AtomicU64::new(0),
            holdback: Mutex::new(VecDeque::new()),
        }
    }

    /// Advances the op clock; returns the new count.
    pub(crate) fn tick(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Rolls the dice for one faultable send.
    pub(crate) fn verdict(&self, counters: &FaultCounters) -> Verdict {
        let mut rng = self.rng.lock().unwrap();
        let roll = rng.next_f64();
        if roll < self.plan.drop {
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            Verdict::Drop
        } else if roll < self.plan.drop + self.plan.duplicate {
            counters.duplicated.fetch_add(1, Ordering::Relaxed);
            Verdict::Duplicate
        } else if roll < self.plan.drop + self.plan.duplicate + self.plan.delay {
            counters.delayed.fetch_add(1, Ordering::Relaxed);
            let span = self.plan.max_delay_ops.max(1);
            Verdict::Delay(1 + rng.next_u64() % span)
        } else {
            Verdict::Deliver
        }
    }

    /// Stashes a delayed envelope.
    pub(crate) fn hold(&self, release_at: u64, to: usize, env: E) {
        self.holdback
            .lock()
            .unwrap()
            .push_back((release_at, to, env));
    }

    /// True while any envelope is held back.
    pub(crate) fn holding(&self) -> bool {
        !self.holdback.lock().unwrap().is_empty()
    }

    /// Pops every held envelope whose release op has passed.
    pub(crate) fn due(&self, now: u64) -> Vec<(usize, E)> {
        let mut held = self.holdback.lock().unwrap();
        let mut out = Vec::new();
        let mut i = 0;
        while i < held.len() {
            if held[i].0 <= now {
                let (_, to, env) = held.remove(i).unwrap();
                out.push((to, env));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Drains everything still held (used when the endpoint is dropped so
    /// delayed messages are not lost forever at shutdown).
    pub(crate) fn drain_all(&self) -> Vec<(usize, E)> {
        self.holdback
            .lock()
            .unwrap()
            .drain(..)
            .map(|(_, to, env)| (to, env))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn plan_validation() {
        let mut p = FaultPlan::seeded(1);
        p.drop = 0.05;
        assert!(p.validate().is_ok());
        p.drop = 1.5;
        assert!(p.validate().is_err());
        p.drop = 0.4;
        p.duplicate = 0.4;
        p.delay = 0.4;
        assert!(p.validate().is_err());
    }

    #[test]
    fn verdict_rates_roughly_match() {
        let mut plan = FaultPlan::seeded(123);
        plan.drop = 0.2;
        plan.duplicate = 0.1;
        let inj: Injector<()> = Injector::new(plan, 0);
        let counters = FaultCounters::default();
        let n = 20_000;
        for _ in 0..n {
            let _ = inj.verdict(&counters);
        }
        let drop_rate = counters.dropped() as f64 / n as f64;
        let dup_rate = counters.duplicated() as f64 / n as f64;
        assert!((drop_rate - 0.2).abs() < 0.02, "drop rate {drop_rate}");
        assert!((dup_rate - 0.1).abs() < 0.02, "dup rate {dup_rate}");
        assert_eq!(counters.delayed(), 0);
    }

    #[test]
    fn holdback_releases_in_op_order() {
        let inj: Injector<u32> = Injector::new(FaultPlan::seeded(0), 0);
        inj.hold(5, 1, 100);
        inj.hold(3, 2, 200);
        assert!(inj.due(2).is_empty());
        let due = inj.due(4);
        assert_eq!(due, vec![(2, 200)]);
        let due = inj.due(10);
        assert_eq!(due, vec![(1, 100)]);
        assert!(inj.due(100).is_empty());
    }
}
