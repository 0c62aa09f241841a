//! Traffic counters.
//!
//! The SIP collects detailed performance metrics "without an impact on
//! performance" because every basic operation is block-sized. The fabric
//! keeps per-rank atomic counters of messages and bytes in each direction,
//! plus per-peer message counts, which the runtime's profile report folds
//! into its wait-time/overlap analysis.

use crate::Rank;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-rank traffic counters (all atomics; safe to read from other threads).
pub struct TrafficCounters {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    msgs_coalesced: AtomicU64,
    deadline_wakeups: AtomicU64,
    per_peer_sent: Vec<AtomicU64>,
}

impl TrafficCounters {
    pub(crate) fn new(world: usize) -> Self {
        TrafficCounters {
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            msgs_recv: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            msgs_coalesced: AtomicU64::new(0),
            deadline_wakeups: AtomicU64::new(0),
            per_peer_sent: (0..world).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record_coalesced(&self, n: u64) {
        self.msgs_coalesced.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_deadline_wakeup(&self) {
        self.deadline_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send(&self, to: Rank, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        self.per_peer_sent[to.0].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, _from: Rank, bytes: usize) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Messages this rank has sent.
    pub fn messages_sent(&self) -> u64 {
        self.msgs_sent.load(Ordering::Relaxed)
    }

    /// Bytes this rank has sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Messages this rank has received.
    pub fn messages_received(&self) -> u64 {
        self.msgs_recv.load(Ordering::Relaxed)
    }

    /// Bytes this rank has received.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_recv.load(Ordering::Relaxed)
    }

    /// Messages sent to a specific peer.
    pub fn sent_to(&self, peer: Rank) -> u64 {
        self.per_peer_sent[peer.0].load(Ordering::Relaxed)
    }

    /// Messages coalesced away by envelope batching (n staged messages
    /// shipped as one envelope count n−1 here and 1 in
    /// [`messages_sent`](Self::messages_sent)).
    pub fn messages_coalesced(&self) -> u64 {
        self.msgs_coalesced.load(Ordering::Relaxed)
    }

    /// Blocking receives that returned because their deadline passed —
    /// the times this rank woke for a timer instead of a message.
    pub fn deadline_wakeups(&self) -> u64 {
        self.deadline_wakeups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = TrafficCounters::new(3);
        c.record_send(Rank(1), 10);
        c.record_send(Rank(1), 20);
        c.record_send(Rank(2), 5);
        c.record_recv(Rank(0), 7);
        assert_eq!(c.messages_sent(), 3);
        assert_eq!(c.bytes_sent(), 35);
        assert_eq!(c.messages_received(), 1);
        assert_eq!(c.bytes_received(), 7);
        assert_eq!(c.sent_to(Rank(1)), 2);
        assert_eq!(c.sent_to(Rank(2)), 1);
        assert_eq!(c.sent_to(Rank(0)), 0);
    }
}
