//! Property tests for the fabric: no message loss, per-pair ordering, and
//! byte accounting under randomized multi-rank traffic — sent one by one,
//! or staged and coalesced into batch envelopes.

use proptest::prelude::*;
use sia_fabric::{build, build_with_faults, FaultPlan, Message, Rank};
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
struct Tagged {
    from: usize,
    seq: u64,
    payload: Vec<u8>,
}

impl Message for Tagged {
    fn approx_bytes(&self) -> usize {
        16 + self.payload.len()
    }
}

/// A protocol with a batch container, shaped like the runtime's
/// `SipMsg::Batch`: `One(link, n)` is the `n`-th message of its link.
#[derive(Debug, Clone, PartialEq)]
enum Pkt {
    One(usize, u64),
    Many(Vec<Pkt>),
}

impl Message for Pkt {
    fn batch(msgs: Vec<Self>) -> Result<Self, Vec<Self>> {
        Ok(Pkt::Many(msgs))
    }

    fn unbatch(self) -> Result<Vec<Self>, Self> {
        match self {
            Pkt::Many(parts) => Ok(parts),
            one => Err(one),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-link FIFO holds however `stage`, `send` and `flush` interleave:
    /// each receiver sees its link's messages in the order they were
    /// handed to the endpoint, whether they travelled alone or in a batch.
    #[test]
    fn staged_and_sent_messages_stay_fifo_per_link(
        // (destination, 0 = stage / 1 = send / 2 = flush everything)
        ops in prop::collection::vec((0usize..2, 0u8..3), 1..200),
    ) {
        let (mut eps, stats) = build::<Pkt>(3);
        let sender = eps.remove(0);
        let mut handed = [0u64; 2];
        for (link, op) in ops {
            let to = Rank(link + 1);
            let msg = Pkt::One(link, handed[link]);
            match op {
                0 => sender.stage(to, msg).unwrap(),
                1 => drop(sender.send(to, msg).unwrap()),
                _ => {
                    sender.flush().unwrap();
                    continue;
                }
            }
            handed[link] += 1;
        }
        sender.flush().unwrap();
        for (link, receiver) in eps.iter().enumerate() {
            for n in 0..handed[link] {
                let env = receiver.try_recv().expect("no message lost");
                prop_assert_eq!(env.msg, Pkt::One(link, n));
            }
            prop_assert!(receiver.try_recv().is_none(), "no extra messages");
        }
        // Every message left in an envelope or was coalesced into one.
        let c = stats.counters_of(Rank(0));
        prop_assert_eq!(c.messages_sent() + c.messages_coalesced(), handed[0] + handed[1]);
    }

    /// A batch draws one fault verdict: under a lossy plan every flushed
    /// window arrives whole or not at all, and each lost window counts as
    /// one drop however many messages it carried.
    #[test]
    fn a_batch_draws_one_fault_verdict(
        seed in 0u64..1000,
        windows in prop::collection::vec(2u64..12, 1..40),
    ) {
        let mut plan = FaultPlan::seeded(seed);
        plan.drop = 0.3;
        let (mut eps, stats) = build_with_faults::<Pkt>(2, Some(plan));
        let receiver = eps.pop().unwrap();
        let sender = eps.pop().unwrap();
        let mut lost = 0;
        for (w, &len) in windows.iter().enumerate() {
            for n in 0..len {
                sender.stage(Rank(1), Pkt::One(w, n)).unwrap();
            }
            sender.flush().unwrap();
            let mut got = Vec::new();
            while let Some(env) = receiver.try_recv() {
                got.push(env.msg);
            }
            if got.is_empty() {
                lost += 1;
            } else {
                let whole: Vec<Pkt> = (0..len).map(|n| Pkt::One(w, n)).collect();
                prop_assert_eq!(got, whole, "a window arrives whole or not at all");
            }
        }
        prop_assert_eq!(stats.fault_snapshot_of(Rank(0)).dropped, lost);
        prop_assert_eq!(
            stats.counters_of(Rank(0)).messages_sent(),
            windows.len() as u64,
            "one envelope per window"
        );
    }

    /// A blocking receive ships everything staged before it parks: a rank
    /// that forgot to flush still gets its requests out, so the peer that
    /// would answer them is never left waiting on a sleeper.
    #[test]
    fn blocking_receive_never_parks_on_staged_messages(staged in 1u64..20) {
        let (mut eps, _stats) = build::<Pkt>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let echo = std::thread::spawn(move || {
            // Answers once every request is in: the first blocks until `a`
            // parks, since `a` never calls `flush`.
            for n in 0..staged {
                let env = b.recv_deadline(None).expect("request shipped");
                assert_eq!(env.msg, Pkt::One(0, n));
            }
            b.send(Rank(0), Pkt::One(1, staged)).unwrap();
        });
        for n in 0..staged {
            a.stage(Rank(1), Pkt::One(0, n)).unwrap();
        }
        let reply = a.recv_timeout(Duration::from_secs(10));
        prop_assert_eq!(reply.map(|env| env.msg), Some(Pkt::One(1, staged)));
        echo.join().unwrap();
    }

    /// Every message sent is received exactly once, and messages from one
    /// sender arrive in send order, across threads.
    #[test]
    fn delivery_exact_and_ordered(
        senders in 1usize..5,
        msgs_per_sender in 1u64..50,
        payload_len in 0usize..64,
    ) {
        let world = senders + 1;
        let (mut eps, stats) = build::<Tagged>(world);
        let receiver = eps.remove(senders); // last rank receives
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                std::thread::spawn(move || {
                    for seq in 0..msgs_per_sender {
                        ep.send(
                            Rank(senders),
                            Tagged {
                                from: i,
                                seq,
                                payload: vec![i as u8; payload_len],
                            },
                        )
                        .unwrap();
                    }
                })
            })
            .collect();

        let total = senders as u64 * msgs_per_sender;
        let mut next_seq = vec![0u64; senders];
        let mut received = 0u64;
        while received < total {
            let env = receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("no message lost");
            prop_assert_eq!(env.src.0, env.msg.from);
            prop_assert_eq!(env.msg.seq, next_seq[env.msg.from], "per-sender FIFO");
            next_seq[env.msg.from] += 1;
            prop_assert_eq!(env.msg.payload.len(), payload_len);
            received += 1;
        }
        prop_assert!(receiver.try_recv().is_none(), "no extra messages");
        for h in handles {
            h.join().unwrap();
        }
        // Byte accounting: total sent == total received.
        let sent: u64 = (0..senders).map(|r| stats.counters_of(Rank(r)).bytes_sent()).sum();
        let recv = stats.counters_of(Rank(senders)).bytes_received();
        prop_assert_eq!(sent, recv);
        prop_assert_eq!(stats.total_messages_sent(), total);
    }

    /// Bidirectional ping-pong never deadlocks and echoes values intact.
    #[test]
    fn ping_pong_roundtrips(rounds in 1u64..100) {
        let (mut eps, _stats) = build::<Tagged>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let echo = std::thread::spawn(move || {
            for _ in 0..rounds {
                let env = b.recv_timeout(Duration::from_secs(10)).unwrap();
                b.send(env.src, Tagged { seq: env.msg.seq + 1, ..env.msg }).unwrap();
            }
        });
        for seq in 0..rounds {
            a.send(Rank(1), Tagged { from: 0, seq, payload: vec![] }).unwrap();
            let back = a.recv_timeout(Duration::from_secs(10)).unwrap();
            prop_assert_eq!(back.msg.seq, seq + 1);
        }
        echo.join().unwrap();
    }
}
