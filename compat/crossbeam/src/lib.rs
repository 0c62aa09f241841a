//! Hermetic, in-tree subset of `crossbeam` (see `compat/` rationale in
//! `compat/bytes`). Only `crossbeam::channel`'s unbounded MPMC channel is
//! provided — enough for sia-fabric's one-receiver-many-senders endpoints,
//! including `recv_deadline`, which `std::sync::mpsc` lacks in the shape the
//! fabric needs, and `drain_into`, which upstream lacks: a receiver that
//! looks for messages between units of work takes the lock once per look,
//! and not at all when nothing is queued.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        queue: Mutex<ChanState<T>>,
        /// `queue`'s length, stored under its lock after every change and
        /// read without it by [`Receiver::drain_into`]. It publishes no
        /// data (the messages are read under the lock), so a stale zero
        /// only leaves a message queued for the receiver's next look.
        queued: AtomicUsize,
        ready: Condvar,
    }

    struct ChanState<T> {
        items: VecDeque<T>,
        receiver_alive: bool,
        senders: usize,
        /// The receiver is blocked on `ready` and nobody has notified it yet.
        /// Set and cleared under the lock, so a sender that finds it clear
        /// knows the receiver will look at the queue again before it
        /// sleeps, and skips the notify — with std's futex condvar that is
        /// one system call per message saved whenever the receiver is
        /// running.
        parked: bool,
    }

    /// Error returned by [`Sender::send`] when the receiver is gone; carries
    /// the undelivered message back, as upstream does.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue empty but senders remain.
        Empty,
        /// Queue empty and every sender dropped.
        Disconnected,
    }

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Timed out with no message.
        Timeout,
        /// Queue empty and every sender dropped.
        Disconnected,
    }

    /// Error from [`Receiver::recv`]: queue empty and every sender dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half; cheap to clone.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(ChanState {
                items: VecDeque::new(),
                receiver_alive: true,
                senders: 1,
                parked: false,
            }),
            queued: AtomicUsize::new(0),
            ready: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing only if the receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.queue.lock().unwrap();
            if !state.receiver_alive {
                return Err(SendError(msg));
            }
            state.items.push_back(msg);
            self.chan.queued.store(state.items.len(), Ordering::Relaxed);
            // One notify per park: the sender that takes the flag wakes the
            // receiver, later senders find it already on its way.
            let wake = std::mem::take(&mut state.parked);
            drop(state);
            if wake {
                self.chan.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.queue.lock().unwrap().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.queue.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Nonblocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.queue.lock().unwrap();
            match state.items.pop_front() {
                Some(v) => {
                    self.chan.queued.store(state.items.len(), Ordering::Relaxed);
                    Ok(v)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking receive with a timeout.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        /// Blocking receive until `deadline`.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            self.recv_until(Some(deadline))
        }

        /// Blocking receive with no deadline.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_until(None).map_err(|_| RecvError)
        }

        /// `Timeout` is only ever returned at or after the deadline, however
        /// early the condvar wakes.
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut state = self.chan.queue.lock().unwrap();
            loop {
                if let Some(v) = state.items.pop_front() {
                    self.chan.queued.store(state.items.len(), Ordering::Relaxed);
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let timeout = match deadline {
                    None => None,
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        Some(deadline - now)
                    }
                };
                state.parked = true;
                state = match timeout {
                    None => self.chan.ready.wait(state).unwrap(),
                    Some(t) => self.chan.ready.wait_timeout(state, t).unwrap().0,
                };
                // A timed-out or spurious wake-up leaves the flag up.
                state.parked = false;
            }
        }

        /// Moves every queued message, in order, to the back of `out` under
        /// one lock and returns how many moved. When a look at the queue's
        /// length finds it empty — the common case for a receiver checking
        /// between units of work — no lock is taken. A message sent during
        /// or after that look stays queued for the next call or for a
        /// blocking receive, which decides to park under the lock, so the
        /// sender still finds it parked and wakes it.
        pub fn drain_into(&self, out: &mut VecDeque<T>) -> usize {
            if self.chan.queued.load(Ordering::Relaxed) == 0 {
                return 0;
            }
            let mut state = self.chan.queue.lock().unwrap();
            let moved = state.items.len();
            if out.is_empty() {
                // Trade buffers: both sides keep their capacity.
                std::mem::swap(&mut state.items, out);
            } else {
                out.extend(state.items.drain(..));
            }
            self.chan.queued.store(0, Ordering::Relaxed);
            moved
        }

        /// Messages waiting in the queue.
        pub fn len(&self) -> usize {
            self.chan.queue.lock().unwrap().items.len()
        }

        /// True when no message is waiting.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.queue.lock().unwrap().receiver_alive = false;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn send_to_dropped_receiver_fails() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(7).is_err());
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let h = thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(42));
            h.join().unwrap();
        }

        #[test]
        fn recv_blocks_until_a_send_or_disconnect() {
            let (tx, rx) = unbounded();
            let h = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                tx.send(7).unwrap();
            });
            assert_eq!(rx.recv(), Ok(7));
            h.join().unwrap();
            assert_eq!(rx.recv(), Err(RecvError));
        }

        /// Runs `body` on its own thread and fails — instead of hanging the
        /// suite — if it has not finished within a minute: a lost wake-up
        /// shows as a receiver asleep beside a non-empty queue.
        fn within_a_minute(body: impl FnOnce() + Send + 'static) {
            let (done_tx, done_rx) = unbounded();
            let h = thread::spawn(move || {
                body();
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a receiver slept through a send");
            h.join().unwrap();
        }

        /// Senders notify only a parked receiver. Ping-pong makes every
        /// send race the peer's decision to park, through both blocking
        /// receives.
        #[test]
        fn ping_pong_loses_no_wake_up() {
            const ROUNDS: u64 = 100_000;
            within_a_minute(|| {
                let (to_b, from_a) = unbounded::<u64>();
                let (to_a, from_b) = unbounded::<u64>();
                let far = || Instant::now() + Duration::from_secs(60);
                let echo = thread::spawn(move || {
                    for i in 0..ROUNDS {
                        let got = if i % 2 == 0 {
                            from_a.recv().unwrap()
                        } else {
                            from_a.recv_deadline(far()).unwrap()
                        };
                        to_a.send(got + 1).unwrap();
                    }
                });
                for i in 0..ROUNDS {
                    to_b.send(i).unwrap();
                    let back = if i % 2 == 0 {
                        from_b.recv_deadline(far()).unwrap()
                    } else {
                        from_b.recv().unwrap()
                    };
                    assert_eq!(back, i + 1);
                }
                echo.join().unwrap();
            });
        }

        #[test]
        fn many_senders_one_receiver_loses_no_wake_up() {
            const SENDERS: u64 = 4;
            const EACH: u64 = 25_000;
            within_a_minute(|| {
                let (tx, rx) = unbounded::<u64>();
                let senders: Vec<_> = (0..SENDERS)
                    .map(|s| {
                        let tx = tx.clone();
                        thread::spawn(move || {
                            for i in 0..EACH {
                                tx.send(s * EACH + i).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                let mut sum = 0;
                while let Ok(v) = rx.recv() {
                    sum += v;
                }
                let n = SENDERS * EACH;
                assert_eq!(sum, n * (n - 1) / 2, "every message exactly once");
                for s in senders {
                    s.join().unwrap();
                }
            });
        }

        /// A receiver alternating one-lock drains with blocking receives
        /// sees each sender's messages in send order, every one exactly
        /// once. Two drains in a row move the queue into an empty buffer
        /// and then append behind what the first moved.
        #[test]
        fn drain_into_keeps_each_senders_order_and_loses_nothing() {
            const EACH: u64 = 10_000;
            within_a_minute(|| {
                let (tx, rx) = unbounded::<(usize, u64)>();
                let senders: Vec<_> = (0..2)
                    .map(|s| {
                        let tx = tx.clone();
                        thread::spawn(move || {
                            for i in 0..EACH {
                                tx.send((s, i)).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                let mut next = [0u64; 2];
                let mut take = |(s, i): (usize, u64)| {
                    assert_eq!(i, next[s], "sender {s} out of order");
                    next[s] += 1;
                };
                let mut buf = VecDeque::new();
                let far = || Instant::now() + Duration::from_secs(60);
                loop {
                    rx.drain_into(&mut buf);
                    rx.drain_into(&mut buf);
                    buf.drain(..).for_each(&mut take);
                    match rx.recv_deadline(far()) {
                        Ok(m) => take(m),
                        Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => panic!("a receiver slept through a send"),
                    }
                }
                assert_eq!(next, [EACH, EACH], "every message exactly once");
                for s in senders {
                    s.join().unwrap();
                }
            });
        }

        /// A drain that found the queue empty takes no lock; a send landing
        /// after that look, before or after the receiver parks, still wakes
        /// the blocking receive that follows.
        #[test]
        fn a_send_after_an_empty_look_wakes_the_receiver() {
            within_a_minute(|| {
                for round in 0..1_000u64 {
                    let (tx, rx) = unbounded::<u64>();
                    let (looked, look_seen) = unbounded::<()>();
                    let sender = thread::spawn(move || {
                        look_seen.recv().unwrap();
                        tx.send(round).unwrap();
                    });
                    let mut buf = VecDeque::new();
                    assert_eq!(rx.drain_into(&mut buf), 0, "nothing was sent yet");
                    looked.send(()).unwrap();
                    let far = Instant::now() + Duration::from_secs(60);
                    assert_eq!(rx.recv_deadline(far), Ok(round));
                    sender.join().unwrap();
                }
            });
        }

        #[test]
        fn disconnect_when_all_senders_drop() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
    }
}
