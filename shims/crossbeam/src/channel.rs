//! MPMC channels with the `crossbeam-channel` API.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Sending on a disconnected channel (all receivers dropped).
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Receiving from an empty, disconnected channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn new(capacity: Option<usize>) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        })
    }
}

/// The sending half; cheap to clone.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; cheap to clone (MPMC).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel of unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(None);
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// Creates a channel holding at most `cap` messages.
///
/// Zero-capacity rendezvous channels are not supported by this stand-in; the
/// workspace's buffer capacities are validated to be at least 1.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "rendezvous (zero-capacity) channels unsupported");
    let shared = Shared::new(Some(cap));
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Blocks until the message is enqueued or every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            let full = state.capacity.is_some_and(|cap| state.queue.len() >= cap);
            if !full {
                state.queue.push_back(msg);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self.shared.not_full.wait(state).expect("channel lock");
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel lock").senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.senders -= 1;
        if state.senders == 0 {
            // Wake receivers so they observe the disconnect.
            drop(state);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or the channel is empty with every
    /// sender gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(msg) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.not_empty.wait(state).expect("channel lock");
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("channel lock").queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel lock").receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.receivers -= 1;
        if state.receivers == 0 {
            // Wake blocked senders so they observe the disconnect.
            drop(state);
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.is_empty());
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        // Queued messages survive sender disconnection.
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_send_blocks_until_space_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let (done_tx, done_rx) = unbounded();
        let sender = thread::spawn(move || {
            tx.send(2).unwrap();
            done_tx.send(()).unwrap();
        });
        // The second send cannot complete while the slot is taken …
        assert_eq!(rx.len(), 1);
        assert_eq!(rx.recv(), Ok(1));
        // … and completes once the consumer frees it.
        done_rx.recv().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        sender.join().unwrap();
    }

    #[test]
    fn blocked_send_sees_disconnect() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = thread::spawn(move || tx.send(2));
        drop(rx);
        assert!(sender.join().unwrap().is_err(), "woken by the disconnect");
    }

    #[test]
    fn blocked_recv_sees_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let receiver = thread::spawn(move || rx.recv());
        drop(tx);
        assert_eq!(receiver.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn mpmc_all_messages_arrive_once() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..100).map(move |i| p * 100 + i))
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn cloned_receivers_drain_queue_after_all_senders_drop() {
        let (tx, rx) = bounded(8);
        let rx2 = rx.clone();
        for i in 0..6 {
            tx.send(i).unwrap();
        }
        drop(tx);
        // Both receiver clones keep draining the surviving queue, and both
        // observe the disconnect (not a hang) once it is empty.
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
            got.push(rx2.recv().unwrap());
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx2.recv(), Err(RecvError));
    }

    #[test]
    fn contended_receivers_all_make_progress() {
        // Fairness in the weak-but-required sense: with a steady message
        // supply, every cloned receiver gets messages — no clone is starved
        // forever by its siblings.
        let (tx, rx) = bounded(2);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut count = 0u32;
                    while rx.recv().is_ok() {
                        count += 1;
                        thread::yield_now();
                    }
                    count
                })
            })
            .collect();
        drop(rx);
        for i in 0..600 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let counts: Vec<u32> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        assert_eq!(counts.iter().sum::<u32>(), 600);
        assert!(
            counts.iter().all(|&c| c > 0),
            "a receiver was starved: {counts:?}"
        );
    }
}
