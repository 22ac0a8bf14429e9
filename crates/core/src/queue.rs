//! The per-scan work queue: the text-chunks buffer, the position buffer and
//! the consumer-execution lane of one scan behind one lock (paper §3.1,
//! Figure 2).
//!
//! Workers run `while let Some(work) = queue.pop()`; `pop` serves the
//! downstream-most lane first (EXEC, then PARSE, then TOKENIZE — the
//! draining order that guarantees progress, §3.2.1) and blocks on a condvar
//! when every lane is empty. READ blocks in [`WorkQueue::push_text`] while
//! the text lane is at capacity, which *is* the paper's "READ is blocked, the
//! disk is idle" signal. A worker whose tokenized chunk does not fit the
//! position lane gets it handed back and parses it itself, so no worker ever
//! waits for lane room.
//!
//! Shutdown is [`WorkQueue::close`]: the conversion lanes are discarded,
//! every blocked thread wakes, pushes are refused, and `pop` hands out the
//! EXEC tasks already accepted before returning `None`.
//!
//! The lock is a leaf of the lock hierarchy (DESIGN.md §9): nothing else is
//! locked, journaled, sent or dropped while it is held. Payload types are
//! parameters so the schedule stress harness can drive this exact source
//! against a reference model.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One unit of work, tagged with the lane it came from.
pub(crate) enum Work<X, P, T> {
    Exec(X),
    Parse(P),
    Tokenize(T),
}

/// Why a non-blocking text push handed the job back.
pub(crate) enum TextPushError<T> {
    /// The text lane is at capacity; [`WorkQueue::push_text`] would block.
    Full(T),
    Closed(T),
}

struct Lanes<X, P, T> {
    exec: VecDeque<X>,
    parse: VecDeque<P>,
    text: VecDeque<T>,
    closed: bool,
}

pub(crate) struct WorkQueue<X, P, T> {
    lanes: Mutex<Lanes<X, P, T>>,
    text_cap: usize,
    parse_cap: usize,
    /// Workers wait here for any lane to fill, or for close.
    work: Condvar,
    /// READ waits here for room in the text lane, or for close.
    room: Condvar,
}

impl<X, P, T> WorkQueue<X, P, T> {
    /// A queue whose text and position lanes hold at most `text_cap` and
    /// `parse_cap` jobs; the EXEC lane is unbounded.
    pub(crate) fn new(text_cap: usize, parse_cap: usize) -> Self {
        WorkQueue {
            lanes: Mutex::new(Lanes {
                exec: VecDeque::new(),
                parse: VecDeque::new(),
                text: VecDeque::new(),
                closed: false,
            }),
            text_cap,
            parse_cap,
            work: Condvar::new(),
            room: Condvar::new(),
        }
    }

    /// Every update under the lock is one `VecDeque` push/pop or a flag
    /// store, so the lanes are valid at every step and a poisoned lock (a
    /// holder panicked) is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Lanes<X, P, T>> {
        self.lanes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a raw chunk for TOKENIZE without blocking.
    ///
    /// # Errors
    ///
    /// Hands the job back when the text lane is full or the queue closed.
    pub(crate) fn try_push_text(&self, job: T) -> Result<(), TextPushError<T>> {
        let mut g = self.lock();
        if g.closed {
            Err(TextPushError::Closed(job))
        } else if g.text.len() >= self.text_cap {
            Err(TextPushError::Full(job))
        } else {
            g.text.push_back(job);
            drop(g);
            self.work.notify_one();
            Ok(())
        }
    }

    /// Queues a raw chunk for TOKENIZE, blocking while the text lane is
    /// full.
    ///
    /// # Errors
    ///
    /// Hands the job back when the queue closed, before or during the wait.
    pub(crate) fn push_text(&self, job: T) -> Result<(), T> {
        let mut g = self.lock();
        while !g.closed && g.text.len() >= self.text_cap {
            g = match self.room.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        if g.closed {
            return Err(job);
        }
        g.text.push_back(job);
        drop(g);
        self.work.notify_one();
        Ok(())
    }

    /// Queues a tokenized chunk for PARSE; never blocks.
    ///
    /// # Errors
    ///
    /// Hands the job back when the position lane is full or the queue
    /// closed; the caller parses it itself.
    pub(crate) fn push_parse(&self, job: P) -> Result<(), P> {
        let mut g = self.lock();
        if g.closed || g.parse.len() >= self.parse_cap {
            return Err(job);
        }
        g.parse.push_back(job);
        drop(g);
        self.work.notify_one();
        Ok(())
    }

    /// Queues a consumer-execution task.
    ///
    /// # Errors
    ///
    /// Hands the task back when the queue closed: no worker would run it.
    pub(crate) fn push_exec(&self, task: X) -> Result<(), X> {
        let mut g = self.lock();
        if g.closed {
            return Err(task);
        }
        g.exec.push_back(task);
        drop(g);
        self.work.notify_one();
        Ok(())
    }

    /// The next unit of work, EXEC before PARSE before TOKENIZE; blocks while
    /// every lane is empty. `None` once the queue is closed and the EXEC
    /// tasks accepted before the close have been handed out.
    pub(crate) fn pop(&self) -> Option<Work<X, P, T>> {
        let mut g = self.lock();
        loop {
            if let Some(task) = g.exec.pop_front() {
                return Some(Work::Exec(task));
            }
            if let Some(job) = g.parse.pop_front() {
                return Some(Work::Parse(job));
            }
            if let Some(job) = g.text.pop_front() {
                drop(g);
                self.room.notify_one();
                return Some(Work::Tokenize(job));
            }
            if g.closed {
                return None;
            }
            g = match self.work.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            // The push that woke this worker usually lands it on the pusher's
            // core, and the scheduler then runs it *instead of* the pusher.
            // READ, a few instructions short of its next device read, would
            // sit runnable behind a whole conversion while the device idles
            // (throttled scans ran 20% longer). Step aside once so the pusher
            // finishes its hand-off first.
            drop(g);
            std::thread::yield_now();
            g = self.lock();
        }
    }

    /// Shuts the queue down: discards queued conversion jobs, refuses
    /// further pushes and wakes every blocked thread. Idempotent.
    pub(crate) fn close(&self) {
        let (parse, text) = {
            let mut g = self.lock();
            g.closed = true;
            (std::mem::take(&mut g.parse), std::mem::take(&mut g.text))
        };
        self.work.notify_all();
        self.room.notify_all();
        // The discarded jobs own channel senders: they are dropped here,
        // after the guard, so no channel operation runs under the lock.
        drop((parse, text));
    }
}
