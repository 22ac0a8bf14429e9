//! The per-scan work queue: the text-chunks buffer, the position buffer and
//! the consumer-execution lane of one scan (paper §3.1, Figure 2).
//!
//! [`Lanes`] is all of its logic, thread-free, so the pipeline simulator
//! drives it too: `pop` serves EXEC, then PARSE, then TOKENIZE (the draining
//! order that guarantees progress, §3.2.1); a full position lane hands a
//! tokenized chunk back to the worker, which parses it itself; a full text
//! lane answers READ with `Full` — the paper's "READ is blocked, the disk is
//! idle" signal. [`WorkQueue`] is the lock, the two condvars and the wake-ups
//! around it. Closing it discards the conversion lanes, wakes and refuses
//! everyone, and still hands out the EXEC tasks already accepted.
//!
//! The lock is a leaf of the lock hierarchy (DESIGN.md §9): nothing else is
//! locked, journaled, sent or dropped while it is held. Payload types are
//! parameters so the schedule stress harness can drive this exact source
//! against a reference model.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One unit of work, tagged with the lane it came from.
#[derive(Debug)]
pub enum Work<X, P, T> {
    Exec(X),
    Parse(P),
    Tokenize(T),
}

/// Why a text push handed the job back.
#[derive(Debug)]
pub enum TextPushError<T> {
    /// The text lane is at capacity: READ is blocked.
    Full(T),
    Closed(T),
}

/// The three lanes of one scan and their bounds: EXEC tasks (unbounded),
/// tokenized chunks and raw chunks.
pub struct Lanes<X, P, T> {
    exec: VecDeque<X>,
    parse: VecDeque<P>,
    text: VecDeque<T>,
    text_cap: usize,
    parse_cap: usize,
    closed: bool,
}

impl<X, P, T> Lanes<X, P, T> {
    /// Lanes whose text and position lanes hold at most `text_cap` and
    /// `parse_cap` jobs; the EXEC lane is unbounded.
    pub fn new(text_cap: usize, parse_cap: usize) -> Self {
        Lanes {
            exec: VecDeque::new(),
            parse: VecDeque::new(),
            text: VecDeque::new(),
            text_cap,
            parse_cap,
            closed: false,
        }
    }

    /// Queues a raw chunk for TOKENIZE.
    ///
    /// # Errors
    ///
    /// Hands the job back when the text lane is full or the lanes closed.
    pub fn push_text(&mut self, job: T) -> Result<(), TextPushError<T>> {
        if self.closed {
            Err(TextPushError::Closed(job))
        } else if self.text.len() >= self.text_cap {
            Err(TextPushError::Full(job))
        } else {
            self.text.push_back(job);
            Ok(())
        }
    }

    /// Queues a tokenized chunk for PARSE.
    ///
    /// # Errors
    ///
    /// Hands the job back when the position lane is full or the lanes
    /// closed; the worker that tokenized it parses it itself.
    pub fn push_parse(&mut self, job: P) -> Result<(), P> {
        if self.closed || self.parse.len() >= self.parse_cap {
            return Err(job);
        }
        self.parse.push_back(job);
        Ok(())
    }

    /// Queues a consumer-execution task.
    ///
    /// # Errors
    ///
    /// Hands the task back when the lanes closed: no worker would run it.
    pub fn push_exec(&mut self, task: X) -> Result<(), X> {
        if self.closed {
            return Err(task);
        }
        self.exec.push_back(task);
        Ok(())
    }

    /// The next unit of work, EXEC before PARSE before TOKENIZE; `None` when
    /// every lane is empty.
    pub fn pop(&mut self) -> Option<Work<X, P, T>> {
        if let Some(task) = self.exec.pop_front() {
            Some(Work::Exec(task))
        } else if let Some(job) = self.parse.pop_front() {
            Some(Work::Parse(job))
        } else {
            self.text.pop_front().map(Work::Tokenize)
        }
    }

    /// Refuses every later push and discards the queued conversion jobs,
    /// which it returns; accepted EXEC tasks are still handed out.
    pub fn close(&mut self) -> (VecDeque<P>, VecDeque<T>) {
        self.closed = true;
        (
            std::mem::take(&mut self.parse),
            std::mem::take(&mut self.text),
        )
    }
}

pub(crate) struct WorkQueue<X, P, T> {
    lanes: Mutex<Lanes<X, P, T>>,
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
            lanes: Mutex::new(Lanes::new(text_cap, parse_cap)),
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

    /// Wakes one worker after a push got in (the guard is already gone).
    fn woken<E>(&self, pushed: Result<(), E>) -> Result<(), E> {
        if pushed.is_ok() {
            self.work.notify_one();
        }
        pushed
    }

    /// Queues a raw chunk for TOKENIZE without blocking.
    ///
    /// # Errors
    ///
    /// Hands the job back when the text lane is full or the queue closed.
    pub(crate) fn try_push_text(&self, job: T) -> Result<(), TextPushError<T>> {
        let pushed = self.lock().push_text(job);
        self.woken(pushed)
    }

    /// Queues a raw chunk for TOKENIZE, blocking while the text lane is
    /// full.
    ///
    /// # Errors
    ///
    /// Hands the job back when the queue closed, before or during the wait.
    pub(crate) fn push_text(&self, mut job: T) -> Result<(), T> {
        let mut g = self.lock();
        loop {
            match g.push_text(job) {
                Ok(()) => break,
                Err(TextPushError::Closed(back)) => return Err(back),
                Err(TextPushError::Full(back)) => job = back,
            }
            g = match self.room.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
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
        let pushed = self.lock().push_parse(job);
        self.woken(pushed)
    }

    /// Queues a consumer-execution task.
    ///
    /// # Errors
    ///
    /// Hands the task back when the queue closed: no worker would run it.
    pub(crate) fn push_exec(&self, task: X) -> Result<(), X> {
        let pushed = self.lock().push_exec(task);
        self.woken(pushed)
    }

    /// The next unit of work, EXEC before PARSE before TOKENIZE; blocks while
    /// every lane is empty. `None` once the queue is closed and the EXEC
    /// tasks accepted before the close have been handed out.
    pub(crate) fn pop(&self) -> Option<Work<X, P, T>> {
        let mut g = self.lock();
        loop {
            if let Some(work) = g.pop() {
                if matches!(work, Work::Tokenize(_)) {
                    drop(g);
                    self.room.notify_one();
                }
                return Some(work);
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
        let discarded = self.lock().close();
        self.work.notify_all();
        self.room.notify_all();
        // The discarded jobs own channel senders: they are dropped here,
        // after the guard, so no channel operation runs under the lock.
        drop(discarded);
    }
}
