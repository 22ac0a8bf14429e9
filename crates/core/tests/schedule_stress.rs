//! Deterministic schedule stress harness.
//!
//! The pipeline's three central shared structures — the crossbeam-shim
//! channel, the [`ChunkCache`] and the per-scan work queue — are driven
//! through thousands of *seeded permutations* of operation interleavings
//! (send/recv/drop/disconnect orders, insert/get/evict orders, push/pop/close
//! orders) and checked against straight-line reference models after every
//! step. A failure prints its seed; re-running with that seed reproduces the
//! exact schedule.
//!
//! Four layers:
//! 1. single-threaded channel permutations vs. a queue model (every result
//!    and every intermediate length must match, including disconnection
//!    semantics),
//! 2. single-threaded cache permutations vs. an LRU model (victims, hit and
//!    miss counters, speculative-loading order),
//! 3. single-threaded work-queue permutations vs. a three-lane model (lane
//!    priority, both capacities, the parse-lane hand-back, `close()`
//!    discarding conversion jobs but still handing out accepted EXEC tasks),
//! 4. multi-threaded conservation runs (no chunk lost or duplicated across
//!    real producer/consumer threads, on the channel and on the queue).

// The queue is crate-private; the harness compiles its source directly.
#[path = "../src/queue.rs"]
mod queue;

use crossbeam::channel::{self, Receiver, Sender};
use queue::{TextPushError, Work, WorkQueue};
use scanraw::ChunkCache;
use scanraw_types::{BinaryChunk, ChunkId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Seed counts per layer; the harness promises ≥ 1000 distinct interleavings.
const CHANNEL_SEEDS: u64 = 400;
const CACHE_SEEDS: u64 = 420;
const QUEUE_SEEDS: u64 = 400;
const MT_RUNS: u64 = 8;

#[test]
fn harness_covers_at_least_1000_interleavings() {
    const { assert!(CHANNEL_SEEDS + CACHE_SEEDS + QUEUE_SEEDS + 2 * MT_RUNS >= 1000) }
}

/// SplitMix64: tiny, seedable, and good enough to scramble schedules.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// Layer 1: channel permutations vs. queue model
// ---------------------------------------------------------------------------

/// Reference semantics of a bounded MPMC channel.
struct ChannelModel {
    queue: VecDeque<u64>,
    cap: usize,
    senders: usize,
    receivers: usize,
}

#[derive(Debug, PartialEq, Eq)]
enum SendOutcome {
    Ok,
    Full,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq)]
enum RecvOutcome {
    Got(u64),
    Empty,
    Disconnected,
}

impl ChannelModel {
    fn send(&mut self, v: u64) -> SendOutcome {
        if self.receivers == 0 {
            SendOutcome::Disconnected
        } else if self.queue.len() >= self.cap {
            SendOutcome::Full
        } else {
            self.queue.push_back(v);
            SendOutcome::Ok
        }
    }

    fn recv(&mut self) -> RecvOutcome {
        match self.queue.pop_front() {
            Some(v) => RecvOutcome::Got(v),
            None if self.senders == 0 => RecvOutcome::Disconnected,
            None => RecvOutcome::Empty,
        }
    }
}

/// The channel only has blocking operations, so a single-threaded schedule
/// performs the real one exactly when the model says it returns at once
/// (`Full` and `Empty` are the outcomes that would block).
fn real_send(tx: &Sender<u64>, v: u64, want: &SendOutcome) -> SendOutcome {
    match want {
        SendOutcome::Full => SendOutcome::Full,
        _ if tx.send(v).is_ok() => SendOutcome::Ok,
        _ => SendOutcome::Disconnected,
    }
}

fn real_recv(rx: &Receiver<u64>, want: &RecvOutcome) -> RecvOutcome {
    match want {
        RecvOutcome::Empty => RecvOutcome::Empty,
        _ => rx
            .recv()
            .map_or(RecvOutcome::Disconnected, RecvOutcome::Got),
    }
}

/// One seeded permutation: a random schedule of sends, receives, endpoint
/// clones and endpoint drops, with the model consulted after every step.
fn channel_permutation(seed: u64) {
    let mut rng = Rng::new(seed);
    let cap = 1 + rng.below(4) as usize;
    let (tx, rx) = channel::bounded::<u64>(cap);
    let mut senders = vec![tx];
    let mut receivers = vec![rx];
    let mut model = ChannelModel {
        queue: VecDeque::new(),
        cap,
        senders: 1,
        receivers: 1,
    };
    let mut next_val = 0u64;

    for step in 0..40 {
        match rng.below(10) {
            // Send from a random live sender.
            0..=3 if !senders.is_empty() => {
                let i = rng.below(senders.len() as u64) as usize;
                let v = next_val;
                next_val += 1;
                let want = model.send(v);
                assert_eq!(
                    real_send(&senders[i], v, &want),
                    want,
                    "seed {seed} step {step}: send outcome diverged"
                );
            }
            // Receive on a random live receiver.
            4..=7 if !receivers.is_empty() => {
                let i = rng.below(receivers.len() as u64) as usize;
                let want = model.recv();
                assert_eq!(
                    real_recv(&receivers[i], &want),
                    want,
                    "seed {seed} step {step}: recv outcome diverged"
                );
            }
            // Clone or drop an endpoint.
            8 => {
                if rng.below(2) == 0 && !senders.is_empty() {
                    let i = rng.below(senders.len() as u64) as usize;
                    senders.push(senders[i].clone());
                    model.senders += 1;
                } else if !receivers.is_empty() {
                    let i = rng.below(receivers.len() as u64) as usize;
                    receivers.push(receivers[i].clone());
                    model.receivers += 1;
                }
            }
            9 => {
                if rng.below(2) == 0 && !senders.is_empty() {
                    let i = rng.below(senders.len() as u64) as usize;
                    drop(senders.swap_remove(i));
                    model.senders -= 1;
                } else if !receivers.is_empty() {
                    let i = rng.below(receivers.len() as u64) as usize;
                    drop(receivers.swap_remove(i));
                    model.receivers -= 1;
                }
            }
            _ => {}
        }
        if let Some(rx) = receivers.first() {
            assert_eq!(
                rx.len(),
                model.queue.len(),
                "seed {seed} step {step}: queue length diverged"
            );
        }
        if senders.is_empty() && receivers.is_empty() {
            break;
        }
    }

    // Drain: everything the model says is in flight must come out, in FIFO
    // order, then the disconnection state must match.
    if let Some(rx) = receivers.first() {
        while let Some(expect) = model.queue.pop_front() {
            assert_eq!(rx.recv(), Ok(expect), "seed {seed}: drain order diverged");
        }
        assert!(rx.is_empty(), "seed {seed}");
        if senders.is_empty() {
            assert!(rx.recv().is_err(), "seed {seed}: disconnect not observed");
        }
    }
}

#[test]
fn channel_schedule_permutations_match_model() {
    for seed in 0..CHANNEL_SEEDS {
        channel_permutation(seed);
    }
}

// ---------------------------------------------------------------------------
// Layer 2: cache permutations vs. LRU model
// ---------------------------------------------------------------------------

/// Reference semantics of [`ChunkCache`]: LRU with loaded-victims-first
/// eviction at (chunk, column)-cell granularity, recency bumped by `get` but
/// not `peek`, reinserts unioning loaded bits, speculative-loading order
/// (`unloaded_cells`) keyed by first-insertion sequence. Model chunks carry
/// two present columns so partial loads are exercised.
const MODEL_COLS: usize = 2;

struct CacheModel {
    entries: Vec<ModelEntry>,
    capacity: usize,
    next_stamp: u64,
    next_seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct ModelEntry {
    id: u32,
    loaded: [bool; MODEL_COLS],
    stamp: u64,
    seq: u64,
}

impl ModelEntry {
    fn is_loaded(&self) -> bool {
        self.loaded.iter().all(|&b| b)
    }

    fn missing(&self) -> Vec<usize> {
        (0..MODEL_COLS).filter(|&c| !self.loaded[c]).collect()
    }
}

impl CacheModel {
    fn new(capacity: usize) -> Self {
        CacheModel {
            entries: Vec::new(),
            capacity,
            next_stamp: 0,
            next_seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the evicted victim (id, fully-loaded, missing cells), if any.
    fn insert(&mut self, id: u32, cols: &[usize]) -> Option<(u32, bool, Vec<usize>)> {
        self.next_stamp += 1;
        self.next_seq += 1;
        let stamp = self.next_stamp;
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            // Reinsert unions loaded cells: a WRITE-committed cell must never
            // be un-marked by a racing delivery.
            for &c in cols {
                e.loaded[c] = true;
            }
            e.stamp = stamp;
            return None; // replacement keeps the original seq
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|e| e.is_loaded())
                .min_by_key(|e| e.stamp)
                .or_else(|| self.entries.iter().min_by_key(|e| e.stamp))
                .map(|e| e.id);
            if let Some(vid) = victim {
                let pos = self
                    .entries
                    .iter()
                    .position(|e| e.id == vid)
                    .expect("victim");
                let v = self.entries.remove(pos);
                self.evictions += 1;
                evicted = Some((v.id, v.is_loaded(), v.missing()));
            }
        }
        let mut loaded = [false; MODEL_COLS];
        for &c in cols {
            loaded[c] = true;
        }
        self.entries.push(ModelEntry {
            id,
            loaded,
            stamp,
            seq: self.next_seq,
        });
        evicted
    }

    fn get(&mut self, id: u32) -> bool {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.stamp = stamp;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn mark_loaded(&mut self, id: u32, cols: &[usize]) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            for &c in cols {
                e.loaded[c] = true;
            }
        }
    }

    fn unloaded_cells(&self) -> Vec<(u32, Vec<usize>)> {
        let mut v: Vec<(u64, u32, Vec<usize>)> = self
            .entries
            .iter()
            .filter(|e| !e.is_loaded())
            .map(|e| (e.seq, e.id, e.missing()))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, id, m)| (id, m)).collect()
    }
}

fn chunk(id: u32) -> Arc<BinaryChunk> {
    let mut c = BinaryChunk::empty(ChunkId(id), id as u64 * 10, 10, MODEL_COLS);
    for col in c.columns.iter_mut() {
        *col = Some(scanraw_types::ColumnData::Int64(vec![id as i64; 10]));
    }
    Arc::new(c)
}

/// Random subset of the model's column indices.
fn col_subset(rng: &mut Rng) -> Vec<usize> {
    let mask = rng.below(1 << MODEL_COLS);
    (0..MODEL_COLS).filter(|&c| mask & (1 << c) != 0).collect()
}

fn cache_permutation(seed: u64) {
    let mut rng = Rng::new(seed ^ 0xc0ff_ee00);
    let capacity = 2 + rng.below(4) as usize;
    let cache = ChunkCache::new(capacity);
    let mut model = CacheModel::new(capacity);
    let id_space = 2 + rng.below(8) as u32;

    for step in 0..60 {
        let id = rng.below(id_space as u64) as u32;
        match rng.below(8) {
            0..=2 => {
                let cols = col_subset(&mut rng);
                let real = cache
                    .insert(chunk(id), &cols)
                    .map(|e| (e.id.0, e.loaded, e.missing_cols));
                let want = model.insert(id, &cols);
                assert_eq!(real, want, "seed {seed} step {step}: eviction diverged");
            }
            3..=4 => {
                let real = cache.get(ChunkId(id)).is_some();
                let want = model.get(id);
                assert_eq!(real, want, "seed {seed} step {step}: get diverged");
            }
            5 => {
                let cols = col_subset(&mut rng);
                cache.mark_loaded(ChunkId(id), &cols);
                model.mark_loaded(id, &cols);
            }
            6 => {
                let real = cache
                    .unloaded_cells()
                    .into_iter()
                    .next()
                    .map(|(c, missing)| (c.id.0, missing));
                assert_eq!(
                    real,
                    model.unloaded_cells().into_iter().next(),
                    "seed {seed} step {step}: speculative-load order diverged"
                );
            }
            7 => {
                let real: Vec<(u32, Vec<usize>)> = cache
                    .unloaded_cells()
                    .into_iter()
                    .map(|(c, missing)| (c.id.0, missing))
                    .collect();
                assert_eq!(
                    real,
                    model.unloaded_cells(),
                    "seed {seed} step {step}: safeguard flush set diverged"
                );
            }
            _ => unreachable!(),
        }
        // Standing invariants after every step.
        assert!(cache.len() <= capacity, "seed {seed}: capacity exceeded");
        let mut real_ids: Vec<u32> = cache.cached_ids().iter().map(|c| c.0).collect();
        real_ids.sort_unstable();
        let mut want_ids: Vec<u32> = model.entries.iter().map(|e| e.id).collect();
        want_ids.sort_unstable();
        assert_eq!(
            real_ids, want_ids,
            "seed {seed} step {step}: contents diverged"
        );
    }

    let c = cache.counters();
    assert_eq!(
        (c.hits, c.misses, c.evictions),
        (model.hits, model.misses, model.evictions),
        "seed {seed}: lifetime counters diverged"
    );
}

#[test]
fn cache_schedule_permutations_match_model() {
    for seed in 0..CACHE_SEEDS {
        cache_permutation(seed);
    }
}

// ---------------------------------------------------------------------------
// Layer 3: work-queue permutations vs. three-lane model
// ---------------------------------------------------------------------------

type Queue = WorkQueue<u64, u64, u64>;

/// Reference semantics of the scan's work queue.
struct QueueModel {
    exec: VecDeque<u64>,
    parse: VecDeque<u64>,
    text: VecDeque<u64>,
    text_cap: usize,
    parse_cap: usize,
    closed: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum Popped {
    Exec(u64),
    Parse(u64),
    Tokenize(u64),
    /// Closed and drained.
    Done,
    /// Open and empty: the real `pop` would block.
    WouldBlock,
}

#[derive(Debug, PartialEq, Eq)]
enum TextPush {
    Ok,
    Full,
    Closed,
}

impl QueueModel {
    fn push_text(&mut self, v: u64) -> TextPush {
        if self.closed {
            TextPush::Closed
        } else if self.text.len() >= self.text_cap {
            TextPush::Full
        } else {
            self.text.push_back(v);
            TextPush::Ok
        }
    }

    /// False = handed back.
    fn push_parse(&mut self, v: u64) -> bool {
        let accepted = !self.closed && self.parse.len() < self.parse_cap;
        if accepted {
            self.parse.push_back(v);
        }
        accepted
    }

    fn push_exec(&mut self, v: u64) -> bool {
        if !self.closed {
            self.exec.push_back(v);
        }
        !self.closed
    }

    fn pop(&mut self) -> Popped {
        if let Some(v) = self.exec.pop_front() {
            Popped::Exec(v)
        } else if let Some(v) = self.parse.pop_front() {
            Popped::Parse(v)
        } else if let Some(v) = self.text.pop_front() {
            Popped::Tokenize(v)
        } else if self.closed {
            Popped::Done
        } else {
            Popped::WouldBlock
        }
    }

    fn close(&mut self) {
        self.closed = true;
        self.parse.clear();
        self.text.clear();
    }
}

fn real_pop(q: &Queue) -> Popped {
    match q.pop() {
        Some(Work::Exec(v)) => Popped::Exec(v),
        Some(Work::Parse(v)) => Popped::Parse(v),
        Some(Work::Tokenize(v)) => Popped::Tokenize(v),
        None => Popped::Done,
    }
}

fn queue_permutation(seed: u64) {
    let mut rng = Rng::new(seed ^ 0x0051_e0e5);
    let text_cap = 1 + rng.below(3) as usize;
    let parse_cap = 1 + rng.below(3) as usize;
    let q = Queue::new(text_cap, parse_cap);
    let mut model = QueueModel {
        exec: VecDeque::new(),
        parse: VecDeque::new(),
        text: VecDeque::new(),
        text_cap,
        parse_cap,
        closed: false,
    };

    for step in 0..60 {
        let v = step as u64;
        match rng.below(16) {
            0..=3 => {
                let want = model.push_text(v);
                let real = match q.try_push_text(v) {
                    Ok(()) => TextPush::Ok,
                    Err(TextPushError::Full(back)) => {
                        assert_eq!(back, v, "seed {seed} step {step}: wrong job handed back");
                        TextPush::Full
                    }
                    Err(TextPushError::Closed(back)) => {
                        assert_eq!(back, v, "seed {seed} step {step}: wrong job handed back");
                        TextPush::Closed
                    }
                };
                assert_eq!(
                    real, want,
                    "seed {seed} step {step}: try_push_text diverged"
                );
            }
            // The blocking push, whenever the model says it returns at once.
            4 if model.closed || model.text.len() < text_cap => {
                let want = model.push_text(v);
                let real = match q.push_text(v) {
                    Ok(()) => TextPush::Ok,
                    Err(_) => TextPush::Closed,
                };
                assert_eq!(real, want, "seed {seed} step {step}: push_text diverged");
            }
            5..=7 => {
                let want = model.push_parse(v);
                let real = match q.push_parse(v) {
                    Ok(()) => true,
                    Err(back) => {
                        assert_eq!(back, v, "seed {seed} step {step}: wrong job handed back");
                        false
                    }
                };
                assert_eq!(real, want, "seed {seed} step {step}: push_parse diverged");
            }
            8..=9 => {
                assert_eq!(
                    q.push_exec(v).is_ok(),
                    model.push_exec(v),
                    "seed {seed} step {step}: push_exec diverged"
                );
            }
            10..=14 => {
                let want = model.pop();
                if want != Popped::WouldBlock {
                    assert_eq!(real_pop(&q), want, "seed {seed} step {step}: pop diverged");
                }
            }
            15 => {
                q.close();
                model.close();
            }
            _ => {}
        }
    }

    // Close and drain: exactly the EXEC tasks accepted before the close come
    // out, in order, then `None` — forever.
    q.close();
    model.close();
    loop {
        let want = model.pop();
        assert_eq!(real_pop(&q), want, "seed {seed}: drain diverged");
        if want == Popped::Done {
            break;
        }
    }
    assert_eq!(real_pop(&q), Popped::Done, "seed {seed}: close is sticky");
}

#[test]
fn queue_schedule_permutations_match_model() {
    for seed in 0..QUEUE_SEEDS {
        queue_permutation(seed);
    }
}

// ---------------------------------------------------------------------------
// Layer 4: multi-threaded conservation
// ---------------------------------------------------------------------------

/// Real threads, seeded per-thread schedules: every value sent is received
/// exactly once across all consumers, and consumers observe disconnection
/// (not a hang, not a loss) once every producer is done.
fn conservation_run(seed: u64, producers: usize, consumers: usize) {
    const PER_PRODUCER: u64 = 500;
    let (tx, rx) = channel::bounded::<u64>(4);

    let mut handles = Vec::new();
    for p in 0..producers {
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng::new(seed * 31 + p as u64);
            for i in 0..PER_PRODUCER {
                let v = (p as u64) * PER_PRODUCER + i;
                tx.send(v).expect("receivers alive");
                if rng.below(8) == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }
    drop(tx); // consumers must see Disconnected after the producers finish

    let mut consumers_h = Vec::new();
    for c in 0..consumers {
        let rx = rx.clone();
        consumers_h.push(std::thread::spawn(move || {
            let mut rng = Rng::new(seed * 67 + c as u64);
            let mut got = Vec::new();
            // Runs until Disconnected: all producers done, queue drained.
            while let Ok(v) = rx.recv() {
                got.push(v);
                if rng.below(8) == 0 {
                    std::thread::yield_now();
                }
            }
            got
        }));
    }
    drop(rx);

    for h in handles {
        h.join().expect("producer");
    }
    let mut all: Vec<u64> = Vec::new();
    for h in consumers_h {
        all.extend(h.join().expect("consumer"));
    }
    let expected = producers as u64 * PER_PRODUCER;
    assert_eq!(
        all.len() as u64,
        expected,
        "seed {seed}: chunk count diverged"
    );
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len() as u64,
        expected,
        "seed {seed}: duplicate or lost values"
    );
}

#[test]
fn multithreaded_conservation_across_seeds() {
    for seed in 0..MT_RUNS {
        let producers = 1 + (seed as usize % 3);
        let consumers = 1 + (seed as usize % 2);
        conservation_run(seed, producers, consumers);
    }
}

/// The scan's thread shape on the real queue: one READ-like producer blocking
/// in `push_text`, a pool running the worker loop (tokenize → queue for parse,
/// or parse inline on hand-back), and an engine-like thread submitting EXEC
/// tasks throughout. Every text job is parsed exactly once, every accepted
/// EXEC task runs exactly once — including those still queued at `close()` —
/// and every thread comes home.
fn queue_conservation_run(seed: u64, workers: usize) {
    const JOBS: u64 = 400;
    const TASKS: u64 = 200;
    let mut rng = Rng::new(seed ^ 0x51ab);
    let q = Arc::new(Queue::new(
        1 + rng.below(3) as usize,
        1 + rng.below(3) as usize,
    ));
    let (parsed_tx, parsed_rx) = std::sync::mpsc::channel::<u64>();
    let (ran_tx, ran_rx) = std::sync::mpsc::channel::<u64>();

    let pool: Vec<_> = (0..workers)
        .map(|w| {
            let q = q.clone();
            let parsed = parsed_tx.clone();
            let ran = ran_tx.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed * 131 + w as u64);
                while let Some(work) = q.pop() {
                    match work {
                        Work::Exec(v) => ran.send(v).expect("main alive"),
                        Work::Parse(v) => parsed.send(v).expect("main alive"),
                        Work::Tokenize(v) => {
                            if let Err(v) = q.push_parse(v) {
                                parsed.send(v).expect("main alive");
                            }
                        }
                    }
                    if rng.below(8) == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    drop((parsed_tx, ran_tx));

    let reader = {
        let q = q.clone();
        std::thread::spawn(move || {
            for v in 0..JOBS {
                if let Err(TextPushError::Full(v)) = q.try_push_text(v) {
                    q.push_text(v).expect("open until every job is parsed");
                }
            }
        })
    };
    let engine = {
        let q = q.clone();
        std::thread::spawn(move || {
            // Submits until the close; returns how many tasks were accepted.
            (0..TASKS).take_while(|&v| q.push_exec(v).is_ok()).count() as u64
        })
    };

    let mut parsed: Vec<u64> = parsed_rx.iter().take(JOBS as usize).collect();
    reader.join().expect("reader");
    // Every chunk is through: shut down with EXEC tasks possibly still queued.
    q.close();
    let accepted = engine.join().expect("engine");
    for h in pool {
        h.join().expect("worker");
    }
    parsed.sort_unstable();
    assert_eq!(
        parsed,
        (0..JOBS).collect::<Vec<_>>(),
        "seed {seed}: jobs lost or duplicated"
    );
    let mut ran: Vec<u64> = ran_rx.iter().collect();
    ran.sort_unstable();
    assert_eq!(
        ran,
        (0..accepted).collect::<Vec<_>>(),
        "seed {seed}: accepted EXEC tasks lost or duplicated"
    );
}

#[test]
fn queue_multithreaded_conservation_across_seeds() {
    for seed in 0..MT_RUNS {
        queue_conservation_run(seed, 1 + (seed as usize % 4));
    }
}
