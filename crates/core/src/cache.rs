//! The binary chunks cache (paper §3.1, "Caching").
//!
//! All converted chunks land here before being delivered to the execution
//! engine or written to the database, and they stay cached across queries —
//! the cache belongs to the operator, which is attached to the raw file, not
//! to a query. Eviction is LRU *biased toward chunks already loaded inside
//! the database*: a chunk that also exists in binary form on disk is cheaper
//! to lose than one that would need re-tokenizing and re-parsing.
//!
//! Loadedness is tracked per (chunk, column) cell: a cached chunk remembers
//! which of its present columns are durably stored, so the speculative
//! scheduler can pick individual cells and the eviction bias only applies
//! once *every* present cell is stored.
//!
//! The order itself is [`LoadBiasedLru`], which the pipeline simulator
//! (`scanraw-pipesim`) keeps its cache in as well.

use parking_lot::Mutex;
use scanraw_obs::{Counter, Obs, ObsEvent};
use scanraw_types::{BinaryChunk, ChunkId};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A cache's eviction order and capacity (§3.1): the victim is the least
/// recently used entry among those whose every cell is loaded in the
/// database, or the least recently used of all when none is. Each entry
/// also keeps when it was admitted, which is what "oldest" means to the
/// speculative pick (§4).
#[derive(Debug)]
pub struct LoadBiasedLru<K, V> {
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    /// Last recency stamp handed out (larger = more recently used).
    stamp: u64,
    /// Last admission sequence handed out (smaller = older).
    seq: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    stamp: u64,
    seq: u64,
}

impl<K: Copy + Eq + Hash, V> LoadBiasedLru<K, V> {
    /// An empty order holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity cache could never
    /// admit the entry being inserted and would evict on every call.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LoadBiasedLru {
            map: HashMap::with_capacity(capacity),
            capacity,
            stamp: 0,
            seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value of `key`, leaving its recency alone.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
    }

    /// The value of `key` for update, leaving its recency alone.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key).map(|s| &mut s.value)
    }

    /// Makes `key` the most recently used entry and returns its value.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        self.stamp += 1;
        let stamp = self.stamp;
        let slot = self.map.get_mut(key)?;
        slot.stamp = stamp;
        Some(&mut slot.value)
    }

    /// Admits `key`, which must not be resident, as the most recently used
    /// and the newest entry. When the order is full, first evicts and
    /// returns the victim, `loaded` telling which entries have every cell in
    /// the database.
    pub fn admit(&mut self, key: K, value: V, loaded: impl Fn(&K, &V) -> bool) -> Option<(K, V)> {
        debug_assert!(!self.map.contains_key(&key), "admitted a resident key");
        let mut victim = None;
        if self.map.len() >= self.capacity {
            victim = self.victim(loaded).and_then(|k| self.map.remove_entry(&k));
        }
        self.stamp += 1;
        self.seq += 1;
        let (stamp, seq) = (self.stamp, self.seq);
        self.map.insert(key, Slot { value, stamp, seq });
        victim.map(|(k, slot)| (k, slot.value))
    }

    fn victim(&self, loaded: impl Fn(&K, &V) -> bool) -> Option<K> {
        let lru = |loaded_only: bool| {
            self.map
                .iter()
                .filter(|(k, s)| !loaded_only || loaded(k, &s.value))
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| *k)
        };
        lru(true).or_else(|| lru(false))
    }

    /// Every entry, the earliest admitted first.
    pub fn oldest_first(&self) -> Vec<(&K, &V)> {
        let mut slots: Vec<_> = self.map.iter().collect();
        slots.sort_unstable_by_key(|(_, s)| s.seq);
        slots.into_iter().map(|(k, s)| (k, &s.value)).collect()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Lifetime cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Metric handles + journal used when observability is attached.
struct CacheObs {
    obs: Obs,
    hit: Counter,
    miss: Counter,
    evict: Counter,
}

/// One cached entry.
struct Entry {
    chunk: Arc<BinaryChunk>,
    /// `loaded_cols[col]` — the (chunk, col) cell is stored in the database.
    /// Parallel to `chunk.columns`; absent columns carry a dead `false`.
    loaded_cols: Vec<bool>,
}

impl Entry {
    /// Present columns whose cells are not yet stored in the database.
    fn missing_cols(&self) -> Vec<usize> {
        self.chunk
            .columns
            .iter()
            .enumerate()
            .filter(|(i, c)| c.is_some() && !self.loaded_cols.get(*i).copied().unwrap_or(false))
            .map(|(i, _)| i)
            .collect()
    }

    /// Every present column's cell is stored — the chunk is cheap to lose.
    fn is_loaded(&self) -> bool {
        self.chunk
            .columns
            .iter()
            .enumerate()
            .all(|(i, c)| c.is_none() || self.loaded_cols.get(i).copied().unwrap_or(false))
    }
}

/// The chunk a re-insert of `new` over `resident` leaves cached: it has
/// every column either of them has. A scan planned on [`ChunkCache::covers`]
/// may be about to `get` the resident chunk, so a narrower copy (say a
/// database read of only the loaded columns) must not take columns away.
fn keep_resident_columns(resident: &Arc<BinaryChunk>, new: Arc<BinaryChunk>) -> Arc<BinaryChunk> {
    if new.covers(&resident.present_columns()) {
        return new;
    }
    if resident.covers(&new.present_columns()) {
        return resident.clone();
    }
    let mut merged = BinaryChunk::clone(&new);
    for (slot, old) in merged.columns.iter_mut().zip(&resident.columns) {
        if slot.is_none() {
            slot.clone_from(old);
        }
    }
    Arc::from(merged)
}

fn loaded_bits(chunk: &BinaryChunk, loaded_cols: &[usize]) -> Vec<bool> {
    let mut bits = vec![false; chunk.columns.len()];
    for &c in loaded_cols {
        if let Some(b) = bits.get_mut(c) {
            *b = true;
        }
    }
    bits
}

struct Inner {
    entries: LoadBiasedLru<ChunkId, Entry>,
    /// Lifetime counters for observability and tests.
    counters: CacheCounters,
    /// Attached observability (metrics + journal); absent by default.
    obs: Option<CacheObs>,
}

/// Thread-safe chunk cache with load-biased LRU eviction. Cheap to clone.
#[derive(Clone)]
pub struct ChunkCache {
    inner: Arc<Mutex<Inner>>,
}

/// Outcome of an insert: the evicted victim, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Evicted {
    pub id: ChunkId,
    pub chunk: Arc<BinaryChunk>,
    /// Whether every present column cell of the victim was already stored in
    /// the database.
    pub loaded: bool,
    /// Present columns of the victim whose cells were *not* yet stored — the
    /// cells a buffered write-on-eviction must persist.
    pub missing_cols: Vec<usize>,
}

impl ChunkCache {
    /// Creates a cache holding at most `capacity` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity cache could never
    /// admit the chunk being inserted and would evict on every call.
    pub fn new(capacity: usize) -> Self {
        ChunkCache {
            inner: Arc::new(Mutex::new(Inner {
                entries: LoadBiasedLru::new(capacity),
                counters: CacheCounters::default(),
                obs: None,
            })),
        }
    }

    /// Attaches an observability bundle: hits/misses/evictions feed the
    /// `cache.chunk.*` metrics and the event journal from now on.
    pub fn attach_obs(&self, obs: &Obs) {
        let cache_obs = CacheObs {
            obs: obs.clone(),
            hit: obs.metrics.counter("cache.chunk.hit"),
            miss: obs.metrics.counter("cache.chunk.miss"),
            evict: obs.metrics.counter("cache.chunk.evict"),
        };
        self.inner.lock().obs = Some(cache_obs);
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts (or replaces) a chunk; `loaded_cols` names the columns whose
    /// (chunk, col) cells are already stored in the database. Returns the
    /// victim evicted to make room, if the cache was full. Re-inserting an
    /// existing id unions the loaded bits — a cell the WRITE thread already
    /// committed can never be un-marked by a racing delivery — and keeps
    /// every column the resident chunk had, so `covers` never turns false
    /// while the id stays resident.
    ///
    /// Victim selection is [`LoadBiasedLru`]'s, an entry counting as loaded
    /// once every present cell is stored.
    pub fn insert(&self, chunk: Arc<BinaryChunk>, loaded_cols: &[usize]) -> Option<Evicted> {
        let mut g = self.inner.lock();
        if let Some(e) = g.entries.touch(&chunk.id) {
            let chunk = keep_resident_columns(&e.chunk, chunk);
            let mut bits = loaded_bits(&chunk, loaded_cols);
            for (b, old) in bits.iter_mut().zip(&e.loaded_cols) {
                *b |= old;
            }
            e.chunk = chunk;
            e.loaded_cols = bits;
            return None;
        }
        let entry = Entry {
            loaded_cols: loaded_bits(&chunk, loaded_cols),
            chunk,
        };
        let (victim, e) = g
            .entries
            .admit(entry.chunk.id, entry, |_, e| e.is_loaded())?;
        g.counters.evictions += 1;
        let loaded = e.is_loaded();
        if let Some(o) = &g.obs {
            o.evict.inc();
            o.obs.event(ObsEvent::CacheEvict {
                chunk: victim.0 as u64,
                loaded,
            });
        }
        Some(Evicted {
            id: victim,
            missing_cols: e.missing_cols(),
            chunk: e.chunk,
            loaded,
        })
    }

    /// Looks up a chunk, refreshing its recency on hit.
    pub fn get(&self, id: ChunkId) -> Option<Arc<BinaryChunk>> {
        let mut g = self.inner.lock();
        let hit = g.entries.touch(&id).map(|e| e.chunk.clone());
        let chunk = id.0 as u64;
        if hit.is_some() {
            g.counters.hits += 1;
            if let Some(o) = &g.obs {
                o.hit.inc();
                o.obs.event(ObsEvent::CacheHit { chunk });
            }
        } else {
            g.counters.misses += 1;
            if let Some(o) = &g.obs {
                o.miss.inc();
                o.obs.event(ObsEvent::CacheMiss { chunk });
            }
        }
        hit
    }

    /// Looks up without refreshing recency or counters (introspection).
    pub fn peek(&self, id: ChunkId) -> Option<Arc<BinaryChunk>> {
        self.inner.lock().entries.get(&id).map(|e| e.chunk.clone())
    }

    /// True when the cached copy of `id` contains every column in `cols`.
    pub fn covers(&self, id: ChunkId, cols: &[usize]) -> bool {
        self.inner
            .lock()
            .entries
            .get(&id)
            .is_some_and(|e| e.chunk.covers(cols))
    }

    /// Marks (chunk, col) cells of a cached chunk as stored in the database
    /// (no-op if absent). Cell-granular: only the named columns flip.
    pub fn mark_loaded(&self, id: ChunkId, cols: &[usize]) {
        if let Some(e) = self.inner.lock().entries.get_mut(&id) {
            for &c in cols {
                if let Some(b) = e.loaded_cols.get_mut(c) {
                    *b = true;
                }
            }
        }
    }

    /// All cached chunks with at least one unloaded present-column cell,
    /// oldest first, each paired with its missing columns — the candidate
    /// set both the speculative pick and the safeguard flush draw from (§4,
    /// at chunk×column granularity).
    pub fn unloaded_cells(&self) -> Vec<(Arc<BinaryChunk>, Vec<usize>)> {
        let g = self.inner.lock();
        let oldest_first = g.entries.oldest_first().into_iter();
        oldest_first
            .filter_map(|(_, e)| {
                let missing = e.missing_cols();
                (!missing.is_empty()).then(|| (e.chunk.clone(), missing))
            })
            .collect()
    }

    /// Ids of everything currently cached, oldest first.
    pub fn cached_ids(&self) -> Vec<ChunkId> {
        let g = self.inner.lock();
        g.entries
            .oldest_first()
            .into_iter()
            .map(|(id, _)| *id)
            .collect()
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn counters(&self) -> CacheCounters {
        self.inner.lock().counters
    }

    /// Drops every entry (used by tests and operator teardown).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(id: u32) -> Arc<BinaryChunk> {
        chunk_cols(id, 1)
    }

    /// A chunk with `n_cols` present Int64 columns.
    fn chunk_cols(id: u32, n_cols: usize) -> Arc<BinaryChunk> {
        use scanraw_types::ColumnData;
        let mut b = BinaryChunk::empty(ChunkId(id), id as u64 * 2, 2, n_cols);
        for col in b.columns.iter_mut() {
            *col = Some(ColumnData::Int64(vec![id as i64, 2]));
        }
        Arc::new(b)
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = ChunkCache::new(4);
        c.insert(chunk(1), &[]);
        assert!(c.get(ChunkId(1)).is_some());
        assert!(c.get(ChunkId(2)).is_none());
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
    }

    #[test]
    fn plain_lru_when_nothing_loaded() {
        let c = ChunkCache::new(2);
        c.insert(chunk(1), &[]);
        c.insert(chunk(2), &[]);
        c.get(ChunkId(1)); // refresh 1 → victim must be 2
        let ev = c.insert(chunk(3), &[]).expect("eviction");
        assert_eq!(ev.id, ChunkId(2));
        assert!(!ev.loaded);
        assert_eq!(ev.missing_cols, vec![0]);
    }

    #[test]
    fn bias_evicts_loaded_first() {
        let c = ChunkCache::new(2);
        c.insert(chunk(1), &[0]); // loaded
        c.insert(chunk(2), &[]); // unloaded
        c.get(ChunkId(1)); // 1 is *more* recent, but loaded
        let ev = c.insert(chunk(3), &[]).expect("eviction");
        assert_eq!(ev.id, ChunkId(1), "loaded chunk evicted despite recency");
        assert!(ev.loaded);
        assert!(ev.missing_cols.is_empty());
        assert!(c.peek(ChunkId(2)).is_some());
    }

    #[test]
    fn partially_loaded_chunk_is_not_eviction_biased() {
        // A chunk with one of two cells stored still needs re-conversion if
        // lost, so the bias must treat it like an unloaded chunk.
        let c = ChunkCache::new(2);
        c.insert(chunk_cols(1, 2), &[0]); // half loaded
        c.insert(chunk_cols(2, 2), &[]); // unloaded
        c.get(ChunkId(2)); // 1 is now the LRU entry
        let ev = c.insert(chunk_cols(3, 2), &[]).expect("eviction");
        assert_eq!(ev.id, ChunkId(1), "plain LRU applies — no loaded bias");
        assert!(!ev.loaded);
        assert_eq!(ev.missing_cols, vec![1], "only the unstored cell is owed");
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let c = ChunkCache::new(1);
        c.insert(chunk(1), &[]);
        assert!(c.insert(chunk(1), &[0]).is_none());
        // mark via reinsert took effect:
        assert!(c.unloaded_cells().is_empty());
    }

    #[test]
    fn reinsert_unions_loaded_cells() {
        let c = ChunkCache::new(2);
        c.insert(chunk_cols(1, 2), &[1]);
        // A racing re-delivery that only knows about column 0 being stored
        // must not un-mark column 1.
        c.insert(chunk_cols(1, 2), &[0]);
        assert!(c.unloaded_cells().is_empty(), "bits union, never clear");
    }

    /// A chunk with only the listed columns present (of `n_cols`).
    fn chunk_with(id: u32, n_cols: usize, present: &[usize]) -> Arc<BinaryChunk> {
        use scanraw_types::ColumnData;
        let mut b = BinaryChunk::empty(ChunkId(id), id as u64 * 2, 2, n_cols);
        for &c in present {
            b.columns[c] = Some(ColumnData::Int64(vec![c as i64, 2]));
        }
        Arc::new(b)
    }

    #[test]
    fn narrow_reinsert_keeps_resident_columns() {
        let c = ChunkCache::new(2);
        c.insert(chunk_with(1, 3, &[0, 1, 2]), &[]);
        // A database-served copy holding only the loaded column lands on top.
        c.insert(chunk_with(1, 3, &[1]), &[1]);
        assert!(c.covers(ChunkId(1), &[0, 1, 2]), "no column was dropped");
        let cells = c.unloaded_cells();
        assert_eq!(cells[0].1, vec![0, 2], "the loaded bit still landed");
    }

    #[test]
    fn overlapping_reinsert_grafts_both_sides() {
        let c = ChunkCache::new(2);
        c.insert(chunk_with(1, 3, &[0, 1]), &[0]);
        c.insert(chunk_with(1, 3, &[1, 2]), &[2]);
        assert!(c.covers(ChunkId(1), &[0, 1, 2]));
        assert_eq!(c.unloaded_cells()[0].1, vec![1], "loaded bits union");
        // A wider re-insert replaces wholesale.
        let wide = chunk_with(1, 3, &[0, 1, 2]);
        c.insert(wide.clone(), &[]);
        assert!(Arc::ptr_eq(&c.peek(ChunkId(1)).unwrap(), &wide));
    }

    #[test]
    fn unloaded_cells_oldest_first_with_missing_columns() {
        let c = ChunkCache::new(4);
        c.insert(chunk_cols(5, 2), &[]);
        c.insert(chunk_cols(3, 2), &[]);
        c.insert(chunk_cols(7, 2), &[0, 1]);
        // Recency must not matter — touch 5.
        c.get(ChunkId(5));
        let cells = c.unloaded_cells();
        let ids: Vec<u32> = cells.iter().map(|(ch, _)| ch.id.0).collect();
        assert_eq!(ids, vec![5, 3], "insertion order, fully loaded excluded");
        assert_eq!(cells[0].1, vec![0, 1]);
        c.mark_loaded(ChunkId(5), &[0]);
        let cells = c.unloaded_cells();
        assert_eq!(cells[0].1, vec![1], "cell-granular marking");
        c.mark_loaded(ChunkId(5), &[1]);
        c.mark_loaded(ChunkId(3), &[0, 1]);
        assert!(c.unloaded_cells().is_empty());
    }

    #[test]
    fn covers_checks_columns() {
        use scanraw_types::ColumnData;
        let c = ChunkCache::new(2);
        let mut b = BinaryChunk::empty(ChunkId(1), 0, 2, 2);
        b.columns[0] = Some(ColumnData::Int64(vec![1, 2]));
        c.insert(Arc::new(b), &[]);
        assert!(c.covers(ChunkId(1), &[0]));
        assert!(!c.covers(ChunkId(1), &[0, 1]));
        assert!(!c.covers(ChunkId(9), &[0]));
    }

    #[test]
    fn eviction_counter() {
        let c = ChunkCache::new(1);
        c.insert(chunk(1), &[]);
        c.insert(chunk(2), &[]);
        c.insert(chunk(3), &[]);
        assert_eq!(c.counters().evictions, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn attached_obs_sees_hits_misses_evictions() {
        let obs = Obs::with_journal_capacity(64);
        let c = ChunkCache::new(1);
        c.attach_obs(&obs);
        c.insert(chunk(1), &[]);
        c.get(ChunkId(1)); // hit
        c.get(ChunkId(9)); // miss
        c.insert(chunk(2), &[]); // evicts 1
        assert_eq!(obs.metrics.counter_value("cache.chunk.hit"), Some(1));
        assert_eq!(obs.metrics.counter_value("cache.chunk.miss"), Some(1));
        assert_eq!(obs.metrics.counter_value("cache.chunk.evict"), Some(1));
        assert_eq!(
            obs.journal
                .count_where(|e| matches!(e, ObsEvent::CacheEvict { chunk: 1, .. })),
            1
        );
        // Journal and struct counters agree.
        let counters = c.counters();
        assert_eq!(
            counters,
            CacheCounters {
                hits: 1,
                misses: 1,
                evictions: 1
            }
        );
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        ChunkCache::new(0);
    }
}
