//! The verdict store abstraction: the cache as a pluggable, tiered
//! component.
//!
//! [`VerdictCache`](crate::cache::VerdictCache) (PR 1) is one concrete
//! policy — an eagerly-loaded map mirrored to a directory. A resident
//! service wants a different shape: a *bounded* in-memory tier with an
//! eviction policy and hit/miss/eviction counters, in front of a lazy
//! on-disk tier that is opened once per process and read/written one
//! entry at a time (no scan on open, no full rewrite on insert). This
//! module provides that shape behind the [`VerdictStore`] trait:
//!
//! * [`MemoryTier`] — a bounded LRU map (intrusive doubly-linked list over
//!   a slab, O(1) touch/insert/evict) with hit/miss/eviction counters;
//! * [`DiskTier`] — the on-disk v4 cache format accessed lazily: `get`
//!   reads and version-checks one `<fingerprint>.json` file, `put` writes
//!   one file; concurrent writers stay trivially safe for the same reason
//!   as [`VerdictCache`](crate::cache::VerdictCache) (distinct obligations
//!   touch distinct files, identical obligations write identical bytes);
//! * [`TieredStore`] — memory in front of disk: a memory miss falls
//!   through to disk and promotes the entry on a hit, a put lands in both
//!   tiers. This is the cache a long-lived `oolong serve` process shares
//!   across every request.
//!
//! The [`Engine`](crate::engine::Engine) consumes any [`VerdictStore`];
//! `Engine::with_store` lets many engines (one per request, each with its
//! own prover budget) share a single store handle, which is what makes the
//! cache *resident* instead of re-opened per invocation.

use crate::cache::{CachedVerdict, VerdictCache};
use crate::fingerprint::Fingerprint;
use crate::json;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A concurrent fingerprint-keyed verdict store. All methods take `&self`:
/// implementations synchronize internally so one store handle can be
/// shared across worker threads and across [`Engine`](crate::Engine)s.
pub trait VerdictStore: std::fmt::Debug + Send + Sync {
    /// The entry for `fingerprint`, if present.
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict>;

    /// Records a verdict. Best-effort for persistent tiers: an unwritable
    /// backing directory degrades to memory-only caching, never an error.
    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict);

    /// Number of entries currently resident (for persistent tiers, the
    /// number of entry files).
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's traffic counters. The default is all
    /// zeros, for stores that do not count.
    fn metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
}

/// Traffic counters of a [`VerdictStore`], as reported by `oolong serve`'s
/// `stats` request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Entries resident in the memory tier.
    pub mem_entries: usize,
    /// Bound of the memory tier (0 = tier disabled).
    pub mem_capacity: usize,
    /// Lookups answered by the memory tier.
    pub mem_hits: u64,
    /// Lookups that missed the memory tier.
    pub mem_misses: u64,
    /// Entries evicted from the memory tier (LRU order).
    pub evictions: u64,
    /// Memory-tier misses answered by the disk tier (each one promotes
    /// the entry into the memory tier).
    pub disk_hits: u64,
    /// Lookups that missed every tier.
    pub disk_misses: u64,
    /// Verdicts recorded through [`VerdictStore::put`].
    pub inserts: u64,
}

/// The in-memory tier: a bounded LRU map.
///
/// Recency is an intrusive doubly-linked list threaded through a slab of
/// nodes, so touch, insert, and evict are all O(1). Counters are atomics
/// read without taking the map lock.
#[derive(Debug)]
pub struct MemoryTier {
    capacity: usize,
    inner: Mutex<LruInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Sentinel index for "no node".
const NIL: usize = usize::MAX;

#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<Fingerprint, usize>,
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

#[derive(Debug)]
struct LruNode {
    fingerprint: Fingerprint,
    verdict: CachedVerdict,
    prev: usize,
    next: usize,
}

impl LruInner {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }
}

impl MemoryTier {
    /// An LRU tier holding at most `capacity` entries; `0` disables the
    /// tier (every lookup misses, every insert is dropped).
    pub fn with_capacity(capacity: usize) -> MemoryTier {
        MemoryTier {
            capacity,
            inner: Mutex::new(LruInner {
                head: NIL,
                tail: NIL,
                ..LruInner::default()
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The tier's entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl VerdictStore for MemoryTier {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let mut inner = self.inner.lock().expect("lru lock poisoned");
        match inner.map.get(&fingerprint).copied() {
            Some(idx) => {
                inner.unlink(idx);
                inner.push_front(idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.nodes[idx].verdict.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("lru lock poisoned");
        if let Some(idx) = inner.map.get(&fingerprint).copied() {
            inner.nodes[idx].verdict = verdict;
            inner.unlink(idx);
            inner.push_front(idx);
            return;
        }
        if inner.map.len() >= self.capacity {
            let victim = inner.tail;
            debug_assert_ne!(victim, NIL, "nonempty map has a tail");
            inner.unlink(victim);
            let evicted = inner.nodes[victim].fingerprint;
            inner.map.remove(&evicted);
            inner.free.push(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let node = LruNode {
            fingerprint,
            verdict,
            prev: NIL,
            next: NIL,
        };
        let idx = match inner.free.pop() {
            Some(idx) => {
                inner.nodes[idx] = node;
                idx
            }
            None => {
                inner.nodes.push(node);
                inner.nodes.len() - 1
            }
        };
        inner.map.insert(fingerprint, idx);
        inner.push_front(idx);
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("lru lock poisoned").map.len()
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            mem_entries: self.len(),
            mem_capacity: self.capacity,
            mem_hits: self.hits.load(Ordering::Relaxed),
            mem_misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..StoreMetrics::default()
        }
    }
}

/// The on-disk tier: the same per-entry JSON file format as
/// [`VerdictCache`](crate::cache::VerdictCache), accessed lazily.
///
/// Opening the tier creates the directory and nothing else — no scan, no
/// parse. `get` reads exactly one file; `put` writes exactly one file.
/// A resident process therefore pays I/O proportional to its traffic,
/// not to the cache's accumulated size, and an entry written by one
/// process is immediately visible to another sharing the directory.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
}

impl DiskTier {
    /// Opens (creating if absent) the tier under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn at_dir(dir: &Path) -> io::Result<DiskTier> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskTier {
            dir: dir.to_path_buf(),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fingerprint: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }
}

impl VerdictStore for DiskTier {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let text = std::fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        let value = json::parse(&text).ok()?;
        let (stored, verdict) = CachedVerdict::from_json(&value)?;
        // The filename is advisory; the entry's own fingerprint member is
        // authoritative (a corrupt or renamed file must not alias).
        (stored == fingerprint).then_some(verdict)
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        let rendered = verdict.render(fingerprint);
        let _ = std::fs::write(self.entry_path(fingerprint), rendered);
    }

    fn len(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| {
                let path = e.path();
                path.extension().and_then(|x| x.to_str()) == Some("json")
                    && path.file_stem().and_then(|s| s.to_str()).map(str::len) == Some(32)
            })
            .count()
    }
}

/// Default bound of the memory tier: generous for a single corpus, small
/// against the disk tier a long-lived service accumulates.
pub const DEFAULT_MEMORY_CAPACITY: usize = 4096;

/// The two-tier store: a bounded [`MemoryTier`] in front of an optional
/// [`DiskTier`].
#[derive(Debug)]
pub struct TieredStore {
    memory: MemoryTier,
    disk: Option<DiskTier>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    inserts: AtomicU64,
}

impl TieredStore {
    /// A memory-only store bounded at `capacity` entries.
    pub fn in_memory(capacity: usize) -> TieredStore {
        TieredStore {
            memory: MemoryTier::with_capacity(capacity),
            disk: None,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// A store persisted under `dir`, with a memory tier bounded at
    /// `capacity` entries.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn at_dir(dir: &Path, capacity: usize) -> io::Result<TieredStore> {
        Ok(TieredStore {
            memory: MemoryTier::with_capacity(capacity),
            disk: Some(DiskTier::at_dir(dir)?),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        })
    }

    /// The backing directory, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(DiskTier::dir)
    }

    /// Entries on the disk tier (0 when memory-only).
    pub fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, VerdictStore::len)
    }
}

impl VerdictStore for TieredStore {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        if let Some(verdict) = self.memory.get(fingerprint) {
            return Some(verdict);
        }
        let Some(disk) = &self.disk else {
            return None;
        };
        match disk.get(fingerprint) {
            Some(verdict) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.memory.put(fingerprint, verdict.clone());
                Some(verdict)
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            disk.put(fingerprint, verdict.clone());
        }
        self.memory.put(fingerprint, verdict);
    }

    fn len(&self) -> usize {
        match &self.disk {
            Some(disk) => disk.len(),
            None => self.memory.len(),
        }
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            ..self.memory.metrics()
        }
    }
}

/// [`VerdictCache`] (the PR-1 eager store) remains a valid policy behind
/// the same trait, so existing callers keep working unchanged.
impl VerdictStore for VerdictCache {
    fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        VerdictCache::get(self, fingerprint)
    }

    fn put(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        VerdictCache::insert(self, fingerprint, verdict);
    }

    fn len(&self) -> usize {
        VerdictCache::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedOutcome;
    use oolong_prover::Stats;

    fn entry(tag: &str) -> CachedVerdict {
        CachedVerdict {
            proc_name: tag.to_string(),
            outcome: CachedOutcome::Proved,
            stats: Stats::default(),
            open_branch: None,
            labels: Vec::new(),
            primary: None,
            diagnosis: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let tier = MemoryTier::with_capacity(2);
        tier.put(Fingerprint(1), entry("a"));
        tier.put(Fingerprint(2), entry("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(tier.get(Fingerprint(1)).is_some());
        tier.put(Fingerprint(3), entry("c"));
        assert_eq!(tier.len(), 2);
        assert!(tier.get(Fingerprint(2)).is_none(), "2 was evicted");
        assert!(tier.get(Fingerprint(1)).is_some());
        assert!(tier.get(Fingerprint(3)).is_some());
        let m = tier.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.mem_hits, 3);
        assert_eq!(m.mem_misses, 1);
    }

    #[test]
    fn lru_reinsert_updates_in_place() {
        let tier = MemoryTier::with_capacity(2);
        tier.put(Fingerprint(1), entry("a"));
        tier.put(Fingerprint(1), entry("a2"));
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.get(Fingerprint(1)).expect("present").proc_name, "a2");
        assert_eq!(tier.metrics().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let tier = MemoryTier::with_capacity(0);
        tier.put(Fingerprint(1), entry("a"));
        assert_eq!(tier.len(), 0);
        assert!(tier.get(Fingerprint(1)).is_none());
    }

    #[test]
    fn lru_slab_reuses_freed_nodes() {
        let tier = MemoryTier::with_capacity(2);
        for i in 0..100u128 {
            tier.put(Fingerprint(i), entry(&format!("e{i}")));
        }
        let inner = tier.inner.lock().expect("lock");
        assert!(
            inner.nodes.len() <= 3,
            "slab stays bounded by capacity, not by traffic (got {})",
            inner.nodes.len()
        );
    }

    #[test]
    fn disk_tier_round_trips_lazily() {
        let dir = std::env::temp_dir().join(format!("oolong-disktier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = Fingerprint(0xfeed_f00d_0000_0000_0000_0000_0000_0001);
        {
            let tier = DiskTier::at_dir(&dir).expect("creates");
            assert_eq!(tier.len(), 0);
            tier.put(fp, entry("p"));
            assert_eq!(tier.len(), 1);
        }
        // A second handle sees the entry without any eager load.
        let tier = DiskTier::at_dir(&dir).expect("reopens");
        assert_eq!(tier.get(fp).expect("present").proc_name, "p");
        assert!(tier.get(Fingerprint(2)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_rejects_renamed_entries() {
        // An entry file whose name does not match its recorded fingerprint
        // must not alias another obligation.
        let dir = std::env::temp_dir().join(format!("oolong-diskalias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::at_dir(&dir).expect("creates");
        let fp = Fingerprint(0xaaaa_0000_0000_0000_0000_0000_0000_0001);
        let other = Fingerprint(0xbbbb_0000_0000_0000_0000_0000_0000_0002);
        tier.put(fp, entry("p"));
        std::fs::rename(
            dir.join(format!("{fp}.json")),
            dir.join(format!("{other}.json")),
        )
        .expect("renames");
        assert!(tier.get(other).is_none(), "renamed entry must not serve");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_store_promotes_disk_hits() {
        let dir = std::env::temp_dir().join(format!("oolong-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = Fingerprint(77);
        {
            let store = TieredStore::at_dir(&dir, 8).expect("creates");
            store.put(fp, entry("p"));
        }
        // Fresh handle: memory tier is empty, the first get is a disk hit
        // that promotes, the second is a memory hit.
        let store = TieredStore::at_dir(&dir, 8).expect("reopens");
        assert!(store.get(fp).is_some());
        assert!(store.get(fp).is_some());
        assert!(store.get(Fingerprint(1)).is_none());
        let m = store.metrics();
        assert_eq!(m.disk_hits, 1);
        assert_eq!(m.mem_hits, 1);
        assert_eq!(m.mem_misses, 2);
        assert_eq!(m.disk_misses, 1);
        assert_eq!(m.mem_entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
