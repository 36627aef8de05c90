//! Content-addressed, self-invalidating on-disk result store.
//!
//! Results live under a cache directory (`.apusim-cache/` by convention),
//! one file per request digest: `<digest>.sweep`. Each entry embeds a
//! header salt (folding the request-encoding and result-schema versions),
//! the full canonical request block, and the serialized result. A lookup
//! only hits when the salt matches *and* the stored canonical block is
//! byte-identical to the probing request's — so an FNV collision, a schema
//! bump, or a hand-edited file all degrade to a miss (and are overwritten
//! on the next store), never to a wrong result.
//!
//! The store can be bounded: [`ResultCache::gc`] evicts
//! least-recently-*used* entries (lookups touch an entry's mtime) until the
//! directory fits a byte budget. Eviction is only ever a cache miss — the
//! next request re-simulates and re-stores — so GC is always safe to run,
//! including while a `serve` instance is answering from the same directory.

use crate::request::{SweepRequest, REQUEST_VERSION};
use crate::result::{SweepResult, RESULT_VERSION};
use omp_offload::digest::Fnv1a;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::SystemTime;

pub use omp_offload::CacheMode;

/// The salt folded into every entry header: any bump of the request
/// encoding or the result schema changes it, invalidating old entries.
pub fn cache_salt() -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("apusim-cache");
    h.write_u64(u64::from(REQUEST_VERSION));
    h.write_u64(u64::from(RESULT_VERSION));
    h.finish()
}

/// The line between an entry's canonical request block and its result.
const SEPARATOR: &str = "---\n";

/// An entry file's extension, `<digest>.sweep`.
const EXT: &str = "sweep";

/// What one [`ResultCache::gc`] pass did (or, dry-run, would do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcSummary {
    /// Entries found in the cache directory.
    pub scanned: usize,
    /// Entries evicted (oldest-used first).
    pub evicted: usize,
    /// Bytes those entries occupied.
    pub bytes_freed: u64,
    /// Bytes the surviving entries occupy.
    pub bytes_kept: u64,
    /// True when nothing was actually deleted.
    pub dry_run: bool,
}

impl fmt::Display for GcSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache gc: scanned {} entries, evicted {} ({} bytes freed), {} bytes kept{}",
            self.scanned,
            self.evicted,
            self.bytes_freed,
            self.bytes_kept,
            if self.dry_run { " [dry run]" } else { "" },
        )
    }
}

/// Handle on one cache directory (or the disabled store).
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    salt: u64,
    tmp_seq: AtomicUsize,
}

impl ResultCache {
    /// Open a cache in `mode`. Purely in-memory setup; the directory is
    /// created lazily on first store.
    pub fn open(mode: &CacheMode) -> ResultCache {
        ResultCache {
            dir: match mode {
                CacheMode::Off => None,
                CacheMode::Dir(d) => Some(d.clone()),
            },
            salt: cache_salt(),
            tmp_seq: AtomicUsize::new(0),
        }
    }

    /// Whether this store can ever hit.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// An entry's first line, for [`store`](Self::store) and
    /// [`lookup`](Self::lookup) alike.
    fn header(&self) -> String {
        format!("apusim-cache v1 salt={:016x}", self.salt)
    }

    fn entry_path(&self, req: &SweepRequest) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.{EXT}", req.digest())))
    }

    /// Look `req` up. Returns the stored result only when the entry's salt
    /// matches and its canonical request block is byte-identical to
    /// `req.canonical()`; anything else — absent file, stale salt, digest
    /// collision, truncated or corrupt body — is a miss. A hit touches the
    /// entry's mtime, which is the recency [`gc`](Self::gc) orders by.
    pub fn lookup(&self, req: &SweepRequest) -> Option<SweepResult> {
        let path = self.entry_path(req)?;
        let text = fs::read_to_string(&path).ok()?;
        let mut lines = text.splitn(2, '\n');
        let header = lines.next()?;
        if header != self.header() {
            return None;
        }
        let body = lines.next()?;
        let canonical = req.canonical();
        let stored_req = body.get(..canonical.len())?;
        if stored_req != canonical {
            return None;
        }
        let rest = &body[canonical.len()..];
        let result_block = rest.strip_prefix(SEPARATOR)?;
        let result = SweepResult::parse(result_block).ok()?;
        // LRU recency: best-effort, a read-only cache still hits.
        if let Ok(f) = fs::File::options().append(true).open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        Some(result)
    }

    /// Memoize `result` for `req`. Writes to a temp file in the cache
    /// directory and renames into place, so concurrent workers storing the
    /// same key race benignly (equal content, last rename wins) and a
    /// crashed write never leaves a torn entry where `lookup` finds it.
    pub fn store(&self, req: &SweepRequest, result: &SweepResult) -> std::io::Result<()> {
        let Some(path) = self.entry_path(req) else {
            return Ok(());
        };
        let dir = path.parent().expect("entry path has a parent");
        fs::create_dir_all(dir)?;
        let payload = format!(
            "{}\n{}{SEPARATOR}{}",
            self.header(),
            req.canonical(),
            result.to_text(),
        );
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let stored = fs::write(&tmp, payload).and_then(|()| fs::rename(&tmp, &path));
        if stored.is_err() {
            // `gc` and `size_bytes` see only `.sweep` files, so a temp file
            // left here would never be reclaimed or counted.
            let _ = fs::remove_file(&tmp);
        }
        stored
    }

    /// Every entry file as `(mtime, path, bytes)`, the one scan `size_bytes`
    /// and `gc` share; an entry evicted mid-scan is skipped.
    fn entries(&self) -> std::io::Result<Vec<(SystemTime, PathBuf, u64)>> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(Vec::new());
        };
        let entries = match fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != EXT) {
                continue;
            }
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            files.push((mtime, path, meta.len()));
        }
        Ok(files)
    }

    /// Total bytes the store's entries occupy right now (0 when unreadable),
    /// as the `METRICS` cache-size gauge and `GC`'s `bytes_kept` report it.
    pub fn size_bytes(&self) -> u64 {
        let files = self.entries().unwrap_or_default();
        files.iter().map(|&(_, _, len)| len).sum()
    }

    /// Evict least-recently-used entries until the directory's `.sweep`
    /// files total at most `max_bytes`. Ordering is mtime ascending (oldest
    /// evicted first), path as the deterministic tiebreak; `dry_run` only
    /// reports. Eviction can only cause future misses, never wrong answers,
    /// so this is safe to run concurrently with lookups and stores — an
    /// entry deleted mid-lookup reads as a miss.
    pub fn gc(&self, max_bytes: u64, dry_run: bool) -> std::io::Result<GcSummary> {
        let mut summary = GcSummary {
            dry_run,
            ..GcSummary::default()
        };
        let mut files = self.entries()?;
        files.sort();
        summary.scanned = files.len();
        let mut total: u64 = files.iter().map(|&(_, _, len)| len).sum();
        for (_, path, len) in files {
            if total <= max_bytes {
                summary.bytes_kept = total;
                break;
            }
            if !dry_run {
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
            summary.evicted += 1;
            summary.bytes_freed += len;
            total -= len;
        }
        summary.bytes_kept = total;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_mem::{AddrRange, VirtAddr};
    use omp_offload::{MapIr, MapOp, RuntimeConfig};
    use std::path::Path;
    use std::sync::Arc;
    use std::time::Duration;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "apusim-cache-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn req() -> SweepRequest {
        req_with(RuntimeConfig::LegacyCopy)
    }

    fn req_with(config: RuntimeConfig) -> SweepRequest {
        let mut ir = MapIr::new();
        ir.push(
            0,
            MapOp::HostAlloc {
                range: AddrRange::new(VirtAddr(4096), 8192),
            },
        );
        SweepRequest::builder("t", Arc::new(ir))
            .config(config)
            .build()
            .unwrap()
    }

    fn result() -> SweepResult {
        SweepResult {
            ops: 1,
            memory_digest: 0xabcd,
            ..SweepResult::default()
        }
    }

    #[test]
    fn off_mode_never_hits_or_writes() {
        let c = ResultCache::open(&CacheMode::Off);
        assert!(!c.enabled());
        c.store(&req(), &result()).unwrap();
        assert_eq!(c.lookup(&req()), None);
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = scratch_dir("roundtrip");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        assert_eq!(c.lookup(&req()), None, "cold cache must miss");
        c.store(&req(), &result()).unwrap();
        assert_eq!(c.lookup(&req()), Some(result()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_store_leaves_no_temp_file() {
        let dir = scratch_dir("blocked");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        // A directory at the entry path makes the rename fail.
        fs::create_dir_all(dir.join(format!("{:016x}.sweep", req().digest()))).unwrap();
        assert!(c.store(&req(), &result()).is_err());
        let temps: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| n.to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(temps.is_empty(), "temp files left behind: {temps:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_salt_self_invalidates() {
        let dir = scratch_dir("salt");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        c.store(&req(), &result()).unwrap();
        // Corrupt the entry's salt in place, as a version bump would.
        let path = dir.join(format!("{:016x}.sweep", req().digest()));
        let stale = fs::read_to_string(&path)
            .unwrap()
            .replacen("salt=", "salt=f", 1);
        fs::write(&path, stale).unwrap();
        assert_eq!(c.lookup(&req()), None, "stale salt must miss");
        // The next store heals the entry.
        c.store(&req(), &result()).unwrap();
        assert_eq!(c.lookup(&req()), Some(result()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_canonical_block_is_a_miss() {
        let dir = scratch_dir("collide");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        c.store(&req(), &result()).unwrap();
        // Simulate an FNV collision: another request's entry lands on this
        // digest path but carries a different canonical block.
        let path = dir.join(format!("{:016x}.sweep", req().digest()));
        let forged = fs::read_to_string(&path)
            .unwrap()
            .replacen("config copy", "config eager", 1);
        fs::write(&path, forged).unwrap();
        assert_eq!(c.lookup(&req()), None, "collision must miss, not lie");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = scratch_dir("trunc");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        c.store(&req(), &result()).unwrap();
        let path = dir.join(format!("{:016x}.sweep", req().digest()));
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(c.lookup(&req()), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_mode_arg_parsing() {
        assert_eq!("off".parse::<CacheMode>(), Ok(CacheMode::Off));
        assert_eq!(
            "/tmp/c".parse::<CacheMode>(),
            Ok(CacheMode::Dir(PathBuf::from("/tmp/c")))
        );
        assert_eq!(
            CacheMode::default_dir(Path::new("/w")),
            CacheMode::Dir(PathBuf::from("/w/.apusim-cache"))
        );
    }

    fn set_mtime(path: &Path, t: SystemTime) {
        fs::File::options()
            .append(true)
            .open(path)
            .unwrap()
            .set_modified(t)
            .unwrap();
    }

    #[test]
    fn gc_evicts_oldest_until_under_budget() {
        let dir = scratch_dir("gc");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        let reqs: Vec<_> = [
            RuntimeConfig::LegacyCopy,
            RuntimeConfig::UnifiedSharedMemory,
            RuntimeConfig::ImplicitZeroCopy,
            RuntimeConfig::EagerMaps,
        ]
        .into_iter()
        .map(req_with)
        .collect();
        let base = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        for (i, r) in reqs.iter().enumerate() {
            c.store(r, &result()).unwrap();
            // Stamp distinct recencies: reqs[0] oldest, reqs[3] newest.
            set_mtime(
                &dir.join(format!("{:016x}.sweep", r.digest())),
                base + Duration::from_secs(i as u64),
            );
        }
        // Entry sizes differ (config tokens have different lengths).
        let lens: Vec<u64> = reqs
            .iter()
            .map(|r| {
                fs::metadata(dir.join(format!("{:016x}.sweep", r.digest())))
                    .unwrap()
                    .len()
            })
            .collect();
        let total: u64 = lens.iter().sum();

        // Dry run: reports, deletes nothing.
        let dry = c.gc(total - 1, true).unwrap();
        assert_eq!((dry.scanned, dry.evicted, dry.bytes_freed), (4, 1, lens[0]));
        assert!(dry.dry_run);
        assert_eq!(c.lookup(&reqs[0]), Some(result()));

        // Re-stamp (the dry-run lookup above touched reqs[0]).
        set_mtime(&dir.join(format!("{:016x}.sweep", reqs[0].digest())), base);

        // Budget for the two newest entries: the two oldest go.
        let s = c.gc(lens[2] + lens[3], false).unwrap();
        assert_eq!((s.scanned, s.evicted), (4, 2));
        assert_eq!(s.bytes_freed, lens[0] + lens[1]);
        assert_eq!(s.bytes_kept, lens[2] + lens[3]);
        assert_eq!(c.lookup(&reqs[0]), None);
        assert_eq!(c.lookup(&reqs[1]), None);
        assert_eq!(c.lookup(&reqs[2]), Some(result()));
        assert_eq!(c.lookup(&reqs[3]), Some(result()));

        // Already under budget: nothing to do.
        let idle = c.gc(u64::MAX, false).unwrap();
        assert_eq!((idle.scanned, idle.evicted, idle.bytes_freed), (2, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_bytes_tracks_the_store() {
        let dir = scratch_dir("size");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        assert_eq!(c.size_bytes(), 0, "never-written store is empty");
        c.store(&req(), &result()).unwrap();
        let path = dir.join(format!("{:016x}.sweep", req().digest()));
        assert_eq!(c.size_bytes(), fs::metadata(&path).unwrap().len());
        assert_eq!(ResultCache::open(&CacheMode::Off).size_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_on_disabled_or_absent_cache_is_a_noop() {
        let off = ResultCache::open(&CacheMode::Off);
        assert_eq!(off.gc(0, false).unwrap(), GcSummary::default());
        let ghost = ResultCache::open(&CacheMode::Dir(scratch_dir("ghost")));
        let s = ghost.gc(0, false).unwrap();
        assert_eq!(s.scanned, 0);
    }

    #[test]
    fn lookup_touches_recency() {
        let dir = scratch_dir("touch");
        let c = ResultCache::open(&CacheMode::Dir(dir.clone()));
        c.store(&req(), &result()).unwrap();
        let path = dir.join(format!("{:016x}.sweep", req().digest()));
        let old = SystemTime::UNIX_EPOCH + Duration::from_secs(1);
        set_mtime(&path, old);
        assert!(c.lookup(&req()).is_some());
        let touched = fs::metadata(&path).unwrap().modified().unwrap();
        assert!(touched > old, "hit must refresh mtime for LRU gc");
        let _ = fs::remove_dir_all(&dir);
    }
}
