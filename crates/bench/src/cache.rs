//! Persistent, content-addressed result cache for harness sweeps.
//!
//! A full conformance matrix (20 apps × 5 policies × seeds × fault arms) is
//! only a standing regression suite if reruns are cheap and bit-stable.
//! Every simulated cell here is a pure function of its inputs, so the cache
//! keys each result by a content hash of everything that can change it:
//!
//! * the [`crate::ScenarioSpec`] fingerprint (label, device, seed, length),
//! * the fault plan fingerprint (every scheduled `(at, kind)` pair),
//! * the build revision ([`build_rev`]: git commit when available, crate
//!   version otherwise — any code change must invalidate every cell).
//!
//! An entry is two sibling files under the cache directory (default
//! `target/leaseos-cache/`, override with `LEASEOS_CACHE_DIR`):
//!
//! ```text
//! <key>.json   summary: the measured numbers + integrity metadata
//! <key>.jsonl  the cell's full telemetry stream, byte-for-byte
//! ```
//!
//! A warm lookup replays the exact bytes the cold run produced, which is
//! what lets `chaos --full` print byte-identical output on a 100%-hit rerun.
//! Integrity is checked on every load: the summary must parse, carry the
//! expected key and format version, and name the JSONL stream's content
//! hash. Corrupt or truncated entries are treated as misses (and
//! re-executed), never trusted.
//!
//! Keys and the integrity check use different hashes. Keys stay on
//! [`fnv1a128`] over a few short canonical strings, whose bytes are pinned
//! by tests and by the benchmark's digests. The JSONL check hashes every
//! byte of tens of megabytes per warm sweep, so it uses XXH64 (seed 0),
//! which runs four independent lanes over 32-byte stripes instead of one
//! dependent multiply per byte. Entries from before that change carry an
//! FNV-1a JSONL hash under format 1; format 2 makes each miss once and
//! re-execute.
//!
//! Writes go through a temp file + rename so a crash mid-store can at worst
//! leave an entry whose hash check fails — not a half-written file that
//! validates.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use leaseos_simkit::metrics::Counter;
use leaseos_simkit::{JsonValue, MetricsRegistry};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over raw bytes — the hash every cache key is built from.
/// Not cryptographic, but collision-free in practice for the few thousand
/// short canonical strings a sweep produces, and fully dependency-free.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const XXH_PRIME_1: u64 = 0x9e3779b185ebca87;
const XXH_PRIME_2: u64 = 0xc2b2ae3d27d4eb4f;
const XXH_PRIME_3: u64 = 0x165667b19e3779f9;
const XXH_PRIME_4: u64 = 0x85ebca77c2b2ae63;
const XXH_PRIME_5: u64 = 0x27d4eb2f165667c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// XXH64 with seed 0 — the JSONL integrity hash. Four lanes consume each
/// 32-byte stripe, then the 8-, 4- and 1-byte tails fold in and the
/// avalanche mixes the result.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            XXH_PRIME_1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = xxh_round(*lane, read_u64(&stripe[i * 8..]));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        XXH_PRIME_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        h ^= xxh_round(0, read_u64(tail));
        h = h
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().unwrap());
        h ^= u64::from(word).wrapping_mul(XXH_PRIME_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(XXH_PRIME_5);
        h = h.rotate_left(11).wrapping_mul(XXH_PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

/// The JSONL hash as the summary stores it: 16 hex digits.
fn jsonl_hash(jsonl: &[u8]) -> String {
    format!("{:016x}", xxh64(jsonl))
}

/// A content-derived cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// The key as the 32-hex-digit file stem the cache stores under.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Accumulates named fields into a [`CacheKey`].
///
/// Fields are folded into the hash as `name=value;` spans, so reordering,
/// renaming, or dropping a field always changes the key — there is no way
/// for two different ingredient sets to alias by concatenation.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    hash: u128,
}

impl KeyBuilder {
    /// Starts a key in a named domain (e.g. `"chaos-cell/v1"`). The domain
    /// doubles as the format version: bump it when the cached payload's
    /// schema changes.
    pub fn new(domain: &str) -> Self {
        let mut b = KeyBuilder { hash: FNV_OFFSET };
        b.write(domain.as_bytes());
        b.write(b";");
        b
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= byte as u128;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one named ingredient into the key.
    pub fn field(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.write(name.as_bytes());
        self.write(b"=");
        self.write(value.to_string().as_bytes());
        self.write(b";");
        self
    }

    /// The finished key.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.hash)
    }
}

/// One validated cache entry: the summary document plus the exact telemetry
/// bytes the cold run wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The caller's summary payload (whatever was passed to
    /// [`ResultCache::store`]); integrity metadata is stripped back off.
    pub summary: JsonValue,
    /// The telemetry JSONL stream, byte-for-byte.
    pub jsonl: Vec<u8>,
}

/// Hit/miss/store counters for one cache handle's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that replayed a valid entry.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt, or truncated).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// The subset of misses where an entry existed on disk but failed
    /// validation — each one is repaired by the re-execute + re-store that
    /// follows the miss.
    pub corrupt_repairs: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits: {}, misses: {}, stores: {}",
            self.hits, self.misses, self.stores
        )
    }
}

/// The on-disk cache. Shareable across harness worker threads (`&self`
/// everywhere, atomic counters; entries land under distinct key-named
/// files, so concurrent stores never interleave within a file).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    /// Registry counter handles, mirrored alongside the atomics once
    /// [`ResultCache::attach_metrics`] is called.
    metrics: Option<CacheCounters>,
}

#[derive(Debug)]
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    stores: Counter,
    corrupt: Counter,
}

/// Keys the summary document carries for integrity checking.
const META_KEY: &str = "cache_key";
const META_JSONL_HASH: &str = "jsonl_xxh64";
const META_FORMAT: &str = "cache_format";
/// Bump to orphan (and transparently re-execute) every existing entry.
/// Format 1 hashed the JSONL with FNV-1a-128; format 2 uses XXH64.
const FORMAT_VERSION: f64 = 2.0;

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            metrics: None,
        })
    }

    /// Mirrors every counter bump into `registry` (`cache_hits_total`,
    /// `cache_misses_total`, `cache_stores_total`,
    /// `cache_corrupt_repairs_total`), so a metrics snapshot reports the
    /// same numbers as the legacy [`ResultCache::stats`] line. Call before
    /// sharing the cache across worker threads.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(CacheCounters {
            hits: registry.counter("cache_hits_total"),
            misses: registry.counter("cache_misses_total"),
            stores: registry.counter("cache_stores_total"),
            corrupt: registry.counter("cache_corrupt_repairs_total"),
        });
    }

    /// The default cache directory: `LEASEOS_CACHE_DIR` if set, else
    /// `target/leaseos-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("LEASEOS_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/leaseos-cache"))
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn summary_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    fn jsonl_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.jsonl", key.hex()))
    }

    /// Looks `key` up, validating integrity. Any defect — missing files,
    /// unparseable summary, key or format mismatch, JSONL content-hash
    /// mismatch — counts as a miss so the caller re-executes.
    pub fn load(&self, key: CacheKey) -> Option<CacheEntry> {
        match self.try_load(key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.misses.inc();
                }
                // An entry that exists but failed validation is corrupt;
                // the re-execute + re-store after this miss repairs it.
                if self.summary_path(key).exists() {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &self.metrics {
                        m.corrupt.inc();
                    }
                }
                None
            }
        }
    }

    fn try_load(&self, key: CacheKey) -> Option<CacheEntry> {
        let text = fs::read_to_string(self.summary_path(key)).ok()?;
        let doc = JsonValue::parse(&text).ok()?;
        if doc.get(META_KEY)?.as_str()? != key.hex() {
            return None;
        }
        if doc.get(META_FORMAT)?.as_f64()? != FORMAT_VERSION {
            return None;
        }
        let want_hash = doc.get(META_JSONL_HASH)?.as_str()?;
        let jsonl = fs::read(self.jsonl_path(key)).ok()?;
        if jsonl_hash(&jsonl) != want_hash {
            return None;
        }
        let JsonValue::Obj(fields) = doc else {
            return None;
        };
        let summary = JsonValue::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !matches!(k.as_str(), META_KEY | META_JSONL_HASH | META_FORMAT))
                .collect(),
        );
        Some(CacheEntry { summary, jsonl })
    }

    /// Stores `summary` + `jsonl` under `key`, atomically per file.
    ///
    /// # Panics
    ///
    /// Panics if `summary` is not a JSON object (the integrity metadata has
    /// nowhere to live otherwise).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn store(&self, key: CacheKey, summary: &JsonValue, jsonl: &[u8]) -> io::Result<()> {
        let JsonValue::Obj(fields) = summary else {
            panic!("cache summary must be a JSON object");
        };
        let mut fields = fields.clone();
        fields.push((META_KEY.into(), JsonValue::Str(key.hex())));
        fields.push((META_JSONL_HASH.into(), JsonValue::Str(jsonl_hash(jsonl))));
        fields.push((META_FORMAT.into(), JsonValue::Num(FORMAT_VERSION)));
        let doc = JsonValue::Obj(fields).to_json();
        self.write_atomic(&self.jsonl_path(key), jsonl)?;
        self.write_atomic(&self.summary_path(key), doc.as_bytes())?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.stores.inc();
        }
        Ok(())
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Unique temp name per thread; rename is atomic on one filesystem.
        let tmp = path.with_extension(format!(
            "tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path)
    }

    /// Counters accumulated over this handle's lifetime.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt_repairs: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// The build revision folded into every cache key, so a code change
/// invalidates all prior results: `LEASEOS_CACHE_REV` when set (tests and
/// CI pin it), else the git commit hash when a repository is reachable,
/// else the crate version alone.
pub fn build_rev() -> String {
    if let Ok(rev) = std::env::var("LEASEOS_CACHE_REV") {
        return rev;
    }
    let version = env!("CARGO_PKG_VERSION");
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
    {
        if out.status.success() {
            if let Ok(rev) = String::from_utf8(out.stdout) {
                return format!("{}+{version}", rev.trim());
            }
        }
    }
    version.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "leaseos-cache-test-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn summary(power: f64) -> JsonValue {
        JsonValue::Obj(vec![
            ("label".into(), JsonValue::Str("Torch/leaseos".into())),
            ("app_power_mw".into(), JsonValue::Num(power)),
        ])
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a128(b""), FNV_OFFSET);
        assert_ne!(fnv1a128(b"a"), fnv1a128(b"b"));
        assert_ne!(fnv1a128(b"ab"), fnv1a128(b"ba"));
        assert_eq!(fnv1a128(b"chaos"), fnv1a128(b"chaos"));
    }

    #[test]
    fn key_builder_separates_fields_and_orders_matter() {
        let a = KeyBuilder::new("t/v1").field("x", 1).field("y", 2).finish();
        let b = KeyBuilder::new("t/v1").field("x", 1).field("y", 2).finish();
        assert_eq!(a, b);
        let swapped = KeyBuilder::new("t/v1").field("y", 2).field("x", 1).finish();
        assert_ne!(a, swapped, "field order is part of the identity");
        let renamed = KeyBuilder::new("t/v1").field("x", 12).finish();
        let shifted = KeyBuilder::new("t/v1").field("x1", 2).finish();
        assert_ne!(renamed, shifted, "name/value boundary cannot alias");
        let domain = KeyBuilder::new("t/v2").field("x", 1).field("y", 2).finish();
        assert_ne!(a, domain, "domain version is part of the identity");
        assert_eq!(a.hex().len(), 32);
        assert_eq!(a.to_string(), a.hex());
    }

    #[test]
    fn store_then_load_round_trips_bytes() {
        let cache = ResultCache::open(scratch_dir("roundtrip")).unwrap();
        let key = KeyBuilder::new("t/v1").field("cell", "a").finish();
        let jsonl = b"{\"event\":\"device_state\",\"t_ms\":0,\"state\":\"wake\"}\n";
        cache.store(key, &summary(12.5), jsonl).unwrap();
        let entry = cache.load(key).expect("stored entry loads");
        assert_eq!(entry.jsonl, jsonl);
        assert_eq!(entry.summary, summary(12.5), "metadata is stripped back");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                stores: 1,
                corrupt_repairs: 0
            }
        );
        let other = KeyBuilder::new("t/v1").field("cell", "b").finish();
        assert!(cache.load(other).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(
            cache.stats().corrupt_repairs,
            0,
            "an absent entry is a plain miss, not a corrupt one"
        );
    }

    #[test]
    fn metrics_counters_agree_with_legacy_stats() {
        let registry = MetricsRegistry::new();
        registry.enable();
        let mut cache = ResultCache::open(scratch_dir("metrics")).unwrap();
        cache.attach_metrics(&registry);
        let key = KeyBuilder::new("t/v1").field("cell", "a").finish();
        assert!(cache.load(key).is_none()); // cold miss
        cache.store(key, &summary(1.0), b"payload\n").unwrap();
        assert!(cache.load(key).is_some()); // warm hit
        fs::write(cache.summary_path(key), b"{\"label\":").unwrap();
        assert!(cache.load(key).is_none()); // corrupt miss
        let stats = cache.stats();
        assert_eq!(stats.corrupt_repairs, 1);
        let count = |name: &str| registry.counter(name).value();
        assert_eq!(count("cache_hits_total"), stats.hits);
        assert_eq!(count("cache_misses_total"), stats.misses);
        assert_eq!(count("cache_stores_total"), stats.stores);
        assert_eq!(count("cache_corrupt_repairs_total"), stats.corrupt_repairs);
    }

    #[test]
    fn truncated_jsonl_is_detected_and_treated_as_miss() {
        let cache = ResultCache::open(scratch_dir("truncated")).unwrap();
        let key = KeyBuilder::new("t/v1").field("cell", "a").finish();
        cache
            .store(key, &summary(1.0), b"line one\nline two\n")
            .unwrap();
        fs::write(cache.jsonl_path(key), b"line one\n").unwrap();
        assert!(
            cache.load(key).is_none(),
            "hash mismatch must not be trusted"
        );
    }

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        let vectors: [(&[u8], u64); 4] = [
            (b"", 0xef46db3751d8e999),
            (b"a", 0xd24ec4f1a98c6e5b),
            (b"abc", 0x44bc2cf5ad770999),
            // 39 bytes: one full stripe, then the 4- and 1-byte tails.
            (
                b"Nobody inspects the spammish repetition",
                0xfbcea83c8a378bf1,
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(xxh64(input), want, "{:?}", String::from_utf8_lossy(input));
        }
        assert_eq!(jsonl_hash(b"abc"), "44bc2cf5ad770999");
    }

    #[test]
    fn xxh64_separates_every_prefix_length() {
        let buf: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let mut seen: Vec<u64> = (0..=buf.len()).map(|n| xxh64(&buf[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), buf.len() + 1, "prefixes 0..=64 hash apart");
    }

    #[test]
    fn same_length_jsonl_corruption_is_a_counted_miss() {
        let cache = ResultCache::open(scratch_dir("flip")).unwrap();
        let key = KeyBuilder::new("t/v1").field("cell", "a").finish();
        let jsonl = b"{\"event\":\"device_state\",\"t_ms\":0,\"state\":\"wake\"}\n";
        cache.store(key, &summary(1.0), jsonl).unwrap();
        let mut flipped = jsonl.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] = if flipped[mid] == b'X' { b'Y' } else { b'X' };
        fs::write(cache.jsonl_path(key), &flipped).unwrap();
        assert!(cache.load(key).is_none(), "a flipped byte is not trusted");
        assert_eq!(cache.stats().corrupt_repairs, 1);
        cache.store(key, &summary(1.0), jsonl).unwrap();
        assert_eq!(cache.load(key).map(|e| e.jsonl), Some(jsonl.to_vec()));
    }

    #[test]
    fn format_1_entries_with_an_fnv_hash_are_misses() {
        let cache = ResultCache::open(scratch_dir("format1")).unwrap();
        let key = KeyBuilder::new("t/v1").field("cell", "a").finish();
        let jsonl = b"payload\n";
        let JsonValue::Obj(mut fields) = summary(1.0) else {
            unreachable!()
        };
        fields.push((META_KEY.into(), JsonValue::Str(key.hex())));
        fields.push((
            "jsonl_fnv128".into(),
            JsonValue::Str(format!("{:032x}", fnv1a128(jsonl))),
        ));
        fields.push((META_FORMAT.into(), JsonValue::Num(1.0)));
        fs::write(cache.jsonl_path(key), jsonl).unwrap();
        fs::write(cache.summary_path(key), JsonValue::Obj(fields).to_json()).unwrap();
        assert!(cache.load(key).is_none(), "format 1 is never trusted");
        assert_eq!(cache.stats().corrupt_repairs, 1);
    }

    #[test]
    fn corrupt_summary_is_detected_and_treated_as_miss() {
        let cache = ResultCache::open(scratch_dir("corrupt")).unwrap();
        let key = KeyBuilder::new("t/v1").field("cell", "a").finish();
        cache.store(key, &summary(1.0), b"payload\n").unwrap();
        // Unparseable JSON.
        fs::write(cache.summary_path(key), b"{\"label\":").unwrap();
        assert!(cache.load(key).is_none());
        // Parseable, but claiming a different key (e.g. a renamed file).
        cache.store(key, &summary(1.0), b"payload\n").unwrap();
        let text = fs::read_to_string(cache.summary_path(key)).unwrap();
        fs::write(
            cache.summary_path(key),
            text.replace(&key.hex(), &"0".repeat(32)),
        )
        .unwrap();
        assert!(cache.load(key).is_none());
    }

    #[test]
    fn rev_is_pinned_by_env_override() {
        // Avoid mutating the process env (other tests run in parallel):
        // exercise only the non-env fallback shape here.
        let rev = build_rev();
        assert!(!rev.is_empty());
        assert!(rev.contains(env!("CARGO_PKG_VERSION")) || !rev.contains(' '));
    }
}
