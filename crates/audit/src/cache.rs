//! Incremental-scan cache (`target/audit-cache.json`).
//!
//! Per-file results are pure functions of `(file content, policy,
//! engine)` — the cache keys each entry on an FNV-1a 64 hash of the
//! file's bytes, and the whole cache on a fingerprint of the policy
//! text plus [`ENGINE_VERSION`]. A policy edit or an engine upgrade
//! invalidates everything; editing one source file re-scans only that
//! file.
//!
//! Only *per-file* facts are cached: findings, lock edges, suppression
//! markers (and which were used), and whether the file consumed its
//! `relaxed-ok` entry. The cross-file analyses — the lock-order graph
//! and stale-suppression accounting — are cheap and recomputed globally
//! on every run from the union of cached and fresh per-file facts.

use crate::lockgraph::LockEdge;
use crate::rules::{canonical_rule_id, violation_at, FileAudit, Severity};
use gve_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Bump on any change to rule logic or cached shape; stale caches are
/// discarded wholesale rather than migrated.
pub const ENGINE_VERSION: u64 = 2;

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One cached file: content hash plus the per-file audit facts.
struct Entry {
    hash: u64,
    audit: FileAudit,
}

/// The on-disk cache, already validated against the current policy
/// fingerprint and engine version at load time.
pub struct AuditCache {
    policy_fp: u64,
    files: BTreeMap<String, Entry>,
}

impl AuditCache {
    /// An empty cache for the given policy fingerprint.
    pub fn empty(policy_fp: u64) -> Self {
        Self {
            policy_fp,
            files: BTreeMap::new(),
        }
    }

    /// Loads the cache file, returning an empty cache when the file is
    /// missing, unparsable, or was written by a different engine or
    /// policy.
    pub fn load(path: &Path, policy_fp: u64) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Self::empty(policy_fp);
        };
        let Ok(doc) = json::parse(&text) else {
            return Self::empty(policy_fp);
        };
        if doc.get("engine").and_then(Json::as_u64) != Some(ENGINE_VERSION)
            || doc.get("policy").and_then(Json::as_str)
                != Some(format!("{policy_fp:016x}").as_str())
        {
            return Self::empty(policy_fp);
        }
        let mut files = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("files") {
            for (fpath, entry) in members {
                if let Some(e) = parse_entry(fpath, entry) {
                    files.insert(fpath.clone(), e);
                }
            }
        }
        Self { policy_fp, files }
    }

    /// The cached audit for `path`, if its content hash still matches.
    pub fn lookup(&self, path: &str, hash: u64) -> Option<&FileAudit> {
        self.files
            .get(path)
            .filter(|e| e.hash == hash)
            .map(|e| &e.audit)
    }

    /// Records a freshly computed audit.
    pub fn store(&mut self, path: &str, hash: u64, audit: FileAudit) {
        self.files.insert(path.to_string(), Entry { hash, audit });
    }

    /// Drops entries for files that no longer exist in the walk.
    pub fn retain_paths(&mut self, live: &[String]) {
        self.files.retain(|p, _| live.iter().any(|l| l == p));
    }

    /// Serializes and writes the cache, creating parent directories.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let files: Vec<(String, Json)> = self
            .files
            .iter()
            .map(|(p, e)| (p.clone(), entry_json(e)))
            .collect();
        let doc = Json::Obj(vec![
            ("engine".to_string(), Json::from(ENGINE_VERSION)),
            (
                "policy".to_string(),
                Json::Str(format!("{:016x}", self.policy_fp)),
            ),
            ("files".to_string(), Json::Obj(files)),
        ]);
        std::fs::write(path, doc.render())
    }
}

fn sev_str(sev: Severity) -> &'static str {
    match sev {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn entry_json(e: &Entry) -> Json {
    let findings: Vec<Json> = e
        .audit
        .findings
        .iter()
        .map(|v| {
            Json::obj([
                ("rule", Json::from(v.rule)),
                ("line", Json::from(v.line)),
                ("sev", Json::from(sev_str(v.severity))),
                ("msg", Json::from(v.message.as_str())),
            ])
        })
        .collect();
    let edges: Vec<Json> = e
        .audit
        .edges
        .iter()
        .map(|ed| {
            Json::obj([
                ("from", Json::from(ed.from.as_str())),
                ("to", Json::from(ed.to.as_str())),
                ("line", Json::from(ed.line)),
            ])
        })
        .collect();
    let marker_arr = |ms: &[(u32, String)]| {
        Json::Arr(
            ms.iter()
                .map(|(line, rule)| Json::Arr(vec![Json::from(*line), Json::from(rule.as_str())]))
                .collect(),
        )
    };
    Json::obj([
        ("hash", Json::Str(format!("{:016x}", e.hash))),
        ("findings", Json::Arr(findings)),
        ("edges", Json::Arr(edges)),
        ("markers", marker_arr(&e.audit.markers)),
        ("used", marker_arr(&e.audit.used_markers)),
        (
            "relaxed",
            match &e.audit.relaxed_entry_used {
                Some(p) => Json::from(p.as_str()),
                None => Json::Null,
            },
        ),
    ])
}

fn parse_entry(path: &str, entry: &Json) -> Option<Entry> {
    let hash = u64::from_str_radix(entry.get("hash")?.as_str()?, 16).ok()?;
    let mut findings = Vec::new();
    for f in entry.get("findings")?.as_array()? {
        // Unknown rule ids mean the entry predates a rule rename —
        // treat the whole file entry as invalid.
        let rule = canonical_rule_id(f.get("rule")?.as_str()?)?;
        let sev = match f.get("sev")?.as_str()? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            _ => return None,
        };
        findings.push(violation_at(
            path,
            rule,
            f.get("line")?.as_u64()? as u32,
            sev,
            f.get("msg")?.as_str()?.to_string(),
        ));
    }
    let mut edges = Vec::new();
    for ed in entry.get("edges")?.as_array()? {
        edges.push(LockEdge {
            from: ed.get("from")?.as_str()?.to_string(),
            to: ed.get("to")?.as_str()?.to_string(),
            path: path.to_string(),
            line: ed.get("line")?.as_u64()? as u32,
        });
    }
    let markers = parse_markers(entry.get("markers")?)?;
    let used_markers = parse_markers(entry.get("used")?)?;
    let relaxed_entry_used = match entry.get("relaxed")? {
        Json::Null => None,
        other => Some(other.as_str()?.to_string()),
    };
    Some(Entry {
        hash,
        audit: FileAudit {
            findings,
            edges,
            markers,
            used_markers,
            relaxed_entry_used,
        },
    })
}

fn parse_markers(v: &Json) -> Option<Vec<(u32, String)>> {
    let mut out = Vec::new();
    for m in v.as_array()? {
        let pair = m.as_array()?;
        out.push((
            pair.first()?.as_u64()? as u32,
            pair.get(1)?.as_str()?.to_string(),
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_audit() -> FileAudit {
        FileAudit {
            findings: vec![violation_at(
                "crates/x/src/lib.rs",
                "lock-order",
                9,
                Severity::Error,
                "undeclared nesting".to_string(),
            )],
            edges: vec![LockEdge {
                from: "a".to_string(),
                to: "b".to_string(),
                path: "crates/x/src/lib.rs".to_string(),
                line: 9,
            }],
            markers: vec![(3, "hotpath-panic".to_string())],
            used_markers: vec![],
            relaxed_entry_used: Some("crates/x/src/lib.rs".to_string()),
        }
    }

    #[test]
    fn round_trips_entries_through_disk() {
        let dir = std::env::temp_dir().join("gve-audit-cache-test-rt");
        let file = dir.join("audit-cache.json");
        let _ = std::fs::remove_file(&file);
        let mut cache = AuditCache::empty(0xfeed);
        cache.store("crates/x/src/lib.rs", 42, sample_audit());
        cache.save(&file).expect("writes");
        let loaded = AuditCache::load(&file, 0xfeed);
        let audit = loaded.lookup("crates/x/src/lib.rs", 42).expect("cache hit");
        assert_eq!(audit.findings.len(), 1);
        assert_eq!(audit.findings[0].rule, "lock-order");
        assert_eq!(audit.findings[0].severity, Severity::Error);
        assert_eq!(audit.edges[0].from, "a");
        assert_eq!(audit.markers, vec![(3, "hotpath-panic".to_string())]);
        assert_eq!(
            audit.relaxed_entry_used.as_deref(),
            Some("crates/x/src/lib.rs")
        );
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn content_policy_and_engine_changes_all_miss() {
        let dir = std::env::temp_dir().join("gve-audit-cache-test-miss");
        let file = dir.join("audit-cache.json");
        let _ = std::fs::remove_file(&file);
        let mut cache = AuditCache::empty(1);
        cache.store("crates/x/src/lib.rs", 42, sample_audit());
        cache.save(&file).expect("writes");
        // Changed content hash misses.
        assert!(AuditCache::load(&file, 1)
            .lookup("crates/x/src/lib.rs", 43)
            .is_none());
        // Changed policy fingerprint drops the whole cache.
        assert!(AuditCache::load(&file, 2)
            .lookup("crates/x/src/lib.rs", 42)
            .is_none());
        // A different engine version drops the whole cache.
        let text = std::fs::read_to_string(&file).expect("reads");
        std::fs::write(&file, text.replace("\"engine\":2", "\"engine\":1")).expect("rewrites");
        assert!(AuditCache::load(&file, 1)
            .lookup("crates/x/src/lib.rs", 42)
            .is_none());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn missing_or_garbage_cache_loads_empty() {
        let bogus = std::env::temp_dir().join("gve-audit-no-such-cache.json");
        let _ = std::fs::remove_file(&bogus);
        assert!(AuditCache::load(&bogus, 7).files.is_empty());
        std::fs::write(&bogus, "not json").expect("writes");
        assert!(AuditCache::load(&bogus, 7).files.is_empty());
        let _ = std::fs::remove_file(&bogus);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"audit"), fnv1a(b"audit"));
    }
}
