//! Content-addressed registry of user-uploaded structural-Verilog
//! netlists.
//!
//! Uploads are validated under explicit resource limits *before* they are
//! admitted: source size, instance/net counts (via
//! [`scpg_netlist::ParseLimits`]), library membership
//! ([`Netlist::validate`]), presence of the named clock net, and a full
//! [`scpg_sta::analyze_limited`] pass so combinational loops and other
//! analysis-time failures are rejected at upload rather than surfacing
//! later inside a job.
//!
//! The id is the SHA-256 (truncated to 40 hex chars) of the clock name
//! plus the raw source, so re-uploading identical content is idempotent
//! and two sources differing only in their clock pin are distinct designs.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use scpg_json::Json;
use scpg_liberty::{Library, PvtCorner};
use scpg_netlist::{parse_verilog_limited, Netlist, NetlistError, ParseLimits};
use scpg_sta::{analyze_limited, StaLimits};

use crate::hash::sha256_hex;
use crate::store::{Store, StoreError};

/// Namespace the registry persists under.
pub const NS_NETLISTS: &str = "netlists";

/// Admission limits applied to every upload.
#[derive(Debug, Clone, Copy)]
pub struct NetlistLimits {
    /// Maximum raw source size in bytes.
    pub max_source_bytes: usize,
    /// Maximum gate (instance) count.
    pub max_gates: usize,
    /// Maximum number of registered netlists held at once.
    pub max_netlists: usize,
}

impl Default for NetlistLimits {
    fn default() -> Self {
        NetlistLimits {
            max_source_bytes: 512 * 1024,
            max_gates: 20_000,
            max_netlists: 64,
        }
    }
}

/// A validated, registered netlist.
#[derive(Debug)]
pub struct UploadedNetlist {
    /// Content-derived id (40 hex chars).
    pub id: String,
    /// Module name from the source.
    pub name: String,
    /// Clock net driving the design's flops.
    pub clock: String,
    /// Instance count at upload time.
    pub gates: usize,
    /// Raw Verilog source as uploaded.
    pub source: String,
    /// The parsed baseline netlist.
    pub netlist: Netlist,
}

impl UploadedNetlist {
    /// Summary object served by `GET /v1/designs` and upload responses.
    pub fn summary(&self) -> Json {
        Json::object([
            ("id", Json::from(self.id.as_str())),
            ("name", Json::from(self.name.as_str())),
            ("clock", Json::from(self.clock.as_str())),
            ("gates", Json::from(self.gates)),
        ])
    }
}

/// Why an upload was refused.
#[derive(Debug)]
pub enum UploadError {
    /// Source or design exceeds an admission limit.
    TooLarge {
        /// What was oversized.
        what: &'static str,
        /// Requested amount.
        requested: usize,
        /// Admission ceiling.
        limit: usize,
    },
    /// Verilog did not parse; carries the source position.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column (0 = whole line).
        column: usize,
        /// Offending token (may be empty).
        token: String,
        /// Parser message.
        message: String,
    },
    /// Parsed but failed semantic validation or timing analysis.
    Invalid(String),
    /// Registry is at capacity.
    Full {
        /// Current registered count.
        count: usize,
        /// Configured ceiling.
        limit: usize,
    },
    /// Persistence failed.
    Store(StoreError),
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::TooLarge {
                what,
                requested,
                limit,
            } => write!(
                f,
                "netlist too large: {requested} {what} exceeds limit {limit}"
            ),
            UploadError::Parse {
                line,
                column,
                token,
                message,
            } => {
                write!(f, "verilog parse error at line {line}")?;
                if *column > 0 {
                    write!(f, ", column {column}")?;
                }
                write!(f, ": {message}")?;
                if !token.is_empty() {
                    write!(f, " (near `{token}`)")?;
                }
                Ok(())
            }
            UploadError::Invalid(msg) => write!(f, "netlist rejected: {msg}"),
            UploadError::Full { count, limit } => {
                write!(f, "netlist registry full ({count}/{limit})")
            }
            UploadError::Store(e) => write!(f, "netlist store failure: {e}"),
        }
    }
}

impl std::error::Error for UploadError {}

impl From<NetlistError> for UploadError {
    fn from(e: NetlistError) -> Self {
        match e {
            NetlistError::Parse {
                line,
                column,
                token,
                message,
            } => UploadError::Parse {
                line,
                column,
                token,
                message,
            },
            NetlistError::TooLarge {
                what,
                requested,
                limit,
            } => UploadError::TooLarge {
                what,
                requested,
                limit,
            },
            other => UploadError::Invalid(other.to_string()),
        }
    }
}

/// Registry of uploaded netlists, persisted through a [`Store`].
pub struct NetlistRegistry {
    store: Arc<Store>,
    lib: Library,
    limits: NetlistLimits,
    map: Mutex<HashMap<String, Arc<UploadedNetlist>>>,
    /// Held by an upload from its capacity check to its insert, so the
    /// check still holds when the entry is inserted and a refused upload
    /// writes nothing. Lookups never take it.
    upload: Mutex<()>,
}

impl NetlistRegistry {
    /// Opens the registry, reloading every previously persisted netlist.
    /// Records that fail to re-validate (e.g. corrupt source) are skipped
    /// with a warning on stderr rather than poisoning startup.
    pub fn open(store: Arc<Store>, lib: Library, limits: NetlistLimits) -> Self {
        let mut map = HashMap::new();
        let keys = store.list(NS_NETLISTS).unwrap_or_default();
        for id in keys {
            match Self::load_one(&store, &lib, &limits, &id) {
                Ok(entry) => {
                    map.insert(id, Arc::new(entry));
                }
                Err(e) => {
                    eprintln!("scpg-jobs: skipping persisted netlist {id}: {e}");
                }
            }
        }
        NetlistRegistry {
            store,
            lib,
            limits,
            map: Mutex::new(map),
            upload: Mutex::new(()),
        }
    }

    fn load_one(
        store: &Store,
        lib: &Library,
        limits: &NetlistLimits,
        id: &str,
    ) -> Result<UploadedNetlist, String> {
        let meta = store
            .get_record(NS_NETLISTS, id)
            .map_err(|e| e.to_string())?
            .ok_or("missing metadata record")?;
        let clock = meta
            .get("clock")
            .and_then(Json::as_str)
            .ok_or("metadata missing clock")?
            .to_string();
        let source = store
            .get_blob(NS_NETLISTS, id, "v")
            .map_err(|e| e.to_string())?
            .ok_or("missing source blob")?;
        let source = String::from_utf8(source).map_err(|e| e.to_string())?;
        Self::admit(lib, limits, &source, &clock, Some(id)).map_err(|e| e.to_string())
    }

    /// Parses and fully validates `source`; does not touch the map/store.
    fn admit(
        lib: &Library,
        limits: &NetlistLimits,
        source: &str,
        clock: &str,
        expect_id: Option<&str>,
    ) -> Result<UploadedNetlist, UploadError> {
        let id = netlist_id(source, clock);
        if let Some(expected) = expect_id {
            if id != expected {
                return Err(UploadError::Invalid(format!(
                    "content hash mismatch: stored as {expected}, hashes to {id}"
                )));
            }
        }
        let parse_limits = ParseLimits {
            max_source_bytes: limits.max_source_bytes,
            max_instances: limits.max_gates,
            max_nets: limits.max_gates.saturating_mul(2),
        };
        let netlist = parse_verilog_limited(source, lib, &parse_limits)?;
        netlist.validate(lib).map_err(UploadError::from)?;
        if netlist.net_by_name(clock).is_none() {
            return Err(UploadError::Invalid(format!(
                "clock net `{clock}` not found in module `{}`",
                netlist.name()
            )));
        }
        // A full timing pass rejects designs the analysis engine cannot
        // handle (combinational loops, zero flops, ...) at upload time.
        let sta_limits = StaLimits {
            max_instances: limits.max_gates,
        };
        analyze_limited(&netlist, lib, PvtCorner::default().voltage, &sta_limits)
            .map_err(|e| UploadError::Invalid(format!("timing analysis failed: {e}")))?;
        Ok(UploadedNetlist {
            id,
            name: netlist.name().to_string(),
            clock: clock.to_string(),
            gates: netlist.instances().len(),
            source: source.to_string(),
            netlist,
        })
    }

    /// Validates and registers `source`. Returns the entry plus `true`
    /// when it was newly created (`false` = idempotent re-upload). An
    /// upload refused as `Full` writes nothing.
    pub fn upload(
        &self,
        source: &str,
        clock: &str,
    ) -> Result<(Arc<UploadedNetlist>, bool), UploadError> {
        if source.len() > self.limits.max_source_bytes {
            return Err(UploadError::TooLarge {
                what: "source bytes",
                requested: source.len(),
                limit: self.limits.max_source_bytes,
            });
        }
        let id = netlist_id(source, clock);
        // The mutex guards no data, so a panicked upload leaves nothing
        // to repair.
        let _upload = self.upload.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let map = self.map.lock().unwrap();
            if let Some(existing) = map.get(&id) {
                return Ok((Arc::clone(existing), false));
            }
            if map.len() >= self.limits.max_netlists {
                return Err(UploadError::Full {
                    count: map.len(),
                    limit: self.limits.max_netlists,
                });
            }
        }
        // Validation and the write run outside the map lock: they are
        // CPU-heavy and must not block concurrent lookups from the
        // request path.
        let entry = Arc::new(Self::admit(&self.lib, &self.limits, source, clock, None)?);
        self.store
            .put_blob(NS_NETLISTS, &entry.id, "v", source.as_bytes())
            .map_err(UploadError::Store)?;
        self.store
            .put_record(NS_NETLISTS, &entry.id, &entry.summary())
            .map_err(UploadError::Store)?;
        self.map.lock().unwrap().insert(id, Arc::clone(&entry));
        Ok((entry, true))
    }

    /// Looks up a registered netlist by id.
    pub fn get(&self, id: &str) -> Option<Arc<UploadedNetlist>> {
        self.map.lock().unwrap().get(id).cloned()
    }

    /// Sorted summaries of every registered netlist.
    pub fn summaries(&self) -> Vec<Json> {
        let map = self.map.lock().unwrap();
        let mut entries: Vec<_> = map.values().cloned().collect();
        drop(map);
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries.iter().map(|e| e.summary()).collect()
    }

    /// Number of registered netlists.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when no netlists are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission limits this registry enforces.
    pub fn limits(&self) -> NetlistLimits {
        self.limits
    }
}

/// Content id: SHA-256 of `"<clock>\n<source>"`, truncated to 40 hex chars.
pub fn netlist_id(source: &str, clock: &str) -> String {
    let mut input = Vec::with_capacity(clock.len() + 1 + source.len());
    input.extend_from_slice(clock.as_bytes());
    input.push(b'\n');
    input.extend_from_slice(source.as_bytes());
    let mut hex = sha256_hex(&input);
    hex.truncate(40);
    hex
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
module toy (clk, a, y);
  input clk;
  input a;
  output y;
  wire q;
  DFF_X1 r0 (.D(a), .CK(clk), .Q(q));
  INV_X1 g0 (.A(q), .Y(y));
endmodule
";

    fn registry() -> NetlistRegistry {
        NetlistRegistry::open(
            Arc::new(Store::memory()),
            Library::ninety_nm(),
            NetlistLimits::default(),
        )
    }

    #[test]
    fn upload_is_idempotent_and_content_addressed() {
        let reg = registry();
        let (first, created) = reg.upload(GOOD, "clk").unwrap();
        assert!(created);
        assert_eq!(first.gates, 2);
        assert_eq!(first.name, "toy");
        let (second, created) = reg.upload(GOOD, "clk").unwrap();
        assert!(!created);
        assert_eq!(first.id, second.id);
        assert_eq!(reg.len(), 1);
        assert!(reg.get(&first.id).is_some());
        // Same source, different clock name → different design id.
        assert_ne!(netlist_id(GOOD, "clk"), netlist_id(GOOD, "clk2"));
    }

    #[test]
    fn bad_uploads_are_refused_with_positions() {
        let reg = registry();
        let broken = GOOD.replace(".Y(y)", ".QQ(y)");
        match reg.upload(&broken, "clk") {
            Err(UploadError::Parse { line, token, .. }) => {
                assert_eq!(line, 7);
                assert_eq!(token, "QQ");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        match reg.upload(GOOD, "nope") {
            Err(UploadError::Invalid(msg)) => assert!(msg.contains("clock net `nope`")),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let reg = NetlistRegistry::open(
            Arc::new(Store::memory()),
            Library::ninety_nm(),
            NetlistLimits {
                max_source_bytes: 16,
                ..NetlistLimits::default()
            },
        );
        assert!(matches!(
            reg.upload(GOOD, "clk"),
            Err(UploadError::TooLarge { .. })
        ));
    }

    #[test]
    fn registry_capacity_is_enforced() {
        let reg = NetlistRegistry::open(
            Arc::new(Store::memory()),
            Library::ninety_nm(),
            NetlistLimits {
                max_netlists: 1,
                ..NetlistLimits::default()
            },
        );
        reg.upload(GOOD, "clk").unwrap();
        let other = GOOD.replace("module toy", "module toy2");
        assert!(matches!(
            reg.upload(&other, "clk"),
            Err(UploadError::Full { count: 1, limit: 1 })
        ));
    }

    #[test]
    fn concurrent_refused_uploads_are_never_persisted() {
        let dir = std::env::temp_dir().join(format!("scpg-nlfull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let limits = NetlistLimits {
            max_netlists: 1,
            ..NetlistLimits::default()
        };
        let open = || {
            NetlistRegistry::open(
                Arc::new(Store::open(&dir).unwrap()),
                Library::ninety_nm(),
                limits,
            )
        };
        let reg = open();
        let start = std::sync::Barrier::new(8);
        let accepted = std::thread::scope(|s| {
            let uploads: Vec<_> = (0..8)
                .map(|i| {
                    let source = GOOD.replace("module toy", &format!("module toy{i}"));
                    let (reg, start) = (&reg, &start);
                    s.spawn(move || {
                        start.wait();
                        reg.upload(&source, "clk").is_ok()
                    })
                })
                .collect();
            uploads
                .into_iter()
                .map(|u| u.join().unwrap())
                .filter(|&ok| ok)
                .count()
        });
        assert_eq!(accepted, 1);
        drop(reg);
        assert_eq!(open().len(), 1, "refused uploads reached the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn netlists_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("scpg-nlreg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let reg = NetlistRegistry::open(
            Arc::clone(&store),
            Library::ninety_nm(),
            NetlistLimits::default(),
        );
        let (entry, _) = reg.upload(GOOD, "clk").unwrap();
        drop(reg);
        let store = Arc::new(Store::open(&dir).unwrap());
        let reg = NetlistRegistry::open(store, Library::ninety_nm(), NetlistLimits::default());
        let back = reg.get(&entry.id).expect("reloaded after reopen");
        assert_eq!(back.source, GOOD);
        assert_eq!(back.gates, 2);
        assert_eq!(back.clock, "clk");
    }
}
