//! Content-addressed registry of user-uploaded Liberty cell libraries.
//!
//! Uploads are parsed with the real-Liberty subset parser
//! ([`scpg_liberty::parse_liberty`]) and validated under explicit
//! resource limits *before* admission: source size, cell count and total
//! NLDM grid points. The id is the SHA-256 (truncated to 40 hex chars)
//! of the raw source, so re-uploading identical text is idempotent.
//!
//! Persistence mirrors the netlist registry: the raw source goes into a
//! CRC-checked blob, a small metadata record beside it, both written with
//! the temp-file + atomic-rename idiom — an uploaded library survives a
//! kill/restart intact.
//!
//! Unlike netlists, parsed libraries are **not** all held in memory: the
//! registry keeps every id registered but bounds the number of *loaded*
//! (parsed) libraries with a [`Bounded`] LRU. Evicted entries reload
//! lazily from the store on their next use, so `max_libraries` governs
//! disk and `max_loaded` governs RAM.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use scpg_json::Json;
use scpg_liberty::{parse_liberty, LibertyError, Library};
use scpg_trace::{Bounded, Introspect, StoreStats};

use crate::hash::sha256_hex;
use crate::store::{Store, StoreError};

/// Namespace the registry persists under.
pub const NS_LIBRARIES: &str = "libraries";

/// Admission and residency limits applied to every library.
#[derive(Debug, Clone, Copy)]
pub struct LibraryLimits {
    /// Maximum raw Liberty source size in bytes.
    pub max_source_bytes: usize,
    /// Maximum cell count per library.
    pub max_cells: usize,
    /// Maximum total NLDM grid points per library.
    pub max_table_points: usize,
    /// Maximum number of registered libraries (disk bound).
    pub max_libraries: usize,
    /// Maximum number of parsed libraries held in memory (LRU bound;
    /// evicted entries reload lazily from the store).
    pub max_loaded: usize,
}

impl Default for LibraryLimits {
    fn default() -> Self {
        LibraryLimits {
            max_source_bytes: 1024 * 1024,
            max_cells: 512,
            max_table_points: 200_000,
            max_libraries: 32,
            max_loaded: 8,
        }
    }
}

/// A validated, registered Liberty library.
#[derive(Debug)]
pub struct UploadedLibrary {
    /// Content-derived id (40 hex chars).
    pub id: String,
    /// The `library (name)` argument from the source.
    pub name: String,
    /// Number of cells.
    pub cells: usize,
    /// Cells carrying at least one NLDM table.
    pub tabulated_cells: usize,
    /// Total NLDM grid points.
    pub table_points: usize,
    /// Nominal (characterisation) voltage in volts.
    pub nom_voltage_v: f64,
    /// Nominal temperature in °C.
    pub nom_temperature_c: f64,
    /// Operating-conditions set in effect, when named.
    pub operating_conditions: Option<String>,
    /// Raw Liberty source as uploaded.
    pub source: String,
    /// The parsed library (analytical backend selected; callers flip to
    /// the table backend per design via [`Library::with_backend`]).
    pub library: Library,
}

impl UploadedLibrary {
    /// Summary object served by `GET /v1/designs` and upload responses.
    pub fn summary(&self) -> Json {
        summary_json(
            &self.id,
            &self.name,
            self.cells,
            self.tabulated_cells,
            self.table_points,
            self.nom_voltage_v,
            self.nom_temperature_c,
            self.operating_conditions.as_deref(),
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn summary_json(
    id: &str,
    name: &str,
    cells: usize,
    tabulated_cells: usize,
    table_points: usize,
    nom_voltage_v: f64,
    nom_temperature_c: f64,
    operating_conditions: Option<&str>,
) -> Json {
    Json::object([
        ("id", Json::from(id)),
        ("name", Json::from(name)),
        ("cells", Json::from(cells)),
        ("tabulated_cells", Json::from(tabulated_cells)),
        ("table_points", Json::from(table_points)),
        ("nom_voltage_v", Json::from(nom_voltage_v)),
        ("nom_temperature_c", Json::from(nom_temperature_c)),
        (
            "operating_conditions",
            match operating_conditions {
                Some(s) => Json::from(s),
                None => Json::Null,
            },
        ),
    ])
}

/// Why a library upload was refused.
#[derive(Debug)]
pub enum LibraryUploadError {
    /// Source or library exceeds an admission limit.
    TooLarge {
        /// What was oversized.
        what: &'static str,
        /// Requested amount.
        requested: usize,
        /// Admission ceiling.
        limit: usize,
    },
    /// Liberty text did not parse; carries the source position.
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
    /// Parsed but failed semantic validation.
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

impl fmt::Display for LibraryUploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryUploadError::TooLarge {
                what,
                requested,
                limit,
            } => write!(
                f,
                "library too large: {requested} {what} exceeds limit {limit}"
            ),
            LibraryUploadError::Parse {
                line,
                column,
                token,
                message,
            } => {
                write!(f, "liberty parse error at line {line}")?;
                if *column > 0 {
                    write!(f, ", column {column}")?;
                }
                write!(f, ": {message}")?;
                if !token.is_empty() {
                    write!(f, " (near `{token}`)")?;
                }
                Ok(())
            }
            LibraryUploadError::Invalid(msg) => write!(f, "library rejected: {msg}"),
            LibraryUploadError::Full { count, limit } => {
                write!(f, "library registry full ({count}/{limit})")
            }
            LibraryUploadError::Store(e) => write!(f, "library store failure: {e}"),
        }
    }
}

impl std::error::Error for LibraryUploadError {}

impl From<LibertyError> for LibraryUploadError {
    fn from(e: LibertyError) -> Self {
        LibraryUploadError::Parse {
            line: e.line,
            column: e.column,
            token: e.token,
            message: e.message,
        }
    }
}

/// Registry of uploaded Liberty libraries, persisted through a [`Store`].
pub struct LibraryRegistry {
    store: Arc<Store>,
    limits: LibraryLimits,
    /// Every registered id with its persisted summary metadata.
    registered: Mutex<BTreeMap<String, Json>>,
    /// Held by an upload from its capacity check to its registration, so
    /// the check still holds when the entry is inserted and a refused
    /// upload writes nothing. Lookups never take it.
    upload: Mutex<()>,
    /// Parsed libraries resident in memory: hits are in-memory lookups,
    /// misses are lazy reloads (or unknown ids), evictions are LRU
    /// displacements.
    loaded: Bounded<Arc<UploadedLibrary>>,
}

impl LibraryRegistry {
    /// Opens the registry, indexing every previously persisted library.
    /// Sources are *not* re-parsed at startup — they load lazily on first
    /// use. Records with unreadable metadata are skipped with a warning
    /// on stderr rather than poisoning startup.
    pub fn open(store: Arc<Store>, limits: LibraryLimits) -> Self {
        let mut registered = BTreeMap::new();
        let keys = store.list(NS_LIBRARIES).unwrap_or_default();
        for id in keys {
            match store.get_record(NS_LIBRARIES, &id) {
                Ok(Some(meta)) => {
                    registered.insert(id, meta);
                }
                Ok(None) => {
                    eprintln!("scpg-jobs: skipping persisted library {id}: missing metadata");
                }
                Err(e) => {
                    eprintln!("scpg-jobs: skipping persisted library {id}: {e}");
                }
            }
        }
        LibraryRegistry {
            store,
            limits,
            registered: Mutex::new(registered),
            upload: Mutex::new(()),
            // Raw Liberty source bytes of resident libraries — the parsed
            // form scales with it and the source is what the store
            // re-reads on a miss, so it is the honest reload-cost figure.
            loaded: Bounded::new(1, limits.max_loaded)
                .named("library_lru", |_, library| library.source.len()),
        }
    }

    /// Parses and fully validates `source`; does not touch state.
    fn admit(
        limits: &LibraryLimits,
        source: &str,
        expect_id: Option<&str>,
    ) -> Result<UploadedLibrary, LibraryUploadError> {
        let id = library_id(source);
        if let Some(expected) = expect_id {
            if id != expected {
                return Err(LibraryUploadError::Invalid(format!(
                    "content hash mismatch: stored as {expected}, hashes to {id}"
                )));
            }
        }
        let parsed = parse_liberty(source)?;
        let s = &parsed.summary;
        if s.cells > limits.max_cells {
            return Err(LibraryUploadError::TooLarge {
                what: "cells",
                requested: s.cells,
                limit: limits.max_cells,
            });
        }
        if s.table_points > limits.max_table_points {
            return Err(LibraryUploadError::TooLarge {
                what: "table points",
                requested: s.table_points,
                limit: limits.max_table_points,
            });
        }
        Ok(UploadedLibrary {
            id,
            name: s.name.clone(),
            cells: s.cells,
            tabulated_cells: s.tabulated_cells,
            table_points: s.table_points,
            nom_voltage_v: s.nom_voltage.as_v(),
            nom_temperature_c: s.nom_temperature.as_celsius(),
            operating_conditions: s.operating_conditions.clone(),
            source: source.to_string(),
            library: parsed.library,
        })
    }

    /// Validates and registers `source`. Returns the entry plus `true`
    /// when it was newly created (`false` = idempotent re-upload). An
    /// upload refused as `Full` writes nothing.
    pub fn upload(&self, source: &str) -> Result<(Arc<UploadedLibrary>, bool), LibraryUploadError> {
        if source.len() > self.limits.max_source_bytes {
            return Err(LibraryUploadError::TooLarge {
                what: "source bytes",
                requested: source.len(),
                limit: self.limits.max_source_bytes,
            });
        }
        let id = library_id(source);
        // The mutex guards no data, so a panicked upload leaves nothing
        // to repair.
        let _upload = self.upload.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = self.loaded.peek(&id) {
            return Ok((existing, false));
        }
        let (known, count) = {
            let registered = self.registered.lock().unwrap();
            (registered.contains_key(&id), registered.len())
        };
        if known {
            // Registered but evicted from memory: reload lazily rather
            // than re-admitting the body.
            return Ok((self.load(&id)?, false));
        }
        if count >= self.limits.max_libraries {
            return Err(LibraryUploadError::Full {
                count,
                limit: self.limits.max_libraries,
            });
        }
        // Validation and the write run outside the registry lock: parsing
        // is CPU-heavy and must not block concurrent lookups from the
        // request path.
        let entry = Arc::new(Self::admit(&self.limits, source, None)?);
        let meta = entry.summary();
        self.store
            .put_blob(NS_LIBRARIES, &id, "lib", source.as_bytes())
            .map_err(LibraryUploadError::Store)?;
        self.store
            .put_record(NS_LIBRARIES, &id, &meta)
            .map_err(LibraryUploadError::Store)?;
        self.registered.lock().unwrap().insert(id.clone(), meta);
        self.loaded.insert(id, Arc::clone(&entry));
        Ok((entry, true))
    }

    /// Reloads a registered-but-evicted library from the store.
    fn load(&self, id: &str) -> Result<Arc<UploadedLibrary>, LibraryUploadError> {
        let blob = self
            .store
            .get_blob(NS_LIBRARIES, id, "lib")
            .map_err(LibraryUploadError::Store)?
            .ok_or_else(|| {
                LibraryUploadError::Invalid(format!("library {id} has no persisted source"))
            })?;
        let source = String::from_utf8(blob)
            .map_err(|e| LibraryUploadError::Invalid(format!("library {id} source: {e}")))?;
        let entry = Arc::new(Self::admit(&self.limits, &source, Some(id))?);
        self.loaded.insert(id.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Looks up a registered library by id, lazily reloading it from the
    /// store when it was evicted from the in-memory LRU.
    pub fn get(&self, id: &str) -> Option<Arc<UploadedLibrary>> {
        if let Some(entry) = self.loaded.get(id) {
            return Some(entry);
        }
        if !self.registered.lock().unwrap().contains_key(id) {
            return None;
        }
        match self.load(id) {
            Ok(entry) => Some(entry),
            Err(e) => {
                eprintln!("scpg-jobs: reload of library {id} failed: {e}");
                None
            }
        }
    }

    /// Sorted summaries of every registered library (loaded or not).
    pub fn summaries(&self) -> Vec<Json> {
        self.registered.lock().unwrap().values().cloned().collect()
    }

    /// Number of registered libraries.
    pub fn len(&self) -> usize {
        self.registered.lock().unwrap().len()
    }

    /// True when no libraries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of parsed libraries currently resident in memory.
    pub fn loaded(&self) -> usize {
        self.loaded.len()
    }

    /// The admission limits this registry enforces.
    pub fn limits(&self) -> LibraryLimits {
        self.limits
    }
}

/// The loaded-LRU row: entries are parsed libraries resident in memory
/// (the RAM-bounded side; disk registration is bounded separately by
/// `max_libraries`).
impl Introspect for LibraryRegistry {
    fn stats(&self) -> StoreStats {
        self.loaded.stats()
    }
}

/// Content id: SHA-256 of the raw source, truncated to 40 hex chars.
pub fn library_id(source: &str) -> String {
    let mut hex = sha256_hex(source.as_bytes());
    hex.truncate(40);
    hex
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::write_liberty;

    fn kit_text() -> String {
        write_liberty(&Library::ninety_nm())
    }

    fn registry() -> LibraryRegistry {
        LibraryRegistry::open(Arc::new(Store::memory()), LibraryLimits::default())
    }

    #[test]
    fn upload_is_idempotent_and_content_addressed() {
        let reg = registry();
        let text = kit_text();
        let (first, created) = reg.upload(&text).unwrap();
        assert!(created);
        assert_eq!(first.name, "synth90");
        assert!(first.cells > 20);
        assert!(first.tabulated_cells > 0);
        let (second, created) = reg.upload(&text).unwrap();
        assert!(!created);
        assert_eq!(first.id, second.id);
        assert_eq!(reg.len(), 1);
        assert!(reg.get(&first.id).is_some());
        assert_ne!(
            library_id(&text),
            library_id(&text.replace("synth90", "other"))
        );
    }

    #[test]
    fn bad_uploads_are_refused_with_positions() {
        let reg = registry();
        match reg.upload("library (broken) {\n  cell (INV_X1) {\n") {
            Err(LibraryUploadError::Parse { line, message, .. }) => {
                assert!(line >= 2, "{line}");
                assert!(message.contains("unterminated"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let reg = LibraryRegistry::open(
            Arc::new(Store::memory()),
            LibraryLimits {
                max_source_bytes: 16,
                ..LibraryLimits::default()
            },
        );
        assert!(matches!(
            reg.upload(&kit_text()),
            Err(LibraryUploadError::TooLarge { .. })
        ));
        let reg = LibraryRegistry::open(
            Arc::new(Store::memory()),
            LibraryLimits {
                max_cells: 3,
                ..LibraryLimits::default()
            },
        );
        assert!(matches!(
            reg.upload(&kit_text()),
            Err(LibraryUploadError::TooLarge { what: "cells", .. })
        ));
    }

    #[test]
    fn registry_capacity_is_enforced() {
        let reg = LibraryRegistry::open(
            Arc::new(Store::memory()),
            LibraryLimits {
                max_libraries: 1,
                ..LibraryLimits::default()
            },
        );
        let text = kit_text();
        reg.upload(&text).unwrap();
        assert!(matches!(
            reg.upload(&text.replace("synth90", "other")),
            Err(LibraryUploadError::Full { count: 1, limit: 1 })
        ));
    }

    #[test]
    fn concurrent_refused_uploads_are_never_persisted() {
        let dir = std::env::temp_dir().join(format!("scpg-libfull-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let limits = LibraryLimits {
            max_libraries: 1,
            ..LibraryLimits::default()
        };
        let reg = LibraryRegistry::open(Arc::new(Store::open(&dir).unwrap()), limits);
        let text = kit_text();
        let start = std::sync::Barrier::new(8);
        let accepted = std::thread::scope(|s| {
            let uploads: Vec<_> = (0..8)
                .map(|i| {
                    let source = text.replace("synth90", &format!("lib{i}"));
                    let (reg, start) = (&reg, &start);
                    s.spawn(move || {
                        start.wait();
                        reg.upload(&source).is_ok()
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
        let reopened = LibraryRegistry::open(Arc::new(Store::open(&dir).unwrap()), limits);
        assert_eq!(reopened.len(), 1, "refused uploads reached the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_and_reloads_lazily() {
        let reg = LibraryRegistry::open(
            Arc::new(Store::memory()),
            LibraryLimits {
                max_loaded: 1,
                ..LibraryLimits::default()
            },
        );
        let a = kit_text();
        let b = a.replace("synth90", "second");
        let (ea, _) = reg.upload(&a).unwrap();
        let (eb, _) = reg.upload(&b).unwrap();
        assert_eq!(reg.len(), 2, "both registered");
        assert_eq!(reg.loaded(), 1, "only one resident");
        // The older library was evicted but reloads transparently.
        let back = reg.get(&ea.id).expect("lazy reload");
        assert_eq!(back.name, "synth90");
        assert_eq!(back.cells, ea.cells);
        assert_eq!(reg.loaded(), 1);
        // And the reload evicted the other one, which also comes back.
        assert_eq!(reg.get(&eb.id).expect("reload b").name, "second");
    }

    #[test]
    fn libraries_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("scpg-libreg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let reg = LibraryRegistry::open(Arc::clone(&store), LibraryLimits::default());
        let text = kit_text();
        let (entry, _) = reg.upload(&text).unwrap();
        drop(reg);
        let store = Arc::new(Store::open(&dir).unwrap());
        let reg = LibraryRegistry::open(store, LibraryLimits::default());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.loaded(), 0, "indexed, not parsed, at startup");
        let back = reg.get(&entry.id).expect("reloaded after reopen");
        assert_eq!(back.source, text);
        assert_eq!(back.cells, entry.cells);
        let summaries = reg.summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(
            summaries[0].get("id").and_then(Json::as_str),
            Some(entry.id.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
