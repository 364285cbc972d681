//! Zero-dependency persistent artifact store.
//!
//! Records are JSON documents wrapped in a CRC-32-checked envelope:
//!
//! ```json
//! {"crc32": 3632233996, "payload": { ... }}
//! ```
//!
//! The checksum covers the *canonical* (sorted-key, compact) encoding of
//! the payload, so a record survives any whitespace/key-order-preserving
//! rewrite and fails loudly on torn writes or bit rot.  Durability comes
//! from the classic temp-file + fsync + atomic-rename + directory-fsync
//! dance; the store never rewrites a file in place.
//!
//! Layout on disk (one directory per namespace):
//!
//! ```text
//! <root>/netlists/<id>.json     # upload metadata records
//! <root>/netlists/<id>.v        # raw Verilog blobs
//! <root>/jobs/<id>.json         # job checkpoint records
//! ```
//!
//! A [`Store`] can also be purely in-memory (`Store::memory()`), which the
//! serving layer uses when no `--store-dir` is configured and the test
//! suite uses for speed; both backends expose identical semantics.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use scpg_json::Json;

use crate::hash::crc32;

/// Store failures. `Corrupt` is the interesting one: the record existed
/// but failed its checksum or envelope shape, which callers must not
/// silently treat as "absent".
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The record existed but its envelope or checksum was invalid.
    Corrupt {
        /// Namespace the record lives in.
        namespace: &'static str,
        /// Record key.
        key: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A key contained characters that are not filesystem-safe.
    BadKey(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt {
                namespace,
                key,
                reason,
            } => write!(f, "corrupt record {namespace}/{key}: {reason}"),
            StoreError::BadKey(k) => write!(f, "invalid store key `{k}`"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

enum Backend {
    Memory(Mutex<HashMap<String, Vec<u8>>>),
    Disk(PathBuf),
}

/// CRC-checked record + blob store, in-memory or directory-backed.
pub struct Store {
    backend: Backend,
}

/// Keys become file names; restrict them to a conservative alphabet so a
/// hostile id can never traverse out of the namespace directory.
fn check_key(key: &str) -> Result<(), StoreError> {
    let ok = !key.is_empty()
        && key.len() <= 128
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if ok {
        Ok(())
    } else {
        Err(StoreError::BadKey(key.to_string()))
    }
}

impl Store {
    /// Purely in-memory store (nothing survives the process).
    pub fn memory() -> Self {
        Store {
            backend: Backend::Memory(Mutex::new(HashMap::new())),
        }
    }

    /// Opens (creating if needed) a directory-backed store rooted at `dir`.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        Ok(Store {
            backend: Backend::Disk(dir.to_path_buf()),
        })
    }

    /// True when backed by a directory (i.e. survives restarts).
    pub fn is_persistent(&self) -> bool {
        matches!(self.backend, Backend::Disk(_))
    }

    fn file_path(root: &Path, namespace: &str, file: &str) -> PathBuf {
        root.join(namespace).join(file)
    }

    fn write_bytes(
        &self,
        namespace: &'static str,
        file: &str,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        match &self.backend {
            Backend::Memory(map) => {
                let mut map = map.lock().unwrap();
                map.insert(format!("{namespace}/{file}"), bytes.to_vec());
                Ok(())
            }
            Backend::Disk(root) => {
                let dir = root.join(namespace);
                fs::create_dir_all(&dir)?;
                // Write to a dot-prefixed temp file in the same directory
                // (same filesystem, so the rename is atomic), then rename
                // over the final name. Readers either see the old complete
                // record or the new one, never a torn write.
                let tmp = dir.join(format!(".tmp-{file}"));
                {
                    let mut f = fs::File::create(&tmp)?;
                    f.write_all(bytes)?;
                    f.sync_all()?;
                }
                fs::rename(&tmp, Self::file_path(root, namespace, file))?;
                // The rename is an entry in the directory: until the
                // directory itself is synced, a power loss can drop a
                // record the caller has already reported as written.
                fs::File::open(&dir)?.sync_all()?;
                Ok(())
            }
        }
    }

    fn read_bytes(
        &self,
        namespace: &'static str,
        file: &str,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        match &self.backend {
            Backend::Memory(map) => Ok(map
                .lock()
                .unwrap()
                .get(&format!("{namespace}/{file}"))
                .cloned()),
            Backend::Disk(root) => match fs::read(Self::file_path(root, namespace, file)) {
                Ok(bytes) => Ok(Some(bytes)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(StoreError::Io(e)),
            },
        }
    }

    /// Persists `payload` under `namespace/key`, wrapped in a CRC envelope.
    pub fn put_record(
        &self,
        namespace: &'static str,
        key: &str,
        payload: &Json,
    ) -> Result<(), StoreError> {
        check_key(key)?;
        let canonical = payload.canonical();
        let envelope = Json::object([
            ("crc32", Json::from(crc32(canonical.as_bytes()) as u64)),
            ("payload", payload.clone()),
        ]);
        self.write_bytes(
            namespace,
            &format!("{key}.json"),
            envelope.write().as_bytes(),
        )
    }

    /// Loads and checksum-verifies the record at `namespace/key`.
    /// `Ok(None)` means absent; `Err(Corrupt)` means present but damaged.
    pub fn get_record(
        &self,
        namespace: &'static str,
        key: &str,
    ) -> Result<Option<Json>, StoreError> {
        check_key(key)?;
        let Some(bytes) = self.read_bytes(namespace, &format!("{key}.json"))? else {
            return Ok(None);
        };
        let corrupt = |reason: String| StoreError::Corrupt {
            namespace,
            key: key.to_string(),
            reason,
        };
        let text = std::str::from_utf8(&bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
        let envelope = Json::parse(text).map_err(|e| corrupt(format!("bad JSON: {e}")))?;
        let stored = envelope
            .get("crc32")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("missing crc32 field".to_string()))?;
        let payload = envelope
            .get("payload")
            .ok_or_else(|| corrupt("missing payload field".to_string()))?;
        let actual = crc32(payload.canonical().as_bytes()) as u64;
        if actual != stored {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored}, computed {actual}"
            )));
        }
        Ok(Some(payload.clone()))
    }

    /// Persists an uninterpreted blob (e.g. raw Verilog source).
    /// `ext` must be a short alphanumeric extension such as `"v"`.
    pub fn put_blob(
        &self,
        namespace: &'static str,
        key: &str,
        ext: &str,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        check_key(key)?;
        check_key(ext)?;
        self.write_bytes(namespace, &format!("{key}.{ext}"), bytes)
    }

    /// Loads a blob previously written with [`Store::put_blob`].
    pub fn get_blob(
        &self,
        namespace: &'static str,
        key: &str,
        ext: &str,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        check_key(key)?;
        check_key(ext)?;
        self.read_bytes(namespace, &format!("{key}.{ext}"))
    }

    /// Keys of every record in `namespace`, sorted. Blobs and temp files
    /// are ignored; only `*.json` records count.
    pub fn list(&self, namespace: &'static str) -> Result<Vec<String>, StoreError> {
        let mut keys = match &self.backend {
            Backend::Memory(map) => {
                let prefix = format!("{namespace}/");
                map.lock()
                    .unwrap()
                    .keys()
                    .filter_map(|k| k.strip_prefix(&prefix))
                    .filter_map(|f| f.strip_suffix(".json"))
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            }
            Backend::Disk(root) => {
                let dir = root.join(namespace);
                if !dir.is_dir() {
                    return Ok(Vec::new());
                }
                let mut keys = Vec::new();
                for entry in fs::read_dir(&dir)? {
                    let name = entry?.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if let Some(key) = name.strip_suffix(".json") {
                        if check_key(key).is_ok() {
                            keys.push(key.to_string());
                        }
                    }
                }
                keys
            }
        };
        keys.sort();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scpg-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_round_trip_memory_and_disk() {
        let payload = Json::object([("name", Json::from("adder")), ("gates", Json::from(42u64))]);
        for store in [Store::memory(), Store::open(&tmpdir("rt")).unwrap()] {
            store.put_record("netlists", "abc123", &payload).unwrap();
            let back = store.get_record("netlists", "abc123").unwrap().unwrap();
            assert_eq!(back, payload);
            assert_eq!(store.get_record("netlists", "missing").unwrap(), None);
            assert_eq!(store.list("netlists").unwrap(), vec!["abc123".to_string()]);
            assert_eq!(store.list("jobs").unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn blobs_do_not_show_up_as_records() {
        let store = Store::open(&tmpdir("blob")).unwrap();
        store
            .put_blob("netlists", "abc123", "v", b"module m; endmodule")
            .unwrap();
        assert_eq!(store.list("netlists").unwrap(), Vec::<String>::new());
        assert_eq!(
            store.get_blob("netlists", "abc123", "v").unwrap().unwrap(),
            b"module m; endmodule"
        );
        assert_eq!(store.get_blob("netlists", "nope", "v").unwrap(), None);
    }

    #[test]
    fn corrupt_record_is_an_error_not_none() {
        let dir = tmpdir("corrupt");
        let store = Store::open(&dir).unwrap();
        store
            .put_record(
                "jobs",
                "j00000001",
                &Json::object([("state", Json::from("queued"))]),
            )
            .unwrap();
        // Flip a byte on disk.
        let path = dir.join("jobs").join("j00000001.json");
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        match store.get_record("jobs", "j00000001") {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_keys_are_rejected() {
        let store = Store::memory();
        for key in ["../etc/passwd", "a/b", "", "x y", "ключ"] {
            assert!(matches!(
                store.put_record("jobs", key, &Json::Null),
                Err(StoreError::BadKey(_))
            ));
        }
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let store = Store::open(&dir).unwrap();
            store
                .put_record(
                    "jobs",
                    "j00000001",
                    &Json::object([("done", Json::from(3u64))]),
                )
                .unwrap();
        }
        let store = Store::open(&dir).unwrap();
        let back = store.get_record("jobs", "j00000001").unwrap().unwrap();
        assert_eq!(back.get("done").and_then(Json::as_u64), Some(3));
    }
}
