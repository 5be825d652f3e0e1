//! Snapshot persistence.
//!
//! Snapshots serialize to a single JSON document (site metadata plus every
//! page's URL and HTML) so that a generated dataset can be archived,
//! diffed between runs, and reloaded without regenerating. The generic
//! [`save_json_file`]/[`load_json_file`] helpers expose the same canonical
//! JSON machinery to other on-disk artifacts (e.g. the serving layer's
//! verdict store), and every failure names the offending path — plus the
//! byte offset, for malformed JSON — so store corruption is debuggable.

use crate::site::PharmacySite;
use crate::snapshot::Snapshot;
use pharmaverify_crawl::InMemoryWeb;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The on-disk form of a [`Snapshot`].
#[derive(Debug, Serialize, Deserialize)]
struct SnapshotFile {
    name: String,
    sites: Vec<PharmacySite>,
    #[serde(default)]
    portals: Vec<String>,
    pages: Vec<(String, String)>,
}

/// Errors from JSON persistence; every variant names the file involved.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure at `path`.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying filesystem error.
        source: io::Error,
    },
    /// Malformed JSON in the file at `path`.
    Format {
        /// The file being parsed.
        path: PathBuf,
        /// Byte offset where parsing failed, when the parser knows it.
        offset: Option<usize>,
        /// The underlying parse or shape error.
        source: serde_json::Error,
    },
    /// Well-formed JSON whose record `record` (0-based, in file order)
    /// breaks a rule of the loader's schema.
    Invalid {
        /// The file being loaded.
        path: PathBuf,
        /// Index of the offending record.
        record: usize,
        /// The rule the record breaks, with the offending value.
        rule: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "I/O error at {}: {source}", path.display())
            }
            PersistError::Format {
                path,
                offset: Some(offset),
                source,
            } => write!(
                f,
                "malformed JSON at {}, byte {offset}: {source}",
                path.display()
            ),
            PersistError::Format {
                path,
                offset: None,
                source,
            } => write!(f, "malformed JSON at {}: {source}", path.display()),
            PersistError::Invalid { path, record, rule } => {
                write!(f, "invalid record {record} in {}: {rule}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Serializes `value` to canonical JSON and writes it to `path`.
pub fn save_json_file<T: Serialize>(value: &T, path: &Path) -> Result<(), PersistError> {
    let json = serde_json::to_string(value).map_err(|source| PersistError::Format {
        path: path.to_path_buf(),
        offset: None,
        source,
    })?;
    fs::write(path, json).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Reads and deserializes the JSON document at `path`.
pub fn load_json_file<T: Deserialize>(path: &Path) -> Result<T, PersistError> {
    let json = fs::read_to_string(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    serde_json::from_str(&json).map_err(|source| PersistError::Format {
        path: path.to_path_buf(),
        offset: source.offset(),
        source,
    })
}

/// Writes `snapshot` to `path` as JSON.
pub fn save_snapshot(snapshot: &Snapshot, path: &Path) -> Result<(), PersistError> {
    let file = SnapshotFile {
        name: snapshot.name.clone(),
        sites: snapshot.sites.clone(),
        portals: snapshot.portals.clone(),
        pages: snapshot
            .web
            .iter()
            .map(|(u, h)| (u.to_string(), h.to_string()))
            .collect(),
    };
    save_json_file(&file, path)
}

/// Reads a snapshot back from `path`.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, PersistError> {
    let file: SnapshotFile = load_json_file(path)?;
    let mut web = InMemoryWeb::new();
    for (url, html) in file.pages {
        web.add_page(&url, html);
    }
    Ok(Snapshot {
        name: file.name,
        sites: file.sites,
        portals: file.portals,
        web,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, SyntheticWeb};

    #[test]
    fn save_load_round_trip() {
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 3);
        let snap = web.snapshot();
        let dir = std::env::temp_dir().join("pharmaverify-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        save_snapshot(snap, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.name, snap.name);
        assert_eq!(back.sites, snap.sites);
        assert_eq!(back.portals, snap.portals);
        assert_eq!(back.web.len(), snap.web.len());
        for ((ua, ha), (ub, hb)) in back.web.iter().zip(snap.web.iter()) {
            assert_eq!(ua, ub);
            assert_eq!(ha, hb);
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error_naming_the_path() {
        let err = load_snapshot(Path::new("/nonexistent/nope.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }));
        let text = err.to_string();
        assert!(text.contains("/nonexistent/nope.json"), "{text}");
    }

    #[test]
    fn load_garbage_is_format_error() {
        let dir = std::env::temp_dir().join("pharmaverify-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        fs::write(&path, "not json at all").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_fixture_reports_path_and_byte_offset() {
        let dir = std::env::temp_dir().join("pharmaverify-persist-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed.json");
        // A dangling comma: the parser stops at the `]` at byte 3.
        fs::write(&path, "[1,]").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        match &err {
            PersistError::Format {
                path: p, offset, ..
            } => {
                assert_eq!(p, &path);
                assert_eq!(*offset, Some(3));
            }
            other => panic!("expected Format error, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("malformed.json"), "{text}");
        assert!(text.contains("byte 3"), "{text}");
        fs::remove_file(&path).unwrap();
    }
}
