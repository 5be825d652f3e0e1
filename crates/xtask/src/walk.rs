//! Discovery of the Rust sources the custom lints apply to.
//!
//! The lint policy covers *library* code: `src/` trees of the workspace
//! crates and of the root package. Test code (`tests/`), benches,
//! examples, vendored dependency stubs, and the lint fixtures are out of
//! scope — tests may unwrap freely, and vendor stubs mirror external
//! APIs we do not control.

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "fixtures", "tests", "benches", "examples",
];

/// Returns every `.rs` file under the workspace's lintable source trees,
/// sorted for deterministic reporting.
pub fn lintable_sources(workspace_root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![workspace_root.join("src")];
    let crates_dir = workspace_root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        collect_rs(&root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root of the current directory ([`workspace_root_from`]),
/// read at run time rather than from where xtask was compiled, so a
/// copied tree that kept its `target/` checks its own files. `cargo run`
/// keeps the caller's directory.
///
/// # Errors
/// When the current directory cannot be read or lies in no workspace.
pub fn workspace_root() -> Result<PathBuf, String> {
    let cwd =
        std::env::current_dir().map_err(|e| format!("cannot read the current directory: {e}"))?;
    workspace_root_from(&cwd)
}

/// The nearest directory at or above `start` whose `Cargo.toml` has a
/// `[workspace]` table.
///
/// # Errors
/// When no such directory exists.
pub fn workspace_root_from(start: &Path) -> Result<PathBuf, String> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            format!(
                "no Cargo.toml with a [workspace] table at or above {}",
                start.display()
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repository_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn workspace_root_walks_up_to_the_workspace_manifest() {
        let root = workspace_root_from(&repository_root().join("crates/xtask/src")).unwrap();
        assert_eq!(
            root.canonicalize().unwrap(),
            repository_root().canonicalize().unwrap()
        );
        // Tests run in the package directory, inside the same workspace.
        assert_eq!(
            workspace_root().unwrap().canonicalize().unwrap(),
            root.canonicalize().unwrap()
        );
    }

    #[test]
    fn directory_outside_any_workspace_is_an_error() {
        let dir = std::env::temp_dir().join(format!("xtask-no-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = workspace_root_from(&dir).unwrap_err();
        std::fs::remove_dir(&dir).unwrap();
        assert!(err.contains("[workspace]"), "{err}");
    }

    #[test]
    fn finds_workspace_sources() {
        let files = lintable_sources(&workspace_root().unwrap()).unwrap();
        assert!(files.iter().any(|f| f.ends_with("crates/ngg/src/graph.rs")));
        assert!(!files.iter().any(|f| f.to_string_lossy().contains("vendor")));
        assert!(!files
            .iter()
            .any(|f| f.to_string_lossy().contains("fixtures")));
        // Sorted output keeps diagnostics stable across runs.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
