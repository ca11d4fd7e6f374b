//! The public surface of the library crates stays as small as the code
//! that calls it.
//!
//! rustc's `dead_code` lint cannot see a `pub` item, so an unused export
//! never warns. This test applies the rule instead: a `pub fn`,
//! `pub const fn`, `pub const` or `pub static` in `crates/*/src` (binary
//! targets under `src/bin` excepted) must be named, as a whole word, in
//! some Rust file outside its own library crate. Outside means another
//! workspace crate, the root package's `src/`, `tests/` and `examples/`,
//! the crate's own `tests/` directory and binary targets, and `perf/`.
//! A file's `#[cfg(test)] mod tests` block is test code and is skipped.
//! Types are not checked: a `pub` signature can require a `pub` type
//! that no outside code names.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Build outputs never hold sources worth scanning.
const SKIPPED_DIRS: [&str; 3] = ["target", ".bench_build", ".git"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIPPED_DIRS.contains(&name) {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier-shaped word in `text`.
fn words(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Names of the `pub fn`/`const fn`/`const`/`static` items in `text`,
/// up to its unit-test module.
fn exported_values(text: &str) -> Vec<&str> {
    let text = text.split("#[cfg(test)]\nmod tests").next().unwrap_or("");
    let mut names = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let rest = rest.trim_start();
        let rest = rest
            .strip_prefix("const fn ")
            .or_else(|| rest.strip_prefix("fn "))
            .or_else(|| rest.strip_prefix("const "))
            .or_else(|| rest.strip_prefix("static "));
        let Some(rest) = rest else {
            continue;
        };
        let end = rest
            .bytes()
            .position(|b| !is_ident_byte(b))
            .unwrap_or(rest.len());
        if end > 0 {
            names.push(&rest[..end]);
        }
    }
    names
}

#[test]
fn every_exported_value_has_a_caller_outside_its_crate() {
    let root = Path::new(ROOT);
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perf"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let text = fs::read_to_string(&f).expect("readable source file");
            (f, text)
        })
        .collect();
    let vocab: Vec<HashSet<&str>> = sources.iter().map(|(_, t)| words(t)).collect();

    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();

    let mut orphans = BTreeSet::new();
    for krate in &crates {
        let src = krate.join("src");
        let library = |f: &Path| f.starts_with(&src) && !f.starts_with(src.join("bin"));
        for (file, text) in sources.iter().filter(|(f, _)| library(f)) {
            for name in exported_values(text) {
                let named_outside = sources
                    .iter()
                    .zip(&vocab)
                    .any(|((f, _), v)| !library(f) && v.contains(name));
                if !named_outside {
                    let rel = file.strip_prefix(root).unwrap_or(file);
                    orphans.insert(format!("{}: {name}", rel.display()));
                }
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "{} exported items have no caller outside their library crate; \
         make them pub(crate) (and delete them if nothing calls them):\n{}",
        orphans.len(),
        orphans.into_iter().collect::<Vec<_>>().join("\n"),
    );
}
