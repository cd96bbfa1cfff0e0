//! What every golden test shares: the FNV-1a digest its tables pin and
//! the bless-or-diff step against a file under `tests/golden/`.
//!
//! A test includes this file as a module (`#[path = ...] mod golden;`).
//! Under `EDE_BLESS=1` [`check`] rewrites the golden file from the live
//! text; otherwise it fails with a unified diff, or with the command
//! that creates a missing file.

#![allow(dead_code)]

use ede_util::diff::unified_diff;
use std::path::{Path, PathBuf};

/// `tests/golden/<rel>`, anchored to the repository root so a test
/// works from any cargo invocation directory.
pub fn path(rel: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(rel)
}

/// FNV-1a, 64-bit, folded over a byte stream.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether this run rewrites golden files (`EDE_BLESS=1`).
pub fn blessing() -> bool {
    std::env::var_os("EDE_BLESS").is_some_and(|v| v == "1")
}

/// Writes `live` as the golden file `golden`, creating its directory.
pub fn bless(golden: &Path, live: &str) {
    std::fs::create_dir_all(golden.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(golden, live).unwrap_or_else(|e| panic!("bless {}: {e}", golden.display()));
}

/// Asserts that `live` equals the golden file `golden`. `what` names
/// the text in the failure message; `test` is the cargo test target
/// (and filter, if any) that re-blesses the file.
pub fn assert_matches(golden: &Path, live: &str, test: &str, what: &str) {
    let want = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — run `EDE_BLESS=1 cargo test -p ede-check \
             --test {test}` to create it",
            golden.display()
        )
    });
    assert!(
        want == live,
        "{what} differs from {}:\n{}\n\
         (if the change is intentional, re-bless with `EDE_BLESS=1 cargo test \
         -p ede-check --test {test}`)",
        golden.display(),
        unified_diff(&want, live, "golden", "live"),
    );
}

/// The bless-or-diff step: under `EDE_BLESS=1` writes `live` as the
/// golden file `golden`, otherwise [`assert_matches`] it.
pub fn check(golden: &Path, live: &str, test: &str, what: &str) {
    if blessing() {
        bless(golden, live);
    } else {
        assert_matches(golden, live, test, what);
    }
}
