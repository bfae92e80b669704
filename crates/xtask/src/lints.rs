//! The lint engine: plain-text source scans encoding workspace
//! invariants that `rustc`/`clippy` cannot express.
//!
//! Four rule families (see DESIGN.md §5e):
//!
//! 1. **interior-mutability** — `RefCell`, `Cell<`, and
//!    `thread_local!` are banned from every index-implementation
//!    crate, with no exceptions.  Per-query scratch lives in
//!    `reach_graph::ScratchPool`'s `Mutex` slots instead, so that
//!    `ReachIndex: Send + Sync` holds; this lint keeps `RefCell`
//!    scratch from coming back.
//! 2. **panic-free-server** — `unwrap`/`expect`/`panic!`-family
//!    macros are banned from `crates/server/src` request paths; a
//!    worker panic would poison the queue mutex and take down every
//!    subsequent request.  **panic-free-parser** applies the same
//!    ban to the edge-list parser (`crates/graph/src/io.rs`): a
//!    malformed file must come back as `GraphError::Parse`.
//! 3. **unsafe_code** — the keyword that lint is named after may
//!    appear in no file, and every crate root must carry
//!    `#![forbid(unsafe_code)]`; `deny` does not pass, because a
//!    module could override it with `allow`.
//! 4. **registry-completeness** — every module implementing
//!    `ReachIndex`/`ReachFilter` (core) or `LcrIndex` (labeled) must
//!    be referenced from its crate's `pipeline.rs`, i.e. reachable
//!    from `plain_names()`/`lcr_names()`; an index that exists but
//!    is not registered silently escapes the differential and audit
//!    suites.
//!
//! Scans are token-based with identifier-boundary checks (so
//! `UnsafeCell<...>` does not trip `Cell<`), strip `//` comments, and
//! stop at the first `#[cfg(test)]` so test modules may use
//! `unwrap()` freely.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One finding, formatted `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// The workspace lint policy.  Paths are relative to the repo root,
/// forward-slash separated.
pub struct LintConfig {
    /// Directories whose `.rs` files may not use interior mutability.
    pub interior_mutability_roots: &'static [&'static str],
    /// Directories whose `.rs` files must be panic-free outside tests.
    pub panic_free_roots: &'static [&'static str],
    /// Parser source files that must be panic-free outside tests.
    pub panic_free_parsers: &'static [&'static str],
    /// Registry-completeness rules, one per index crate.
    pub registries: &'static [RegistryRule],
}

/// A registry-completeness rule: every index-impl module under `src`
/// must be referenced as `crate::<stem>` from `pipeline`.
pub struct RegistryRule {
    pub src: &'static str,
    pub pipeline: &'static str,
    /// `impl` markers that identify an index module.
    pub impl_markers: &'static [&'static str],
    /// File names (not paths) exempt from the rule: trait/machinery
    /// modules and indexes dispatched outside the registry.
    pub allow: &'static [&'static str],
    /// Human name of the registry accessor, for messages.
    pub accessor: &'static str,
}

impl LintConfig {
    /// The shipped policy for this workspace.
    pub fn workspace() -> Self {
        LintConfig {
            interior_mutability_roots: &[
                "crates/core/src",
                "crates/labeled/src",
                "crates/graph/src",
                "crates/server/src",
            ],
            panic_free_roots: &["crates/server/src"],
            panic_free_parsers: &["crates/graph/src/io.rs", "crates/labeled/src/constraint.rs"],
            registries: &[
                RegistryRule {
                    src: "crates/core/src",
                    pipeline: "crates/core/src/pipeline.rs",
                    impl_markers: &["ReachIndex for", "ReachFilter for"],
                    // engine.rs / index.rs define the traits and the
                    // generic GuidedSearch machinery, not a concrete
                    // index module.
                    allow: &["engine.rs", "index.rs"],
                    accessor: "plain_names()",
                },
                RegistryRule {
                    src: "crates/labeled/src",
                    pipeline: "crates/labeled/src/pipeline.rs",
                    impl_markers: &["LcrIndex for", "RlcIndexApi for"],
                    // lcr.rs defines the traits; rlc.rs is the
                    // concatenation-constraint index, dispatched by
                    // constraint class rather than the LCR registry.
                    allow: &["lcr.rs", "rlc.rs"],
                    accessor: "lcr_names()",
                },
            ],
        }
    }
}

/// Run every lint under `root` (the repo checkout) and return all
/// findings.  I/O errors are reported as violations on the offending
/// path rather than aborting the run.
pub fn run_lints(root: &Path, cfg: &LintConfig) -> Vec<LintViolation> {
    let mut out = Vec::new();
    lint_interior_mutability(root, cfg, &mut out);
    lint_panic_free(root, cfg, &mut out);
    lint_unsafe(root, &mut out);
    lint_registries(root, cfg, &mut out);
    out
}

/// Number of `.rs` files the policy covers, for the summary line.
pub fn files_in_scope(root: &Path) -> usize {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    collect_rs_files(&root.join("tests"), &mut files);
    files.len()
}

// The scanner reads this very file, so the banned keyword is spelled
// in two halves: the concatenated constant exists only in the binary,
// never as a matchable token in the source text.
const UNSAFE_TOKEN: &str = concat!("un", "safe");
const RULE_UNSAFE: &str = "unsafe_code";

// ---------------------------------------------------------------
// rule 1: interior mutability
// ---------------------------------------------------------------

fn lint_interior_mutability(root: &Path, cfg: &LintConfig, out: &mut Vec<LintViolation>) {
    for dir in cfg.interior_mutability_roots {
        for file in rs_files_under(root, dir) {
            scan_tokens(
                &file,
                "interior-mutability",
                &[
                    ("RefCell", Boundary::Both),
                    ("Cell<", Boundary::Before),
                    ("thread_local!", Boundary::Before),
                ],
                "interior mutability breaks the Send+Sync contract of the index traits; \
                 use reach_graph::scratch::ScratchPool",
                out,
            );
        }
    }
}

// ---------------------------------------------------------------
// rule 2: panic-free server request paths and parsers
// ---------------------------------------------------------------

const PANIC_PATTERNS: &[(&str, Boundary)] = &[
    (".unwrap()", Boundary::None),
    (".expect(", Boundary::None),
    ("panic!(", Boundary::Before),
    ("unreachable!(", Boundary::Before),
    ("todo!(", Boundary::Before),
    ("unimplemented!(", Boundary::Before),
];

fn lint_panic_free(root: &Path, cfg: &LintConfig, out: &mut Vec<LintViolation>) {
    for dir in cfg.panic_free_roots {
        for file in rs_files_under(root, dir) {
            scan_tokens(
                &file,
                "panic-free-server",
                PANIC_PATTERNS,
                "a panic on a request path poisons the queue mutex and kills the worker; \
                 return an error response instead",
                out,
            );
        }
    }
    for file in cfg.panic_free_parsers {
        scan_tokens(
            &root.join(file),
            "panic-free-parser",
            PANIC_PATTERNS,
            "malformed input must come back as GraphError::Parse, not abort the loader",
            out,
        );
    }
}

// ---------------------------------------------------------------
// rule 3: unsafe_code is forbidden everywhere
// ---------------------------------------------------------------

fn lint_unsafe(root: &Path, out: &mut Vec<LintViolation>) {
    // 3a: the keyword appears in no file.
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    for file in files {
        // `unsafe_code` (the attribute name) has `_` after the token,
        // so the boundary check admits the forbid attribute.
        scan_tokens(
            &file,
            RULE_UNSAFE,
            &[(UNSAFE_TOKEN, Boundary::Both)],
            "the workspace forbids it: std's safe types cover every need",
            out,
        );
    }
    // 3b: every crate root forbids unsafe_code at the language level.
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let lib = dir.join("src/lib.rs");
            let main = dir.join("src/main.rs");
            if lib.is_file() {
                roots.push(lib);
            } else if main.is_file() {
                roots.push(main);
            }
        }
    }
    for crate_root in roots {
        let Ok(text) = fs::read_to_string(&crate_root) else {
            push_io(&crate_root, out);
            continue;
        };
        if !text.contains("#![forbid(unsafe_code)]") {
            out.push(LintViolation {
                file: crate_root,
                line: 1,
                rule: RULE_UNSAFE,
                message: "crate root must carry #![forbid(unsafe_code)]; \
                          deny is not enough, since a module can allow it again"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------
// rule 4: registry completeness
// ---------------------------------------------------------------

fn lint_registries(root: &Path, cfg: &LintConfig, out: &mut Vec<LintViolation>) {
    for rule in cfg.registries {
        let pipeline_path = root.join(rule.pipeline);
        let Ok(pipeline) = fs::read_to_string(&pipeline_path) else {
            push_io(&pipeline_path, out);
            continue;
        };
        for file in rs_files_under(root, rule.src) {
            let name = file
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let stem = name.trim_end_matches(".rs").to_string();
            if file == pipeline_path || rule.allow.contains(&name.as_str()) {
                continue;
            }
            let Ok(text) = fs::read_to_string(&file) else {
                push_io(&file, out);
                continue;
            };
            let code = active_code(&text);
            if !rule.impl_markers.iter().any(|m| code.contains(m)) {
                continue;
            }
            if !pipeline.contains(&format!("crate::{stem}")) {
                out.push(LintViolation {
                    file,
                    line: 1,
                    rule: "registry-completeness",
                    message: format!(
                        "module `{stem}` implements an index trait but is not referenced \
                         from {} — it is unreachable from {} and escapes the audit suite",
                        rule.pipeline, rule.accessor
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------
// scanning machinery
// ---------------------------------------------------------------

/// Which sides of a pattern must be non-identifier characters.
#[derive(Clone, Copy)]
enum Boundary {
    None,
    Before,
    Both,
}

/// Strip the text down to what the lints should see: everything up
/// to the first `#[cfg(test)]`, with `//` comments removed per line.
fn active_code(text: &str) -> String {
    let mut code = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let stripped = match line.find("//") {
            Some(pos) => &line[..pos],
            None => line,
        };
        code.push_str(stripped);
        code.push('\n');
    }
    code
}

fn is_ident(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

fn matches_at(code: &str, pos: usize, pat: &str, boundary: Boundary) -> bool {
    let bytes = code.as_bytes();
    let before_ok = match boundary {
        Boundary::None => true,
        Boundary::Before | Boundary::Both => pos == 0 || !is_ident(bytes[pos - 1]),
    };
    let end = pos + pat.len();
    let after_ok = match boundary {
        Boundary::None | Boundary::Before => true,
        Boundary::Both => end == bytes.len() || !is_ident(bytes[end]),
    };
    before_ok && after_ok
}

fn scan_tokens(
    file: &Path,
    rule: &'static str,
    patterns: &[(&str, Boundary)],
    why: &str,
    out: &mut Vec<LintViolation>,
) {
    let Ok(text) = fs::read_to_string(file) else {
        push_io(file, out);
        return;
    };
    let code = active_code(&text);
    for (lineno, line) in code.lines().enumerate() {
        for &(pat, boundary) in patterns {
            let mut from = 0;
            while let Some(off) = line[from..].find(pat) {
                let pos = from + off;
                if matches_at(line, pos, pat, boundary) {
                    out.push(LintViolation {
                        file: file.to_path_buf(),
                        line: lineno + 1,
                        rule,
                        message: format!("`{pat}` is forbidden here: {why}"),
                    });
                    break; // one finding per pattern per line
                }
                from = pos + pat.len();
            }
        }
    }
}

fn rs_files_under(root: &Path, dir: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs_files(&root.join(dir), &mut files);
    files
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn push_io(path: &Path, out: &mut Vec<LintViolation>) {
    out.push(LintViolation {
        file: path.to_path_buf(),
        line: 0,
        rule: "io",
        message: "could not read file".into(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a throwaway tree under target/ so tests need no tempdir
    /// dependency; each test uses a distinct subdirectory.
    fn scratch_root(name: &str) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/xtask-lint-tests")
            .join(name);
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch root");
        root
    }

    fn write(root: &Path, rel: &str, contents: &str) {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, contents).expect("write fixture");
    }

    /// The acceptance-criteria test: seeding a `RefCell` into an
    /// index file makes the lint fail.
    #[test]
    fn injected_refcell_is_flagged() {
        let root = scratch_root("refcell");
        write(
            &root,
            "crates/core/src/bad.rs",
            "use std::cell::RefCell;\npub struct Bad { cache: RefCell<Vec<u32>> }\n",
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        let interior: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == "interior-mutability")
            .collect();
        assert_eq!(interior.len(), 2, "one per RefCell line: {hits:?}");
        assert!(interior[0].file.ends_with("bad.rs"));
    }

    #[test]
    fn unsafe_cell_does_not_trip_the_cell_pattern() {
        let root = scratch_root("unsafecell");
        write(
            &root,
            "crates/core/src/ok.rs",
            // UnsafeCell< must not match `Cell<` (identifier boundary)
            "use core::cell::UnsafeCell;\npub struct S(UnsafeCell<u8>);\n",
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        assert!(
            hits.iter().all(|v| v.rule != "interior-mutability"),
            "UnsafeCell mis-flagged: {hits:?}"
        );
    }

    #[test]
    fn comments_and_test_modules_are_ignored() {
        let root = scratch_root("comments");
        write(
            &root,
            "crates/server/src/ok.rs",
            "// a worker never calls .unwrap() on the queue lock\n\
             pub fn f() {}\n\
             #[cfg(test)]\n\
             mod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        assert!(
            hits.iter().all(|v| v.rule != "panic-free-server"),
            "comment/test unwrap mis-flagged: {hits:?}"
        );
    }

    #[test]
    fn server_unwrap_outside_tests_is_flagged() {
        let root = scratch_root("serverunwrap");
        write(
            &root,
            "crates/server/src/bad.rs",
            "pub fn f(lock: std::sync::Mutex<u8>) -> u8 { *lock.lock().unwrap() }\n",
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        assert!(
            hits.iter()
                .any(|v| v.rule == "panic-free-server" && v.line == 1),
            "unwrap not flagged: {hits:?}"
        );
    }

    #[test]
    fn parser_unwrap_outside_tests_is_flagged() {
        let root = scratch_root("parserunwrap");
        write(
            &root,
            "crates/graph/src/io.rs",
            "pub fn n(tok: &str) -> u32 {\n    tok.parse().expect(\"number\")\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { \"1\".parse::<u32>().unwrap(); }\n}\n",
        );
        let cfg = LintConfig::workspace();
        let hits: Vec<_> = run_lints(&root, &cfg)
            .into_iter()
            .filter(|v| v.rule == "panic-free-parser")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn unsafe_is_flagged_in_every_file_scratch_included() {
        let root = scratch_root("keyword");
        write(
            &root,
            "crates/graph/src/scratch.rs",
            &format!("pub struct Slot;\n{UNSAFE_TOKEN} impl Sync for Slot {{}}\n"),
        );
        write(
            &root,
            "crates/core/src/bad.rs",
            &format!("pub fn f(p: *const u8) -> u8 {{ {UNSAFE_TOKEN} {{ *p }} }}\n"),
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        let unsafe_hits: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == RULE_UNSAFE && v.line > 0)
            .collect();
        assert_eq!(unsafe_hits.len(), 2, "{hits:?}");
        assert!(unsafe_hits[0].file.ends_with("crates/core/src/bad.rs"));
        assert!(unsafe_hits[1].file.ends_with("crates/graph/src/scratch.rs"));
        assert_eq!(unsafe_hits[1].line, 2);
    }

    #[test]
    fn missing_forbid_attribute_on_crate_root_is_flagged() {
        let root = scratch_root("attr");
        write(
            &root,
            "src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn ok() {}\n",
        );
        write(&root, "crates/thing/src/lib.rs", "pub fn nope() {}\n");
        // deny can be overridden by a module-level allow, so it fails too
        write(
            &root,
            "crates/denied/src/lib.rs",
            "#![deny(unsafe_code)]\npub fn nope() {}\n",
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        let attr_hits: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == RULE_UNSAFE && v.message.contains("crate root"))
            .collect();
        assert_eq!(attr_hits.len(), 2, "{hits:?}");
        assert!(attr_hits[0].file.ends_with("crates/denied/src/lib.rs"));
        assert!(attr_hits[1].file.ends_with("crates/thing/src/lib.rs"));
    }

    #[test]
    fn unregistered_index_module_is_flagged() {
        let root = scratch_root("registry");
        write(
            &root,
            "crates/core/src/pipeline.rs",
            "use crate::good::Good;\npub fn plain_names() -> Vec<&'static str> { vec![\"Good\"] }\n",
        );
        write(
            &root,
            "crates/core/src/good.rs",
            "pub struct Good;\nimpl crate::index::ReachIndex for Good {}\n",
        );
        write(
            &root,
            "crates/core/src/orphan.rs",
            "pub struct Orphan;\nimpl crate::index::ReachIndex for Orphan {}\n",
        );
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        let reg: Vec<_> = hits
            .iter()
            .filter(|v| v.rule == "registry-completeness")
            .collect();
        assert_eq!(reg.len(), 1, "{hits:?}");
        assert!(reg[0].file.ends_with("orphan.rs"));
        assert!(reg[0].message.contains("plain_names()"));
    }

    /// The real workspace must pass its own policy clean.
    #[test]
    fn shipped_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = LintConfig::workspace();
        let hits = run_lints(&root, &cfg);
        assert!(
            hits.is_empty(),
            "workspace lint violations:\n{}",
            render(&hits)
        );
    }

    fn render(hits: &[LintViolation]) -> String {
        hits.iter().map(|v| format!("{v}\n")).collect()
    }
}
