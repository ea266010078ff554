//! tcp-lint — project-specific static analysis for the TCP reproduction.
//!
//! The reproduction's credibility rests on bit-identical determinism and
//! on the typed-error discipline of the library crates. Clippy cannot
//! express those project rules, so this crate encodes them as a
//! dependency-free analysis engine: a hand-rolled lexer ([`lexer`]) and
//! recursive-descent parser ([`ast`]) walk every workspace source file;
//! the lexical checks in [`lints`] anchor to exact token shapes, while
//! the semantic checks in [`semantic`] run over a workspace symbol table
//! and function call graph ([`symbols`]) — panic reachability through
//! public APIs, stat-counter conservation, exhaustive dispatch over
//! closed enums, and discarded `Result`s.
//!
//! Run it over the workspace (CI does exactly this, and a nonzero exit
//! gates the build):
//!
//! ```text
//! cargo run -p tcp-lint -- --workspace
//! ```
//!
//! Individual findings are waived per site with a justified comment on
//! the offending line or the line above; see [`lints`] for the syntax,
//! [`lints::ALL_LINTS`] for the lint names, and `tcp-lint --waivers` for
//! the live suppression-debt report.

#![forbid(unsafe_code)]

pub mod ast;
pub mod cfg;
pub mod dataflow;
pub mod lexer;
pub mod lints;
pub mod semantic;
pub mod summaries;
pub mod symbols;

pub use lints::{lint_about, lint_file, FileKind, FileSpec, Finding, ALL_LINTS};

use lints::{
    lint_file_tracked, scan_directives, suppressed_by, test_mask, Suppressions, BAD_SUPPRESSION,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file handed to [`analyze_files`].
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full source text.
    pub src: String,
}

/// One active suppression, for the `--waivers` debt report.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// Lint names the directive waives.
    pub lints: Vec<String>,
    /// The justification text after the `allow(...)`.
    pub reason: String,
    /// Whether the waived lint no longer fires on the covered lines —
    /// a rotten suppression that should be deleted.
    pub stale: bool,
}

/// Result of a whole-workspace analysis.
pub struct WorkspaceReport {
    /// All findings (lexical + semantic), suppression-filtered and
    /// sorted by (path, line, col, lint).
    pub findings: Vec<Finding>,
    /// Every active waiver, sorted by (path, line).
    pub waivers: Vec<Waiver>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Source directories scanned in workspace mode: the root package, the
/// out-of-workspace `proptests/` tree (excluded from the build because
/// it needs crates.io to *compile*, not to lint), and every member the
/// root `Cargo.toml` declares — so adding a crate to the workspace adds
/// it to lint coverage in the same edit. Manifest `exclude` entries are
/// honored; lint fixtures are
/// deliberately-bad code and are skipped at collection time. A manifest
/// with no parseable members (synthetic test workspaces) falls back to
/// listing `crates/` directly.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let members = expand_member_globs(root, &toml_str_array(&manifest, "members"));
    let exclude = expand_member_globs(root, &toml_str_array(&manifest, "exclude"));

    let mut dirs: Vec<PathBuf> = vec![
        root.join("src"),
        root.join("tests"),
        root.join("examples"),
        root.join("proptests").join("src"),
        root.join("proptests").join("tests"),
    ];
    let mut crate_dirs: Vec<PathBuf> = members
        .iter()
        .filter(|m| !exclude.contains(m))
        .map(|m| root.join(m))
        .collect();
    if crate_dirs.is_empty() {
        // Fallback: no members declared — list `crates/` directly.
        let crates = root.join("crates");
        if crates.is_dir() {
            for entry in fs::read_dir(&crates)? {
                let entry = entry?;
                if entry.path().is_dir() {
                    crate_dirs.push(entry.path());
                }
            }
        }
    }
    crate_dirs.sort();
    for c in crate_dirs {
        dirs.push(c.join("src"));
        dirs.push(c.join("tests"));
        dirs.push(c.join("examples"));
    }

    let mut files = Vec::new();
    for d in dirs {
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Extracts the string elements of a `key = [ "…", … ]` TOML array,
/// tolerating the array spanning multiple lines. Good enough for the
/// workspace `members`/`exclude` arrays; anything unparseable yields an
/// empty list (and the caller falls back to directory listing).
fn toml_str_array(manifest: &str, key: &str) -> Vec<String> {
    let mut in_array = false;
    let mut body = String::new();
    for line in manifest.lines() {
        let trimmed = line.trim();
        if !in_array {
            let Some(rest) = trimmed.strip_prefix(key) else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('=') else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('[') else {
                continue;
            };
            body.push_str(rest);
            in_array = true;
        } else {
            body.push_str(trimmed);
        }
        if let Some(end) = body.find(']') {
            body.truncate(end);
            break;
        }
    }
    let mut out = Vec::new();
    let mut rest = body.as_str();
    while let Some(q1) = rest.find('"') {
        let Some(len) = rest[q1 + 1..].find('"') else {
            break;
        };
        out.push(rest[q1 + 1..q1 + 1 + len].to_owned());
        rest = &rest[q1 + 1 + len + 1..];
    }
    out
}

/// Expands `prefix/*` member globs against the filesystem; plain
/// entries pass through. Results are workspace-relative `/`-separated
/// strings, sorted for determinism.
fn expand_member_globs(root: &Path, patterns: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for p in patterns {
        if let Some(prefix) = p.strip_suffix("/*") {
            let Ok(entries) = fs::read_dir(root.join(prefix)) else {
                continue;
            };
            for entry in entries.flatten() {
                if entry.path().is_dir() {
                    if let Some(name) = entry.file_name().to_str() {
                        out.push(format!("{prefix}/{name}"));
                    }
                }
            }
        } else {
            out.push(p.clone());
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // Fixtures are known-bad inputs for the lint tests.
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Derives a [`FileSpec`] from a workspace-relative path like
/// `crates/cache/src/tlb.rs` or `tests/golden.rs`.
pub fn spec_for_path(rel: &str) -> FileSpec<'_> {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_dir = parts
        .windows(2)
        .find(|w| w[0] == "crates")
        .map(|w| w[1])
        .unwrap_or("");
    let kind = if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else if parts.contains(&"bin") || parts.last().is_some_and(|f| *f == "main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    let crate_root = rel.ends_with("src/lib.rs");
    FileSpec {
        path: rel,
        crate_dir,
        kind,
        crate_root,
    }
}

/// Lints one on-disk file given the workspace root; `path` must live
/// under `root`. Lexical passes only — the semantic passes need the
/// whole workspace ([`analyze_files`] / [`analyze_workspace`]).
pub fn lint_path(root: &Path, path: &Path) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(path)?;
    let rel = rel_path(root, path);
    let spec = spec_for_path(&rel);
    Ok(lint_file(&spec, &src))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Per-file artifacts shared by the lexical and semantic stages.
struct Prepared {
    lx: lexer::Lexed,
    mask: Vec<bool>,
    ast: ast::Ast,
    sups: Suppressions,
}

fn prepare(f: &SourceFile) -> Prepared {
    let spec = spec_for_path(&f.rel_path);
    let lx = lexer::lex(&f.src);
    let mask = test_mask(&lx.tokens, spec.kind);
    let ast = ast::parse(&lx.tokens, &mask);
    let sups = scan_directives(&lx).sups;
    Prepared {
        lx,
        mask,
        ast,
        sups,
    }
}

/// Lexed + parsed workspace sources with the analysis stages exposed
/// individually, so `tcp-perf` can time parse / semantic / dataflow as
/// separate cases. [`analyze_files`] composes the same stages.
pub struct ParsedWorkspace {
    files: Vec<SourceFile>,
    prepared: Vec<Prepared>,
}

impl ParsedWorkspace {
    /// Stage 1: lex, test-mask, parse, and directive-scan every file.
    pub fn parse(files: Vec<SourceFile>) -> Self {
        let prepared = files.iter().map(prepare).collect();
        ParsedWorkspace { files, prepared }
    }

    /// Total token count across files — a cheap determinism checksum
    /// for the parse stage.
    pub fn token_count(&self) -> u64 {
        self.prepared.iter().map(|p| p.lx.tokens.len() as u64).sum()
    }

    fn inputs(&self) -> Vec<symbols::FileInput<'_>> {
        self.files
            .iter()
            .zip(&self.prepared)
            .map(|(f, p)| {
                let spec = spec_for_path(&f.rel_path);
                symbols::FileInput {
                    path: &f.rel_path,
                    crate_dir: spec.crate_dir,
                    kind: spec.kind,
                    toks: &p.lx.tokens,
                    in_test: &p.mask,
                    ast: &p.ast,
                }
            })
            .collect()
    }

    fn sem_inputs<'a>(
        &'a self,
        inputs: &[symbols::FileInput<'a>],
    ) -> Vec<semantic::SemanticInput<'a>> {
        inputs
            .iter()
            .zip(&self.files)
            .zip(&self.prepared)
            .map(|((fi, f), p)| semantic::SemanticInput {
                file: *fi,
                lines: f.src.lines().collect(),
                sups: &p.sups,
            })
            .collect()
    }

    /// Stage 2: symbol table + the AST/call-graph lint passes.
    pub fn semantic_core(&self) -> Vec<Finding> {
        let inputs = self.inputs();
        let ws = symbols::build(&inputs);
        let sem = self.sem_inputs(&inputs);
        semantic::run_core(&ws, &sem, &mut BTreeMap::new())
    }

    /// Stage 3: the dataflow + interprocedural summary passes.
    pub fn dataflow(&self) -> Vec<Finding> {
        let inputs = self.inputs();
        let ws = symbols::build(&inputs);
        let sem = self.sem_inputs(&inputs);
        semantic::run_dataflow(&ws, &sem)
    }
}

/// Runs the full analysis — all lexical passes per file, then the
/// semantic passes over the workspace graph — and returns
/// suppression-filtered findings sorted by (path, line, col, lint).
pub fn analyze_files(files: &[SourceFile]) -> Vec<Finding> {
    analyze_files_tracked(files, &mut BTreeMap::new())
}

/// [`analyze_files`], additionally recording into `used` the directive
/// lines (per file path) whose waiver suppressed at least one finding —
/// the complement is the stale-waiver set.
pub fn analyze_files_tracked(
    files: &[SourceFile],
    used: &mut BTreeMap<String, BTreeSet<u32>>,
) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    let mut prepared: Vec<Prepared> = Vec::with_capacity(files.len());
    for f in files {
        let spec = spec_for_path(&f.rel_path);
        let used_here = used.entry(f.rel_path.clone()).or_default();
        findings.extend(lint_file_tracked(&spec, &f.src, used_here));
        prepared.push(prepare(f));
    }

    let inputs: Vec<symbols::FileInput<'_>> = files
        .iter()
        .zip(&prepared)
        .map(|(f, p)| {
            let spec = spec_for_path(&f.rel_path);
            symbols::FileInput {
                path: &f.rel_path,
                crate_dir: spec.crate_dir,
                kind: spec.kind,
                toks: &p.lx.tokens,
                in_test: &p.mask,
                ast: &p.ast,
            }
        })
        .collect();
    let ws = symbols::build(&inputs);
    let sem_inputs: Vec<semantic::SemanticInput<'_>> = inputs
        .iter()
        .zip(files)
        .zip(&prepared)
        .map(|((fi, f), p)| semantic::SemanticInput {
            file: *fi,
            lines: f.src.lines().collect(),
            sups: &p.sups,
        })
        .collect();
    let semantic_findings = semantic::run(&ws, &sem_inputs, used);

    let sups_by_path: BTreeMap<&str, &Suppressions> = files
        .iter()
        .zip(&prepared)
        .map(|(f, p)| (f.rel_path.as_str(), &p.sups))
        .collect();
    findings.extend(semantic_findings.into_iter().filter(|f| {
        let Some(sups) = sups_by_path.get(f.path.as_str()) else {
            return true;
        };
        match suppressed_by(sups, f) {
            Some(line) => {
                used.entry(f.path.clone()).or_default().insert(line);
                false
            }
            None => true,
        }
    }));
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));
    findings.dedup_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint) == (b.path.as_str(), b.line, b.col, b.lint)
    });
    findings
}

/// Collects every active waiver across `files`, sorted by (path, line).
pub fn collect_waivers(files: &[SourceFile]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for f in files {
        let lx = lexer::lex(&f.src);
        for (line, lints, reason) in scan_directives(&lx).waivers {
            out.push(Waiver {
                path: f.rel_path.clone(),
                line,
                lints,
                reason,
                stale: false,
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Reads every workspace source under `root` and runs [`analyze_files`]
/// plus the waiver scan over it.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let paths = workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        files.push(SourceFile {
            rel_path: rel_path(root, p),
            src: fs::read_to_string(p)?,
        });
    }
    let mut used: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    let findings = analyze_files_tracked(&files, &mut used);
    let mut waivers = collect_waivers(&files);
    // A site that already trips `bad-suppression` must not also count
    // as a stale waiver — one broken directive line is one unit of
    // debt, not two (`check-lint.sh` weights stale waivers double).
    let bad_sites: BTreeSet<(&str, u32)> = findings
        .iter()
        .filter(|f| f.lint == BAD_SUPPRESSION)
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    for w in &mut waivers {
        w.stale = !used
            .get(&w.path)
            .is_some_and(|lines| lines.contains(&w.line))
            && !bad_sites.contains(&(w.path.as_str(), w.line));
    }
    Ok(WorkspaceReport {
        findings,
        waivers,
        files_scanned: files.len(),
    })
}

/// Renders findings for humans: one position line plus the snippet.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            f.path, f.line, f.col, f.lint, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    {}\n", f.snippet));
        }
    }
    out
}

/// Renders findings as a JSON array (stable field order, sorted input).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\":{},\"line\":{},\"col\":{},\"lint\":{},\"message\":{},\"snippet\":{}}}",
            json_str(&f.path),
            f.line,
            f.col,
            json_str(f.lint),
            json_str(&f.message),
            json_str(&f.snippet)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders findings as a SARIF 2.1.0 log (the GitHub code-scanning
/// ingestion format), built on `tcp-json`'s canonical writer so the
/// output is byte-stable for identical findings. One run, one result
/// per finding, one rule per lint name with its one-line description.
pub fn render_sarif(findings: &[Finding]) -> String {
    use tcp_json::Json;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
    fn s(text: &str) -> Json {
        Json::Str(text.to_owned())
    }
    fn text(t: &str) -> Json {
        obj(vec![("text", s(t))])
    }

    let rules: Vec<Json> = ALL_LINTS
        .iter()
        .map(|&name| {
            obj(vec![
                ("id", s(name)),
                ("shortDescription", text(lint_about(name))),
            ])
        })
        .collect();
    let results: Vec<Json> = findings
        .iter()
        .map(|f| {
            obj(vec![
                ("ruleId", s(f.lint)),
                ("level", s("error")),
                ("message", text(&f.message)),
                (
                    "locations",
                    Json::Arr(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            ("artifactLocation", obj(vec![("uri", s(&f.path))])),
                            (
                                "region",
                                obj(vec![
                                    ("startLine", Json::Num(f.line as f64)),
                                    ("startColumn", Json::Num(f.col as f64)),
                                ]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let driver = obj(vec![
        ("name", s("tcp-lint")),
        ("informationUri", s("https://github.com/tcp-repro/tcp")),
        ("rules", Json::Arr(rules)),
    ]);
    let run = obj(vec![
        ("tool", obj(vec![("driver", driver)])),
        ("results", Json::Arr(results)),
    ]);
    let log = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        ("runs", Json::Arr(vec![run])),
    ]);
    let mut out = tcp_json::to_string(&log);
    out.push('\n');
    out
}

/// Renders the waiver debt report: one line per directive plus totals
/// (`scripts/check-lint.sh` caps `total` + `stale` so debt cannot grow
/// silently and suppressions cannot rot in place).
pub fn render_waivers(waivers: &[Waiver]) -> String {
    let mut out = String::new();
    for w in waivers {
        out.push_str(&format!(
            "{}:{}  {}  — {}{}\n",
            w.path,
            w.line,
            w.lints.join(","),
            w.reason,
            if w.stale {
                "  [STALE: lint no longer fires here — delete this waiver]"
            } else {
                ""
            }
        ));
    }
    out.push_str(&format!("total: {} waivers\n", waivers.len()));
    out.push_str(&format!(
        "stale: {} waivers\n",
        waivers.iter().filter(|w| w.stale).count()
    ));
    out
}

/// Renders findings as GitHub Actions workflow commands, one `::error`
/// annotation per finding, so CI surfaces them inline on the PR diff.
pub fn render_gh(findings: &[Finding]) -> String {
    // Workflow-command escaping: data escapes %/\r/\n; property values
    // additionally escape `:` and `,`.
    fn esc_data(s: &str) -> String {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    }
    fn esc_prop(s: &str) -> String {
        esc_data(s).replace(':', "%3A").replace(',', "%2C")
    }
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "::error file={},line={},col={},title={}::{}\n",
            esc_prop(&f.path),
            f.line,
            f.col,
            esc_prop(&format!("tcp-lint {}", f.lint)),
            esc_data(&f.message)
        ));
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
