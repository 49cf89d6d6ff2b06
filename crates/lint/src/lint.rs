use std::path::{Path, PathBuf};

/// The rule identifiers, in `--explain` order.
pub const RULES: [&str; 6] = [
    "atomic-ordering",
    "thread-spawn",
    "process-spawn",
    "forbid-unsafe",
    "no-unwrap",
    "no-deprecated",
];

/// Long-form explanation for `--explain <rule>`; `None` for unknown rules.
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        "atomic-ordering" => Some(
            "atomic-ordering: `Ordering::` literals (Relaxed/Acquire/Release/AcqRel/SeqCst)\n\
             are only allowed in crates/telemetry/src and crates/verify/src, in test code,\n\
             or under `// lint: allow(atomic-ordering): <why>`. Memory orderings are part of\n\
             a protocol; scattering them keeps the sesr-verify models from being the single\n\
             place the protocols are written down. Prefer the telemetry primitives\n\
             (Counter, Gauge, Histogram, EventRing) over raw atomics.",
        ),
        "thread-spawn" => Some(
            "thread-spawn: `thread::spawn` and `thread::Builder` are confined to the\n\
             serving-stack infrastructure (crates/serve shard/reload/slo/telemetry modules,\n\
             the crates/net reactor, the crates/cluster supervisor and front) and the\n\
             sesr-verify scheduler, plus test code. Ad-hoc threads bypass the\n\
             drain/retire and telemetry machinery; route work through spawn_shard or the\n\
             evaluation plan's scoped workers instead, or annotate with a justification.",
        ),
        "process-spawn" => Some(
            "process-spawn: `Command::new` (spawning child processes) is confined to the\n\
             cluster supervisor (crates/cluster/src) and binary entry points (src/bin),\n\
             plus test code. A child process outlives panics and bypasses every drain/\n\
             shutdown path in the serving stack; the supervisor exists precisely to own\n\
             that lifecycle (stdin tether, restart backoff, health probes). Route process\n\
             management through sesr-cluster, or annotate with a justification.",
        ),
        "forbid-unsafe" => Some(
            "forbid-unsafe: every crate root (src/lib.rs, src/main.rs, src/bin/*.rs,\n\
             examples/*.rs) must carry `#![forbid(unsafe_code)]`. The only exception is\n\
             sesr-testkit, whose counting allocator is the workspace's single audited\n\
             unsafe block.",
        ),
        "no-unwrap" => Some(
            "no-unwrap: non-test code in crates/serve, crates/telemetry and crates/store\n\
             must not call `.unwrap()` or `.expect(\"…\")`. These crates sit in the request\n\
             path; a panic there takes down a worker or poisons a lock other requests\n\
             share. Return an error, restructure with let-else, or recover poisoned locks\n\
             with `unwrap_or_else(PoisonError::into_inner)` as the rest of the stack does.\n\
             Note: only `.expect(` followed by a string literal is flagged, so parser\n\
             helpers like `self.expect(b'[')` are fine.",
        ),
        "no-deprecated" => Some(
            "no-deprecated: no `#[deprecated]` attribute and no `allow(deprecated)` anywhere\n\
             in the workspace, test code included. Every caller of a workspace API lives in\n\
             this repository, so a compatibility shim is deleted in the change that replaces\n\
             it, not parked: a parked shim is a second way to do the same thing that every\n\
             later change must thread through. Move the callers and delete the old item.",
        ),
        _ => None,
    }
}

/// One diagnostic: where, which rule, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`lint_file`] (workspace-relative in the CLI).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier from [`RULES`].
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Blank comments and literal contents out of `source`, preserving byte
/// positions of everything else: comment bytes become spaces, string and
/// char literal *contents* become spaces (their delimiting quotes stay),
/// and newlines always survive, so line numbers and column offsets in the
/// result match the original.
pub fn code_view(source: &str) -> String {
    scan(source, false)
}

/// Like [`code_view`] but keeps comment text: string/char contents are
/// still blanked, so annotation parsing only sees `// lint:` markers that
/// live in real comments, never ones embedded in string literals.
fn annotation_view(source: &str) -> String {
    scan(source, true)
}

fn scan(source: &str, keep_comments: bool) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut state = LexState::Normal;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            LexState::Normal => match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    state = LexState::LineComment;
                    if !keep_comments {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                    }
                    i += 2;
                    continue;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    state = LexState::BlockComment(1);
                    if !keep_comments {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                    }
                    i += 2;
                    continue;
                }
                b'"' => state = LexState::Str,
                b'r' | b'b' => {
                    // Raw (and raw-byte) string openers: r", r#", br", b"…
                    let mut j = i + 1;
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    if b == b'b' && bytes.get(j) == Some(&b'"') {
                        state = LexState::Str;
                        i = j + 1;
                        continue;
                    }
                    if bytes.get(i + 1) == Some(&b'r') || b == b'r' {
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&b'"') {
                            state = LexState::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                    }
                }
                b'\'' => {
                    // A char literal, not a lifetime: a lifetime's tick is
                    // followed by an identifier with no closing tick before
                    // the next non-identifier byte.
                    let next = bytes.get(i + 1).copied().unwrap_or(0);
                    let is_char = if next == b'\\' {
                        true
                    } else {
                        bytes.get(i + 2) == Some(&b'\'')
                            || (!next.is_ascii_alphanumeric() && next != b'_')
                    };
                    if is_char {
                        state = LexState::Char;
                    }
                }
                _ => {}
            },
            LexState::LineComment => {
                if b == b'\n' {
                    state = LexState::Normal;
                } else if !keep_comments {
                    out[i] = b' ';
                }
            }
            LexState::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    if !keep_comments {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                    }
                    i += 2;
                    state = if depth == 1 {
                        LexState::Normal
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    continue;
                }
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    if !keep_comments {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                    }
                    i += 2;
                    state = LexState::BlockComment(depth + 1);
                    continue;
                }
                if b != b'\n' && !keep_comments {
                    out[i] = b' ';
                }
            }
            LexState::Str => match b {
                b'\\' => {
                    out[i] = b' ';
                    if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                        out[i + 1] = b' ';
                    }
                    i += 2;
                    continue;
                }
                b'"' => state = LexState::Normal,
                b'\n' => {}
                _ => out[i] = b' ',
            },
            LexState::RawStr(hashes) => {
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        // Keep the closing quote visible, blank the hashes.
                        i = j;
                        state = LexState::Normal;
                        continue;
                    }
                    out[i] = b' ';
                } else if b != b'\n' {
                    out[i] = b' ';
                }
            }
            LexState::Char => match b {
                b'\\' => {
                    out[i] = b' ';
                    if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                        out[i + 1] = b' ';
                    }
                    i += 2;
                    continue;
                }
                b'\'' => state = LexState::Normal,
                b'\n' => state = LexState::Normal,
                _ => out[i] = b' ',
            },
        }
        i += 1;
    }
    // The scan operates on bytes but only ever replaces ASCII bytes with
    // spaces inside literals/comments, where multi-byte UTF-8 is also
    // blanked byte-by-byte — the result is ASCII-or-blanked and valid.
    String::from_utf8(out).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Annotations and test-code spans
// ---------------------------------------------------------------------------

struct Annotations {
    /// (1-based line, rule) pairs: the annotation covers its line + next.
    line_allows: Vec<(usize, String)>,
    /// Rules the whole file opted out of.
    file_allows: Vec<String>,
    /// Malformed annotations (missing justification / unknown rule).
    findings: Vec<Finding>,
}

fn parse_annotations(path: &Path, source: &str) -> Annotations {
    let view = annotation_view(source);
    let mut annotations = Annotations {
        line_allows: Vec::new(),
        file_allows: Vec::new(),
        findings: Vec::new(),
    };
    for (index, raw_line) in view.lines().enumerate() {
        let line_no = index + 1;
        let Some(at) = raw_line.find("// lint: ") else {
            continue;
        };
        let directive = raw_line[at + "// lint: ".len()..].trim();
        let (file_level, rest) = if let Some(rest) = directive.strip_prefix("allow-file(") {
            (true, rest)
        } else if let Some(rest) = directive.strip_prefix("allow(") {
            (false, rest)
        } else {
            annotations.findings.push(Finding {
                path: path.to_path_buf(),
                line: line_no,
                rule: "annotation",
                message: format!("unrecognized lint directive `{directive}`"),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            annotations.findings.push(Finding {
                path: path.to_path_buf(),
                line: line_no,
                rule: "annotation",
                message: "unclosed lint annotation".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let justification = rest[close + 1..].trim_start_matches(':').trim();
        if !RULES.contains(&rule.as_str()) {
            annotations.findings.push(Finding {
                path: path.to_path_buf(),
                line: line_no,
                rule: "annotation",
                message: format!("lint annotation names unknown rule `{rule}`"),
            });
            continue;
        }
        if justification.is_empty() {
            annotations.findings.push(Finding {
                path: path.to_path_buf(),
                line: line_no,
                rule: "annotation",
                message: format!("lint annotation for `{rule}` has no justification"),
            });
            continue;
        }
        if file_level {
            annotations.file_allows.push(rule);
        } else {
            annotations.line_allows.push((line_no, rule));
        }
    }
    annotations
}

impl Annotations {
    fn allows(&self, rule: &str, line: usize) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self
                .line_allows
                .iter()
                .any(|(l, r)| r == rule && (line == *l || line == l + 1))
    }
}

/// 1-based line ranges covered by `#[cfg(test)]` items, computed on the
/// code view by brace matching from each attribute's opening brace.
fn test_spans(view: &str) -> Vec<(usize, usize)> {
    let bytes = view.as_bytes();
    let mut spans = Vec::new();
    let mut search = 0;
    while let Some(found) = view[search..].find("#[cfg(test)]") {
        let attr_at = search + found;
        let mut depth = 0usize;
        let mut i = attr_at;
        let mut opened = false;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    depth += 1;
                    opened = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let start_line = view[..attr_at].matches('\n').count() + 1;
        let end_line = view[..i.min(bytes.len())].matches('\n').count() + 1;
        spans.push((start_line, end_line));
        search = i.min(bytes.len() - 1).max(attr_at + 1);
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans
        .iter()
        .any(|&(start, end)| line >= start && line <= end)
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

fn path_str(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// Whole file is test scaffolding (integration tests).
fn is_test_path(path: &Path) -> bool {
    let p = path_str(path);
    p.contains("/tests/") || p.starts_with("tests/")
}

/// Files allowed to name atomic orderings without annotation: the
/// telemetry primitives and the model checker are *about* orderings.
fn ordering_allowed(path: &Path) -> bool {
    let p = path_str(path);
    p.contains("crates/telemetry/src/") || p.contains("crates/verify/src/")
}

/// Files allowed to start threads (`thread::spawn` or `thread::Builder`)
/// without annotation: the shard worker pool and its serving-stack
/// siblings, and the virtual scheduler.
fn spawn_allowed(path: &Path) -> bool {
    let p = path_str(path);
    p.contains("crates/verify/src/")
        || [
            "crates/serve/src/shard.rs",
            "crates/serve/src/reload.rs",
            "crates/serve/src/slo.rs",
            "crates/serve/src/telemetry.rs",
            "crates/net/src/reactor.rs",
            "crates/cluster/src/supervisor.rs",
            "crates/cluster/src/cluster.rs",
        ]
        .iter()
        .any(|allowed| p.ends_with(allowed))
}

/// Files allowed to spawn child processes without annotation: the cluster
/// supervisor (whose whole job is worker-process lifecycle) and binary
/// entry points (a CLI launching a helper is operator-facing, not
/// request-path code).
fn process_spawn_allowed(path: &Path) -> bool {
    let p = path_str(path);
    p.contains("crates/cluster/src/") || p.contains("/src/bin/") || p.starts_with("src/bin/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
fn is_crate_root(path: &Path) -> bool {
    let p = path_str(path);
    if p.ends_with("src/lib.rs") || p.ends_with("src/main.rs") {
        return true;
    }
    let in_bin_dir = p.rsplit_once('/').is_some_and(|(dir, file)| {
        (dir.ends_with("src/bin") || dir.ends_with("examples") || dir == "examples")
            && file.ends_with(".rs")
    });
    in_bin_dir
}

/// The one crate root whose `unsafe` is audited and allowed.
fn unsafe_allowed(path: &Path) -> bool {
    path_str(path).ends_with("crates/testkit/src/lib.rs")
}

/// Crates whose non-test code must not panic via unwrap/expect.
fn unwrap_scoped(path: &Path) -> bool {
    let p = path_str(path);
    [
        "crates/serve/src/",
        "crates/telemetry/src/",
        "crates/store/src/",
    ]
    .iter()
    .any(|scope| p.contains(scope))
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn ident_at(view: &str, at: usize) -> &str {
    let rest = &view[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    &rest[..end]
}

/// Lint one file's source text. `path` is used for diagnostics and scope
/// classification, so pass it workspace-relative.
pub fn lint_file(path: &Path, source: &str) -> Vec<Finding> {
    let view = code_view(source);
    let annotations = parse_annotations(path, source);
    let mut findings = annotations.findings.clone();
    let spans = test_spans(&view);
    let test_file = is_test_path(path);

    let mut flag = |rule: &'static str, line: usize, message: String| {
        if !annotations.allows(rule, line) {
            findings.push(Finding {
                path: path.to_path_buf(),
                line,
                rule,
                message,
            });
        }
    };

    // forbid-unsafe: crate roots must carry the attribute.
    if is_crate_root(path) && !unsafe_allowed(path) && !view.contains("#![forbid(unsafe_code)]") {
        flag(
            "forbid-unsafe",
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    for (index, line) in view.lines().enumerate() {
        let line_no = index + 1;
        let test_code = test_file || in_spans(&spans, line_no);

        // atomic-ordering
        if !test_code && !ordering_allowed(path) {
            let mut search = 0;
            while let Some(found) = line[search..].find("Ordering::") {
                let at = search + found + "Ordering::".len();
                let variant = ident_at(line, at);
                if ORDERINGS.contains(&variant) {
                    flag(
                        "atomic-ordering",
                        line_no,
                        format!(
                            "`Ordering::{variant}` outside the allow-listed modules \
                             (see --explain atomic-ordering)"
                        ),
                    );
                    break; // one finding per line is enough
                }
                search = at;
            }
        }

        // thread-spawn
        let starts_thread = line.contains("thread::spawn") || line.contains("thread::Builder");
        if !test_code && !spawn_allowed(path) && starts_thread {
            flag(
                "thread-spawn",
                line_no,
                "a thread started outside the serving/verification infrastructure \
                 (see --explain thread-spawn)"
                    .to_string(),
            );
        }

        // process-spawn: `Command::new` with an identifier boundary before
        // it, so `WorkerCommand::new(...)` style constructors never match.
        if !test_code && !process_spawn_allowed(path) {
            let mut search = 0;
            while let Some(found) = line[search..].find("Command::new") {
                let at = search + found;
                let bounded = at == 0
                    || !line.as_bytes()[at - 1].is_ascii_alphanumeric()
                        && line.as_bytes()[at - 1] != b'_';
                if bounded {
                    flag(
                        "process-spawn",
                        line_no,
                        "`Command::new` (child process) outside the cluster supervisor \
                         and binaries (see --explain process-spawn)"
                            .to_string(),
                    );
                    break;
                }
                search = at + "Command::new".len();
            }
        }

        // no-unwrap
        if !test_code && unwrap_scoped(path) {
            if line.contains(".unwrap()") {
                flag(
                    "no-unwrap",
                    line_no,
                    "`.unwrap()` in request-path code (see --explain no-unwrap)".to_string(),
                );
            }
            let mut search = 0;
            while let Some(found) = line[search..].find(".expect(") {
                let at = search + found + ".expect(".len();
                if line[at..].trim_start().starts_with('"') {
                    flag(
                        "no-unwrap",
                        line_no,
                        "`.expect(\"…\")` in request-path code (see --explain no-unwrap)"
                            .to_string(),
                    );
                    break;
                }
                search = at;
            }
        }

        // no-deprecated: test code is not exempt — that is where the
        // `allow(deprecated)` that keeps a shim alive lives.
        if line.contains("#[deprecated") || line.contains("allow(deprecated)") {
            flag(
                "no-deprecated",
                line_no,
                "deprecated item or `allow(deprecated)`: delete the shim and move its \
                 callers (see --explain no-deprecated)"
                    .to_string(),
            );
        }
    }

    findings
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Recursively collect `.rs` files under `root`, skipping `target/` and
/// hidden directories, sorted for deterministic output.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint every source file under `root`; paths in findings are relative to
/// `root`. Returns the findings plus the number of files examined.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut findings = Vec::new();
    let sources = collect_sources(root)?;
    let files = sources.len();
    for path in sources {
        let source = std::fs::read_to_string(&path)?;
        let relative = path.strip_prefix(root).unwrap_or(&path);
        findings.extend(lint_file(relative, &source));
    }
    Ok((findings, files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_view_blanks_comments_and_strings() {
        let source = "let x = 1; // Ordering::Relaxed\nlet s = \"thread::spawn\";\n/* .unwrap() */ let y = 2;\n";
        let view = code_view(source);
        assert!(!view.contains("Ordering::Relaxed"));
        assert!(!view.contains("thread::spawn"));
        assert!(!view.contains(".unwrap()"));
        assert!(view.contains("let x = 1;"));
        assert!(view.contains("let y = 2;"));
        assert_eq!(view.lines().count(), source.lines().count());
    }

    #[test]
    fn code_view_keeps_quotes_and_handles_raw_strings() {
        let source = "let a = \"hi\"; let b = r#\"Ordering::SeqCst\"#; let c = '\\'';\n";
        let view = code_view(source);
        assert!(
            view.contains("\"  \""),
            "string contents blanked, quotes kept"
        );
        assert!(!view.contains("SeqCst"));
        assert_eq!(view.len(), source.len());
    }

    #[test]
    fn expect_with_string_literal_flagged_but_parser_helper_is_not() {
        let source = "fn f() { x.expect(\"boom\"); self.expect(b'[')?; }\n";
        let findings = lint_file(Path::new("crates/serve/src/x.rs"), source);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "no-unwrap");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let source = "fn main() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let findings = lint_file(Path::new("crates/store/src/x.rs"), source);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn annotation_with_justification_silences_and_bare_one_is_flagged() {
        let good = "// lint: allow(atomic-ordering): counter is documented relaxed\nx.store(1, Ordering::Relaxed);\n";
        let findings = lint_file(Path::new("crates/nn/src/x.rs"), good);
        assert!(findings.is_empty(), "{findings:?}");

        let bare = "// lint: allow(atomic-ordering)\nx.store(1, Ordering::Relaxed);\n";
        let findings = lint_file(Path::new("crates/nn/src/x.rs"), bare);
        assert!(
            findings.iter().any(|f| f.message.contains("justification")),
            "{findings:?}"
        );
    }

    #[test]
    fn file_level_allow_covers_whole_file() {
        let source = "// lint: allow-file(atomic-ordering): this module is the ordering hot path\nfn a() { x.store(1, Ordering::Relaxed); }\nfn b() { y.load(Ordering::Acquire); }\n";
        let findings = lint_file(Path::new("crates/nn/src/x.rs"), source);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cmp_ordering_is_not_flagged() {
        let source = "fn f(a: &u32, b: &u32) -> std::cmp::Ordering { a.cmp(b).then(std::cmp::Ordering::Less) }\n";
        let findings = lint_file(Path::new("crates/nn/src/x.rs"), source);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        let findings = lint_file(Path::new("crates/nn/src/lib.rs"), "pub fn f() {}\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "forbid-unsafe");
        assert_eq!(findings[0].line, 1);

        let ok = lint_file(
            Path::new("crates/nn/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn process_spawn_confined_to_cluster_and_bins() {
        let source = "#![forbid(unsafe_code)]\n\
             fn f() { std::process::Command::new(\"worker\").spawn().ok(); }\n";
        let findings = lint_file(Path::new("crates/serve/src/x.rs"), source);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "process-spawn");

        for allowed in [
            "crates/cluster/src/supervisor.rs",
            "crates/bench/src/bin/sesr_clusterd.rs",
            "crates/bench/tests/cluster_e2e.rs",
        ] {
            let findings = lint_file(Path::new(allowed), source);
            assert!(findings.is_empty(), "{allowed}: {findings:?}");
        }

        // An identifier ending in `Command` is a constructor, not a child
        // process.
        let ctor = "fn f() { let c = WorkerCommand::new(3); }\n";
        assert!(lint_file(Path::new("crates/serve/src/x.rs"), ctor).is_empty());
    }

    #[test]
    fn deprecated_attributes_and_allows_are_flagged_even_in_tests() {
        let source = "#[deprecated(note = \"use g\")]\npub fn f() {}\n\
             #[cfg(test)]\n#[allow(deprecated)]\nmod tests {}\n";
        for path in ["crates/nn/src/x.rs", "tests/integration_x.rs"] {
            let findings = lint_file(Path::new(path), source);
            let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
            assert_eq!(lines, [1, 4], "{path}: {findings:?}");
            assert!(findings.iter().all(|f| f.rule == "no-deprecated"));
        }
        // Prose and string literals mentioning the attribute are fine.
        let prose = "// #[deprecated] in a comment\npub const S: &str = \"allow(deprecated)\";\n";
        assert!(lint_file(Path::new("crates/nn/src/x.rs"), prose).is_empty());
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULES {
            assert!(explain(rule).is_some(), "missing explanation for {rule}");
        }
        assert!(explain("nonsense").is_none());
    }
}
