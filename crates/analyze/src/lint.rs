//! Token-level repo-invariant lint for the workspace source tree.
//!
//! The rules encode invariants earlier PRs fixed bugs against, so they
//! stay fixed:
//!
//! * **wall-clock** — no `SystemTime::now` / `Instant::now` outside the
//!   injected-clock module, the bench/profiling harnesses and the one
//!   deadline-polling e2e helper. Everything timing-sensitive takes a
//!   `Clock` (or an explicit `now` parameter) so it is steerable under
//!   test and under the model checker.
//! * **float-format** — no float formatting (`{:.N}`, `{:e}`) inside a
//!   JSON-building string literal of the wire/artifact render files;
//!   `json_number` in `crates/core/src/json.rs` is the one sanctioned
//!   float serializer, keeping artifact bytes exact across round-trips.
//! * **daemon-unwrap** — no `.unwrap(` / `.expect(` in the farm's
//!   request-handling files; a malformed request must map to an HTTP
//!   error, never a daemon panic.
//! * **kind-literal / kind-orphan** — artifact kind strings
//!   (`ncdrf-sweep-shard`-shaped) may appear only as `const … : &str`
//!   initializers, and each such const must be referenced at least
//!   twice outside tests (the renderer *and* the parser), so the two
//!   sides cannot silently disagree.
//! * **version-literal** — wire `version` members must be written from
//!   a named const, never a bare integer literal.
//! * **model-name-literal** — model wire names (`"unified"`, …) may be
//!   spelled out only in the model registry (which owns them) and the
//!   report module (whose budget cell keys its ideal row `"ideal"`);
//!   everywhere else goes through `ModelId` constants or
//!   `ModelRegistry::resolve`, so adding a model never means hunting
//!   stringly-typed call sites.
//! * **spill-hot-clone** — no `.clone(` inside the spill descent's
//!   per-step hot functions ([`SPILL_HOT_FNS`]): the arena/SoA refactor
//!   removed the per-step loop/schedule/lifetime copies, and a clone
//!   creeping back in would silently undo it. Cold exits in those
//!   functions use `.to_owned()`, which reads as a deliberate copy.
//! * **truncating-cast** — no bare `as u32` / `as u16` narrows in the
//!   u32-SoA files (`crates/sched/src/context.rs` and `crates/spill/`)
//!   outside the sanctioned index-constructor helpers
//!   ([`CAST_SANCTIONED`]): every index that crosses into the arena's
//!   u32 space goes through a helper that asserts it fits, closing the
//!   silent-overflow hole a bare cast leaves open.
//! * **dead-allowlist** — every path (and `(file, fn)` pair) in this
//!   lint's own watch tables must still exist in the tree; a refactor
//!   that moves a file or renames a function must update the table, or
//!   the allowlist would silently stop covering anything.
//!
//! The scanner is a small hand-rolled Rust lexer (strings, raw strings,
//! nested block comments, char-vs-lifetime disambiguation), so rules
//! see token sequences, not raw text — a mention of `SystemTime::now`
//! in a comment or a string fixture does not trip the rule. Tokens at
//! and after a `#[cfg(test)]` marker are ignored: unit tests may use
//! whatever they like.

use std::path::{Path, PathBuf};

/// Files (or directory prefixes, ending in `/`) where wall-clock reads
/// are sanctioned.
const WALL_CLOCK_ALLOW: &[&str] = &[
    // The injected-clock abstraction itself: the one sanctioned
    // `SystemTime::now` of the non-bench tree.
    "crates/farm/src/clock.rs",
    // Benchmarks and profiling harnesses measure real elapsed time.
    "crates/bench/",
    "crates/experiments/src/bin/cache_scan.rs",
    // The e2e helper polls a real daemon with a real deadline.
    "tests/farm_e2e.rs",
];

/// The wire/artifact render-and-parse files: everything whose bytes
/// must survive a round-trip exactly.
const WIRE_FILES: &[&str] = &[
    "crates/core/src/json.rs",
    "crates/core/src/report.rs",
    "crates/core/src/artifact.rs",
    "crates/farm/src/api.rs",
    "crates/farm/src/worker.rs",
    "crates/farm/src/http.rs",
];

/// The farm's request-handling files: panics here take the daemon down.
const DAEMON_FILES: &[&str] = &["crates/farm/src/api.rs", "crates/farm/src/http.rs"];

/// The stable model wire names the registry owns. A literal equal to one
/// of these outside [`MODEL_NAME_ALLOW`] is a hardcoded model reference
/// that the registry redesign exists to eliminate.
const MODEL_NAMES: &[&str] = &[
    "ideal",
    "unified",
    "partitioned",
    "swapped",
    "port-limited",
    "compressed",
];

/// Where model-name literals are sanctioned: the registry itself (it
/// defines the names), the report module (its only such literal is the
/// budget cell's `"ideal"` member key, written and read back there), and
/// this file's own watch table.
const MODEL_NAME_ALLOW: &[&str] = &[
    "crates/core/src/model.rs",
    "crates/core/src/report.rs",
    "crates/analyze/src/lint.rs",
];

/// The spill descent's per-step hot functions, as `(file, fn)` pairs:
/// one rewrite + reschedule + requirement round runs through each of
/// these per spill step (one reschedule + requirement per II-escalation
/// rung for the ladder's `extend`), so a `.clone()` of the loop,
/// schedule, DDG or lifetime structures here is a per-step deep copy. Deliberate copies
/// on cold exits spell `.to_owned()` instead; building the returned
/// `Schedule` happens outside this table (`SchedContext::commit`).
const SPILL_HOT_FNS: &[(&str, &str)] = &[
    ("crates/spill/src/spiller.rs", "run_spill_loop"),
    ("crates/spill/src/spiller.rs", "select_victim"),
    ("crates/spill/src/trajectory.rs", "advance"),
    ("crates/spill/src/escalation.rs", "extend"),
    ("crates/sched/src/context.rs", "schedule"),
    ("crates/sched/src/context.rs", "attempt"),
];

/// The files of the u32 SoA index space, watched by the
/// `truncating-cast` rule: `crates/sched/src/context.rs` plus
/// everything under this prefix.
const CAST_WATCH_DIR: &str = "crates/spill/";

/// The sanctioned index-constructor helpers, as `(file, fn)` pairs: the
/// only places in the watched files where `as u32` / `as u16` may be
/// spelled. Each helper asserts the value fits before narrowing, so a
/// grown arena cannot silently wrap an index.
const CAST_SANCTIONED: &[(&str, &str)] = &[
    ("crates/sched/src/context.rs", "idx32"),
    ("crates/sched/src/context.rs", "time32"),
    ("crates/spill/src/spiller.rs", "idx32"),
];

/// One lint violation.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.detail
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    Punct(char),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

/// Lexes `source` into the token stream the rules inspect. Comments and
/// lifetimes produce no tokens; string literals keep their raw inner
/// text (escapes unprocessed — the rules only substring-match).
fn lex(source: &str) -> Vec<Token> {
    let b: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = b.len();
    let bump = |c: char, line: &mut usize| {
        if c == '\n' {
            *line += 1;
        }
    };
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        bump(b[i], &mut line);
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let mut text = String::new();
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        text.push(b[i]);
                        text.push(b[i + 1]);
                        bump(b[i + 1], &mut line);
                        i += 2;
                    } else if b[i] == '"' {
                        i += 1;
                        break;
                    } else {
                        bump(b[i], &mut line);
                        text.push(b[i]);
                        i += 1;
                    }
                }
                tokens.push(Token {
                    tok: Tok::Str(text),
                    line: start_line,
                });
            }
            'r' | 'b' if is_raw_string_start(&b, i) => {
                // r"…", r#"…"#, br#"…"# — find the opening quote, count
                // hashes, then scan to `"` + the same number of hashes.
                let start_line = line;
                let mut j = i;
                while b[j] != 'r' {
                    j += 1;
                }
                j += 1;
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                debug_assert_eq!(b[j], '"');
                j += 1;
                let mut text = String::new();
                while j < n {
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while k < n && b[k] == '#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                    }
                    bump(b[j], &mut line);
                    text.push(b[j]);
                    j += 1;
                }
                i = j;
                tokens.push(Token {
                    tok: Tok::Str(text),
                    line: start_line,
                });
            }
            '\'' => {
                // Lifetime (`'static`) or char literal (`'a'`, `'\n'`).
                if i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
                    let mut j = i + 2;
                    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' {
                        i = j + 1; // char literal like 'a'
                    } else {
                        i = j; // lifetime: emit nothing
                    }
                } else {
                    // Escaped or symbolic char literal.
                    let mut j = i + 1;
                    if j < n && b[j] == '\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < n && b[j] != '\'' {
                        j += 1;
                    }
                    i = j + 1;
                }
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while i < n
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.'
                            && i + 1 < n
                            && b[i + 1].is_ascii_digit()
                            && !text.contains('.')))
                {
                    text.push(b[i]);
                    i += 1;
                }
                tokens.push(Token {
                    tok: Tok::Num(text),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut text = String::new();
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    text.push(b[i]);
                    i += 1;
                }
                tokens.push(Token {
                    tok: Tok::Ident(text),
                    line,
                });
            }
            other => {
                tokens.push(Token {
                    tok: Tok::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }
    tokens
}

fn is_raw_string_start(b: &[char], i: usize) -> bool {
    // r" r# b" (byte strings treated like plain strings elsewhere) br"
    let n = b.len();
    match b[i] {
        'r' => i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#'),
        'b' => {
            if i + 1 < n && b[i + 1] == '"' {
                false // b"…" is an ordinary (byte) string; lex as ident+str
            } else {
                i + 2 < n && b[i + 1] == 'r' && (b[i + 2] == '"' || b[i + 2] == '#')
            }
        }
        _ => false,
    }
}

/// Truncates the token stream at the first `#[cfg(test)]`: unit-test
/// modules sit at the bottom of their files by workspace convention,
/// and nothing after the marker participates in lint rules.
fn strip_tests(tokens: Vec<Token>) -> Vec<Token> {
    let ident = |t: &Token, s: &str| matches!(&t.tok, Tok::Ident(i) if i == s);
    let punct = |t: &Token, c: char| t.tok == Tok::Punct(c);
    for w in 0..tokens.len().saturating_sub(5) {
        if punct(&tokens[w], '#')
            && punct(&tokens[w + 1], '[')
            && ident(&tokens[w + 2], "cfg")
            && punct(&tokens[w + 3], '(')
            && ident(&tokens[w + 4], "test")
        {
            return tokens[..w].to_vec();
        }
    }
    tokens
}

/// Token-index spans of the bodies of the named functions: each span
/// runs from the `fn`'s opening brace to its matching close, so a rule
/// can scope itself inside (or outside) specific function bodies.
fn fn_body_spans(tokens: &[Token], names: &[&str]) -> Vec<(usize, usize)> {
    let ident = |t: &Token, s: &str| matches!(&t.tok, Tok::Ident(i) if i == s);
    let punct = |t: &Token, c: char| t.tok == Tok::Punct(c);
    let mut spans = Vec::new();
    let mut w = 0usize;
    while w + 1 < tokens.len() {
        let hit = ident(&tokens[w], "fn")
            && matches!(&tokens[w + 1].tok, Tok::Ident(name) if names.contains(&name.as_str()));
        if !hit {
            w += 1;
            continue;
        }
        let mut j = w + 2;
        while j < tokens.len() && !punct(&tokens[j], '{') {
            j += 1;
        }
        let start = j;
        let mut depth = 0usize;
        while j < tokens.len() {
            if punct(&tokens[j], '{') {
                depth += 1;
            } else if punct(&tokens[j], '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        spans.push((start, j));
        w = j.max(w + 1);
    }
    spans
}

fn allowed(rel: &str, allowlist: &[&str]) -> bool {
    allowlist
        .iter()
        .any(|a| rel == *a || (a.ends_with('/') && rel.starts_with(a)))
}

fn is_kind_literal(s: &str) -> bool {
    let prefix = concat!("ncdrf", "-");
    match s.strip_prefix(prefix) {
        Some(rest) => {
            !rest.is_empty()
                && rest
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        }
        None => false,
    }
}

fn has_float_format(s: &str) -> bool {
    // `{:.2}`, `{v:.3}`, `{:e}`, `{:E}` — precision or exponent specs.
    let chars: Vec<char> = s.chars().collect();
    for i in 0..chars.len() {
        if chars[i] != ':' {
            continue;
        }
        // Inside a format placeholder? Look back for `{` without `}`.
        let mut j = i;
        let mut in_placeholder = false;
        while j > 0 {
            j -= 1;
            match chars[j] {
                '{' => {
                    in_placeholder = true;
                    break;
                }
                '}' | ' ' | '"' => break,
                _ => {}
            }
        }
        if !in_placeholder {
            continue;
        }
        if matches!(chars.get(i + 1), Some('.') | Some('e') | Some('E')) {
            return true;
        }
    }
    false
}

/// Lints one file's source. `rel` is the repo-relative path with
/// forward slashes; the rules applied depend on it.
pub fn lint_source(rel: &str, source: &str) -> Vec<LintFinding> {
    let tokens = strip_tests(lex(source));
    let mut findings = Vec::new();
    let ident = |t: &Token, s: &str| matches!(&t.tok, Tok::Ident(i) if i == s);
    let punct = |t: &Token, c: char| t.tok == Tok::Punct(c);

    // wall-clock
    if !allowed(rel, WALL_CLOCK_ALLOW) {
        for w in 0..tokens.len().saturating_sub(3) {
            let root = match &tokens[w].tok {
                Tok::Ident(i) if i == "SystemTime" || i == "Instant" => i.clone(),
                _ => continue,
            };
            if punct(&tokens[w + 1], ':')
                && punct(&tokens[w + 2], ':')
                && ident(&tokens[w + 3], "now")
            {
                findings.push(LintFinding {
                    path: rel.to_owned(),
                    line: tokens[w].line,
                    rule: "wall-clock",
                    detail: format!(
                        "`{root}::now` outside the injected-clock allowlist; take a `Clock` \
                         or an explicit `now` parameter instead"
                    ),
                });
            }
        }
    }

    // float-format (wire files only): a float spec inside a string that
    // also builds JSON (contains a quote).
    if WIRE_FILES.contains(&rel) {
        for t in &tokens {
            if let Tok::Str(s) = &t.tok {
                if has_float_format(s) && s.contains('"') {
                    findings.push(LintFinding {
                        path: rel.to_owned(),
                        line: t.line,
                        rule: "float-format",
                        detail: "float formatting inside a JSON-building literal; \
                                 route the value through `json_number`"
                            .to_owned(),
                    });
                }
            }
        }
    }

    // daemon-unwrap
    if DAEMON_FILES.contains(&rel) {
        for w in 0..tokens.len().saturating_sub(2) {
            if punct(&tokens[w], '.')
                && (ident(&tokens[w + 1], "unwrap") || ident(&tokens[w + 1], "expect"))
                && punct(&tokens[w + 2], '(')
            {
                findings.push(LintFinding {
                    path: rel.to_owned(),
                    line: tokens[w + 1].line,
                    rule: "daemon-unwrap",
                    detail: "panic path in request handling; map the failure to an \
                             HTTP error instead"
                        .to_owned(),
                });
            }
        }
    }

    // kind-literal / kind-orphan / version-literal: library sources only.
    let in_crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    if in_crate_src {
        let mut kind_consts: Vec<(String, usize)> = Vec::new();
        for w in 0..tokens.len() {
            let Tok::Str(s) = &tokens[w].tok else {
                continue;
            };
            if !is_kind_literal(s) {
                continue;
            }
            // A definition looks like: const NAME : & str = "ncdrf-…"
            // (the `'static` lifetime, if any, lexes to nothing).
            let is_def = w >= 6
                && ident(&tokens[w - 6], "const")
                && matches!(&tokens[w - 5].tok, Tok::Ident(_))
                && punct(&tokens[w - 4], ':')
                && punct(&tokens[w - 3], '&')
                && ident(&tokens[w - 2], "str")
                && punct(&tokens[w - 1], '=');
            if is_def {
                if let Tok::Ident(name) = &tokens[w - 5].tok {
                    kind_consts.push((name.clone(), tokens[w].line));
                }
            } else {
                findings.push(LintFinding {
                    path: rel.to_owned(),
                    line: tokens[w].line,
                    rule: "kind-literal",
                    detail: format!(
                        "artifact kind `{s}` written as a bare literal; renderers and \
                         parsers must share a named const"
                    ),
                });
            }
        }
        for (name, line) in &kind_consts {
            let uses = tokens
                .iter()
                .filter(|t| matches!(&t.tok, Tok::Ident(i) if i == name))
                .count();
            // Definition + renderer + parser = at least 3 mentions.
            if uses < 3 {
                findings.push(LintFinding {
                    path: rel.to_owned(),
                    line: *line,
                    rule: "kind-orphan",
                    detail: format!(
                        "kind const `{name}` referenced {} time(s); renderer and parser \
                         must both use it",
                        uses.saturating_sub(1)
                    ),
                });
            }
        }
    }
    // model-name-literal: the registry resolves names; everything else
    // goes through `ModelId` constants or `ModelRegistry::resolve`.
    if in_crate_src && !allowed(rel, MODEL_NAME_ALLOW) {
        for t in &tokens {
            if let Tok::Str(s) = &t.tok {
                if MODEL_NAMES.contains(&s.as_str()) {
                    findings.push(LintFinding {
                        path: rel.to_owned(),
                        line: t.line,
                        rule: "model-name-literal",
                        detail: format!(
                            "model wire name `{s}` hardcoded outside the registry; use a \
                             `ModelId` constant or `ModelRegistry::resolve`"
                        ),
                    });
                }
            }
        }
    }
    // spill-hot-clone: `.clone(` inside a hot spill-step function body.
    let hot_fns: Vec<&str> = SPILL_HOT_FNS
        .iter()
        .filter(|(f, _)| *f == rel)
        .map(|(_, name)| *name)
        .collect();
    if !hot_fns.is_empty() {
        let mut w = 0usize;
        while w + 1 < tokens.len() {
            // A definition site: `fn <name>` with the name in the hot
            // table (call sites never have an `fn` ident in front).
            let is_hot_def = ident(&tokens[w], "fn")
                && matches!(&tokens[w + 1].tok, Tok::Ident(name) if hot_fns.contains(&name.as_str()));
            if !is_hot_def {
                w += 1;
                continue;
            }
            let fn_name = match &tokens[w + 1].tok {
                Tok::Ident(name) => name.clone(),
                _ => unreachable!("matched an ident above"),
            };
            // Skip the signature, then walk the brace-balanced body.
            let mut j = w + 2;
            while j < tokens.len() && !punct(&tokens[j], '{') {
                j += 1;
            }
            let mut depth = 0usize;
            while j < tokens.len() {
                if punct(&tokens[j], '{') {
                    depth += 1;
                } else if punct(&tokens[j], '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if punct(&tokens[j], '.')
                    && j + 2 < tokens.len()
                    && ident(&tokens[j + 1], "clone")
                    && punct(&tokens[j + 2], '(')
                {
                    findings.push(LintFinding {
                        path: rel.to_owned(),
                        line: tokens[j + 1].line,
                        rule: "spill-hot-clone",
                        detail: format!(
                            "`.clone()` inside the spill-step hot function `{fn_name}`; \
                             reuse the arena scratch, or spell a deliberate cold-path \
                             copy `.to_owned()`"
                        ),
                    });
                }
                j += 1;
            }
            w = j.max(w + 1);
        }
    }

    // truncating-cast: a bare `as u32` / `as u16` narrow in the u32-SoA
    // files, outside the sanctioned index-constructor helpers.
    if rel == "crates/sched/src/context.rs" || rel.starts_with(CAST_WATCH_DIR) {
        let sanctioned: Vec<&str> = CAST_SANCTIONED
            .iter()
            .filter(|(f, _)| *f == rel)
            .map(|(_, name)| *name)
            .collect();
        let spans = fn_body_spans(&tokens, &sanctioned);
        for w in 0..tokens.len().saturating_sub(1) {
            let narrow = ident(&tokens[w], "as")
                && matches!(&tokens[w + 1].tok, Tok::Ident(t) if t == "u32" || t == "u16");
            if !narrow || spans.iter().any(|&(s, e)| w > s && w < e) {
                continue;
            }
            let target = match &tokens[w + 1].tok {
                Tok::Ident(t) => t.clone(),
                _ => unreachable!("matched an ident above"),
            };
            findings.push(LintFinding {
                path: rel.to_owned(),
                line: tokens[w].line,
                rule: "truncating-cast",
                detail: format!(
                    "bare `as {target}` narrow outside the sanctioned index constructors; \
                     route the value through `idx32`/`time32` so an oversized index \
                     asserts instead of wrapping"
                ),
            });
        }
    }

    if WIRE_FILES.contains(&rel) {
        for w in 0..tokens.len().saturating_sub(2) {
            if matches!(&tokens[w].tok, Tok::Str(s) if s == "version")
                && punct(&tokens[w + 1], ',')
                && matches!(&tokens[w + 2].tok, Tok::Num(_))
            {
                findings.push(LintFinding {
                    path: rel.to_owned(),
                    line: tokens[w].line,
                    rule: "version-literal",
                    detail: "wire `version` written from a bare integer; use the \
                             format-version const"
                        .to_owned(),
                });
            }
        }
    }

    findings
}

/// Checks this lint's own watch tables against the tree rooted at
/// `root`: a path entry that no longer exists, or a `(file, fn)` entry
/// whose function is no longer defined in that file, is a
/// `dead-allowlist` finding. Findings point into this file, at the
/// first line that spells the dead entry, so the fix is one click away.
fn dead_allowlist_findings(root: &Path) -> Vec<LintFinding> {
    const SELF: &str = "crates/analyze/src/lint.rs";
    // Locate `entry` in this lint's own source so the finding carries a
    // real line; the tables are string literals, so a plain substring
    // scan finds them.
    let own_source = std::fs::read_to_string(root.join(SELF)).unwrap_or_default();
    let line_of = |entry: &str| -> usize {
        own_source
            .lines()
            .position(|l| l.contains(entry))
            .map_or(1, |i| i + 1)
    };
    let mut findings = Vec::new();
    let mut dead = |entry: &str, detail: String| {
        findings.push(LintFinding {
            path: SELF.to_owned(),
            line: line_of(entry),
            rule: "dead-allowlist",
            detail,
        });
    };

    let path_tables: &[(&str, &[&str])] = &[
        ("WALL_CLOCK_ALLOW", WALL_CLOCK_ALLOW),
        ("WIRE_FILES", WIRE_FILES),
        ("DAEMON_FILES", DAEMON_FILES),
        ("MODEL_NAME_ALLOW", MODEL_NAME_ALLOW),
    ];
    for (table, entries) in path_tables {
        for entry in *entries {
            let target = root.join(entry);
            let alive = if entry.ends_with('/') {
                target.is_dir()
            } else {
                target.is_file()
            };
            if !alive {
                dead(
                    entry,
                    format!("`{table}` allowlists `{entry}`, which no longer exists"),
                );
            }
        }
    }

    let fn_tables: &[(&str, &[(&str, &str)])] = &[
        ("SPILL_HOT_FNS", SPILL_HOT_FNS),
        ("CAST_SANCTIONED", CAST_SANCTIONED),
    ];
    for (table, entries) in fn_tables {
        for (file, name) in *entries {
            let Ok(source) = std::fs::read_to_string(root.join(file)) else {
                dead(
                    file,
                    format!("`{table}` names `{file}`, which no longer exists"),
                );
                continue;
            };
            let tokens = lex(&source);
            let ident = |t: &Token, s: &str| matches!(&t.tok, Tok::Ident(i) if i == s);
            let defined = (0..tokens.len().saturating_sub(1)).any(|w| {
                ident(&tokens[w], "fn") && matches!(&tokens[w + 1].tok, Tok::Ident(i) if i == name)
            });
            if !defined {
                dead(
                    name,
                    format!("`{table}` names `fn {name}`, no longer defined in `{file}`"),
                );
            }
        }
    }
    findings
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Lints the workspace rooted at `root`: every `.rs` file under
/// `crates/`, `tests/` and `examples/` (the vendored stand-ins under
/// `vendor/` are third-party API surface, not workspace code).
///
/// # Errors
///
/// `root` not containing a `crates/` directory (wrong invocation dir).
pub fn lint_tree(root: &Path) -> Result<Vec<LintFinding>, String> {
    if !root.join("crates").is_dir() {
        return Err(format!(
            "{} does not look like the workspace root (no crates/)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    for sub in ["crates", "tests", "examples"] {
        walk(&root.join(sub), &mut files);
    }
    let mut findings = dead_allowlist_findings(root);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(lint_source(&rel, &source));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lexer_sees_through_comments_strings_and_lifetimes() {
        let src = r##"
            // Instant::now in a comment
            /* SystemTime::now in /* a nested */ block */
            fn f<'a>(x: &'a str) -> char {
                let _s = "Instant::now inside a string";
                let _r = r#"SystemTime::now inside a raw string"#;
                'x'
            }
        "##;
        assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_reads_are_flagged_outside_the_allowlist() {
        let src = "fn f() { let _ = std::time::Instant::now(); }";
        let found = lint_source("crates/core/src/lib.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "wall-clock");
        assert!(lint_source("crates/bench/benches/x.rs", src).is_empty());
        assert!(lint_source("tests/farm_e2e.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { let _ = Instant::now(); } }";
        assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn float_formatting_in_json_literals_is_flagged() {
        let json = "fn f(v: f64) -> String { format!(\"\\\"mean\\\":{:.3}\", v) }";
        let found = lint_source("crates/core/src/json.rs", json);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "float-format");
        // CSV-style float formatting (no quotes) is not wire bytes.
        let csv = "fn f(v: f64) -> String { format!(\"{},{:.2}\", 1, v) }";
        assert!(lint_source("crates/core/src/report.rs", csv).is_empty());
        // Non-wire files may format floats freely.
        assert!(lint_source("crates/core/src/distribution.rs", json).is_empty());
    }

    #[test]
    fn daemon_unwraps_are_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let found = lint_source("crates/farm/src/api.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "daemon-unwrap");
        assert!(lint_source("crates/farm/src/farm.rs", src).is_empty());
        // unwrap_or is a different, total, method.
        let total = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
        assert!(lint_source("crates/farm/src/api.rs", total).is_empty());
    }

    #[test]
    fn kind_strings_must_be_shared_consts() {
        let bare = concat!("fn f() -> &'static str { \"", "ncdrf", "-bogus-kind\" }");
        let found = lint_source("crates/core/src/report.rs", bare);
        assert!(found.iter().any(|f| f.rule == "kind-literal"), "{found:?}");

        let shared = concat!(
            "const K: &str = \"",
            "ncdrf",
            "-good-kind\";\n",
            "fn render() -> &'static str { K }\n",
            "fn parse(s: &str) -> bool { s == K }\n"
        );
        assert!(lint_source("crates/core/src/report.rs", shared).is_empty());

        let orphan = concat!(
            "const K: &str = \"",
            "ncdrf",
            "-lonely-kind\";\n",
            "fn render() -> &'static str { K }\n"
        );
        let found = lint_source("crates/core/src/report.rs", orphan);
        assert!(found.iter().any(|f| f.rule == "kind-orphan"), "{found:?}");
    }

    #[test]
    fn bare_version_literals_are_flagged() {
        let src = "fn f(o: &mut J) { o.integer(\"version\", 3); }";
        let found = lint_source("crates/core/src/report.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "version-literal");
        let good = "fn f(o: &mut J) { o.integer(\"version\", SHARD_VERSION); }";
        assert!(lint_source("crates/core/src/report.rs", good).is_empty());
    }

    #[test]
    fn clones_in_spill_hot_functions_are_flagged() {
        let seeded = "fn run_spill_loop(l: &Loop) -> Loop {\n\
                      let current = l.clone();\n\
                      current\n}";
        let found = lint_source("crates/spill/src/spiller.rs", seeded);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "spill-hot-clone");
        assert!(found[0].detail.contains("run_spill_loop"));

        // `.to_owned()` is the sanctioned cold-path copy.
        let cold = "fn run_spill_loop(l: &Loop) -> Loop { l.to_owned() }";
        assert!(lint_source("crates/spill/src/spiller.rs", cold).is_empty());

        // Clones outside the hot functions of a watched file are fine.
        let elsewhere = "fn take_current(l: &Loop) -> Loop { l.clone() }";
        assert!(lint_source("crates/spill/src/spiller.rs", elsewhere).is_empty());

        // Unwatched files may clone freely.
        let seeded_elsewhere = "fn run_spill_loop(l: &Loop) -> Loop { l.clone() }";
        assert!(lint_source("crates/spill/src/rewrite.rs", seeded_elsewhere).is_empty());

        // Nested blocks inside the hot body are still scanned; code
        // after the body is not.
        let nested = "fn advance(&mut self) {\n\
                      if x { let s = self.sched.clone(); }\n}\n\
                      fn cold(&self) -> Loop { self.l.clone() }";
        let found = lint_source("crates/spill/src/trajectory.rs", nested);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn model_name_literals_are_flagged_outside_the_registry() {
        let src = "fn pick() -> &'static str { \"port-limited\" }";
        let found = lint_source("crates/experiments/src/bin/shard_runner.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "model-name-literal");
        assert!(found[0].detail.contains("port-limited"));
        // The registry and the wire parser own the names.
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
        assert!(lint_source("crates/core/src/report.rs", src).is_empty());
        // Comments, tests, and unrelated strings do not trip the rule.
        let benign = "// the \"unified\" model\nfn f() -> &'static str { \"unified-report\" }\n\
                      #[cfg(test)]\nmod tests { fn g() -> &'static str { \"swapped\" } }";
        assert!(lint_source("crates/core/src/sweep.rs", benign).is_empty());
    }

    #[test]
    fn bare_narrows_are_flagged_in_the_soa_files() {
        let src = "fn push(&mut self, n: usize) { self.group.push(n as u32); }";
        let found = lint_source("crates/sched/src/context.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "truncating-cast");
        assert!(found[0].detail.contains("idx32"));
        let found = lint_source("crates/spill/src/rewrite.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "truncating-cast");
        // Files outside the watched set narrow freely.
        assert!(lint_source("crates/core/src/report.rs", src).is_empty());
        // Widening casts never trip the rule.
        let widen = "fn f(n: u32) -> u64 { n as u64 }";
        assert!(lint_source("crates/sched/src/context.rs", widen).is_empty());
    }

    #[test]
    fn narrows_inside_the_sanctioned_constructors_are_exempt() {
        let src = "fn idx32(i: usize) -> u32 {\n\
                       debug_assert!(u32::try_from(i).is_ok());\n\
                       i as u32\n\
                   }\n\
                   fn time32(t: i64) -> u32 { t as u32 }\n\
                   fn other(n: usize) -> u32 { n as u32 }";
        let found = lint_source("crates/sched/src/context.rs", src);
        assert_eq!(
            found.len(),
            1,
            "only the narrow outside the helpers: {found:?}"
        );
        assert_eq!(found[0].line, 6);
        // The sanction is per-file: the same helper names in a file not
        // listed in `CAST_SANCTIONED` do not shield their bodies.
        let found = lint_source("crates/spill/src/rewrite.rs", src);
        assert_eq!(found.len(), 3);
    }
}
