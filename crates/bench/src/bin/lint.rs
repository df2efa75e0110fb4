//! Repo-local source lint for the concurrency and allocation disciplines
//! that `nc-check` verifies dynamically.
//!
//! Six rules, each tied to an invariant the model checker, the buffer
//! pool, or the batched-I/O seam owns:
//!
//! * **thread-spawn** — raw `std::thread::spawn` outside `crates/pool`
//!   (and `crates/check`, which implements the shim). Product threading
//!   must go through `nc_pool::Pool` or `nc_check::thread`, or every
//!   schedule the model checker explores is missing those threads.
//! * **vec-capacity** — bare `Vec::with_capacity` in the net/coding hot
//!   paths (`crates/net/src`, `crates/core/src`, `crates/fft/src`).
//!   Per-frame and per-shard buffers must come from
//!   `BytesPool`/`BlockArena` so the recycling edges added for the
//!   transport keep steady-state traffic allocation-free.
//! * **relaxed-invariant** — `Ordering::Relaxed` on an atomic named in a
//!   checked invariant (`pending`, `outstanding`, `retained`, `cursor`,
//!   `frames_sent`, `peer_received`). The nc-check models verify these
//!   protocols under SC exploration; a Relaxed hole in the real code is
//!   exactly the kind of divergence the models cannot see.
//! * **raw-udp-io** — `.send_to(` / `.recv_from(` outside the transport's
//!   I/O seam (`crates/net/src/channel.rs` and `crates/net/src/sysio.rs`).
//!   Datagram I/O must route through `BatchSocket`/`UdpChannel` so the
//!   `net.syscalls` accounting the capacity bench divides by stays exact,
//!   and so the batched Linux path and the portable fallback cannot
//!   silently diverge at a call site.
//! * **safety-comment** — an `unsafe {` block with no `// SAFETY:`
//!   justification on the block: on the same line or in the contiguous
//!   comment block directly above it. The GF kernel modules
//!   (`crates/gf256/src/simd*.rs`), the FFT butterflies, the batched
//!   syscall seam, and the pool executor all discharge unsafety against
//!   specific bounds/availability arguments; a bare block is a missing
//!   argument, not a style nit. (`unsafe fn` *declarations* are exempt —
//!   they state a contract rather than discharge one.)
//! * **ci-target** — a cargo `--test`/`--bin`/`--example <name>` in
//!   `.github/workflows/*.yml` that names no file in the tree (`tests/`,
//!   `crates/*/tests/`, `crates/*/src/bin/`, `examples/`). A deleted suite
//!   must take its CI step with it, not leave a lane that fails to resolve.
//!   Arguments after a bare `--` belong to the program, not cargo, and are
//!   not checked. This rule takes no waiver.
//!
//! Any other finding is waived by a comment on the same line or the line
//! above:
//!
//! ```text
//! // lint: allow(<rule>) — <reason>
//! ```
//!
//! The reason is mandatory by convention (reviewed, not parsed). Exits
//! non-zero on any unwaived finding; CI runs `cargo run -p nc-bench --bin
//! lint` after the test jobs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint rule: a name (used in waivers), a needle, and a scope filter.
struct Rule {
    name: &'static str,
    explain: &'static str,
    applies: fn(&str) -> bool,
    matches: fn(&str) -> bool,
}

/// Atomic field names that appear in nc-check model invariants; `Relaxed`
/// on any of them weakens a protocol the checker verifies under SC.
const INVARIANT_ATOMICS: [&str; 6] =
    ["pending", "outstanding", "retained", "cursor", "frames_sent", "peer_received"];

const RULES: [Rule; 4] = [
    Rule {
        name: "thread-spawn",
        explain: "raw std::thread::spawn outside crates/pool — use nc_pool::Pool or \
                  nc_check::thread so the model checker sees the thread",
        applies: |path| !path.starts_with("crates/pool/") && !path.starts_with("crates/check/"),
        matches: |code| code.contains("std::thread::spawn"),
    },
    Rule {
        name: "vec-capacity",
        explain: "bare Vec::with_capacity in a net/coding hot path — take the buffer from \
                  BytesPool/BlockArena so transport recycling keeps it allocation-free",
        applies: |path| {
            path.starts_with("crates/net/src/")
                || path.starts_with("crates/core/src/")
                || path.starts_with("crates/fft/src/")
        },
        matches: |code| code.contains("Vec::with_capacity"),
    },
    Rule {
        name: "relaxed-invariant",
        explain: "Ordering::Relaxed on an atomic named in a checked invariant — use \
                  Acquire/Release/AcqRel (free on x86) or waive with the safety argument",
        applies: |_| true,
        matches: |code| {
            code.contains("Ordering::Relaxed")
                && INVARIANT_ATOMICS.iter().any(|name| {
                    // `<name>.load(..)`, `<name>.fetch_add(..)`, ...: the
                    // atomic is the receiver of the relaxed operation.
                    code.match_indices(name).any(|(i, _)| {
                        code[i + name.len()..].starts_with('.')
                            && !code[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    })
                })
        },
    },
    Rule {
        name: "raw-udp-io",
        explain: "raw UDP send_to/recv_from outside the channel/sysio seam — route datagrams \
                  through BatchSocket/UdpChannel so syscall accounting and the batched/portable \
                  split stay correct",
        applies: |path| path != "crates/net/src/channel.rs" && path != "crates/net/src/sysio.rs",
        matches: |code| code.contains(".send_to(") || code.contains(".recv_from("),
    },
];

/// The code part of a source line: everything before a `//` comment. Not a
/// real tokenizer — `//` inside a string literal will truncate early — but
/// every pattern the rules look for is code-shaped, so false negatives
/// from that are not a concern in this codebase.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn is_waiver_for(line: &str, rule: &str) -> bool {
    line.contains("lint: allow(") && line.contains(&format!("allow({rule})"))
}

/// `// SAFETY:` audit: every `unsafe {` block needs its justification on
/// the same line or in the contiguous `//` comment block directly above.
/// Returns whether the block at `idx` carries one.
fn has_safety_comment(lines: &[&str], idx: usize) -> bool {
    if lines[idx].contains("SAFETY") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let prev = lines[i].trim_start();
        if !prev.starts_with("//") {
            return false;
        }
        if prev.contains("SAFETY") {
            return true;
        }
    }
    false
}

fn audit_safety(rel: &str, lines: &[&str], findings: &mut Vec<String>) {
    for (idx, line) in lines.iter().enumerate() {
        // Blocks only: `unsafe fn` / `unsafe impl` declare a contract
        // (documented as `# Safety` rustdoc); `unsafe {` *discharges* one
        // and must say why it holds here.
        if !code_part(line).contains("unsafe {") {
            continue;
        }
        let waived = is_waiver_for(line, "safety-comment")
            || idx.checked_sub(1).is_some_and(|p| is_waiver_for(lines[p], "safety-comment"));
        if !waived && !has_safety_comment(lines, idx) {
            findings.push(format!(
                "{rel}:{}: [safety-comment] `unsafe {{` without a `// SAFETY:` justification \
                 on the block (same line or contiguous comment above)\n    {}",
                idx + 1,
                line.trim()
            ));
        }
    }
}

/// The `(flag, name)` cargo target selections on one workflow line: every
/// `--test`/`--bin`/`--example` of each `cargo` command, up to the bare
/// `--` that hands the rest to the program.
fn ci_targets(line: &str) -> Vec<(&str, &str)> {
    let mut targets = Vec::new();
    for command in line.split(['|', ';', '&']) {
        let mut tokens = command.split_whitespace().skip_while(|t| *t != "cargo");
        while let Some(token) = tokens.next() {
            if token == "--" {
                break;
            }
            let (flag, inline) = token.split_once('=').unwrap_or((token, ""));
            if matches!(flag, "--test" | "--bin" | "--example") {
                let name = if inline.is_empty() { tokens.next() } else { Some(inline) };
                if let Some(name) = name {
                    targets.push((flag, name));
                }
            }
        }
    }
    targets
}

/// Where a cargo target named `name` selected by `flag` may live.
fn ci_target_candidates(flag: &str, name: &str) -> Vec<String> {
    match flag {
        "--test" => vec![format!("tests/{name}.rs"), format!("crates/*/tests/{name}.rs")],
        "--bin" => vec![format!("crates/*/src/bin/{name}.rs")],
        _ => vec![format!("examples/{name}.rs")],
    }
}

/// Whether `pattern` (a relative path with at most a `crates/*/` wildcard)
/// names a file under `root`.
fn pattern_exists(root: &Path, pattern: &str) -> bool {
    let Some(rest) = pattern.strip_prefix("crates/*/") else {
        return root.join(pattern).is_file();
    };
    let Ok(crates) = std::fs::read_dir(root.join("crates")) else { return false };
    crates.flatten().any(|krate| krate.path().join(rest).is_file())
}

/// `ci-target` over one workflow's text. No waiver: a target that does not
/// resolve is always a broken step.
fn audit_ci_targets(root: &Path, rel: &str, text: &str, findings: &mut Vec<String>) {
    for (idx, line) in text.lines().enumerate() {
        for (flag, name) in ci_targets(line) {
            let candidates = ci_target_candidates(flag, name);
            if !candidates.iter().any(|c| pattern_exists(root, c)) {
                findings.push(format!(
                    "{rel}:{}: [ci-target] `{flag} {name}` names no file (looked for {})\n    {}",
                    idx + 1,
                    candidates.join(", "),
                    line.trim()
                ));
            }
        }
    }
}

/// Every workflow file under `.github/workflows/`.
fn workflow_files(root: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(root.join(".github/workflows")) else { return Vec::new() };
    let mut files: Vec<String> = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "yml" || x == "yaml"))
        .map(|e| format!(".github/workflows/{}", e.file_name().to_string_lossy()))
        .collect();
    files.sort();
    files
}

fn lint_workflow(root: &Path, rel: &str, findings: &mut Vec<String>) {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => audit_ci_targets(root, rel, &text, findings),
        Err(e) => findings.push(format!("{rel}: unreadable: {e}")),
    }
}

fn lint_file(root: &Path, rel: &str, findings: &mut Vec<String>) {
    let text = match std::fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            findings.push(format!("{rel}: unreadable: {e}"));
            return;
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    for rule in &RULES {
        if !(rule.applies)(rel) {
            continue;
        }
        for (idx, line) in lines.iter().enumerate() {
            let code = code_part(line);
            if !(rule.matches)(code) {
                continue;
            }
            let waived = is_waiver_for(line, rule.name)
                || idx.checked_sub(1).is_some_and(|p| is_waiver_for(lines[p], rule.name));
            if !waived {
                findings.push(format!(
                    "{rel}:{}: [{}] {}\n    {}",
                    idx + 1,
                    rule.name,
                    rule.explain,
                    line.trim()
                ));
            }
        }
    }
    audit_safety(rel, &lines, findings);
}

/// Every tracked `.rs` file under `crates/` (vendor and target stay out of
/// scope: we lint this repo's code, not its vendored dependencies).
fn source_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// Locates the workspace root: the lint runs from anywhere inside it.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("not inside the workspace (no Cargo.toml + crates/ found upward)");
        }
    }
}

fn main() -> ExitCode {
    let root = workspace_root();
    let files = source_files(&root);
    let mut findings = Vec::new();
    for rel in &files {
        // The lint's own source spells out the forbidden patterns.
        if rel.ends_with("bin/lint.rs") {
            continue;
        }
        lint_file(&root, rel, &mut findings);
    }
    let workflows = workflow_files(&root);
    for rel in &workflows {
        lint_workflow(&root, rel, &mut findings);
    }
    let files = files.len() + workflows.len();
    if findings.is_empty() {
        println!("lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {} finding(s) in {files} files:\n", findings.len());
        for f in &findings {
            eprintln!("{f}\n");
        }
        eprintln!("waive a justified site with: // lint: allow(<rule>) — <reason>");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_lines_do_not_match() {
        let m = RULES[0].matches;
        assert!(!m(code_part("//! let receiver = std::thread::spawn(move || {")));
        assert!(m(code_part("let h = std::thread::spawn(f); // driver")));
    }

    #[test]
    fn relaxed_rule_needs_an_invariant_receiver() {
        let m = RULES[2].matches;
        assert!(m("self.pending.load(Ordering::Relaxed)"));
        assert!(m("state.outstanding.fetch_add(1, Ordering::Relaxed);"));
        assert!(!m("total.fetch_add(1, Ordering::Relaxed);"));
        // Suffix of another identifier is not the invariant atomic.
        assert!(!m("suspending.load(Ordering::Relaxed)"));
        assert!(!m("self.pending.load(Ordering::Acquire)"));
    }

    #[test]
    fn raw_udp_io_rule_matches_call_sites_only() {
        let rule = &RULES[3];
        assert_eq!(rule.name, "raw-udp-io");
        assert!((rule.matches)("socket.send_to(&bytes, peer)?;"));
        assert!((rule.matches)("let (len, from) = sock.recv_from(&mut buf)?;"));
        // Function *definitions/imports* with similar names don't trip it.
        assert!(!(rule.matches)("pub(crate) fn send_to_batch(socket: &UdpSocket) {}"));
        assert!(!(rule.matches)("use crate::sysio::send_to_batch;"));
        // The seam itself is exempt; everything else applies.
        assert!(!(rule.applies)("crates/net/src/channel.rs"));
        assert!(!(rule.applies)("crates/net/src/sysio.rs"));
        assert!((rule.applies)("crates/net/src/server.rs"));
        assert!((rule.applies)("crates/bench/src/bin/server_bench.rs"));
    }

    #[test]
    fn safety_audit_accepts_adjacent_and_block_comments_only() {
        let with_block =
            ["// SAFETY: bounds checked by the", "// caller's length contract.", "unsafe {"];
        assert!(has_safety_comment(&with_block, 2));
        let same_line = ["unsafe { do_it() } // SAFETY: inline argument"];
        assert!(has_safety_comment(&same_line, 0));
        // A gap of code between the comment and the block breaks the tie.
        let with_gap = ["// SAFETY: stale argument", "let len = dst.len();", "unsafe {"];
        assert!(!has_safety_comment(&with_gap, 2));
        let bare = ["let x = 1;", "unsafe {"];
        assert!(!has_safety_comment(&bare, 1));
    }

    #[test]
    fn waivers_match_exact_rule() {
        assert!(is_waiver_for("// lint: allow(thread-spawn) — test driver", "thread-spawn"));
        assert!(!is_waiver_for("// lint: allow(thread-spawn) — test driver", "vec-capacity"));
        assert!(!is_waiver_for("plain comment", "thread-spawn"));
    }

    #[test]
    fn ci_target_rule_flags_missing_targets_only() {
        let workflow = "\
      - run: cargo test --release --test net_transport -- --test-threads=1
      - run: cargo run -p nc-bench --release --bin server_capacity -- --test bench/smoke.json
      - run: cargo test -p nc-net --test=gone_transfer -q
      - run: cargo build && cargo run --example missing_demo | tee out.txt
";
        let mut findings = Vec::new();
        audit_ci_targets(&workspace_root(), "ci.yml", workflow, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings[0].starts_with("ci.yml:3: [ci-target] `--test gone_transfer`"));
        assert!(findings[1].starts_with("ci.yml:4: [ci-target] `--example missing_demo`"));

        // Several selections on one command are each checked.
        let multi = ci_targets("cargo test -p nc-check --test a --test b -- --test c");
        assert_eq!(multi, [("--test", "a"), ("--test", "b")]);
    }

    #[test]
    fn the_repo_is_clean() {
        // The lint's own acceptance test: running it over the live tree
        // must produce zero unwaived findings.
        let root = workspace_root();
        let mut findings = Vec::new();
        for rel in source_files(&root) {
            if rel.ends_with("bin/lint.rs") {
                continue;
            }
            lint_file(&root, &rel, &mut findings);
        }
        for rel in workflow_files(&root) {
            lint_workflow(&root, &rel, &mut findings);
        }
        assert!(findings.is_empty(), "unwaived lint findings:\n{}", findings.join("\n"));
    }
}
