//! The fan-out documentation contract: every production call of
//! `WorkerPool::new(` under `crates/*/src` must have a row in
//! ARCHITECTURE.md's fan-out table, and every row must name a live call
//! site.  A site may have several rows, one per measured input: at least
//! one must record a two-worker speedup of 1.3x or more with 9 of 10 pairs
//! won (the site pays at its grain), and none may record a consistent loss
//! — below 0.9x with at most 2 of 10 pairs won — on any other input, a
//! typical request included.  CI runs this as its fan-out audit step — a
//! new fan-out site nobody measured, or a stale row for a deleted one,
//! fails it.
//!
//! The rule assumes each row is the run with the median speedup of five
//! runs of the same 10-pair probe, as ARCHITECTURE.md's table states.  A
//! single run is not enough: one run of a row whose two settings run the
//! same code has recorded a loss by this rule (see `MAX_LOSS`), so a
//! re-measure that records single runs must expect rows to fail on noise.

use std::collections::BTreeSet;
use std::path::Path;

const ARCHITECTURE: &str = include_str!("../ARCHITECTURE.md");

/// The speedup a fan-out site must have measured at two workers on some input.
const MIN_SPEEDUP: f64 = 1.3;

/// A row below this speedup that also lost at least 8 of its 10 pairs
/// records a loss.  On a shared VM even both together have fired on noise:
/// inputs that run the same sequential code at both settings have measured
/// 0.77x–1.11x with 1–7 pairs won over single runs, and one such run read
/// 0.89x with 2 pairs won (the `decide_heavy` first-computation refutation
/// row; CHANGES.md records it as a FOUND).  The losses the fan-out gates
/// removed measured 0.02x–0.78x with at most 1 pair won.  The rule holds
/// only on median-of-five rows (see the module doc), on which the same-code
/// rows read 0.93x–1.02x.
const MAX_LOSS: f64 = 0.9;

/// A fan-out site: the file (relative to the workspace root) and the name
/// of the function whose body calls `WorkerPool::new(`.
type Site = (String, String);

/// The rows of the fan-out table: those whose first cell is a backticked
/// `crates/…/src/….rs` path.
fn table_rows() -> Vec<Vec<&'static str>> {
    ARCHITECTURE
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let path = cells.get(1)?.strip_prefix("`crates/")?;
            path.ends_with(".rs`").then_some(cells)
        })
        .collect()
}

fn unquote(cell: &str) -> &str {
    cell.trim_matches('`')
}

fn site_of(cells: &[&str]) -> Site {
    (unquote(cells[1]).to_string(), unquote(cells[2]).to_string())
}

/// The production part of `source`: its lines outside every `#[cfg(test)]`
/// module.  A test module runs from its attribute to the brace that closes
/// its body (or the `;` of a `mod name;` declaration), wherever it sits in
/// the file.
fn production_lines(source: &str) -> Vec<&str> {
    let lines: Vec<&str> = source.lines().collect();
    let mut kept = Vec::new();
    let mut at = 0;
    while at < lines.len() {
        let test_module = lines[at].trim() == "#[cfg(test)]"
            && lines.get(at + 1).is_some_and(|next| declared(next, "mod").is_some());
        if test_module {
            at = item_end(&lines, at + 1) + 1;
        } else {
            kept.push(lines[at]);
            at += 1;
        }
    }
    kept
}

/// The index of the line that ends the item declared on `lines[start]`: the
/// line of the brace closing its body, or of its `;` when it has none.
/// Braces inside comments and string or character literals do not count.
fn item_end(lines: &[&str], start: usize) -> usize {
    let text: Vec<char> = lines[start..].join("\n").chars().collect();
    let (mut i, mut line, mut depth) = (0, start, 0usize);
    while i < text.len() {
        let next = text.get(i + 1).copied();
        match text[i] {
            '\n' => line += 1,
            '/' if next == Some('/') => {
                while text.get(i + 1).is_some_and(|&c| c != '\n') {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let mut nested = 0usize;
                loop {
                    match (text.get(i).copied(), text.get(i + 1).copied()) {
                        (None, _) => break,
                        (Some('/'), Some('*')) => (nested, i) = (nested + 1, i + 1),
                        (Some('*'), Some('/')) => (nested, i) = (nested - 1, i + 1),
                        (Some('\n'), _) => line += 1,
                        _ => {}
                    }
                    if nested == 0 {
                        break;
                    }
                    i += 1;
                }
            }
            '"' => i = string_end(&text, i + 1, None, &mut line),
            'r' if (i == 0 || !is_ident(text[i - 1]) || text[i - 1] == 'b')
                && matches!(next, Some('"' | '#')) =>
            {
                let hashes = text[i + 1..].iter().take_while(|&&c| c == '#').count();
                if text.get(i + 1 + hashes) == Some(&'"') {
                    i = string_end(&text, i + 2 + hashes, Some(hashes), &mut line);
                }
            }
            // A character literal (`'{'`, `'\''`); a lifetime has no
            // closing quote.
            '\'' if next == Some('\\') => {
                i += 3;
                while text.get(i).is_some_and(|&c| c != '\'') {
                    i += 1;
                }
            }
            '\'' if text.get(i + 2) == Some(&'\'') => i += 2,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return line;
                }
            }
            ';' if depth == 0 => return line,
            _ => {}
        }
        i += 1;
    }
    panic!("the item declared on line {} never ends", start + 1)
}

/// The index of the last character of the string literal whose body starts
/// at `text[from]`, counting the lines it spans into `line`; a raw string
/// (`Some` of the number of `#` closing it) has no escapes.
fn string_end(text: &[char], from: usize, raw: Option<usize>, line: &mut usize) -> usize {
    let hashes = raw.unwrap_or(0);
    let mut i = from;
    while i < text.len() {
        match text[i] {
            '\n' => *line += 1,
            '\\' if raw.is_none() => i += 1,
            '"' if text[i + 1..].iter().take(hashes).all(|&c| c == '#')
                && text.len() > i + hashes =>
            {
                return i + hashes;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The name of the `keyword` item (`fn`, `mod`) declared on `line`, if it
/// declares one: the keyword may follow a visibility (`pub`, `pub(crate)`,
/// `pub(in path)`) and the qualifiers `const`, `async`, `unsafe`,
/// `extern "abi"` and `default`.
fn declared<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let mut rest = line.trim_start();
    if let Some(after) = rest.strip_prefix("pub") {
        rest = match after.strip_prefix('(') {
            Some(scope) => &scope[scope.find(')')? + 1..],
            None if after.starts_with(char::is_whitespace) => after,
            None => return None,
        }
        .trim_start();
    }
    loop {
        let (word, tail) = rest.split_once(char::is_whitespace)?;
        let tail = tail.trim_start();
        if word == keyword {
            let end = tail.find(|c: char| !is_ident(c)).unwrap_or(tail.len());
            return (end > 0).then(|| &tail[..end]);
        }
        let qualifier = matches!(word, "const" | "async" | "unsafe" | "extern" | "default")
            || (word.len() >= 2 && word.starts_with('"') && word.ends_with('"'));
        if !qualifier {
            return None;
        }
        rest = tail;
    }
}

/// The function of every production `WorkerPool::new(` call in `source`:
/// the function declared last before the call.
fn calls_in(source: &str) -> Vec<String> {
    let mut function = None;
    let mut calls = Vec::new();
    for line in production_lines(source) {
        if let Some(name) = declared(line, "fn") {
            function = Some(name.to_string());
        }
        if line.contains("WorkerPool::new(") && !line.trim_start().starts_with("//") {
            let function = function.clone().unwrap_or_else(|| {
                panic!("`WorkerPool::new(` outside any function: {}", line.trim())
            });
            calls.push(function);
        }
    }
    calls
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every production `WorkerPool::new(` call under `crates/*/src`.
fn live_sites() -> BTreeSet<Site> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut sites = BTreeSet::new();
    for file in files {
        let source = std::fs::read_to_string(&file).expect("readable source file");
        let relative = file.strip_prefix(root).expect("under the workspace root");
        let relative = relative.to_string_lossy().replace('\\', "/");
        for function in calls_in(&source) {
            sites.insert((relative.clone(), function));
        }
    }
    sites
}

#[test]
fn every_fan_out_site_has_a_measured_row() {
    let documented: BTreeSet<Site> = table_rows().iter().map(|cells| site_of(cells)).collect();
    let live = live_sites();
    assert!(!live.is_empty(), "the scan found no `WorkerPool::new(` call at all");
    for site in &live {
        assert!(
            documented.contains(site),
            "{} `{}` calls WorkerPool::new but has no row in ARCHITECTURE.md's fan-out table",
            site.0,
            site.1
        );
    }
    for site in &documented {
        assert!(
            live.contains(site),
            "ARCHITECTURE.md's fan-out table lists {} `{}`, which no longer calls WorkerPool::new",
            site.0,
            site.1
        );
    }
}

#[test]
fn every_documented_site_pays_at_two_workers() {
    let rows = table_rows();
    assert!(!rows.is_empty(), "ARCHITECTURE.md has no fan-out table rows");
    let mut paying = BTreeSet::new();
    for cells in &rows {
        // | file | function | input | Off | Fixed(2) | speedup | pairs won |
        let site = site_of(cells);
        let speedup: f64 = cells[6]
            .trim_end_matches('x')
            .parse()
            .unwrap_or_else(|_| panic!("unreadable speedup cell {:?}", cells[6]));
        let (won, pairs) = cells[7].split_once('/').expect("pairs cell reads `won/pairs`");
        let (won, pairs): (u32, u32) = (won.parse().unwrap(), pairs.parse().unwrap());
        assert_eq!(pairs, 10, "{}: the table records 10 alternating pairs", site.1);
        assert!(
            speedup >= MAX_LOSS || won > 2,
            "{} `{}` measured {speedup}x ({won}/10 pairs won) at two workers on {}: a loss",
            site.0,
            site.1,
            cells[3]
        );
        if speedup >= MIN_SPEEDUP && won >= 9 {
            paying.insert(site);
        }
    }
    for cells in &rows {
        let site = site_of(cells);
        assert!(
            paying.contains(&site),
            "{} `{}` has no input measured at {MIN_SPEEDUP}x or more (9/10 pairs won) at two \
             workers: a fan-out site must pay somewhere",
            site.0,
            site.1
        );
    }
}

/// The scan credits a call to the right function whatever its qualifiers,
/// skips only the extent of each test module, and is not fooled by braces
/// in literals or comments.
#[test]
fn the_scan_reads_qualified_functions_and_skips_only_test_modules() {
    let source = r##"
pub(super) fn scoped() {
    let pool = WorkerPool::new(parallelism);
}

#[cfg(test)]
mod reference {
    fn hidden() {
        let open = '{';
        let text = "}}} {";
        let raw = r#"}"quoted"}"#;
        // }
        /* } /* nested { */ } */
        WorkerPool::new(Parallelism::Off);
    }
}

pub(crate) const unsafe fn qualified<'a>(x: &'a str) {
    WorkerPool::new(parallelism)
}

#[cfg(test)]
mod declared_elsewhere;

async fn after_tests() {
    WorkerPool::new(parallelism);
}

#[cfg(test)]
mod tests {
    fn hidden_too() {
        WorkerPool::new(Parallelism::Off);
    }
}
"##;
    assert_eq!(calls_in(source), ["scoped", "qualified", "after_tests"]);
    assert_eq!(declared("pub(in crate::x) extern \"C\" fn ffi()", "fn"), Some("ffi"));
    assert_eq!(declared("    let f = fn_pointer;", "fn"), None);
    assert_eq!(declared("pub mod tests {", "mod"), Some("tests"));
}
