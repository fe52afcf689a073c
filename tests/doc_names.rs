//! README.md and DESIGN.md name only code that exists. Every Rust name
//! they put in inline code (a `Type::item` path, a `name()` call, or a
//! lone CamelCase or snake_case name) must be defined by some `.rs` file
//! under `crates/`, `src/`, `tests/` or `examples/`, be a file stem,
//! directory or package name there, be a string the code spells, or be
//! on a short allowlist of std names. Deleting or renaming an item
//! without its mentions fails this test.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Names the docs use that this tree does not define: std items, a
/// vendored crate and a procfs field. A pandas or Hatchet name the docs
/// cite belongs here too.
const ALLOWED: &[&str] = &[
    "Arc",
    "AtomicBool",
    "DirEntry",
    "HashMap",
    "OnceLock",
    "PartialEq",
    "catch_unwind",
    "current_exe",
    "file_type",
    "net",
    "ptr_eq",
    "scope",
    "sync_channel",
    "thread",
    "parking_lot",
    "VmHWM",
];

/// The `.rs` files and `Cargo.toml` manifests under `dir`, and its
/// directory names (module and crate names).
fn walk(dir: &Path, files: &mut Vec<PathBuf>, names: &mut BTreeSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            names.insert(name);
            walk(&path, files, names);
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            files.push(path);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers of `text` with their byte offsets.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        if !is_ident_start(c) {
            continue;
        }
        let mut end = at + c.len_utf8();
        while let Some(&(i, c)) = chars.peek() {
            if !is_ident_char(c) {
                break;
            }
            end = i + c.len_utf8();
            chars.next();
        }
        out.push((at, &text[at..end]));
    }
    out
}

/// `text` with every `"…"` literal's contents handed to `strings` and
/// blanked out, byte for byte.
fn take_strings(text: &str, strings: &mut Vec<String>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        out.push(c);
        if c != '"' {
            continue;
        }
        let mut lit = String::new();
        while let Some(c) = chars.next() {
            if c == '"' {
                out.push(c);
                break;
            }
            out.extend(std::iter::repeat_n(' ', c.len_utf8()));
            if c == '\\' {
                if let Some(e) = chars.next() {
                    out.extend(std::iter::repeat_n(' ', e.len_utf8()));
                }
            } else {
                lit.push(c);
            }
        }
        strings.push(lit);
    }
    out
}

/// What the tree defines.
struct Defined {
    /// Items after a defining keyword, fields and parameters (a name
    /// before one `:`) and enum variants (a capitalized name opening a
    /// line), each with the files that define it; a type also with the
    /// files that implement it.
    items: BTreeMap<String, BTreeSet<usize>>,
    /// File stems, directory and package names, and every string
    /// literal the code spells.
    anywhere: BTreeSet<String>,
}

impl Defined {
    fn scan(root: &Path) -> Defined {
        let mut files = vec![root.join("Cargo.toml")];
        let mut anywhere = BTreeSet::new();
        for dir in ["crates", "src", "tests", "examples"] {
            walk(&root.join(dir), &mut files, &mut anywhere);
        }
        let mut items: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        let mut strings = Vec::new();
        for (f, file) in files.iter().enumerate() {
            let text = std::fs::read_to_string(file).unwrap();
            if file.ends_with("Cargo.toml") {
                let package = text.lines().find_map(|l| l.strip_prefix("name = \""));
                if let Some(package) = package.and_then(|p| p.strip_suffix('"')) {
                    anywhere.insert(package.replace('-', "_"));
                }
                continue;
            }
            if let Some(stem) = file.file_stem().and_then(|s| s.to_str()) {
                anywhere.insert(stem.to_string());
            }
            let mut define = |name: &str| {
                items.entry(name.to_string()).or_default().insert(f);
            };
            for line in text.lines() {
                let code = line.split("//").next().unwrap_or_default();
                let code = take_strings(code, &mut strings);
                let tokens = idents(&code);
                for (i, &(at, name)) in tokens.iter().enumerate() {
                    let after = code[at + name.len()..].trim_start();
                    let keyword = i > 0
                        && matches!(
                            tokens[i - 1].1,
                            "fn" | "struct"
                                | "enum"
                                | "trait"
                                | "type"
                                | "const"
                                | "static"
                                | "mod"
                                | "macro_rules"
                        );
                    let field = after.starts_with(':') && !after.starts_with("::");
                    let implemented = code.trim_start().starts_with("impl") && is_camel(name);
                    if keyword || field || implemented {
                        define(name);
                    }
                }
                let opening = code
                    .trim_start()
                    .trim_start_matches("pub(crate) ")
                    .trim_start_matches("pub ");
                if let Some(&(_, name)) = idents(opening).first() {
                    let after = opening[name.len()..].trim_start();
                    let variant = opening.starts_with(name)
                        && name.starts_with(|c: char| c.is_ascii_uppercase())
                        && (after.is_empty() || after.starts_with(['(', '{', ',', '=']));
                    if variant {
                        define(name);
                    }
                }
            }
        }
        for lit in strings {
            if !lit.is_empty() && lit.chars().all(is_ident_char) {
                anywhere.insert(lit);
            }
        }
        Defined { items, anywhere }
    }

    fn has(&self, name: &str) -> bool {
        ALLOWED.contains(&name) || self.anywhere.contains(name) || self.items.contains_key(name)
    }

    /// Whether `Ty::item` names an item of `Ty`: one file defines or
    /// implements the type and defines the item. Paths through names
    /// that are not this tree's types pass.
    fn has_member(&self, ty: &str, item: &str) -> bool {
        match (self.items.get(ty), self.items.get(item)) {
            (Some(ty_files), Some(item_files)) if is_camel(ty) && !self.anywhere.contains(item) => {
                !ty_files.is_disjoint(item_files)
            }
            _ => true,
        }
    }
}

fn is_camel(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase())
        && name.chars().any(|c| c.is_ascii_lowercase())
        && name.chars().filter(char::is_ascii_uppercase).count() >= 2
        && !name.contains('_')
}

fn is_snake(name: &str) -> bool {
    name.contains('_')
        && !name.starts_with('_')
        && !name.ends_with('_')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The Rust names one inline code span uses: names joined by `::`,
/// names called with `(`, and a span that is one CamelCase or
/// snake_case name, each with the name before its `::`, if any. File
/// paths and string literals say nothing.
fn span_names(span: &str) -> Vec<(Option<String>, String)> {
    let mut code = String::new();
    for word in span.split_inclusive(|c: char| !(is_ident_char(c) || "./-".contains(c))) {
        let (body, sep) = match word.char_indices().last() {
            Some((i, c)) if !(is_ident_char(c) || "./-".contains(c)) => word.split_at(i),
            _ => (word, ""),
        };
        let file = body.contains('/')
            || [".rs", ".md", ".toml", ".json", ".sh"]
                .iter()
                .any(|e| body.ends_with(e));
        // A package name such as `thicket-core` is one name.
        code.push_str(&if file {
            " ".repeat(body.len())
        } else {
            body.replace('-', "_")
        });
        code.push_str(sep);
    }
    let code = take_strings(&code, &mut Vec::new());
    let mut out = Vec::new();
    let mut prev: Option<(usize, &str)> = None;
    for (at, name) in idents(&code) {
        let before = &code[..at];
        let owner = prev
            .filter(|&(p, n)| before.ends_with("::") && p + n.len() + 2 == at)
            .map(|(_, n)| n.to_string());
        prev = Some((at, name));
        if !name.chars().any(|c| c.is_ascii_lowercase()) {
            continue; // a constant or an acronym
        }
        let after = &code[at + name.len()..];
        let alone = span.trim() == name && (is_camel(name) || is_snake(name));
        if alone || before.ends_with("::") || after.starts_with("::") || after.starts_with('(') {
            out.push((owner, name.to_string()));
        }
    }
    out
}

#[test]
fn docs_name_only_code_that_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let defined = Defined::scan(root);
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            for span in line.split('`').skip(1).step_by(2) {
                for (owner, name) in span_names(span) {
                    let known =
                        defined.has(&name) && owner.is_none_or(|ty| defined.has_member(&ty, &name));
                    if !known {
                        stale.push(format!("{doc}:{}: `{name}` in `{span}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "the docs name code the tree does not define:\n{}",
        stale.join("\n")
    );
}
