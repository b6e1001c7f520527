//! The `concurrency.toml` manifest: the workspace's declared concurrency
//! discipline, consumed by the L6 (atomics) and L13 (lock-held-effects)
//! rules.
//!
//! The manifest lives at the workspace root and declares two facts that
//! cannot be inferred from any single file:
//!
//! * `[lock-order] order = [...]` — the canonical acquisition order of the
//!   workspace's named locks. A lock earlier in the list must never be
//!   acquired while a later one is held, and both locks of every nested
//!   acquisition must be listed, so no acquisition cycle can form. Locks
//!   are named by the field or
//!   binding the guard comes from (`self.fifo.lock()` → `fifo`).
//! * `[atomics] control = [...]` — atomic fields that other threads read
//!   as *control signals* (shutdown flags, mode switches). `AtomicBool`
//!   fields are control signals implicitly; this list adds non-bool ones.
//!
//! The parser is a deliberate TOML subset (sections, string values, and
//! string arrays, `#` comments) because this crate is dependency-free: a
//! lint gate must never be the part of the build that fails to resolve.

use std::io;
use std::path::Path;

/// File name looked up at the workspace root.
pub const MANIFEST_NAME: &str = "concurrency.toml";

/// Parsed manifest contents. An absent manifest parses as `default()`:
/// no declared order (every nested acquisition is an L13 finding) and no
/// extra control atomics (`AtomicBool` fields are still control signals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConcurrencyManifest {
    /// Canonical lock-acquisition order, outermost first.
    pub lock_order: Vec<String>,
    /// Atomic field names treated as cross-thread control signals in
    /// addition to every `AtomicBool` field.
    pub control_atomics: Vec<String>,
}

impl ConcurrencyManifest {
    /// Position of `lock` in the canonical order, if declared.
    pub fn order_index(&self, lock: &str) -> Option<usize> {
        self.lock_order.iter().position(|l| l == lock)
    }

    /// True if `name` is declared a control atomic.
    pub fn is_control(&self, name: &str) -> bool {
        self.control_atomics.iter().any(|c| c == name)
    }
}

/// Loads `concurrency.toml` from `root`. A missing file is not an error —
/// the rules degrade to manifest-free behavior — but a malformed file is,
/// so a typo cannot silently disable the discipline it declares.
pub fn load(root: &Path) -> io::Result<ConcurrencyManifest> {
    let path = root.join(MANIFEST_NAME);
    if !path.is_file() {
        return Ok(ConcurrencyManifest::default());
    }
    let text = std::fs::read_to_string(&path)?;
    parse(&text).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
    })
}

/// Parses the manifest text. See the module docs for the accepted subset.
pub fn parse(text: &str) -> Result<ConcurrencyManifest, String> {
    let mut manifest = ConcurrencyManifest::default();
    let mut section = String::new();
    // Logical lines: a `[` array value may span physical lines until `]`.
    let mut lines = text.lines().enumerate().peekable();
    while let Some((i, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| format!("line {}: unterminated section header", i + 1))?;
            section = name.trim().to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", i + 1))?;
        let key = key.trim();
        let mut value = value.trim().to_string();
        while value.starts_with('[') && !value.ends_with(']') {
            let (_, next) = lines
                .next()
                .ok_or_else(|| format!("line {}: unterminated array", i + 1))?;
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let items = parse_string_array(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
        match (section.as_str(), key) {
            ("lock-order", "order") => manifest.lock_order = items,
            ("atomics", "control") => manifest.control_atomics = items,
            (s, k) => return Err(format!("line {}: unknown key `{k}` in section `[{s}]`", i + 1)),
        }
    }
    Ok(manifest)
}

fn strip_comment(line: &str) -> &str {
    // The subset has no `#` inside strings, so a bare split is faithful.
    line.split_once('#').map_or(line, |(before, _)| before)
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a `[\"...\"]` array, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        let unquoted = item
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("array items must be double-quoted strings, got `{item}`"))?;
        out.push(unquoted.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let text = "\
# canonical order\n\
[lock-order]\n\
order = [\"fifo\", \"shards\"] # outermost first\n\
\n\
[atomics]\n\
control = [\n\
    \"closed\",  # queue shutdown\n\
    \"stop\",\n\
]\n";
        let m = parse(text).unwrap();
        assert_eq!(m.lock_order, vec!["fifo", "shards"]);
        assert_eq!(m.control_atomics, vec!["closed", "stop"]);
        assert_eq!(m.order_index("shards"), Some(1));
        assert!(m.is_control("stop"));
        assert!(!m.is_control("fifo"));
    }

    #[test]
    fn empty_text_is_default() {
        assert_eq!(parse("").unwrap(), ConcurrencyManifest::default());
    }

    #[test]
    fn unknown_keys_and_bad_arrays_are_errors() {
        assert!(parse("[lock-order]\nnope = [\"a\"]\n").is_err());
        assert!(parse("[lock-order]\norder = \"a\"\n").is_err());
        assert!(parse("[lock-order]\norder = [a]\n").is_err());
    }

    #[test]
    fn missing_file_loads_as_default() {
        let dir = std::env::temp_dir().join("tg-xtask-no-manifest");
        let _ = std::fs::create_dir_all(&dir);
        assert_eq!(load(&dir).unwrap(), ConcurrencyManifest::default());
    }
}
