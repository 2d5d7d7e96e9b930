//! Result digests stored with the benchmark, one line per unit of work:
//!
//! ```text
//! <workload> <seed> <unit> <digest as 16 hex digits>
//! ```
//!
//! `--record` prints these lines for a run instead of checking them.

use std::collections::BTreeMap;
use std::path::Path;

/// Stored digests keyed by `(workload, seed, unit)`.
#[derive(Debug, Default)]
pub struct Reference {
    digests: BTreeMap<(String, u64, u64), u64>,
}

impl Reference {
    /// Reads a reference file; a missing file is an empty reference.
    ///
    /// # Errors
    /// Names the first malformed line.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Reference::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Reference::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Reference, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("line {}: expected `workload seed unit digest`", n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, unit, digest] = fields[..] else { return Err(bad()) };
            let seed = seed.parse().map_err(|_| bad())?;
            let unit = unit.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            digests.insert((workload.to_string(), seed, unit), digest);
        }
        Ok(Reference { digests })
    }

    /// The stored digest of one unit, if any.
    pub fn get(&self, workload: &str, seed: u64, unit: u64) -> Option<u64> {
        self.digests.get(&(workload.to_string(), seed, unit)).copied()
    }
}

/// One reference line.
pub fn line(workload: &str, seed: u64, unit: u64, digest: u64) -> String {
    format!("{workload} {seed} {unit} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let text = format!("# comment\n\n{}\n", line("zoo-cold", 3, 1, 0xdead_beef));
        let r = Reference::parse(&text).unwrap();
        assert_eq!(r.get("zoo-cold", 3, 1), Some(0xdead_beef));
        assert_eq!(r.get("zoo-cold", 3, 2), None);
        assert!(Reference::parse("zoo-cold 3 x 00").is_err());
    }
}
