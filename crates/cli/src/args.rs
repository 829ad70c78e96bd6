//! A tiny dependency-free flag parser.
//!
//! Supports `--flag value`, `--flag=value`, boolean `--flag`, and
//! repeated flags. Unknown flags are an error, which keeps typos loud.

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, Vec<String>>,
}

impl Args {
    /// Parses raw arguments. `allowed` lists every legal flag name
    /// (without the `--`); anything else is rejected.
    pub fn parse(raw: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(tok) = it.next() {
            let Some(body) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{tok}'"));
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (body.to_string(), None),
            };
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag '--{name}' (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            let value = match inline {
                Some(v) => Some(v),
                // A following token that is not itself a flag is this
                // flag's value.
                None => match it.peek() {
                    Some(next) if !next.starts_with("--") => Some(it.next().unwrap().clone()),
                    _ => None,
                },
            };
            values
                .entry(name)
                .or_default()
                .push(value.unwrap_or_default());
        }
        Ok(Args { values })
    }

    /// True when the flag appeared (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The flag's last string value, if present and non-empty.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
            .filter(|s| !s.is_empty())
    }

    /// All values of a repeatable flag.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.values
            .get(name)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Parses the flag's value with `FromStr`, with a clear error.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(s) => s
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse '{s}'")),
        }
    }

    /// Parses the flag's value or falls back to a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_parsed(name)?.unwrap_or(default))
    }

    /// Requires the flag to be present and parseable.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get_parsed(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const ALLOWED: &[&str] = &["degrees", "procs", "prestaged", "outage"];

    #[test]
    fn parses_separate_and_inline_values() {
        let a = Args::parse(&raw("--degrees 2 --procs=16"), ALLOWED).unwrap();
        assert_eq!(a.get("degrees"), Some("2"));
        assert_eq!(a.require::<u32>("procs").unwrap(), 16);
    }

    #[test]
    fn boolean_flags() {
        let a = Args::parse(&raw("--prestaged --degrees 1"), ALLOWED).unwrap();
        assert!(a.has("prestaged"));
        assert!(!a.has("outage"));
        assert_eq!(a.get("prestaged"), None); // present, no value
    }

    #[test]
    fn repeated_flags_accumulate() {
        let a = Args::parse(&raw("--outage 10:60 --outage 100:60"), ALLOWED).unwrap();
        assert_eq!(a.get_all("outage"), vec!["10:60", "100:60"]);
    }

    #[test]
    fn rejects_unknown_flags_and_positionals() {
        assert!(Args::parse(&raw("--bogus 1"), ALLOWED)
            .unwrap_err()
            .contains("--bogus"));
        assert!(Args::parse(&raw("stray"), ALLOWED)
            .unwrap_err()
            .contains("positional"));
    }

    #[test]
    fn defaults_and_missing_requirements() {
        let a = Args::parse(&raw("--degrees 4"), ALLOWED).unwrap();
        assert_eq!(a.get_or("procs", 8u32).unwrap(), 8);
        assert!(a.require::<u32>("procs").unwrap_err().contains("--procs"));
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let a = Args::parse(&raw("--procs banana"), ALLOWED).unwrap();
        let err = a.require::<u32>("procs").unwrap_err();
        assert!(err.contains("--procs") && err.contains("banana"));
    }
}
