//! The enclave configuration file (§III-B).
//!
//! "In addition to preparing the HostApp and enclave codes, a configuration
//! file is needed to declare the resource requirements of the enclave,
//! including heap and stack memory sizes, etc."
//!
//! The format is deliberately tiny: `key = value` lines with binary-suffix
//! sizes, `#` comments, blank lines ignored.

/// A parsed enclave manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveManifest {
    /// Optional display name.
    pub name: String,
    /// Maximum heap size in bytes.
    pub heap_max: u64,
    /// Stack size in bytes.
    pub stack_bytes: u64,
    /// HostApp shared window size in bytes.
    pub host_shared_bytes: u64,
}

impl Default for EnclaveManifest {
    fn default() -> Self {
        EnclaveManifest {
            name: "enclave".to_string(),
            heap_max: 32 * 1024 * 1024,
            stack_bytes: 64 * 1024,
            host_shared_bytes: 64 * 1024,
        }
    }
}

/// Errors from manifest parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A line was not `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
    },
    /// A size value did not parse.
    BadSize {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown key was used.
    UnknownKey {
        /// The offending key.
        key: String,
    },
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ManifestError::Syntax { line } => write!(f, "syntax error on line {line}"),
            ManifestError::BadSize { line } => write!(f, "bad size value on line {line}"),
            ManifestError::UnknownKey { key } => write!(f, "unknown manifest key '{key}'"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Parses a size like `4096`, `64K`, `8M`, `1G` (binary multiples).
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1024u64),
        'M' | 'm' => (&s[..s.len() - 1], 1024 * 1024),
        'G' | 'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

impl EnclaveManifest {
    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// See [`ManifestError`].
    ///
    /// # Example
    ///
    /// ```
    /// use hypertee::manifest::EnclaveManifest;
    /// let m = EnclaveManifest::parse("name = demo\nheap = 8M\nstack = 128K").unwrap();
    /// assert_eq!(m.heap_max, 8 * 1024 * 1024);
    /// assert_eq!(m.name, "demo");
    /// ```
    pub fn parse(text: &str) -> Result<EnclaveManifest, ManifestError> {
        let mut m = EnclaveManifest::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let stripped = raw.split('#').next().unwrap_or("").trim();
            if stripped.is_empty() {
                continue;
            }
            let (key, value) = stripped
                .split_once('=')
                .ok_or(ManifestError::Syntax { line })?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "name" => m.name = value.to_string(),
                "heap" => m.heap_max = parse_size(value).ok_or(ManifestError::BadSize { line })?,
                "stack" => {
                    m.stack_bytes = parse_size(value).ok_or(ManifestError::BadSize { line })?
                }
                "host_shared" => {
                    m.host_shared_bytes =
                        parse_size(value).ok_or(ManifestError::BadSize { line })?
                }
                other => {
                    return Err(ManifestError::UnknownKey {
                        key: other.to_string(),
                    })
                }
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_parses() {
        let text = "\
# demo enclave
name = inference-engine
heap = 16M
stack = 256K
host_shared = 1M
";
        let m = EnclaveManifest::parse(text).unwrap();
        assert_eq!(m.name, "inference-engine");
        assert_eq!(m.heap_max, 16 << 20);
        assert_eq!(m.stack_bytes, 256 << 10);
        assert_eq!(m.host_shared_bytes, 1 << 20);
    }

    #[test]
    fn defaults_apply_for_missing_keys() {
        let m = EnclaveManifest::parse("heap = 1M").unwrap();
        assert_eq!(m.heap_max, 1 << 20);
        assert_eq!(m.stack_bytes, EnclaveManifest::default().stack_bytes);
    }

    #[test]
    fn bad_lines_rejected() {
        assert_eq!(
            EnclaveManifest::parse("heap 1M"),
            Err(ManifestError::Syntax { line: 1 })
        );
        assert_eq!(
            EnclaveManifest::parse("\nheap = lots"),
            Err(ManifestError::BadSize { line: 2 })
        );
        assert_eq!(
            EnclaveManifest::parse("color = red"),
            Err(ManifestError::UnknownKey {
                key: "color".into()
            })
        );
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("64K"), Some(64 * 1024));
        assert_eq!(parse_size("8m"), Some(8 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
    }
}
