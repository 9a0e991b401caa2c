//! The wire codec: the single source of truth for JSON-line field
//! extraction, escaping, and parse errors, shared by the serve front
//! end, the router, and `bench-serve`.
//!
//! Every frame on the wire (requests, responses, v2 `layer_result` /
//! `done` frames, control lines, stats snapshots) is one flat JSON
//! object per line, rendered with [`json_string`] escaping and read
//! back with the scanners below — both ends of every connection in the
//! workspace go through this module, so escaping and field extraction
//! can never drift apart (the workspace builds offline; see
//! `shims/README.md` for why there is no serde here).
//!
//! Parse failures are **typed**: every parser in `protocol.rs` returns
//! a [`ParseError`] carrying both what went wrong and the offending
//! line, matching the malformed-id treatment introduced in PR 8 —
//! nothing is silently defaulted anymore.

/// Re-exported escape routine: the one function that turns a Rust
/// string into a JSON string literal anywhere in the workspace.
pub use pra_bench::report::json_string;

/// A typed wire-parse failure: what was wrong, and the exact line that
/// was wrong. Carrying the line means every layer that logs or relays
/// the error (probe failures, bench hard errors, `error` responses)
/// shows the operator the bytes that were actually rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was missing or invalid, e.g. `missing "cycles"`.
    pub what: String,
    /// The offending wire line, verbatim (trailing newline trimmed).
    pub line: String,
}

impl ParseError {
    /// A parse error for `line` described by `what`.
    pub fn new(what: impl Into<String>, line: &str) -> ParseError {
        ParseError { what: what.into(), line: line.trim_end().to_string() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in line: {}", self.what, self.line)
    }
}

impl std::error::Error for ParseError {}

/// Extracts the raw JSON string value following `"key":` in a flat
/// object; handles the escapes [`json_string`] emits. `None` when the
/// key is absent or not a string.
pub fn json_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let rest = line.get(line.find(&needle)? + needle.len()..)?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                esc => out.push(esc),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts the number following `"key":` in a flat JSON object.
/// Overflowing literals (`1e999`) are rejected rather than read as
/// infinities: JSON has no spelling for a non-finite number, so such a
/// value could never be rendered back onto the wire.
pub fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = line.get(line.find(&needle)? + needle.len()..)?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok().filter(|v: &f64| v.is_finite())
}

/// Extracts the number following `"key":` as an exact `u64`, rejecting
/// floats, negatives, and values past `u64::MAX` (everything the `f64`
/// path of [`json_num_field`] would silently mangle).
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = line.get(line.find(&needle)? + needle.len()..)?.trim_start();
    let end =
        rest.find(|c: char| c.is_whitespace() || matches!(c, ',' | '}')).unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

/// The raw token following `"id":`, exactly as it appears on the wire
/// (up to the next delimiter) — what [`request_id`] parses, preserved
/// verbatim so a rejected line's error response can echo the id text
/// the client actually sent instead of fabricating a numeric id.
/// `None` when the line has no id field at all.
pub fn raw_id_token(line: &str) -> Option<String> {
    let needle = "\"id\":";
    let rest = line.find(needle).and_then(|at| line.get(at + needle.len()..))?.trim_start();
    let end =
        rest.find(|c: char| c.is_whitespace() || matches!(c, ',' | '}')).unwrap_or(rest.len());
    let raw = rest.get(..end).unwrap_or(rest);
    if raw.is_empty() {
        return None;
    }
    Some(raw.to_string())
}

/// Extracts the request `id` as an exact `u64`, rejecting what
/// [`json_num_field`]'s `f64` path would silently mangle: ids beyond
/// 2⁵³ lose precision in a double, negatives and floats would
/// truncate, and an absent field used to default to 0 — which made a
/// malformed line impersonate whichever real request used id 0. The
/// raw token is preserved in the error so the client can see exactly
/// what the server rejected.
///
/// # Errors
///
/// A [`ParseError`] naming the problem and quoting the raw id text.
pub fn request_id(line: &str) -> Result<u64, ParseError> {
    let raw = raw_id_token(line).ok_or_else(|| ParseError::new("missing numeric \"id\"", line))?;
    raw.parse::<u64>().map_err(|_| {
        ParseError::new(format!("invalid \"id\" '{raw}' (expected an integer ≤ u64)"), line)
    })
}

/// Parses a seed written as decimal or `0x`-hex (underscores allowed).
pub fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        v.replace('_', "").parse().ok()
    }
}

/// Lower-case hex rendering of a digest.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_scanner_handles_escapes() {
        let line = "{\"msg\": \"a\\\"b\\\\c\\nd\", \"n\": -1.5e2}";
        assert_eq!(json_str_field(line, "msg").unwrap(), "a\"b\\c\nd");
        assert_eq!(json_num_field(line, "n").unwrap(), -150.0);
        assert!(json_str_field(line, "absent").is_none());
    }

    #[test]
    fn escaped_strings_round_trip_through_the_scanner() {
        for raw in ["plain", "a\"b\\c", "tabs\tand\nnewlines\r", "unicode: λ→∎ 🦀", ""] {
            let rendered = format!("{{\"msg\": {}}}", json_string(raw));
            assert_eq!(json_str_field(&rendered, "msg").as_deref(), Some(raw), "{rendered}");
        }
    }

    #[test]
    fn exact_u64_scanner_rejects_what_f64_mangles() {
        assert_eq!(json_u64_field("{\"n\": 18446744073709551615}", "n"), Some(u64::MAX));
        assert_eq!(json_u64_field("{\"n\": 18446744073709551616}", "n"), None);
        assert_eq!(json_u64_field("{\"n\": 1.5}", "n"), None);
        assert_eq!(json_u64_field("{\"n\": -3}", "n"), None);
        assert_eq!(json_u64_field("{\"x\": 1}", "n"), None);
    }

    #[test]
    fn raw_id_and_request_id_agree_on_malformed_input() {
        assert_eq!(raw_id_token("{\"id\": 1.5e3, \"x\": 1}").as_deref(), Some("1.5e3"));
        assert_eq!(raw_id_token("{\"x\": 1}"), None);
        assert_eq!(request_id("{\"id\": 18446744073709551615}").unwrap(), u64::MAX);
        let err = request_id("{\"id\": 1.5}").unwrap_err();
        assert!(err.what.contains("'1.5'"), "{err}");
        assert_eq!(err.line, "{\"id\": 1.5}");
        assert!(request_id("{\"x\": 1}").unwrap_err().to_string().contains("id"));
    }

    #[test]
    fn parse_errors_carry_the_offending_line() {
        let e = ParseError::new("missing \"cycles\"", "{\"status\": \"ok\"}\n");
        assert_eq!(e.to_string(), "missing \"cycles\" in line: {\"status\": \"ok\"}");
        assert_eq!(e.line, "{\"status\": \"ok\"}", "trailing newline trimmed");
    }

    #[test]
    fn seed_parser_reads_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xDEAD_BEEF"), Some(0xDEAD_BEEF));
        assert_eq!(parse_seed("1_000"), Some(1000));
        assert_eq!(parse_seed("zebra"), None);
    }

    #[test]
    fn hex_renders_lower_case_pairs() {
        assert_eq!(hex(&[0x00, 0xAB, 0xFF]), "00abff");
    }
}
