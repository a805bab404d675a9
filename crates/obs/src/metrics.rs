//! JSON string escaping for the exports: metric and scope names
//! ([`escape_metric_name`], used by the blame exports) and free-form
//! span names (`escape_json`, used by the Chrome trace export).

use std::fmt;

/// Escapes a metric/scope name for use as a JSON key: ASCII
/// alphanumerics and the punctuation metric names legitimately use
/// (`/ - _ . # : ( ) = @` and space) pass through readable; everything
/// else — quotes, backslashes, control characters, non-ASCII — is
/// `\uXXXX`-escaped (surrogate pairs for non-BMP), so any name yields a
/// valid, unambiguous JSON string.
pub fn escape_metric_name(s: &str) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            c if c.is_ascii_alphanumeric() => out.push(c),
            '/' | '-' | '_' | '.' | '#' | ':' | '(' | ')' | '=' | '@' | ' ' => out.push(ch),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_escaped_in_json() {
        // Safe punctuation stays readable; quotes, control characters,
        // and non-ASCII become \uXXXX escapes.
        assert_eq!(
            escape_metric_name("core/plain-name_1.x#y:z"),
            "core/plain-name_1.x#y:z"
        );
        let weird = escape_metric_name("weird \"name\"\nwith☃unicode");
        assert_eq!(weird, r"weird \u0022name\u0022\u000awith\u2603unicode");
        assert!(!weird.contains('\n'), "raw control chars must not leak");
    }
}
