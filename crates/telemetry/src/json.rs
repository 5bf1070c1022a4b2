//! Minimal JSON emission helpers (the crate is dependency-free by design;
//! see `Cargo.toml`). Only what the exporters need: string escaping and
//! JSON-safe float formatting.

/// Append `s` to `out` as a JSON string literal (with surrounding quotes).
/// Every control character below 0x20 is escaped (`\n`/`\r`/`\t` short
/// forms, `\u00XX` otherwise) — RFC 8259 requires all of them, not just the
/// common three.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let b = c as u32;
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format a float as a JSON number. JSON has no NaN/Infinity, so non-finite
/// values degrade to `0` rather than producing an unparseable document.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's `Display` for floats never emits exponents or locale
        // separators, so the output is always a valid JSON number.
        out.push_str(&format!("{v}"));
    } else {
        out.push('0');
    }
}

/// Append a `"key":` prefix (escaped) to `out`.
pub fn write_key(out: &mut String, key: &str) {
    write_str(out, key);
    out.push(':');
}

/// Validate that `s` is exactly one well-formed JSON document (RFC 8259).
///
/// A minimal recursive-descent checker — no value tree is built — so the
/// flight recorder can assert its own dumps are parseable without pulling a
/// JSON dependency into this crate. The error carries the byte offset of the
/// first violation.
pub fn validate(s: &str) -> Result<(), String> {
    let mut p = Validator {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

/// Nesting ceiling for [`validate`] — recursion is bounded so a
/// pathological input cannot blow the stack.
const MAX_DEPTH: usize = 256;

struct Validator<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Validator<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                self.depth += 1;
                self.object()?;
                self.depth -= 1;
                Ok(())
            }
            Some(b'[') => {
                self.depth += 1;
                self.array()?;
                self.depth -= 1;
                Ok(())
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("bad number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("bad fraction"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("bad exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(s(|o| write_str(o, "a\"b\\c\nd")), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(s(|o| write_str(o, "\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn escapes_every_control_char_below_0x20() {
        for b in 0u32..0x20 {
            let c = char::from_u32(b).unwrap();
            let emitted = s(|o| write_str(o, &c.to_string()));
            let expected = match c {
                '\n' => "\"\\n\"".to_string(),
                '\r' => "\"\\r\"".to_string(),
                '\t' => "\"\\t\"".to_string(),
                _ => format!("\"\\u{b:04x}\""),
            };
            assert_eq!(emitted, expected, "control char 0x{b:02x}");
            // the emitted literal must contain no raw control bytes
            assert!(
                emitted.bytes().all(|byte| byte >= 0x20),
                "raw byte leaked for 0x{b:02x}"
            );
        }
    }

    #[test]
    fn multibyte_and_boundary_chars_pass_through() {
        assert_eq!(
            s(|o| write_str(o, "héllo ✓ \u{20}\u{7f}")),
            "\"héllo ✓ \u{20}\u{7f}\""
        );
    }

    #[test]
    fn floats_are_json_safe() {
        assert_eq!(s(|o| write_f64(o, 1.5)), "1.5");
        assert_eq!(s(|o| write_f64(o, f64::NAN)), "0");
        assert_eq!(s(|o| write_f64(o, f64::INFINITY)), "0");
        assert_eq!(s(|o| write_f64(o, 1e-7)), "0.0000001");
    }

    #[test]
    fn validate_accepts_well_formed_documents() {
        for doc in [
            "null",
            "true",
            "false",
            "0",
            "-1.5e+3",
            "\"a \\u00e9 b\"",
            "[]",
            "[1, [2, {\"k\": null}], \"s\"]",
            "{}",
            "{\"a\": {\"b\": [1.0, 2e-2]}, \"c\": \"\\n\"}",
            "  {\"padded\": true}  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "01",
            "1.",
            "1e",
            "nul",
            "true false",
            "{\"a\":1} trailing",
            "\"raw\ncontrol\"",
        ] {
            assert!(validate(doc).is_err(), "must reject: {doc:?}");
        }
    }

    #[test]
    fn validate_bounds_nesting_depth() {
        let deep_ok = format!("{}{}{}", "[".repeat(200), "1", "]".repeat(200));
        validate(&deep_ok).expect("200 levels fit under the ceiling");
        let too_deep = format!("{}{}{}", "[".repeat(300), "1", "]".repeat(300));
        assert!(too_deep.len() > 600);
        assert!(validate(&too_deep).is_err(), "bounded recursion");
    }

    #[test]
    fn validate_accepts_own_emissions() {
        let mut out = String::new();
        out.push('{');
        write_key(&mut out, "weird \u{1} key");
        write_f64(&mut out, f64::NAN);
        out.push(',');
        write_key(&mut out, "v");
        write_str(&mut out, "a\"b\\c\nd");
        out.push('}');
        validate(&out).expect("emitters and validator agree");
    }
}
