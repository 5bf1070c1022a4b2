//! Recursive-descent JSON reader (RFC 8259) into a [`Value`].

use serde::{Error, Value};

/// Nesting beyond this is refused, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += hit as usize;
        hit
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Object(entries));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.error("expected digits after `.`"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("expected exponent digits"));
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            // Integers keep all 64 bits; only ones that fit neither u64 nor
            // i64 fall through to f64, as in serde_json.
            if !negative {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::U64(n));
                }
            } else if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.error("invalid number"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("short \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote, checked by the caller
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while !matches!(
                self.bytes.get(self.pos),
                None | Some(b'"' | b'\\' | 0..=0x1f)
            ) {
                self.pos += 1;
            }
            // Stops only at ASCII bytes, so both ends are char boundaries.
            out.push_str(&self.text[run_start..self.pos]);
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                // A high surrogate must be followed by a low one.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.error("lone surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("lone surrogate"));
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }
}
