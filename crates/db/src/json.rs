//! JSON text serialization for [`Value`], used as the on-disk
//! persistence format (one document per line).
//!
//! This is a complete, dependency-free JSON reader/writer for the
//! document model. Numbers that are integral and fit in `i64` parse to
//! [`Value::Int`]; everything else numeric becomes [`Value::Float`].

use crate::error::DbError;
use crate::value::Value;
use simart_codec::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes a value to compact JSON.
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Always keep a decimal point / exponent so floats
                // round-trip as floats.
                let text = format!("{f}");
                out.push_str(&text);
                if !text.contains('.') && !text.contains('e') && !text.contains('E') {
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; encode as null like most writers.
                out.push_str("null");
            }
        }
        Value::Str(s) => json::write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`DbError::Parse`] describing the byte offset and cause for
/// malformed input, including trailing garbage after the top-level value.
pub fn from_json(text: &str) -> Result<Value, DbError> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> DbError {
        DbError::Parse {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), DbError> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, DbError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_map(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, DbError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, DbError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("sliced on ASCII boundaries");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, DbError> {
        self.expect(b'"')?;
        json::read_string(self.text, &mut self.pos).map_err(|e| DbError::Parse {
            offset: e.offset,
            message: e.message.to_owned(),
        })
    }

    fn parse_array(&mut self) -> Result<Value, DbError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected `,` or `]`"));
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, DbError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Map(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected `,` or `}`"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let text = to_json(v);
        let back = from_json(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        assert_eq!(&back, v, "via {text}");
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::Int(0));
        round_trip(&Value::Int(i64::MAX));
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::Float(1.5));
        round_trip(&Value::Float(-0.0001));
        round_trip(&Value::Float(3e30));
        round_trip(&Value::Str(String::new()));
        round_trip(&Value::Str("héllo \"wörld\"\n\t\\".to_owned()));
        round_trip(&Value::Str("emoji: \u{1F600} done".to_owned()));
    }

    #[test]
    fn float_round_trips_as_float() {
        let v = from_json("1.0").unwrap();
        assert_eq!(v, Value::Float(1.0));
        assert_eq!(to_json(&v), "1.0");
        assert_eq!(from_json("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(from_json("7").unwrap(), Value::Int(7));
    }

    #[test]
    fn nested_round_trip() {
        round_trip(&Value::map([
            ("empty_map", Value::map([] as [(&str, Value); 0])),
            ("empty_arr", Value::array([])),
            (
                "nested",
                Value::map([(
                    "list",
                    Value::array([Value::Int(1), Value::Str("two".into()), Value::Null]),
                )]),
            ),
        ]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "nul",
            "01x",
            "[1] garbage",
            "{'a':1}",
        ] {
            assert!(from_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_parse() {
        let v = from_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Value::Str("\u{1F600}".to_owned()));
        assert!(from_json("\"\\ud83d\"").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = from_json("  { \"a\" : [ 1 , 2 ] }\n").unwrap();
        assert_eq!(v.at("a.1").and_then(Value::as_int), Some(2));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_json(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_json(&Value::Float(f64::INFINITY)), "null");
    }
}
