//! The workspace's JSON codec.
//!
//! A small, dependency-free JSON layer: a [`Json`] value, a strict parser, a
//! writer, and [`ToJson`] / [`FromJson`] implementations for every type an
//! [`Experiment`] contains.  The wire, campaign and checkpoint types
//! implement the same traits in their own modules.
//!
//! Enums use the externally-tagged layout: unit variants as strings, struct
//! variants as single-key objects.  Numbers must be finite: a literal that
//! overflows `f64` (such as `1e400`) is refused at parse time, since the
//! writer has no spelling for infinity.
//!
//! # Backwards compatibility
//!
//! Pre-redesign binaries wrote experiments with a `graph` key holding a bare
//! `GraphSpec`.  [`FromJson`] for [`Experiment`] accepts both layouts: a
//! `topology` key holding a [`TopologySpec`], or a legacy `graph` key whose
//! value is wrapped into [`TopologySpec::Materialised`] — the golden tests
//! below pin that old configs keep deserialising.
//!
//! Scenario API v3 adds an optional `adversary` key (an array of
//! [`AdversarySpec`]s).  Honest experiments omit the key entirely, so the v2
//! layout is unchanged byte for byte, and v2 documents (no adversary key)
//! parse to an empty adversary list.

use bo3_dynamics::prelude::{
    AdversarySpec, InitialCondition, ProtocolSpec, Schedule, StoppingCondition, TieRule,
};
use bo3_graph::generators::GraphSpec;
use bo3_graph::TopologySpec;

use crate::error::{CoreError, Result};
use crate::experiment::Experiment;

/// A JSON value.
///
/// Numbers keep their parsed shape (`UInt` / `Int` / `Float`) so 64-bit
/// seeds survive the round trip without passing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (covers `usize` and `u64` seeds exactly).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (kept stable for golden snapshots).
    Obj(Vec<(String, Json)>),
}

pub(crate) fn invalid(reason: impl Into<String>) -> CoreError {
    CoreError::InvalidConfig {
        reason: reason.into(),
    }
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as a `usize`, when it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Interprets the value as an externally-tagged enum: a bare string is a
    /// unit variant, a single-key object is a variant with payload.
    pub fn as_variant(&self) -> Result<(&str, Option<&Json>)> {
        match self {
            Json::Str(tag) => Ok((tag, None)),
            Json::Obj(fields) if fields.len() == 1 => {
                Ok((fields[0].0.as_str(), Some(&fields[0].1)))
            }
            other => Err(invalid(format!(
                "expected an enum variant (string or single-key object), got {}",
                other.to_json_string()
            ))),
        }
    }

    /// Serialises the value as compact JSON.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest-round-trip float formatting; force a
                    // fractional marker so the value re-parses as a float.
                    let s = f.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/inf, and the parser refuses them.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing non-whitespace is an error).
    ///
    /// Arrays and objects may nest at most [`MAX_NESTING`] levels deep;
    /// deeper documents are an `InvalidConfig` error, never a stack
    /// overflow.  Parsing is linear in the input length.
    pub fn parse(input: &str) -> Result<Json> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(invalid(format!(
                "trailing characters at byte {} of JSON document",
                parser.pos
            )));
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts.
///
/// The parser recurses once per level, so without a cap one line of `[`s
/// overflows the stack of whichever thread parses it — a daemon connection
/// thread has 2 MiB.  The configurations, checkpoints and wire messages
/// this layer reads nest a handful of levels.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(invalid(format!(
                "expected '{}' at byte {} of JSON document",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(invalid(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(invalid(format!(
                "unexpected character at byte {} of JSON document",
                self.pos
            ))),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_NESTING`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_NESTING {
            return Err(invalid(format!(
                "JSON nesting deeper than {MAX_NESTING} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(invalid("unterminated JSON string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| invalid("unterminated escape in JSON string"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| invalid("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| invalid("invalid \\u escape"))?;
                            // Config strings are labels; surrogate pairs are
                            // out of scope for this minimal layer.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| invalid("non-scalar \\u escape"))?,
                            );
                            self.pos = end;
                        }
                        other => {
                            return Err(invalid(format!(
                                "unsupported escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once.  Both are ASCII, so the run ends on a character
                    // boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
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
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(invalid(format!("invalid number '{text}'"))),
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(invalid("expected ',' or ']' in JSON array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(invalid("expected ',' or '}' in JSON object")),
            }
        }
    }
}

/// Serialisation into the [`Json`] model.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;

    /// Compact JSON text of `self`.
    fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }
}

/// Deserialisation from the [`Json`] model.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, with a typed error naming what was wrong.
    fn from_json(json: &Json) -> Result<Self>;

    /// Parses JSON text and reconstructs `Self`.
    fn from_json_str(text: &str) -> Result<Self> {
        Self::from_json(&Json::parse(text)?)
    }
}

// --- small construction helpers ----------------------------------------

pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn unit(tag: &str) -> Json {
    Json::Str(tag.to_string())
}

pub(crate) fn tagged(tag: &str, payload: Json) -> Json {
    Json::Obj(vec![(tag.to_string(), payload)])
}

pub(crate) fn uint(u: usize) -> Json {
    Json::UInt(u as u64)
}

pub(crate) fn float(f: f64) -> Json {
    Json::Float(f)
}

pub(crate) fn need<'j>(json: &'j Json, key: &str, ty: &str) -> Result<&'j Json> {
    json.get(key)
        .ok_or_else(|| invalid(format!("{ty} is missing field '{key}'")))
}

pub(crate) fn need_usize(json: &Json, key: &str, ty: &str) -> Result<usize> {
    need(json, key, ty)?
        .as_usize()
        .ok_or_else(|| invalid(format!("{ty}.{key} must be a non-negative integer")))
}

pub(crate) fn need_f64(json: &Json, key: &str, ty: &str) -> Result<f64> {
    need(json, key, ty)?
        .as_f64()
        .ok_or_else(|| invalid(format!("{ty}.{key} must be a number")))
}

pub(crate) fn need_u64(json: &Json, key: &str, ty: &str) -> Result<u64> {
    need(json, key, ty)?
        .as_u64()
        .ok_or_else(|| invalid(format!("{ty}.{key} must be a non-negative integer")))
}

/// [`need_u64`] for 32-bit fields: a value past `u32::MAX` is a typed error,
/// never truncated into a different (possibly valid) one.
pub(crate) fn need_u32(json: &Json, key: &str, ty: &str) -> Result<u32> {
    let value = need_u64(json, key, ty)?;
    u32::try_from(value).map_err(|_| invalid(format!("{ty}.{key} = {value} exceeds u32::MAX")))
}

pub(crate) fn payload<'j>(payload: Option<&'j Json>, tag: &str) -> Result<&'j Json> {
    payload.ok_or_else(|| invalid(format!("variant '{tag}' requires a payload object")))
}

// --- TieRule ------------------------------------------------------------

impl ToJson for TieRule {
    fn to_json(&self) -> Json {
        match self {
            TieRule::KeepOwn => unit("KeepOwn"),
            TieRule::Random => unit("Random"),
        }
    }
}

impl FromJson for TieRule {
    fn from_json(json: &Json) -> Result<Self> {
        match json.as_variant()? {
            ("KeepOwn", None) => Ok(TieRule::KeepOwn),
            ("Random", None) => Ok(TieRule::Random),
            (other, _) => Err(invalid(format!("unknown TieRule variant '{other}'"))),
        }
    }
}

// --- ProtocolSpec -------------------------------------------------------

impl ToJson for ProtocolSpec {
    fn to_json(&self) -> Json {
        match *self {
            ProtocolSpec::Voter => unit("Voter"),
            ProtocolSpec::BestOfTwo { tie_rule } => {
                tagged("BestOfTwo", obj(vec![("tie_rule", tie_rule.to_json())]))
            }
            ProtocolSpec::BestOfThree => unit("BestOfThree"),
            ProtocolSpec::BestOfK { k, tie_rule } => tagged(
                "BestOfK",
                obj(vec![("k", uint(k)), ("tie_rule", tie_rule.to_json())]),
            ),
            ProtocolSpec::LocalMajority { tie_rule } => {
                tagged("LocalMajority", obj(vec![("tie_rule", tie_rule.to_json())]))
            }
        }
    }
}

impl FromJson for ProtocolSpec {
    fn from_json(json: &Json) -> Result<Self> {
        let (tag, body) = json.as_variant()?;
        match tag {
            "Voter" => Ok(ProtocolSpec::Voter),
            "BestOfThree" => Ok(ProtocolSpec::BestOfThree),
            "BestOfTwo" => Ok(ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::from_json(need(payload(body, tag)?, "tie_rule", tag)?)?,
            }),
            "BestOfK" => {
                let body = payload(body, tag)?;
                Ok(ProtocolSpec::BestOfK {
                    k: need_usize(body, "k", tag)?,
                    tie_rule: TieRule::from_json(need(body, "tie_rule", tag)?)?,
                })
            }
            "LocalMajority" => Ok(ProtocolSpec::LocalMajority {
                tie_rule: TieRule::from_json(need(payload(body, tag)?, "tie_rule", tag)?)?,
            }),
            other => Err(invalid(format!("unknown ProtocolSpec variant '{other}'"))),
        }
    }
}

// --- GraphSpec ----------------------------------------------------------

impl ToJson for GraphSpec {
    fn to_json(&self) -> Json {
        match *self {
            GraphSpec::Complete { n } => tagged("Complete", obj(vec![("n", uint(n))])),
            GraphSpec::Cycle { n } => tagged("Cycle", obj(vec![("n", uint(n))])),
            GraphSpec::Path { n } => tagged("Path", obj(vec![("n", uint(n))])),
            GraphSpec::Star { n } => tagged("Star", obj(vec![("n", uint(n))])),
            GraphSpec::Wheel { n } => tagged("Wheel", obj(vec![("n", uint(n))])),
            GraphSpec::CompleteBipartite { a, b } => tagged(
                "CompleteBipartite",
                obj(vec![("a", uint(a)), ("b", uint(b))]),
            ),
            GraphSpec::ErdosRenyiGnp { n, p } => {
                tagged("ErdosRenyiGnp", obj(vec![("n", uint(n)), ("p", float(p))]))
            }
            GraphSpec::ErdosRenyiGnm { n, m } => {
                tagged("ErdosRenyiGnm", obj(vec![("n", uint(n)), ("m", uint(m))]))
            }
            GraphSpec::DenseForAlpha { n, alpha } => tagged(
                "DenseForAlpha",
                obj(vec![("n", uint(n)), ("alpha", float(alpha))]),
            ),
            GraphSpec::RandomRegular { n, d } => {
                tagged("RandomRegular", obj(vec![("n", uint(n)), ("d", uint(d))]))
            }
            GraphSpec::ChungLuPowerLaw {
                n,
                exponent,
                min_weight,
                max_weight,
            } => tagged(
                "ChungLuPowerLaw",
                obj(vec![
                    ("n", uint(n)),
                    ("exponent", float(exponent)),
                    ("min_weight", float(min_weight)),
                    ("max_weight", float(max_weight)),
                ]),
            ),
            GraphSpec::Hypercube { dim } => tagged("Hypercube", obj(vec![("dim", uint(dim))])),
            GraphSpec::Torus2d { rows, cols } => tagged(
                "Torus2d",
                obj(vec![("rows", uint(rows)), ("cols", uint(cols))]),
            ),
            GraphSpec::Grid2d { rows, cols } => tagged(
                "Grid2d",
                obj(vec![("rows", uint(rows)), ("cols", uint(cols))]),
            ),
            GraphSpec::PlantedPartition {
                n,
                blocks,
                p_in,
                p_out,
            } => tagged(
                "PlantedPartition",
                obj(vec![
                    ("n", uint(n)),
                    ("blocks", uint(blocks)),
                    ("p_in", float(p_in)),
                    ("p_out", float(p_out)),
                ]),
            ),
            GraphSpec::Barbell { clique, bridge } => tagged(
                "Barbell",
                obj(vec![("clique", uint(clique)), ("bridge", uint(bridge))]),
            ),
            GraphSpec::CorePeriphery {
                core,
                periphery,
                attach,
            } => tagged(
                "CorePeriphery",
                obj(vec![
                    ("core", uint(core)),
                    ("periphery", uint(periphery)),
                    ("attach", uint(attach)),
                ]),
            ),
        }
    }
}

impl FromJson for GraphSpec {
    fn from_json(json: &Json) -> Result<Self> {
        let (tag, body) = json.as_variant()?;
        let body = payload(body, tag)?;
        match tag {
            "Complete" => Ok(GraphSpec::Complete {
                n: need_usize(body, "n", tag)?,
            }),
            "Cycle" => Ok(GraphSpec::Cycle {
                n: need_usize(body, "n", tag)?,
            }),
            "Path" => Ok(GraphSpec::Path {
                n: need_usize(body, "n", tag)?,
            }),
            "Star" => Ok(GraphSpec::Star {
                n: need_usize(body, "n", tag)?,
            }),
            "Wheel" => Ok(GraphSpec::Wheel {
                n: need_usize(body, "n", tag)?,
            }),
            "CompleteBipartite" => Ok(GraphSpec::CompleteBipartite {
                a: need_usize(body, "a", tag)?,
                b: need_usize(body, "b", tag)?,
            }),
            "ErdosRenyiGnp" => Ok(GraphSpec::ErdosRenyiGnp {
                n: need_usize(body, "n", tag)?,
                p: need_f64(body, "p", tag)?,
            }),
            "ErdosRenyiGnm" => Ok(GraphSpec::ErdosRenyiGnm {
                n: need_usize(body, "n", tag)?,
                m: need_usize(body, "m", tag)?,
            }),
            "DenseForAlpha" => Ok(GraphSpec::DenseForAlpha {
                n: need_usize(body, "n", tag)?,
                alpha: need_f64(body, "alpha", tag)?,
            }),
            "RandomRegular" => Ok(GraphSpec::RandomRegular {
                n: need_usize(body, "n", tag)?,
                d: need_usize(body, "d", tag)?,
            }),
            "ChungLuPowerLaw" => Ok(GraphSpec::ChungLuPowerLaw {
                n: need_usize(body, "n", tag)?,
                exponent: need_f64(body, "exponent", tag)?,
                min_weight: need_f64(body, "min_weight", tag)?,
                max_weight: need_f64(body, "max_weight", tag)?,
            }),
            "Hypercube" => Ok(GraphSpec::Hypercube {
                dim: need_usize(body, "dim", tag)?,
            }),
            "Torus2d" => Ok(GraphSpec::Torus2d {
                rows: need_usize(body, "rows", tag)?,
                cols: need_usize(body, "cols", tag)?,
            }),
            "Grid2d" => Ok(GraphSpec::Grid2d {
                rows: need_usize(body, "rows", tag)?,
                cols: need_usize(body, "cols", tag)?,
            }),
            "PlantedPartition" => Ok(GraphSpec::PlantedPartition {
                n: need_usize(body, "n", tag)?,
                blocks: need_usize(body, "blocks", tag)?,
                p_in: need_f64(body, "p_in", tag)?,
                p_out: need_f64(body, "p_out", tag)?,
            }),
            "Barbell" => Ok(GraphSpec::Barbell {
                clique: need_usize(body, "clique", tag)?,
                bridge: need_usize(body, "bridge", tag)?,
            }),
            "CorePeriphery" => Ok(GraphSpec::CorePeriphery {
                core: need_usize(body, "core", tag)?,
                periphery: need_usize(body, "periphery", tag)?,
                attach: need_usize(body, "attach", tag)?,
            }),
            other => Err(invalid(format!("unknown GraphSpec variant '{other}'"))),
        }
    }
}

// --- TopologySpec -------------------------------------------------------

impl ToJson for TopologySpec {
    fn to_json(&self) -> Json {
        match self {
            TopologySpec::Complete { n } => tagged("Complete", obj(vec![("n", uint(*n))])),
            TopologySpec::CompleteBipartite { a, b } => tagged(
                "CompleteBipartite",
                obj(vec![("a", uint(*a)), ("b", uint(*b))]),
            ),
            TopologySpec::CompleteMultipartite { blocks } => tagged(
                "CompleteMultipartite",
                obj(vec![(
                    "blocks",
                    Json::Arr(blocks.iter().map(|&s| uint(s)).collect()),
                )]),
            ),
            TopologySpec::ImplicitGnp { n, p } => {
                tagged("ImplicitGnp", obj(vec![("n", uint(*n)), ("p", float(*p))]))
            }
            TopologySpec::ImplicitSbm {
                n,
                blocks,
                p_in,
                p_out,
            } => tagged(
                "ImplicitSbm",
                obj(vec![
                    ("n", uint(*n)),
                    ("blocks", uint(*blocks)),
                    ("p_in", float(*p_in)),
                    ("p_out", float(*p_out)),
                ]),
            ),
            TopologySpec::Materialised(graph) => tagged("Materialised", graph.to_json()),
        }
    }
}

impl FromJson for TopologySpec {
    fn from_json(json: &Json) -> Result<Self> {
        let (tag, body) = json.as_variant()?;
        match tag {
            "Complete" => Ok(TopologySpec::Complete {
                n: need_usize(payload(body, tag)?, "n", tag)?,
            }),
            "CompleteBipartite" => {
                let body = payload(body, tag)?;
                Ok(TopologySpec::CompleteBipartite {
                    a: need_usize(body, "a", tag)?,
                    b: need_usize(body, "b", tag)?,
                })
            }
            "CompleteMultipartite" => {
                let body = payload(body, tag)?;
                let blocks = need(body, "blocks", tag)?
                    .as_array()
                    .ok_or_else(|| invalid("CompleteMultipartite.blocks must be an array"))?
                    .iter()
                    .map(|item| {
                        item.as_usize().ok_or_else(|| {
                            invalid("CompleteMultipartite.blocks must hold integers")
                        })
                    })
                    .collect::<Result<Vec<usize>>>()?;
                Ok(TopologySpec::CompleteMultipartite { blocks })
            }
            "ImplicitGnp" => {
                let body = payload(body, tag)?;
                Ok(TopologySpec::ImplicitGnp {
                    n: need_usize(body, "n", tag)?,
                    p: need_f64(body, "p", tag)?,
                })
            }
            "ImplicitSbm" => {
                let body = payload(body, tag)?;
                Ok(TopologySpec::ImplicitSbm {
                    n: need_usize(body, "n", tag)?,
                    blocks: need_usize(body, "blocks", tag)?,
                    p_in: need_f64(body, "p_in", tag)?,
                    p_out: need_f64(body, "p_out", tag)?,
                })
            }
            "Materialised" => Ok(TopologySpec::Materialised(GraphSpec::from_json(payload(
                body, tag,
            )?)?)),
            other => Err(invalid(format!("unknown TopologySpec variant '{other}'"))),
        }
    }
}

// --- InitialCondition ---------------------------------------------------

impl ToJson for InitialCondition {
    fn to_json(&self) -> Json {
        match self {
            InitialCondition::BernoulliWithBias { delta } => {
                tagged("BernoulliWithBias", obj(vec![("delta", float(*delta))]))
            }
            InitialCondition::Bernoulli { blue_probability } => tagged(
                "Bernoulli",
                obj(vec![("blue_probability", float(*blue_probability))]),
            ),
            InitialCondition::ExactCount { blue } => {
                tagged("ExactCount", obj(vec![("blue", uint(*blue))]))
            }
            InitialCondition::AllRed => unit("AllRed"),
            InitialCondition::AllBlue => unit("AllBlue"),
            InitialCondition::HighestDegreeBlue { blue } => {
                tagged("HighestDegreeBlue", obj(vec![("blue", uint(*blue))]))
            }
            InitialCondition::LowestDegreeBlue { blue } => {
                tagged("LowestDegreeBlue", obj(vec![("blue", uint(*blue))]))
            }
            InitialCondition::ExplicitBlue { vertices } => tagged(
                "ExplicitBlue",
                obj(vec![(
                    "vertices",
                    Json::Arr(vertices.iter().map(|&v| uint(v)).collect()),
                )]),
            ),
            InitialCondition::PrefixBlue { blue } => {
                tagged("PrefixBlue", obj(vec![("blue", uint(*blue))]))
            }
        }
    }
}

impl FromJson for InitialCondition {
    fn from_json(json: &Json) -> Result<Self> {
        let (tag, body) = json.as_variant()?;
        match tag {
            "AllRed" => Ok(InitialCondition::AllRed),
            "AllBlue" => Ok(InitialCondition::AllBlue),
            "BernoulliWithBias" => Ok(InitialCondition::BernoulliWithBias {
                delta: need_f64(payload(body, tag)?, "delta", tag)?,
            }),
            "Bernoulli" => Ok(InitialCondition::Bernoulli {
                blue_probability: need_f64(payload(body, tag)?, "blue_probability", tag)?,
            }),
            "ExactCount" => Ok(InitialCondition::ExactCount {
                blue: need_usize(payload(body, tag)?, "blue", tag)?,
            }),
            "HighestDegreeBlue" => Ok(InitialCondition::HighestDegreeBlue {
                blue: need_usize(payload(body, tag)?, "blue", tag)?,
            }),
            "LowestDegreeBlue" => Ok(InitialCondition::LowestDegreeBlue {
                blue: need_usize(payload(body, tag)?, "blue", tag)?,
            }),
            "PrefixBlue" => Ok(InitialCondition::PrefixBlue {
                blue: need_usize(payload(body, tag)?, "blue", tag)?,
            }),
            "ExplicitBlue" => {
                let vertices = need(payload(body, tag)?, "vertices", tag)?
                    .as_array()
                    .ok_or_else(|| invalid("ExplicitBlue.vertices must be an array"))?
                    .iter()
                    .map(|item| {
                        item.as_usize()
                            .ok_or_else(|| invalid("ExplicitBlue.vertices must hold integers"))
                    })
                    .collect::<Result<Vec<usize>>>()?;
                Ok(InitialCondition::ExplicitBlue { vertices })
            }
            other => Err(invalid(format!(
                "unknown InitialCondition variant '{other}'"
            ))),
        }
    }
}

// --- AdversarySpec (Scenario API v3) ------------------------------------

impl ToJson for AdversarySpec {
    fn to_json(&self) -> Json {
        match self {
            AdversarySpec::Zealots { fraction } => {
                tagged("Zealots", obj(vec![("fraction", float(*fraction))]))
            }
            AdversarySpec::ZealotIds { vertices } => tagged(
                "ZealotIds",
                obj(vec![(
                    "vertices",
                    Json::Arr(vertices.iter().map(|&v| uint(v)).collect()),
                )]),
            ),
            AdversarySpec::Byzantine { fraction } => {
                tagged("Byzantine", obj(vec![("fraction", float(*fraction))]))
            }
            AdversarySpec::Drop { q } => tagged("Drop", obj(vec![("q", float(*q))])),
            AdversarySpec::Partition {
                from_round,
                until_round,
                blocks,
            } => tagged(
                "Partition",
                obj(vec![
                    ("from_round", Json::UInt(*from_round)),
                    ("until_round", Json::UInt(*until_round)),
                    ("blocks", uint(*blocks)),
                ]),
            ),
        }
    }
}

impl FromJson for AdversarySpec {
    fn from_json(json: &Json) -> Result<Self> {
        let (tag, body) = json.as_variant()?;
        let body = payload(body, tag)?;
        let spec = match tag {
            "Zealots" => Ok(AdversarySpec::Zealots {
                fraction: need_f64(body, "fraction", tag)?,
            }),
            "ZealotIds" => {
                let vertices = need(body, "vertices", tag)?
                    .as_array()
                    .ok_or_else(|| invalid("ZealotIds.vertices must be an array"))?
                    .iter()
                    .map(|item| {
                        item.as_usize()
                            .ok_or_else(|| invalid("ZealotIds.vertices must hold integers"))
                    })
                    .collect::<Result<Vec<usize>>>()?;
                Ok(AdversarySpec::ZealotIds { vertices })
            }
            "Byzantine" => Ok(AdversarySpec::Byzantine {
                fraction: need_f64(body, "fraction", tag)?,
            }),
            "Drop" => Ok(AdversarySpec::Drop {
                q: need_f64(body, "q", tag)?,
            }),
            "Partition" => Ok(AdversarySpec::Partition {
                from_round: need_u64(body, "from_round", tag)?,
                until_round: need_u64(body, "until_round", tag)?,
                blocks: need_usize(body, "blocks", tag)?,
            }),
            other => Err(invalid(format!("unknown AdversarySpec variant '{other}'"))),
        }?;
        // Numeric parameters are validated at parse time, so an
        // out-of-range fraction in a config file is a typed load error here
        // rather than a failure deep inside the run.
        spec.validate()
            .map_err(|e| invalid(format!("invalid AdversarySpec: {e}")))?;
        Ok(spec)
    }
}

// --- Schedule & StoppingCondition --------------------------------------

impl ToJson for Schedule {
    fn to_json(&self) -> Json {
        match self {
            Schedule::Synchronous => unit("Synchronous"),
            Schedule::AsynchronousRandomOrder => unit("AsynchronousRandomOrder"),
        }
    }
}

impl FromJson for Schedule {
    fn from_json(json: &Json) -> Result<Self> {
        match json.as_variant()? {
            ("Synchronous", None) => Ok(Schedule::Synchronous),
            ("AsynchronousRandomOrder", None) => Ok(Schedule::AsynchronousRandomOrder),
            (other, _) => Err(invalid(format!("unknown Schedule variant '{other}'"))),
        }
    }
}

impl ToJson for StoppingCondition {
    fn to_json(&self) -> Json {
        obj(vec![
            ("max_rounds", uint(self.max_rounds)),
            ("stop_on_consensus", Json::Bool(self.stop_on_consensus)),
            (
                "blue_fraction_floor",
                match self.blue_fraction_floor {
                    Some(floor) => float(floor),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for StoppingCondition {
    fn from_json(json: &Json) -> Result<Self> {
        let ty = "StoppingCondition";
        let floor = match need(json, "blue_fraction_floor", ty)? {
            Json::Null => None,
            value => Some(
                value
                    .as_f64()
                    .ok_or_else(|| invalid("blue_fraction_floor must be a number or null"))?,
            ),
        };
        Ok(StoppingCondition {
            max_rounds: need_usize(json, "max_rounds", ty)?,
            stop_on_consensus: need(json, "stop_on_consensus", ty)?
                .as_bool()
                .ok_or_else(|| invalid("stop_on_consensus must be a boolean"))?,
            blue_fraction_floor: floor,
        })
    }
}

// --- Experiment ---------------------------------------------------------

impl ToJson for Experiment {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("topology", self.topology.to_json()),
        ];
        // Scenario API v3: the adversary key appears only when the list is
        // non-empty, so honest configurations keep the exact v2 layout (the
        // golden snapshot below pins both).
        if !self.adversary.is_empty() {
            fields.push((
                "adversary",
                Json::Arr(self.adversary.iter().map(|spec| spec.to_json()).collect()),
            ));
        }
        fields.extend([
            ("protocol", self.protocol.to_json()),
            ("initial", self.initial.to_json()),
            ("schedule", self.schedule.to_json()),
            ("stopping", self.stopping.to_json()),
            ("replicas", uint(self.replicas)),
            ("seed", Json::UInt(self.seed)),
            ("threads", uint(self.threads)),
        ]);
        obj(fields)
    }
}

impl FromJson for Experiment {
    fn from_json(json: &Json) -> Result<Self> {
        let ty = "Experiment";
        // v2 configs carry `topology`; pre-redesign configs carried a bare
        // `graph: GraphSpec`, which maps onto the materialised variant.
        let topology = match (json.get("topology"), json.get("graph")) {
            (Some(spec), _) => TopologySpec::from_json(spec)?,
            (None, Some(graph)) => TopologySpec::Materialised(GraphSpec::from_json(graph)?),
            (None, None) => {
                return Err(invalid(
                    "Experiment needs a 'topology' (or legacy 'graph') field",
                ))
            }
        };
        // v2 / v1 configs have no `adversary` key: absent means honest.
        let adversary = match json.get("adversary") {
            None => Vec::new(),
            Some(list) => list
                .as_array()
                .ok_or_else(|| invalid("Experiment.adversary must be an array"))?
                .iter()
                .map(AdversarySpec::from_json)
                .collect::<Result<Vec<AdversarySpec>>>()?,
        };
        Ok(Experiment {
            name: need(json, "name", ty)?
                .as_str()
                .ok_or_else(|| invalid("Experiment.name must be a string"))?
                .to_string(),
            topology,
            adversary,
            protocol: ProtocolSpec::from_json(need(json, "protocol", ty)?)?,
            initial: InitialCondition::from_json(need(json, "initial", ty)?)?,
            schedule: Schedule::from_json(need(json, "schedule", ty)?)?,
            stopping: StoppingCondition::from_json(need(json, "stopping", ty)?)?,
            replicas: need_usize(json, "replicas", ty)?,
            seed: need(json, "seed", ty)?
                .as_u64()
                .ok_or_else(|| invalid("Experiment.seed must be a non-negative integer"))?,
            threads: need_usize(json, "threads", ty)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: &T) {
        let text = value.to_json_string();
        let back = T::from_json_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, value, "{text}");
    }

    #[test]
    fn json_parser_handles_the_basics() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\\"\"").unwrap(),
            Json::Str("a\n\"b\"".into())
        );
        assert_eq!(
            Json::parse("[1, 2, 3]").unwrap(),
            Json::Arr(vec![Json::UInt(1), Json::UInt(2), Json::UInt(3)])
        );
        let parsed = Json::parse("{\"a\": 1, \"b\": [true, null]}").unwrap();
        assert_eq!(parsed.get("a"), Some(&Json::UInt(1)));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_NESTING)).is_ok());
        let deep_object = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING),
            "}".repeat(MAX_NESTING)
        );
        assert!(Json::parse(&deep_object).is_ok());
        for too_deep in [nest(MAX_NESTING + 1), "[".repeat(100_000)] {
            assert!(matches!(
                Json::parse(&too_deep),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Escapes and multi-byte characters between long plain runs.
        let unit = format!("{}é\"😀\\\n", "x".repeat(1 << 10));
        let text: String = unit.repeat(1 << 10);
        assert!(text.len() > 1 << 20);
        let started = std::time::Instant::now();
        let encoded = Json::Str(text.clone()).to_json_string();
        assert_eq!(Json::parse(&encoded).unwrap(), Json::Str(text));
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "a 1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn u64_seeds_survive_without_float_precision_loss() {
        let seed = u64::MAX - 1;
        let text = Json::UInt(seed).to_json_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn numbers_that_overflow_f64_are_typed_errors() {
        for bad in ["1e400", "-1e400", "[0.5,1e999]"] {
            assert!(
                matches!(Json::parse(bad), Err(CoreError::InvalidConfig { .. })),
                "{bad} should be refused"
            );
        }
        // An underflow is finite: it parses to zero and round-trips.
        let tiny = Json::parse("1e-400").unwrap();
        assert_eq!(tiny, Json::Float(0.0));
        assert_eq!(Json::parse(&tiny.to_json_string()).unwrap(), tiny);
        // A floor of 1e400 would decode to +inf, be written as `null` and
        // read back as no floor at all, so the experiment is refused.
        let doc = "{\"name\":\"overflow/floor\",\
                   \"topology\":{\"Complete\":{\"n\":100}},\
                   \"protocol\":\"BestOfThree\",\
                   \"initial\":{\"BernoulliWithBias\":{\"delta\":0.1}},\
                   \"schedule\":\"Synchronous\",\
                   \"stopping\":{\"max_rounds\":64,\"stop_on_consensus\":true,\
                   \"blue_fraction_floor\":1e400},\
                   \"replicas\":2,\"seed\":1,\"threads\":0}";
        assert!(matches!(
            Experiment::from_json_str(doc),
            Err(CoreError::InvalidConfig { .. })
        ));
        let finite = Experiment::from_json_str(&doc.replace("1e400", "0.5")).unwrap();
        assert_eq!(finite.stopping.blue_fraction_floor, Some(0.5));
    }

    #[test]
    fn golden_v2_experiment_round_trips() {
        let experiment = Experiment::on(TopologySpec::ImplicitSbm {
            n: 1_000_000,
            blocks: 2,
            p_in: 0.6,
            p_out: 0.2,
        })
        .named("golden/sbm")
        .protocol(ProtocolSpec::BestOfThree)
        .initial(InitialCondition::PrefixBlue { blue: 500_000 })
        .stopping(StoppingCondition::consensus_within(64))
        .replicas(3)
        .seed(0xE14)
        .threads(0);
        let text = experiment.to_json_string();
        // Golden snapshot of the v2 layout.
        assert_eq!(
            text,
            "{\"name\":\"golden/sbm\",\
             \"topology\":{\"ImplicitSbm\":{\"n\":1000000,\"blocks\":2,\"p_in\":0.6,\"p_out\":0.2}},\
             \"protocol\":\"BestOfThree\",\
             \"initial\":{\"PrefixBlue\":{\"blue\":500000}},\
             \"schedule\":\"Synchronous\",\
             \"stopping\":{\"max_rounds\":64,\"stop_on_consensus\":true,\"blue_fraction_floor\":null},\
             \"replicas\":3,\"seed\":3604,\"threads\":0}"
        );
        round_trip(&experiment);
    }

    #[test]
    fn golden_v3_adversarial_experiment_round_trips() {
        let experiment = Experiment::on(TopologySpec::Complete { n: 100_000 })
            .named("golden/adversarial")
            .protocol(ProtocolSpec::BestOfThree)
            .initial(InitialCondition::BernoulliWithBias { delta: 0.1 })
            .stopping(StoppingCondition::consensus_within(128))
            .adversary(AdversarySpec::Zealots { fraction: 0.05 })
            .adversary(AdversarySpec::Drop { q: 0.1 })
            .adversary(AdversarySpec::Partition {
                from_round: 4,
                until_round: 16,
                blocks: 2,
            })
            .replicas(5)
            .seed(0xE17)
            .threads(0);
        let text = experiment.to_json_string();
        // Golden snapshot of the v3 layout: the adversary list sits right
        // after the topology, each mechanism externally tagged.
        assert_eq!(
            text,
            "{\"name\":\"golden/adversarial\",\
             \"topology\":{\"Complete\":{\"n\":100000}},\
             \"adversary\":[{\"Zealots\":{\"fraction\":0.05}},\
             {\"Drop\":{\"q\":0.1}},\
             {\"Partition\":{\"from_round\":4,\"until_round\":16,\"blocks\":2}}],\
             \"protocol\":\"BestOfThree\",\
             \"initial\":{\"BernoulliWithBias\":{\"delta\":0.1}},\
             \"schedule\":\"Synchronous\",\
             \"stopping\":{\"max_rounds\":128,\"stop_on_consensus\":true,\"blue_fraction_floor\":null},\
             \"replicas\":5,\"seed\":3607,\"threads\":0}"
        );
        round_trip(&experiment);
    }

    #[test]
    fn v2_configs_without_an_adversary_key_parse_unchanged() {
        // The exact v2 layout (no adversary key): it must deserialise to the
        // honest experiment, and re-serialising must not invent the key.
        let v2 = "{\"name\":\"compat/v2\",\
                  \"topology\":{\"ImplicitGnp\":{\"n\":5000,\"p\":0.4}},\
                  \"protocol\":\"BestOfThree\",\
                  \"initial\":{\"BernoulliWithBias\":{\"delta\":0.1}},\
                  \"schedule\":\"Synchronous\",\
                  \"stopping\":{\"max_rounds\":10000,\"stop_on_consensus\":true,\
                  \"blue_fraction_floor\":null},\
                  \"replicas\":8,\"seed\":1,\"threads\":0}";
        let experiment = Experiment::from_json_str(v2).unwrap();
        assert!(experiment.adversary.is_empty());
        assert!(!experiment.to_json_string().contains("adversary"));
        round_trip(&experiment);
    }

    #[test]
    fn out_of_range_adversary_parameters_fail_at_parse_time() {
        // One case per spelling: the JSON load reports a typed error instead
        // of accepting a spec that would misbehave deep inside the run.
        for bad in [
            "{\"Zealots\":{\"fraction\":1.5}}",
            "{\"Zealots\":{\"fraction\":-0.1}}",
            "{\"Byzantine\":{\"fraction\":2.0}}",
            "{\"Drop\":{\"q\":1.01}}",
            "{\"Drop\":{\"q\":-0.5}}",
            "{\"Partition\":{\"from_round\":9,\"until_round\":9,\"blocks\":2}}",
            "{\"Partition\":{\"from_round\":9,\"until_round\":4,\"blocks\":2}}",
            "{\"Partition\":{\"from_round\":0,\"until_round\":5,\"blocks\":1}}",
        ] {
            let err = AdversarySpec::from_json_str(bad).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{bad}: expected InvalidConfig, got {err:?}"
            );
        }
        // In-range parameters still load.
        assert!(AdversarySpec::from_json_str("{\"Drop\":{\"q\":0.25}}").is_ok());
        // … and an experiment embedding a bad spec fails as a whole.
        let doc = "{\"name\":\"bad\",\
                  \"topology\":{\"ImplicitGnp\":{\"n\":5000,\"p\":0.4}},\
                  \"protocol\":\"BestOfThree\",\
                  \"initial\":{\"BernoulliWithBias\":{\"delta\":0.1}},\
                  \"schedule\":\"Synchronous\",\
                  \"stopping\":{\"max_rounds\":10000,\"stop_on_consensus\":true,\
                  \"blue_fraction_floor\":null},\
                  \"replicas\":8,\"seed\":1,\"threads\":0,\
                  \"adversary\":[{\"Drop\":{\"q\":7.0}}]}";
        assert!(Experiment::from_json_str(doc).is_err());
    }

    #[test]
    fn golden_v1_config_with_graph_key_still_deserialises() {
        // The exact layout a pre-redesign binary would have produced: a
        // `graph` key holding a bare GraphSpec, no `topology` key.
        let v1 = "{\"name\":\"E3/best-of-3\",\
                  \"graph\":{\"DenseForAlpha\":{\"n\":50000,\"alpha\":0.75}},\
                  \"protocol\":\"BestOfThree\",\
                  \"initial\":{\"BernoulliWithBias\":{\"delta\":0.08}},\
                  \"schedule\":\"Synchronous\",\
                  \"stopping\":{\"max_rounds\":20000,\"stop_on_consensus\":true,\
                  \"blue_fraction_floor\":null},\
                  \"replicas\":30,\"seed\":227,\"threads\":0}";
        let experiment = Experiment::from_json_str(v1).unwrap();
        assert_eq!(
            experiment.topology,
            TopologySpec::Materialised(GraphSpec::DenseForAlpha {
                n: 50_000,
                alpha: 0.75
            })
        );
        assert_eq!(experiment.name, "E3/best-of-3");
        assert_eq!(experiment.replicas, 30);
        assert_eq!(experiment.seed, 227);
        // Re-serialising upgrades to the v2 layout, which round-trips.
        round_trip(&experiment);
    }

    #[test]
    fn missing_topology_and_graph_is_a_typed_error() {
        let err = Experiment::from_json_str("{\"name\":\"x\"}").unwrap_err();
        assert!(err.to_string().contains("topology"), "{err}");
    }

    fn random_tie(rng: &mut StdRng) -> TieRule {
        if rng.gen::<bool>() {
            TieRule::KeepOwn
        } else {
            TieRule::Random
        }
    }

    fn random_protocol(rng: &mut StdRng) -> ProtocolSpec {
        match rng.gen_range(0..5usize) {
            0 => ProtocolSpec::Voter,
            1 => ProtocolSpec::BestOfTwo {
                tie_rule: random_tie(rng),
            },
            2 => ProtocolSpec::BestOfThree,
            3 => ProtocolSpec::BestOfK {
                k: rng.gen_range(1..12),
                tie_rule: random_tie(rng),
            },
            _ => ProtocolSpec::LocalMajority {
                tie_rule: random_tie(rng),
            },
        }
    }

    fn random_graph(rng: &mut StdRng) -> GraphSpec {
        let n = rng.gen_range(2..100_000usize);
        match rng.gen_range(0..7usize) {
            0 => GraphSpec::Complete { n },
            1 => GraphSpec::ErdosRenyiGnp { n, p: rng.gen() },
            2 => GraphSpec::DenseForAlpha {
                n,
                alpha: rng.gen(),
            },
            3 => GraphSpec::RandomRegular {
                n,
                d: rng.gen_range(1..n),
            },
            4 => GraphSpec::PlantedPartition {
                n,
                blocks: rng.gen_range(1..8),
                p_in: rng.gen(),
                p_out: rng.gen(),
            },
            5 => GraphSpec::Torus2d {
                rows: rng.gen_range(1..100),
                cols: rng.gen_range(1..100),
            },
            _ => GraphSpec::ChungLuPowerLaw {
                n,
                exponent: 2.0 + rng.gen::<f64>(),
                min_weight: 1.0 + rng.gen::<f64>(),
                max_weight: 10.0 + rng.gen::<f64>(),
            },
        }
    }

    fn random_topology(rng: &mut StdRng) -> TopologySpec {
        let n = rng.gen_range(2..2_000_000usize);
        match rng.gen_range(0..6usize) {
            0 => TopologySpec::Complete { n },
            1 => TopologySpec::CompleteBipartite {
                a: rng.gen_range(1..n),
                b: rng.gen_range(1..n),
            },
            2 => TopologySpec::CompleteMultipartite {
                blocks: (0..rng.gen_range(2..6usize))
                    .map(|_| rng.gen_range(1..1_000))
                    .collect(),
            },
            3 => TopologySpec::ImplicitGnp { n, p: rng.gen() },
            4 => TopologySpec::ImplicitSbm {
                n,
                blocks: rng.gen_range(1..8),
                p_in: rng.gen(),
                p_out: rng.gen(),
            },
            _ => TopologySpec::Materialised(random_graph(rng)),
        }
    }

    fn random_adversary(rng: &mut StdRng) -> AdversarySpec {
        match rng.gen_range(0..5usize) {
            0 => AdversarySpec::Zealots {
                fraction: rng.gen(),
            },
            1 => AdversarySpec::ZealotIds {
                vertices: (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(0..10_000))
                    .collect(),
            },
            2 => AdversarySpec::Byzantine {
                fraction: rng.gen(),
            },
            3 => AdversarySpec::Drop { q: rng.gen() },
            _ => {
                let from = rng.gen_range(0..100u64);
                AdversarySpec::Partition {
                    from_round: from,
                    until_round: from + rng.gen_range(1..100u64),
                    blocks: rng.gen_range(2..8),
                }
            }
        }
    }

    fn random_initial(rng: &mut StdRng) -> InitialCondition {
        match rng.gen_range(0..7usize) {
            0 => InitialCondition::BernoulliWithBias { delta: rng.gen() },
            1 => InitialCondition::Bernoulli {
                blue_probability: rng.gen(),
            },
            2 => InitialCondition::ExactCount {
                blue: rng.gen_range(0..10_000),
            },
            3 => InitialCondition::AllRed,
            4 => InitialCondition::AllBlue,
            5 => InitialCondition::ExplicitBlue {
                vertices: (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(0..10_000))
                    .collect(),
            },
            _ => InitialCondition::PrefixBlue {
                blue: rng.gen_range(0..10_000),
            },
        }
    }

    #[test]
    fn randomized_specs_round_trip_exactly() {
        // Property-style sweep with the workspace's deterministic RNG: every
        // randomly generated configuration must survive JSON and back
        // bit-exactly (floats use shortest-round-trip formatting).
        let mut rng = StdRng::seed_from_u64(0x00C0_FFEE);
        for _ in 0..500 {
            round_trip(&random_protocol(&mut rng));
            round_trip(&random_graph(&mut rng));
            round_trip(&random_topology(&mut rng));
            round_trip(&random_initial(&mut rng));
            round_trip(&random_adversary(&mut rng));
        }
        for _ in 0..200 {
            let experiment = Experiment {
                name: format!("rand/{}", rng.gen::<u32>()),
                topology: random_topology(&mut rng),
                protocol: random_protocol(&mut rng),
                initial: random_initial(&mut rng),
                schedule: if rng.gen::<bool>() {
                    Schedule::Synchronous
                } else {
                    Schedule::AsynchronousRandomOrder
                },
                stopping: StoppingCondition {
                    max_rounds: rng.gen_range(1..1_000_000),
                    stop_on_consensus: rng.gen(),
                    blue_fraction_floor: if rng.gen::<bool>() {
                        Some(rng.gen())
                    } else {
                        None
                    },
                },
                replicas: rng.gen_range(1..1_000),
                seed: rng.gen(),
                threads: rng.gen_range(0..64),
                adversary: (0..rng.gen_range(0..4usize))
                    .map(|_| random_adversary(&mut rng))
                    .collect(),
            };
            round_trip(&experiment);
        }
    }

    #[test]
    fn unknown_variants_are_typed_errors() {
        assert!(ProtocolSpec::from_json_str("\"BestOfTen\"").is_err());
        assert!(TopologySpec::from_json_str("{\"Toroidal\":{\"n\":5}}").is_err());
        assert!(Schedule::from_json_str("\"Eventually\"").is_err());
        assert!(InitialCondition::from_json_str("{\"ExactCount\":{}}").is_err());
        assert!(AdversarySpec::from_json_str("{\"Saboteur\":{\"fraction\":0.1}}").is_err());
        assert!(AdversarySpec::from_json_str("{\"Drop\":{}}").is_err());
        assert!(AdversarySpec::from_json_str("{\"Partition\":{\"from_round\":1}}").is_err());
    }
}
