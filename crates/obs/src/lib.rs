//! Zero-dependency observability primitives for the Best-of-Three stack.
//!
//! Everything in this crate is `std`-only and lock-free on the hot path:
//!
//! * [`Counter`], [`Gauge`], [`Log2Histogram`] — relaxed-atomic instruments
//!   safe to hammer from the engine's worker pool;
//! * [`SamplerMeter`] — the neighbour sampler's tries/accepts pair, added
//!   to once per engine work unit;
//! * [`MetricsRegistry`] — named instruments with deterministic
//!   registration-order exposition as Prometheus text
//!   ([`MetricsRegistry::render_prometheus`]) or a JSON snapshot
//!   ([`MetricsRegistry::snapshot_json`]);
//! * [`EventLog`] — a bounded, buffered structured JSONL log with
//!   span-style scoped timers ([`EventLog::span`]).
//!
//! The design constraint inherited from the engine: observability **reads**
//! a simulation, it never participates in one.  No instrument consumes
//! randomness, takes a lock on the record path, or allocates after
//! registration, so installing metrics cannot perturb the deterministic
//! `(seed, round, chunk)` RNG-stream contract — and removing them cannot
//! change a result.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod events;
mod metrics;

pub use events::{EventLog, Field, Span};
pub use metrics::{Counter, Gauge, Log2Histogram, MetricsRegistry, SamplerMeter};

/// Appends `s` to `out` as a JSON string literal (quotes included), escaping
/// per RFC 8259.  Shared by the metrics snapshot and the event log so both
/// artefacts stay parseable by any JSON reader.
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
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

/// Formats a finite `f64` so it always reads back as a JSON number with a
/// fractional or exponent marker (`1` becomes `1.0`), matching the repo's
/// config-JSON convention.  Non-finite values become `null` (JSON has no
/// NaN/Inf).
pub(crate) fn format_f64_into(value: f64, out: &mut String) {
    if !value.is_finite() {
        out.push_str("null");
        return;
    }
    let text = format!("{value}");
    out.push_str(&text);
    if !text.contains('.') && !text.contains('e') && !text.contains('E') {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escaping_covers_the_awkward_cases() {
        let mut out = String::new();
        escape_json_into("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn floats_always_carry_a_numeric_marker() {
        let mut out = String::new();
        format_f64_into(3.0, &mut out);
        assert_eq!(out, "3.0");
        out.clear();
        format_f64_into(0.125, &mut out);
        assert_eq!(out, "0.125");
        out.clear();
        format_f64_into(f64::NAN, &mut out);
        assert_eq!(out, "null");
    }
}
