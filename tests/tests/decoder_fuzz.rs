//! Mutation sweep over every JSON decoder: `Experiment` (the v1 `graph:`
//! layout and the v3 adversarial layout), wire `Request`, `Campaign`,
//! `CampaignManifest`, `BatchCheckpoint` and `RunCheckpoint`.
//!
//! Each golden document gets every single mutation of four kinds:
//! truncation at every byte, deletion or duplication of every token, every
//! number swapped for an edge value, and every value swapped for `null`,
//! `[]` or `{}`.  The sweep is exhaustive, so it is deterministic without a
//! seed.  Every mutant must decode to a typed error or to a value that
//! round-trips exactly through its own encoding; a decoded experiment must
//! also validate, to `Ok` or a typed error.  A panic fails the test and
//! names its input.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bo3_core::prelude::*;

const V1_EXPERIMENT: &str = "{\"name\":\"E3/best-of-3\",\
    \"graph\":{\"DenseForAlpha\":{\"n\":50000,\"alpha\":0.75}},\
    \"protocol\":\"BestOfThree\",\
    \"initial\":{\"BernoulliWithBias\":{\"delta\":0.08}},\
    \"schedule\":\"Synchronous\",\
    \"stopping\":{\"max_rounds\":20000,\"stop_on_consensus\":true,\"blue_fraction_floor\":null},\
    \"replicas\":30,\"seed\":227,\"threads\":0}";

const V3_EXPERIMENT: &str = "{\"name\":\"golden/adversarial\",\
    \"topology\":{\"Complete\":{\"n\":100000}},\
    \"adversary\":[{\"Zealots\":{\"fraction\":0.05}},{\"Drop\":{\"q\":0.1}},\
    {\"Partition\":{\"from_round\":4,\"until_round\":16,\"blocks\":2}}],\
    \"protocol\":\"BestOfThree\",\
    \"initial\":{\"BernoulliWithBias\":{\"delta\":0.1}},\
    \"schedule\":\"Synchronous\",\
    \"stopping\":{\"max_rounds\":128,\"stop_on_consensus\":true,\"blue_fraction_floor\":null},\
    \"replicas\":5,\"seed\":3607,\"threads\":0}";

const MANIFEST: &str = "{\"version\":2,\"name\":\"e18/quick\",\"campaign_seed\":42,\
    \"statuses\":[\"Done\",{\"InFlight\":{\"attempts\":1}},\"Pending\",\
    {\"Skipped\":{\"reason\":\"boom\"}}],\
    \"cells\":[{\"attempts\":1,\"resumes\":0,\"wall_ms\":12},\
    {\"attempts\":2,\"resumes\":1,\"wall_ms\":7},\
    {\"attempts\":0,\"resumes\":0,\"wall_ms\":0},\
    {\"attempts\":3,\"resumes\":0,\"wall_ms\":4}]}";

const BATCH_CHECKPOINT: &str = "{\"version\":1,\"completed\":[{\"replica\":0,\"winner\":\"Red\",\
    \"rounds\":9,\"initial_blue_fraction\":0.375,\"final_blue_fraction\":0.0,\
    \"adversary\":{\"zealots\":4,\"byzantine\":0,\"dropped_samples\":17,\
    \"partition_rounds\":0}}],\"current\":{\"version\":1,\
    \"protocol\":\"BestOfThree\",\"schedule\":\"Synchronous\",\
    \"stopping\":{\"max_rounds\":100,\"stop_on_consensus\":true,\
    \"blue_fraction_floor\":null},\"master_seed\":123456789,\"round\":3,\
    \"n\":70,\"opinion_words\":[3735928559,63],\
    \"initial_blue_fraction\":0.4,\"dropped_samples\":2,\"trace\":null}}";

const RUN_CHECKPOINT: &str = "{\"version\":1,\"protocol\":{\"BestOfTwo\":{\"tie_rule\":\"Random\"}},\
    \"schedule\":\"AsynchronousRandomOrder\",\
    \"stopping\":{\"max_rounds\":5,\"stop_on_consensus\":false,\"blue_fraction_floor\":null},\
    \"master_seed\":18446744073709551615,\"round\":2,\"n\":4,\"opinion_words\":[10],\
    \"initial_blue_fraction\":0.5,\"dropped_samples\":0,\
    \"trace\":[{\"round\":0,\"blue_count\":2,\"red_count\":2,\"blue_fraction\":0.5,\"red_bias\":0.0},\
    {\"round\":1,\"blue_count\":1,\"red_count\":3,\"blue_fraction\":0.25,\"red_bias\":0.25}]}";

/// What a number token is swapped for: zero, a negative, 2⁶⁴ (past `u64`),
/// overflows to ±infinity and an underflow to zero.
const EDGE_NUMBERS: [&str; 6] = [
    "0",
    "-1",
    "18446744073709551616",
    "1e400",
    "-1e400",
    "1e-400",
];

/// What a whole value is swapped for.
const EMPTY_VALUES: [&str; 3] = ["null", "[]", "{}"];

/// `Ok(true)` when an input is accepted and its value round-trips,
/// `Ok(false)` when it is refused with a typed error, `Err` naming the
/// violation otherwise.
type Outcome = std::result::Result<bool, String>;

/// Decodes an input as one type and checks the outcome.
type Check = fn(&str) -> Outcome;

fn check<T: FromJson + ToJson + PartialEq + Debug>(
    input: &str,
    validate: fn(&T) -> Result<()>,
) -> Outcome {
    let Ok(value) = T::from_json_str(input) else {
        return Ok(false);
    };
    match T::from_json_str(&value.to_json_string()) {
        Ok(again) if again == value => {}
        other => return Err(format!("{value:?} re-decoded as {other:?}")),
    }
    // Validation may refuse the value, but only with a typed error.
    let _ = validate(&value);
    Ok(true)
}

fn validate_request(request: &Request) -> Result<()> {
    match request {
        Request::Submit(experiment) => experiment.validate_config(),
        _ => Ok(()),
    }
}

fn validate_campaign(campaign: &Campaign) -> Result<()> {
    campaign
        .cells
        .iter()
        .try_for_each(Experiment::validate_config)
}

/// The golden documents, each with its decoder.
fn documents() -> Vec<(&'static str, String, Check)> {
    vec![
        ("Experiment v1", V1_EXPERIMENT.into(), |s| {
            check(s, Experiment::validate_config)
        }),
        ("Experiment v3", V3_EXPERIMENT.into(), |s| {
            check(s, Experiment::validate_config)
        }),
        (
            "Request",
            format!("{{\"type\":\"submit\",\"experiment\":{V3_EXPERIMENT}}}"),
            |s| check(s, validate_request),
        ),
        (
            "Campaign",
            format!(
                "{{\"name\":\"fuzz/campaign\",\"seed\":41,\"retry\":{{\"max_attempts\":3,\
                 \"base_delay_ms\":10,\"max_delay_ms\":100}},\
                 \"cells\":[{V1_EXPERIMENT},{V3_EXPERIMENT}]}}"
            ),
            |s| check(s, validate_campaign),
        ),
        ("CampaignManifest", MANIFEST.into(), |s| {
            check::<CampaignManifest>(s, |_| Ok(()))
        }),
        ("BatchCheckpoint", BATCH_CHECKPOINT.into(), |s| {
            check::<BatchCheckpoint>(s, |_| Ok(()))
        }),
        ("RunCheckpoint", RUN_CHECKPOINT.into(), |s| {
            check::<RunCheckpoint>(s, |_| Ok(()))
        }),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Open,
    Close,
    Colon,
    Comma,
    Str,
    Num,
    Literal,
}

/// The document's lexical tokens as `(kind, byte range)`.
fn tokens(doc: &str) -> Vec<(Kind, usize, usize)> {
    let b = doc.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        i += 1;
        let kind = match b[start] {
            b'{' | b'[' => Kind::Open,
            b'}' | b']' => Kind::Close,
            b':' => Kind::Colon,
            b',' => Kind::Comma,
            b'"' => {
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                Kind::Str
            }
            b'-' | b'0'..=b'9' => {
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                Kind::Num
            }
            _ => {
                while i < b.len() && b[i].is_ascii_alphabetic() {
                    i += 1;
                }
                Kind::Literal
            }
        };
        out.push((kind, start, i));
    }
    out
}

/// Every single mutation of `doc`.
fn mutants(doc: &str) -> Vec<String> {
    let splice =
        |start: usize, end: usize, with: &str| format!("{}{with}{}", &doc[..start], &doc[end..]);
    let tokens = tokens(doc);
    let mut out: Vec<String> = (0..doc.len()).map(|cut| doc[..cut].to_string()).collect();
    let mut opens = Vec::new();
    for (t, &(kind, start, end)) in tokens.iter().enumerate() {
        out.push(splice(start, end, ""));
        out.push(splice(end, end, &doc[start..end]));
        // The byte range of the value this token starts or ends, if any.
        let value = match kind {
            Kind::Open => {
                opens.push(start);
                None
            }
            Kind::Close => opens.pop().map(|open| (open, end)),
            Kind::Str if tokens.get(t + 1).is_some_and(|next| next.0 == Kind::Colon) => None,
            Kind::Str | Kind::Num | Kind::Literal => Some((start, end)),
            Kind::Colon | Kind::Comma => None,
        };
        if kind == Kind::Num {
            out.extend(EDGE_NUMBERS.iter().map(|n| splice(start, end, n)));
        }
        if let Some((start, end)) = value {
            out.extend(EMPTY_VALUES.iter().map(|v| splice(start, end, v)));
        }
    }
    out
}

#[test]
fn every_decoder_refuses_or_round_trips_every_single_mutation() {
    for (name, doc, check) in documents() {
        assert_eq!(check(&doc), Ok(true), "{name}: the golden document");
        let (mut accepted, mut refused) = (0, 0);
        for input in mutants(&doc) {
            match catch_unwind(AssertUnwindSafe(|| check(&input))) {
                Ok(Ok(true)) => accepted += 1,
                Ok(Ok(false)) => refused += 1,
                Ok(Err(violation)) => panic!("{name}: {input}\n{violation}"),
                Err(_) => panic!("{name}: decoding panicked on {input}"),
            }
        }
        // Both outcomes occur, so the sweep reaches past the parser.
        assert!(
            accepted > 0 && refused > 0,
            "{name}: {accepted} accepted, {refused} refused"
        );
    }
}
