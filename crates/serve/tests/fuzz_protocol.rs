//! Seeded fuzzing of the session-path request parsers
//! (`parse_v1_predict`, `parse_session_create`, `parse_session_append`,
//! `parse_predict_opts`): random bytes, JSON-shaped token soup, deep
//! nesting and mutated valid bodies must each come back `Ok` or a typed
//! 400/422 [`ApiError`] — never a panic — and in bounded time.
//!
//! Each property's case stream is seeded from its name by the vendored
//! `proptest`, so a run is reproducible (`PROPTEST_SEED` overrides).

use std::time::{Duration, Instant};

use proptest::prelude::*;
use tspn_data::{PoiId, Visit};
use tspn_serve::protocol::{self, ApiError};

/// Time one body may take through all four parsers. A parse is
/// microseconds; this only catches a hang or a quadratic blow-up.
const BUDGET: Duration = Duration::from_millis(250);

fn typed<T>(parser: &str, body: &[u8], r: Result<T, ApiError>) {
    if let Err(e) = r {
        assert!(
            matches!(
                (e.status, e.code),
                (400, "bad_request") | (422, "unprocessable")
            ),
            "{parser} answered {} {:?} for {:?}",
            e.status,
            e.code,
            String::from_utf8_lossy(body)
        );
    }
}

/// Runs every session-path parser on `body`.
fn parse_all(body: &[u8]) {
    let t0 = Instant::now();
    typed("parse_v1_predict", body, protocol::parse_v1_predict(body));
    typed(
        "parse_session_create",
        body,
        protocol::parse_session_create(body),
    );
    typed(
        "parse_session_append",
        body,
        protocol::parse_session_append(body),
    );
    typed(
        "parse_predict_opts",
        body,
        protocol::parse_predict_opts(body),
    );
    assert!(
        t0.elapsed() < BUDGET,
        "parsing {} bytes took {:?}",
        body.len(),
        t0.elapsed()
    );
}

/// Valid bodies of every session-path request, as the client renders them.
fn valid_bodies(seed: u64) -> Vec<String> {
    let visits: Vec<Visit> = (0..(seed % 6) as usize + 1)
        .map(|i| Visit {
            poi: PoiId((seed as usize).wrapping_mul(31).wrapping_add(i) % 500),
            time: 1_600_000_000 + (i as i64) * 3_600,
        })
        .collect();
    vec![
        protocol::v1_predict_request_body(7, &visits, 4, 10),
        protocol::session_create_body(7, &visits),
        protocol::session_append_body(&visits),
        "{\"k\":4,\"top\":10}".to_string(),
        "{}".to_string(),
    ]
}

/// Bytes the mutator splices in: JSON punctuation, digits, the request
/// field names and a few hostile values.
const SPLICES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "-",
    ".",
    "e",
    "0",
    "9",
    " ",
    "\\",
    "null",
    "true",
    "false",
    "\"poi\"",
    "\"t\"",
    "\"user\"",
    "\"k\"",
    "\"top\"",
    "\"checkins\"",
    "1e999",
    "-1",
    "0.5",
    "18446744073709551616",
    "\u{7f}",
    "\u{fffd}",
    "\\u0000",
    "\u{0}",
];

/// Numbers the mutator writes over a digit run: boundaries of the
/// integer types a field may be read into, and non-integers.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "999",
    "1000",
    "4096",
    "65536",
    "4294967296",
    "9007199254740993",
    "18446744073709551615",
    "1.5",
    "-0",
    "1e3",
    "1e999",
    "-1e999",
];

/// Applies random edits (byte flip, delete, splice, duplicate, number
/// swap, truncate) to `body`, driven by the `picks` stream.
fn mutate(body: &str, picks: &[u64]) -> Vec<u8> {
    let mut out = body.as_bytes().to_vec();
    for pair in picks.chunks(2) {
        let (op, arg) = (pair[0], pair.get(1).copied().unwrap_or(0));
        let at = if out.is_empty() {
            0
        } else {
            arg as usize % out.len()
        };
        match op % 6 {
            0 if !out.is_empty() => out[at] ^= 1 << (arg % 8),
            1 if !out.is_empty() => {
                let end = (at + 1 + (arg as usize >> 8) % 8).min(out.len());
                out.drain(at..end);
            }
            2 => {
                let splice = SPLICES[(arg as usize >> 8) % SPLICES.len()].as_bytes();
                out.splice(at..at, splice.iter().copied());
            }
            3 if !out.is_empty() => {
                let end = (at + 1 + (arg as usize >> 8) % 16).min(out.len());
                let copy = out[at..end].to_vec();
                out.splice(at..at, copy);
            }
            4 => {
                // The digit run at or after `at`, replaced whole.
                let Some(start) = (at..out.len()).find(|&i| out[i].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let number = NUMBERS[(arg as usize >> 8) % NUMBERS.len()].as_bytes();
                out.splice(start..end, number.iter().copied());
            }
            _ => out.truncate(at),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn random_bytes_get_typed_answers(body in prop::collection::vec(any::<u8>(), 0..192)) {
        parse_all(&body);
    }

    #[test]
    fn token_soup_gets_typed_answers(tokens in prop::collection::vec(0usize..SPLICES.len(), 0..48)) {
        let body: String = tokens.iter().map(|&t| SPLICES[t]).collect();
        parse_all(body.as_bytes());
    }

    #[test]
    fn mutated_valid_bodies_get_typed_answers(
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        for body in valid_bodies(seed) {
            parse_all(&mutate(&body, &picks));
        }
    }
}

#[test]
fn valid_bodies_parse() {
    for seed in 0..16 {
        let bodies = valid_bodies(seed);
        assert!(protocol::parse_v1_predict(bodies[0].as_bytes()).is_ok());
        assert!(protocol::parse_session_create(bodies[1].as_bytes()).is_ok());
        assert!(protocol::parse_session_append(bodies[2].as_bytes()).is_ok());
        assert_eq!(
            protocol::parse_predict_opts(bodies[3].as_bytes()),
            Ok((Some(4), Some(10)))
        );
        assert_eq!(
            protocol::parse_predict_opts(bodies[4].as_bytes()),
            Ok((None, None))
        );
    }
}

#[test]
fn deep_nesting_gets_typed_answers() {
    for depth in [1, 64, 127, 128, 129, 10_000, 200_000] {
        for (open, close) in [("[", "]"), ("{\"checkins\":", "}")] {
            let body = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            parse_all(body.as_bytes());
            parse_all(&body.as_bytes()[..body.len() / 2]);
        }
    }
}
