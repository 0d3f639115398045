//! Property tests: the server's request parser and its `APPLY` payload typer
//! survive hostile input.
//!
//! A served connection hands every line it reads to [`Command::parse`], and
//! every parsed `APPLY` to [`build_delta`] against the target table's schema.
//! Both must answer a malformed request with an `Err` the server relays as
//! `ERR …`, never with a panic that would take the connection's worker down.
//! The inputs are arbitrary bytes read as lossy UTF-8, one-byte mutations
//! (replace, insert, delete) of every valid request form, and `APPLY` lines
//! assembled from hostile cells.

use cej_server::protocol::{build_delta, Command};
use cej_storage::{DataType, Field, Schema};
use proptest::collection::vec;
use proptest::prelude::*;

/// One valid line per request form of the protocol grammar.
const VALID_REQUESTS: &[&str] = &[
    "PING",
    "QUIT",
    "STATS",
    "METRICS",
    "TRACE LAST",
    "TRACE SLOW",
    "TRACE 42",
    "PREPARE j QUERY r EJOIN s ON word~word MODEL ft TOPK 2",
    "PREPARE t QUERY r EJOIN s ON word~word MODEL ft SIM 0.8 WHERE r.id < 100",
    "PREPARE h QUERY r JOIN d ON r.id=d.id EJOIN s ON word~word MODEL ft TOPK 1",
    "PREPARE w QUERY r WHERE r.tier >= 2 WHERE r.note != x",
    "PREPARE p PROBE s.word MODEL ft TOPK 3",
    "BIND t t2 0.9",
    "BIND t t3 0.7 AT 1",
    "RUN j",
    "EXPLAIN j",
    "ANALYZE j",
    "PROBE p cast iron grill",
    "SUBSCRIBE j",
    "UNSUBSCRIBE 7",
    "APPLY r APPEND 1|2.5|bbq grill|19000|true",
    "APPLY r APPEND 1|2.5|a b c|19000|true; 2|-0.5|tent|19001|false",
    "APPLY r DELETE id 1;2;3",
    "APPLY r UPSERT id 1|2.5|bbq grill|19000|true",
];

/// Cells that stress the typer: empty, overflowing, non-finite, separators,
/// multi-byte characters, keywords.
const HOSTILE_CELLS: &[&str] = &[
    "",
    " ",
    "0",
    "-1",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "2147483648",
    "1e400",
    "NaN",
    "-inf",
    "0x10",
    "true",
    "TRUE",
    "false",
    "é",
    "東京",
    "\u{0}",
    "|",
    ";",
    "||",
    "a;b",
    "id",
    "APPLY",
    "ROWS 1 1",
];

/// The fixed schema the `APPLY` payloads are typed against: one column per
/// type the wire accepts.
fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("price", DataType::Float64),
        Field::new("note", DataType::Utf8),
        Field::new("day", DataType::Date),
        Field::new("ok", DataType::Bool),
    ])
    .expect("distinct column names")
}

/// A schema with a vector column, which the wire refuses to type.
fn vector_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("emb", DataType::Vector(4)),
    ])
    .expect("distinct column names")
}

/// Parses `line` and, when it is an `APPLY`, types its payload against both
/// schemas.  Every step must return, whatever it returns.
fn parse_and_type(line: &str) {
    if let Ok(Command::Apply { spec, .. }) = Command::parse(line) {
        let _ = build_delta(&spec, &schema());
        let _ = build_delta(&spec, &vector_schema());
    }
}

/// Applies one byte-level mutation to `line` at `at` (wrapped to its
/// length) and reads the result as lossy UTF-8: `kind` 0 replaces the byte,
/// 1 inserts `byte` before it, 2 deletes it.
fn mutate(line: &str, kind: u64, at: usize, byte: u8) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match kind {
        0 if at < bytes.len() => bytes[at] = byte,
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn every_valid_request_form_parses() {
    // the mutation property below starts from lines that parse
    for line in VALID_REQUESTS {
        assert!(Command::parse(line).is_ok(), "{line}");
    }
    for line in VALID_REQUESTS.iter().filter(|l| l.starts_with("APPLY")) {
        let Ok(Command::Apply { spec, .. }) = Command::parse(line) else {
            panic!("{line} is an APPLY");
        };
        assert!(build_delta(&spec, &schema()).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in vec(0u64..256, 0..160)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_and_type(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_one_byte_mutations_of_valid_requests(
        form in 0usize..VALID_REQUESTS.len(),
        kind in 0u64..3,
        at in 0usize..200,
        byte in 0u64..256,
    ) {
        parse_and_type(&mutate(VALID_REQUESTS[form], kind, at, byte as u8));
    }

    #[test]
    fn build_delta_never_panics_on_hostile_apply_payloads(
        verb in 0usize..3,
        key in 0usize..7,
        rows in vec(vec(0usize..HOSTILE_CELLS.len(), 0..8), 1..4),
    ) {
        let key = ["id", "price", "note", "day", "ok", "emb", "nope"][key];
        let payload = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&cell| HOSTILE_CELLS[cell])
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect::<Vec<_>>()
            .join(";");
        let line = match verb {
            0 => format!("APPLY r APPEND {payload}"),
            1 => format!("APPLY r DELETE {key} {payload}"),
            _ => format!("APPLY r UPSERT {key} {payload}"),
        };
        parse_and_type(&line);
    }
}
