//! Wire-parser fuzzing: every line parser of the protocol, fed mangled
//! copies of real wire lines, answers with a typed error (or "not a
//! control line") or with a value that re-renders to a line it parses
//! back identically — and never panics.
//!
//! The corpus is the rendering of every line shape the workspace puts on
//! the wire: v1 and v2 requests, `ok`/`shed`/`error`/malformed-id
//! responses, `layer_result` and `done` frames, stats snapshots and
//! control lines. Each case mangles one corpus line by truncation, a
//! byte flip, splicing in a slice of another line, duplicating a slice
//! of itself, swapping a number for a huge or non-finite one, or
//! leaving a string unterminated. Mangled bytes are decoded the way the
//! server decodes a socket line (lossy UTF-8).

use proptest::prelude::*;

use pra_serve::protocol::LatencySplit;
use pra_serve::{ControlRequest, Request, Response, ShedReason, StatsSnapshot};
use pra_workloads::{Network, Representation};

/// One rendering of every line shape the wire carries.
fn corpus() -> Vec<String> {
    let request = |engine: &str, v: u32| Request {
        id: 7,
        network: Network::AlexNet,
        repr: Representation::Fixed16,
        engine: engine.to_string(),
        seed: 0x90AD,
        v,
    };
    let ok = Response::Ok {
        id: 3,
        network: "AlexNet".to_string(),
        repr: "fp16".to_string(),
        engine: "PRA-2b".to_string(),
        seed: 0x90AD,
        cycles: 123_456_789,
        terms: 987_654_321,
        speedup: 2.5731,
        digest: "ab".repeat(32),
        batch_size: 4,
        latency: LatencySplit { enqueue_ms: 0.25, batch_ms: 1.5, sim_ms: 40.125, total_ms: 41.875 },
    };
    let error = Response::Error { id: 9, message: "unknown engine 'λ' \"x\"\n".to_string() };
    let stats = StatsSnapshot {
        accepted: 64,
        shed: 2,
        batches: 9,
        answered: 62,
        pool_hits: 5,
        live_connections: 1,
        connections_shed: 0,
        worker_restarts: 1,
        deadline_expired: 0,
        encode_ms: 416,
        encoded_hits: 7,
        shard: 2,
        epoch: 31_337,
    };
    vec![
        request("PRA-2b", 1).to_json_line(),
        request("DaDN", 2).to_json_line(),
        ok.to_json_line(),
        Response::Shed { id: 4, reason: ShedReason::QueueFull }.to_json_line(),
        error.to_json_line(),
        Response::MalformedId { raw_id: "-1.5".to_string(), message: "bad id".to_string() }
            .to_json_line(),
        Response::LayerResult { id: 5, layer: 2, layers: 5, cycles: 1_000, terms: 2_000 }
            .to_json_line(),
        Response::Done { id: 3, frames: 5, inner: Box::new(ok) }.to_json_line(),
        Response::Done { id: 9, frames: 0, inner: Box::new(error) }.to_json_line(),
        stats.to_json_line(),
        ControlRequest::Stats.to_json_line(),
        ControlRequest::Drain.to_json_line(),
    ]
}

/// Numbers a mangled line may carry instead of a well-formed one.
const HUGE: &[&str] = &[
    "18446744073709551616",
    "99999999999999999999999999999999",
    "1e999",
    "-1e999",
    "-1",
    "1.5e3",
    "0x",
];

/// Applies mangling `op` to `line`, drawing positions from `at` and
/// material from `other`.
fn mangle(line: &str, other: &str, op: u8, at: usize, at2: usize, flip: u8, huge: usize) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let pos = |n: usize, k: usize| if n == 0 { 0 } else { k % (n + 1) };
    match op {
        // Truncation.
        0 => bytes.truncate(pos(bytes.len(), at)),
        // Byte flip.
        1 => {
            let i = at % bytes.len();
            bytes[i] ^= flip;
        }
        // Splice a slice of another line in.
        2 => {
            let src = other.as_bytes();
            let (a, b) = (pos(src.len(), at2), pos(src.len(), at2 / 7));
            let slice = src[a.min(b)..a.max(b)].to_vec();
            let i = pos(bytes.len(), at);
            bytes.splice(i..i, slice);
        }
        // Duplicate a slice of the line itself (repeated fields).
        3 => {
            let (a, b) = (pos(bytes.len(), at), pos(bytes.len(), at2));
            let slice = bytes[a.min(b)..a.max(b)].to_vec();
            let i = pos(bytes.len(), at2 / 3);
            bytes.splice(i..i, slice);
        }
        // Swap the n-th number for a huge, negative or non-finite one.
        4 => {
            let starts: Vec<usize> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
                })
                .collect();
            if !starts.is_empty() {
                let s = starts[at % starts.len()];
                let e =
                    (s..bytes.len()).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(bytes.len());
                bytes.splice(s..e, HUGE[huge % HUGE.len()].bytes());
            }
        }
        // Leave a string unterminated: cut just after an opening quote,
        // or after a dangling backslash.
        _ => {
            let quotes: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'"').collect();
            if !quotes.is_empty() {
                bytes.truncate(quotes[at % quotes.len()] + 1);
            }
            if flip.is_multiple_of(2) {
                bytes.extend_from_slice(b"abc\\");
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn wire_parsers_never_panic_and_accepted_lines_rerender(
        which in 0usize..64,
        from in 0usize..64,
        op in 0u8..6,
        at in any::<usize>(),
        at2 in any::<usize>(),
        flip in 1u8..=255,
        huge in 0usize..16,
    ) {
        let corpus = corpus();
        let line = mangle(
            &corpus[which % corpus.len()],
            &corpus[from % corpus.len()],
            op,
            at,
            at2,
            flip,
            huge,
        );

        if let Ok(req) = Request::parse(&line) {
            let again = req.to_json_line();
            prop_assert_eq!(Request::parse(&again).as_ref(), Ok(&req), "request: {}", line);
        }
        if let Ok(resp) = Response::parse(&line) {
            let again = resp.to_json_line();
            let reparsed = Response::parse(&again);
            prop_assert!(reparsed.is_ok(), "response {} re-rendered as {}: {:?}", line, again, reparsed);
            prop_assert_eq!(reparsed.unwrap().to_json_line(), again, "response: {}", line);
        }
        if let Ok(stats) = StatsSnapshot::parse(&line) {
            let again = stats.to_json_line();
            prop_assert_eq!(StatsSnapshot::parse(&again), Ok(stats), "stats: {}", line);
        }
        if let Some(ctl) = ControlRequest::parse(&line) {
            prop_assert_eq!(ControlRequest::parse(&ctl.to_json_line()), Some(ctl), "ctl: {}", line);
        }
    }
}
