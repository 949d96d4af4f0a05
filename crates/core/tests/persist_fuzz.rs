//! Hostile-input property tests for model persistence: any byte-level
//! corruption of a serialized model — truncation, bit flips, splices,
//! or outright garbage — must come back as a typed `Error::Persist`
//! (or, for corruption the trailer cannot see, another typed error),
//! never a panic.

use std::sync::OnceLock;

use lsi_core::{Error, LsiModel, LsiOptions};
use lsi_text::{Corpus, ParsingRules, TermWeighting};
use proptest::prelude::*;

/// One serialized model, built once — proptest runs hundreds of cases
/// and the corpus/SVD cost would otherwise dominate the suite.
fn valid_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let corpus = Corpus::from_pairs([
            ("d1", "apple banana apple cherry"),
            ("d2", "banana cherry banana date"),
            ("d3", "apple cherry date fig"),
            ("d4", "grape fig date grape"),
            ("d5", "fig grape apple banana"),
        ]);
        let options = LsiOptions {
            k: 3,
            rules: ParsingRules {
                min_df: 2,
                ..Default::default()
            },
            weighting: TermWeighting::log_entropy(),
            svd_seed: 11,
        };
        let (model, _) = LsiModel::build(&corpus, &options).unwrap();
        model.to_json().unwrap()
    })
}

/// Loading must not panic; errors must render through Display.
fn load_never_panics(json: &str) {
    if let Err(e) = LsiModel::from_json(json) {
        let _ = e.to_string();
    }
}

#[test]
fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
    // A megabyte of openers as a whole (trailer-less) file, and inside
    // a member the reader steps over, which it must walk to the end.
    let (body, _) = valid_json().rsplit_once('\n').unwrap();
    for opener in ["[", "{\"a\":"] {
        let deep = opener.repeat(1 << 20);
        let err = LsiModel::from_json(&deep).unwrap_err();
        assert!(matches!(err, Error::Persist(_)), "got {err}");
        let skipped = format!("{{\"unknown\":{deep}{}", &body[1..]);
        let err = LsiModel::from_json(&skipped).unwrap_err();
        assert!(matches!(err, Error::Persist(_)), "got {err}");
        assert!(err.to_string().contains("nesting deeper than"), "got {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncations_are_rejected_without_panicking(cut in 0usize..8192) {
        let json = valid_json();
        let cut = cut.min(json.len());
        // Cut on a char boundary (the serialized model is ASCII, but
        // don't let the test itself panic if that ever changes).
        let mut end = cut;
        while !json.is_char_boundary(end) {
            end -= 1;
        }
        let truncated = &json[..end];
        if !truncated.is_empty() && truncated.len() < json.len() {
            // A strict prefix must never load as a model.
            prop_assert!(LsiModel::from_json(truncated).is_err());
        } else {
            load_never_panics(truncated);
        }
    }

    #[test]
    fn byte_mutations_never_panic(pos in 0usize..8192, byte in 0u8..=255) {
        let mut bytes = valid_json().as_bytes().to_vec();
        let pos = pos % bytes.len();
        let original = bytes[pos];
        bytes[pos] = byte;
        // Mutations can break UTF-8; a real loader reads files as
        // strings, so only valid-UTF-8 mutants reach from_json.
        if let Ok(json) = std::str::from_utf8(&bytes) {
            if byte == original {
                prop_assert!(LsiModel::from_json(json).is_ok());
            } else {
                load_never_panics(json);
            }
        }
    }

    #[test]
    fn body_mutations_are_caught_by_the_checksum(pos in 0usize..4096, byte in b'0'..=b'9') {
        // Swap one digit inside the body for a different digit: the
        // length still matches, so only the checksum can catch it.
        let json = valid_json();
        let body_len = json.rsplit_once('\n').map_or(json.len(), |(b, _)| b.len());
        let mut bytes = json.as_bytes().to_vec();
        let pos = pos % body_len;
        if bytes[pos].is_ascii_digit() && bytes[pos] != byte {
            bytes[pos] = byte;
            let mutated = std::str::from_utf8(&bytes).unwrap();
            let err = LsiModel::from_json(mutated).unwrap_err();
            prop_assert!(
                err.to_string().contains("checksum mismatch"),
                "digit swap at {} gave: {}", pos, err
            );
        }
    }

    #[test]
    fn garbage_documents_never_panic(
        // 0 maps to a newline so multi-line garbage appears too.
        bytes in prop::collection::vec(0u8..96, 0..400),
    ) {
        let doc: Vec<u8> = bytes
            .iter()
            .map(|&b| if b == 0 { b'\n' } else { 0x1f + b })
            .collect();
        load_never_panics(std::str::from_utf8(&doc).unwrap());
    }

    #[test]
    fn oversized_indices_in_json_are_rejected(extra in 1usize..1000) {
        // Grow the declared V shape without growing its buffer: the
        // shape validator must reject it before any query indexes out
        // of bounds.
        let json = valid_json();
        let (body, _) = json.rsplit_once('\n').unwrap();
        let needle = "\"nrows\":";
        if let Some(pos) = body.rfind(needle) {
            let start = pos + needle.len();
            let end = start
                + body[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(0);
            let n: usize = body[start..end].parse().unwrap();
            let inflated = format!("{}{}{}", &body[..start], n + extra, &body[end..]);
            prop_assert!(LsiModel::from_json(&inflated).is_err());
        }
    }
}
