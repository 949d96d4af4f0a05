//! The stored format of the LSI database.
//!
//! `fixtures/legacy_db.json` was written by the `lsi` CLI before the
//! database moved onto `lsi_obs::Json`:
//!
//! ```text
//! lsi index base.tsv --out db0.json --k 3 --min-df 1 --phrases --nprobe 2 --precision f32
//! lsi add db0.json upd.tsv --out db1.json --method update
//! lsi add db1.json fold.tsv --out legacy_db.json --method fold
//! ```
//!
//! so it carries a pruned index with moved rows, the f32 policy,
//! folded-in documents, phrase terms and non-ASCII and escaped strings.
//! Loading it and writing it back must reproduce every stored value bit
//! for bit; it is the oracle for any later change of format. The other
//! tests load hand-corrupted copies of it that once panicked at query
//! time.

use lsi_core::{Error, IndexPolicy, LsiModel, Precision};
use lsi_obs::Json;

const FIXTURE: &str = include_str!("fixtures/legacy_db.json");

/// The JSON body, without the `#lsi1` trailer line.
fn body(text: &str) -> &str {
    text.rsplit_once('\n').map_or(text, |(body, _)| body)
}

/// Path to the first place where the trees differ, comparing numbers
/// by their bits; `None` when they are identical.
fn first_difference(a: &Json, b: &Json, path: &str) -> Option<String> {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) if x.to_bits() == y.to_bits() => None,
        (Json::Arr(xs), Json::Arr(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys)
            .enumerate()
            .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]"))),
        (Json::Obj(xs), Json::Obj(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).find_map(|((kx, x), (ky, y))| {
                if kx != ky {
                    Some(format!("{path}: key {kx:?} vs {ky:?}"))
                } else {
                    first_difference(x, y, &format!("{path}.{kx}"))
                }
            })
        }
        (Json::Num(_) | Json::Arr(_) | Json::Obj(_), _) => Some(format!("{path}: {a:?} vs {b:?}")),
        _ => (a != b).then(|| format!("{path}: {a:?} vs {b:?}")),
    }
}

#[test]
fn legacy_database_round_trips_bit_for_bit() {
    let model = LsiModel::from_json(FIXTURE).unwrap();
    assert_eq!(model.n_docs(), 14);
    assert_eq!(model.precision(), Precision::F32);
    assert_eq!(model.index_policy(), IndexPolicy::Pruned { nprobe: 2 });

    let written = model.to_json().unwrap();
    let before = lsi_obs::parse_json(body(FIXTURE)).unwrap();
    let after = lsi_obs::parse_json(body(&written)).unwrap();
    if let Some(diff) = first_difference(&before, &after, "$") {
        panic!("stored value changed at {diff}");
    }
    // The rewritten file carries a trailer that validates.
    assert_eq!(LsiModel::from_json(&written).unwrap().n_docs(), 14);
}

#[test]
fn corrupt_term_map_does_not_panic_at_query_time() {
    let clean = LsiModel::from_json(FIXTURE).unwrap();
    // Without its trailer the file loads unchecked, so point a term of
    // the stored map far past the vocabulary.
    let needle = "\"index\":{\"applications\":0";
    assert!(body(FIXTURE).contains(needle));
    let corrupt = body(FIXTURE).replacen(needle, "\"index\":{\"applications\":1000000", 1);
    match LsiModel::from_json(&corrupt) {
        Ok(model) => {
            let got = model.query("computer applications").unwrap();
            let want = clean.query("computer applications").unwrap();
            assert_eq!(got.matches, want.matches);
        }
        Err(e) => assert!(matches!(e, Error::Persist(_)), "got {e}"),
    }
}

#[test]
fn short_centroid_buffer_fails_at_load() {
    let text = body(FIXTURE);
    let start = text.find("\"centroids\":").unwrap();
    let data = start + text[start..].find("\"data\":[").unwrap() + "\"data\":[".len();
    let end = data + text[data..].find(']').unwrap();
    let entries: Vec<&str> = text[data..end].split(',').collect();
    let short = format!(
        "{}{}{}",
        &text[..data],
        entries[..entries.len() - 1].join(","),
        &text[end..]
    );
    let err = LsiModel::from_json(&short).unwrap_err();
    assert!(matches!(err, Error::Persist(_)), "got {err}");
    assert!(err.to_string().contains("centroids"), "got {err}");
}

#[test]
fn streamed_body_is_what_the_json_tree_writes() {
    // The writer appends the schema without building a tree; its text
    // must be exactly the tree's compact form, number for number.
    let written = LsiModel::from_json(FIXTURE).unwrap().to_json().unwrap();
    let body = body(&written);
    let tree = lsi_obs::parse_json(body).unwrap();
    assert_eq!(tree.to_string_compact(), body);
    let before = lsi_obs::parse_json(self::body(FIXTURE)).unwrap();
    assert_eq!(first_difference(&before, &tree, "$"), None);
}

#[test]
fn members_load_in_any_order_and_unknown_ones_are_skipped() {
    // Rebuild the fixture's body with its members reversed, whitespace
    // between tokens and an unknown member: it loads to the same model.
    let Json::Obj(members) = lsi_obs::parse_json(body(FIXTURE)).unwrap() else {
        panic!("the fixture is an object");
    };
    let mut reordered: Vec<(String, Json)> = members.into_iter().rev().collect();
    let added = Json::Arr(vec![Json::Null, Json::Bool(true)]);
    reordered.insert(3, ("added_later".into(), added));
    let text = Json::Obj(reordered).to_string_pretty();
    let want = LsiModel::from_json(FIXTURE).unwrap().to_json().unwrap();
    let got = LsiModel::from_json(&text).unwrap().to_json().unwrap();
    assert_eq!(got, want);
}

#[test]
fn repeated_member_fails_at_load() {
    // Without its trailer the file loads unchecked; give it a second
    // `s`. A reader must not pick one copy over the other.
    let text = body(FIXTURE);
    assert!(text.contains(",\"s\":["));
    let repeated = text.replacen(",\"s\":[", ",\"s\":[1,2,3],\"s\":[", 1);
    let err = LsiModel::from_json(&repeated).unwrap_err();
    assert!(matches!(err, Error::Persist(_)), "got {err}");
    assert_eq!(err.to_string(), "persistence failure: repeated field `s`");
}
