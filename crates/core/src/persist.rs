//! The LSI database schema: an [`LsiModel`] as an `lsi_obs::Json` tree
//! and back, wrapped by [`LsiModel::to_json`] and
//! [`LsiModel::from_json`] in the `#lsi1` trailer.
//!
//! A struct is an object with one member per field, in declaration
//! order; a unit enum is its variant name (`"Exact"`, `"FoldedIn"`,
//! `"Log"`, …); `IndexPolicy::Pruned` is `{"Pruned":{"nprobe":N}}`; an
//! absent index is `null`. These keys, orders and spellings are the
//! format: `crates/core/tests/persist_format.rs` pins them. The reader
//! rebuilds every value through a constructor that validates it, and a
//! type, range or shape mismatch is an [`Error::Persist`] naming the
//! field.

use std::sync::Arc;

use lsi_linalg::DenseMatrix;
use lsi_obs::Json;
use lsi_sparse::CscMatrix;
use lsi_text::normalize::TokenFold;
use lsi_text::{GlobalWeight, LocalWeight, ParsingRules, TermWeighting, Vocabulary};

use crate::compressed::Precision;
use crate::index::{ClusterIndex, IndexPolicy};
use crate::model::{DocOrigin, LsiModel};
use crate::{Error, Result};

/// The database body: the model's JSON tree, written compactly.
pub(crate) fn model_to_json(m: &LsiModel) -> String {
    let tree = Json::obj(vec![
        ("vocab", vocab_to_json(&m.vocab)),
        ("weighting", weighting_to_json(m.weighting)),
        ("global_weights", floats_to_json(&m.global_weights)),
        ("u", dense_to_json(&m.u)),
        ("s", floats_to_json(&m.s)),
        ("v", dense_to_json(&m.v)),
        ("doc_norms", floats_to_json(&m.doc_norms)),
        ("doc_ids", strings_to_json(&m.doc_ids)),
        ("doc_origins", array(&m.doc_origins, |&o| enum_to_json(o))),
        ("folded_terms", strings_to_json(&m.folded_terms)),
        ("term_origins", array(&m.term_origins, |&o| enum_to_json(o))),
        ("weighted", csc_to_json(&m.weighted)),
        ("precision", enum_to_json(m.precision)),
        ("index_policy", policy_to_json(m.index_policy)),
        ("index", m.index.as_ref().map_or(Json::Null, index_to_json)),
    ]);
    tree.to_string_compact()
}

/// Parse a database body and rebuild the model from it. Only the
/// per-value invariants are checked here; the caller checks the shapes
/// across fields. The tree is freed before this returns, so a load
/// peaks at the text, the tree and the model.
pub(crate) fn model_from_json(body: &str) -> Result<LsiModel> {
    let tree = lsi_obs::parse_json(body).map_err(|e| Error::Persist(e.to_string()))?;
    read_model(&tree).map_err(Error::Persist)
}

/// What the readers return: the message becomes an [`Error::Persist`].
type Read<T> = std::result::Result<T, String>;

fn read_model(node: &Json) -> Read<LsiModel> {
    let f = Fields::of(node)?;
    Ok(LsiModel {
        vocab: f.field("vocab", vocab_from_json)?,
        weighting: f.field("weighting", weighting_from_json)?,
        global_weights: f.field("global_weights", floats)?,
        u: f.field("u", dense_from_json)?,
        s: f.field("s", floats)?,
        v: f.field("v", dense_from_json)?,
        doc_norms: f.field("doc_norms", floats)?,
        doc_ids: f.field("doc_ids", |n| list(n, |id| string(id).map(Arc::from)))?,
        doc_origins: f.field("doc_origins", |n| list(n, enum_from_json))?,
        folded_terms: f.field("folded_terms", strings)?,
        term_origins: f.field("term_origins", |n| list(n, enum_from_json))?,
        weighted: f.field("weighted", csc_from_json)?,
        // These three were added after the format shipped: files
        // without them load as exact scoring with no index.
        precision: f
            .optional("precision", enum_from_json)?
            .unwrap_or(Precision::Exact),
        compressed: None,
        index_policy: f
            .optional("index_policy", policy_from_json)?
            .unwrap_or(IndexPolicy::Exact),
        index: f.optional("index", index_from_json)?.flatten(),
    })
}

/// The members of one stored object, looked up by name.
struct Fields<'a>(&'a [(String, Json)]);

impl<'a> Fields<'a> {
    fn of(node: &'a Json) -> Read<Fields<'a>> {
        match node {
            Json::Obj(members) => Ok(Fields(members)),
            other => Err(expected("an object", other)),
        }
    }

    /// Convert member `key`; errors name the field.
    fn field<T>(&self, key: &str, read: impl FnOnce(&'a Json) -> Read<T>) -> Read<T> {
        self.optional(key, read)?
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// [`Fields::field`] for a member older files may lack.
    fn optional<T>(&self, key: &str, read: impl FnOnce(&'a Json) -> Read<T>) -> Read<Option<T>> {
        let Some((_, node)) = self.0.iter().find(|(k, _)| k == key) else {
            return Ok(None);
        };
        read(node)
            .map(Some)
            .map_err(|e| format!("field `{key}`: {e}"))
    }
}

fn expected(what: &str, found: &Json) -> String {
    let kind = match found {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    format!("expected {what}, found {kind}")
}

/// Any stored float; the writer turns NaN and infinities into `null`,
/// so only finite values ever load.
fn float(node: &Json) -> Read<f64> {
    match node {
        Json::Num(x) if x.is_finite() => Ok(*x),
        Json::Num(x) => Err(format!("expected a finite number, found {x}")),
        other => Err(expected("a number", other)),
    }
}

/// 2^53: every integer up to it is exact in an `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A size, count or index: a non-negative integer `f64` holds exactly.
fn count(node: &Json) -> Read<usize> {
    let x = float(node)?;
    if (0.0..=MAX_EXACT_INT).contains(&x) && x.trunc() == x {
        Ok(x as usize)
    } else {
        Err(format!("expected a non-negative integer, found {x}"))
    }
}

fn list_id(node: &Json) -> Read<u32> {
    let c = count(node)?;
    u32::try_from(c).map_err(|_| format!("list id {c} does not fit in u32"))
}

fn flag(node: &Json) -> Read<bool> {
    match node {
        Json::Bool(b) => Ok(*b),
        other => Err(expected("a bool", other)),
    }
}

fn string(node: &Json) -> Read<String> {
    match node {
        Json::Str(s) => Ok(s.clone()),
        other => Err(expected("a string", other)),
    }
}

/// Convert an array item by item into a vector of exactly its length.
fn list<T>(node: &Json, read: impl Fn(&Json) -> Read<T>) -> Read<Vec<T>> {
    let items = match node {
        Json::Arr(items) => items,
        other => return Err(expected("an array", other)),
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(read(item).map_err(|e| format!("item {i}: {e}"))?);
    }
    Ok(out)
}

fn floats(node: &Json) -> Read<Vec<f64>> {
    list(node, float)
}

fn counts(node: &Json) -> Read<Vec<usize>> {
    list(node, count)
}

fn strings(node: &Json) -> Read<Vec<String>> {
    list(node, string)
}

fn array<T>(items: &[T], write: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(write).collect())
}

fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

fn floats_to_json(xs: &[f64]) -> Json {
    array(xs, |&x| Json::Num(x))
}

fn counts_to_json(xs: &[usize]) -> Json {
    array(xs, |&x| num(x))
}

fn strings_to_json<S: AsRef<str>>(xs: &[S]) -> Json {
    array(xs, |s| Json::Str(s.as_ref().to_string()))
}

/// A unit enum, stored as its variant name.
trait UnitEnum: Sized + Copy {
    fn name(self) -> &'static str;
    fn from_name(name: &str) -> Option<Self>;
}

macro_rules! unit_enums {
    ($($ty:ident { $($variant:ident),+ })+) => {$(
        impl UnitEnum for $ty {
            fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => stringify!($variant),)+
                }
            }

            fn from_name(name: &str) -> Option<Self> {
                match name {
                    $(stringify!($variant) => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    )+};
}

unit_enums! {
    DocOrigin { Svd, FoldedIn }
    Precision { Exact, F32, I8 }
    TokenFold { None, PluralFold }
    LocalWeight { RawTf, Log, Binary }
    GlobalWeight { None, Idf, Entropy, GfIdf, Normal }
}

fn enum_to_json<E: UnitEnum>(value: E) -> Json {
    Json::Str(value.name().to_string())
}

fn enum_from_json<E: UnitEnum>(node: &Json) -> Read<E> {
    match node.as_str() {
        Some(name) => E::from_name(name).ok_or_else(|| format!("unknown variant `{name}`")),
        None => Err(expected("a variant name", node)),
    }
}

fn dense_to_json(m: &DenseMatrix) -> Json {
    Json::obj(vec![
        ("nrows", num(m.nrows())),
        ("ncols", num(m.ncols())),
        ("data", floats_to_json(m.data())),
    ])
}

fn dense_from_json(node: &Json) -> Read<DenseMatrix> {
    let f = Fields::of(node)?;
    let (nrows, ncols) = (f.field("nrows", count)?, f.field("ncols", count)?);
    DenseMatrix::from_col_major(nrows, ncols, f.field("data", floats)?).map_err(|e| e.to_string())
}

fn csc_to_json(m: &CscMatrix) -> Json {
    let (indptr, indices, values) = m.raw();
    Json::obj(vec![
        ("nrows", num(m.nrows())),
        ("ncols", num(m.ncols())),
        ("indptr", counts_to_json(indptr)),
        ("indices", counts_to_json(indices)),
        ("values", floats_to_json(values)),
    ])
}

fn csc_from_json(node: &Json) -> Read<CscMatrix> {
    let f = Fields::of(node)?;
    let (nrows, ncols) = (f.field("nrows", count)?, f.field("ncols", count)?);
    let (indptr, indices) = (f.field("indptr", counts)?, f.field("indices", counts)?);
    CscMatrix::from_raw(nrows, ncols, indptr, indices, f.field("values", floats)?)
        .map_err(|e| e.to_string())
}

fn vocab_to_json(v: &Vocabulary) -> Json {
    // The term map is redundant with `keys` (the reader rebuilds it
    // from them) but stays in the format, sorted by key.
    let mut index: Vec<(String, Json)> = v
        .keys()
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), num(i)))
        .collect();
    index.sort_by(|a, b| a.0.cmp(&b.0));
    Json::obj(vec![
        ("rules", rules_to_json(v.rules())),
        ("displays", strings_to_json(v.terms())),
        ("keys", strings_to_json(v.keys())),
        ("index", Json::Obj(index)),
        ("doc_freq", counts_to_json(v.doc_freqs())),
        ("global_freq", counts_to_json(v.global_freqs())),
        ("n_docs", num(v.n_docs())),
    ])
}

fn vocab_from_json(node: &Json) -> Read<Vocabulary> {
    let f = Fields::of(node)?;
    Vocabulary::from_parts(
        f.field("rules", rules_from_json)?,
        f.field("displays", strings)?,
        f.field("keys", strings)?,
        f.field("doc_freq", counts)?,
        f.field("global_freq", counts)?,
        f.field("n_docs", count)?,
    )
}

fn rules_to_json(r: &ParsingRules) -> Json {
    Json::obj(vec![
        ("min_df", num(r.min_df)),
        ("max_df_fraction", Json::Num(r.max_df_fraction)),
        ("min_token_len", num(r.min_token_len)),
        ("use_stopwords", Json::Bool(r.use_stopwords)),
        ("fold", enum_to_json(r.fold)),
        ("word_ngrams", num(r.word_ngrams)),
    ])
}

fn rules_from_json(node: &Json) -> Read<ParsingRules> {
    let f = Fields::of(node)?;
    Ok(ParsingRules {
        min_df: f.field("min_df", count)?,
        max_df_fraction: f.field("max_df_fraction", float)?,
        min_token_len: f.field("min_token_len", count)?,
        use_stopwords: f.field("use_stopwords", flag)?,
        fold: f.field("fold", enum_from_json)?,
        word_ngrams: f.field("word_ngrams", count)?,
    })
}

fn weighting_to_json(w: TermWeighting) -> Json {
    Json::obj(vec![
        ("local", enum_to_json(w.local)),
        ("global", enum_to_json(w.global)),
    ])
}

fn weighting_from_json(node: &Json) -> Read<TermWeighting> {
    let f = Fields::of(node)?;
    Ok(TermWeighting {
        local: f.field("local", enum_from_json)?,
        global: f.field("global", enum_from_json)?,
    })
}

fn policy_to_json(policy: IndexPolicy) -> Json {
    match policy {
        IndexPolicy::Exact => Json::Str("Exact".to_string()),
        IndexPolicy::Pruned { nprobe } => {
            Json::obj(vec![("Pruned", Json::obj(vec![("nprobe", num(nprobe))]))])
        }
    }
}

fn policy_from_json(node: &Json) -> Read<IndexPolicy> {
    match node {
        Json::Str(s) if s == "Exact" => Ok(IndexPolicy::Exact),
        Json::Obj(_) => {
            let nprobe = Fields::of(node)?
                .field("Pruned", Fields::of)?
                .field("nprobe", count)?;
            Ok(IndexPolicy::Pruned { nprobe })
        }
        other => Err(expected(r#""Exact" or {"Pruned":{..}}"#, other)),
    }
}

fn index_to_json(ix: &ClusterIndex) -> Json {
    Json::obj(vec![
        ("centroids", dense_to_json(ix.centroids())),
        (
            "assignments",
            array(ix.assignments(), |&c| Json::Num(c.into())),
        ),
        ("moved", num(ix.moved())),
    ])
}

fn index_from_json(node: &Json) -> Read<Option<ClusterIndex>> {
    if matches!(node, Json::Null) {
        return Ok(None);
    }
    let f = Fields::of(node)?;
    let centroids = f.field("centroids", dense_from_json)?;
    let assignments = f.field("assignments", |n| list(n, list_id))?;
    let moved = f.field("moved", count)?;
    // Training makes at most one list per document (one if there are
    // none); bound the count before `from_parts` allocates the lists.
    if centroids.nrows() > assignments.len().max(1) {
        return Err(format!(
            "{} lists for {} documents",
            centroids.nrows(),
            assignments.len()
        ));
    }
    let index = ClusterIndex::from_parts(centroids, assignments, moved);
    Ok(Some(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_policy_roundtrips() {
        for p in [IndexPolicy::Exact, IndexPolicy::Pruned { nprobe: 7 }] {
            assert_eq!(policy_from_json(&policy_to_json(p)).unwrap(), p);
        }
        assert_eq!(
            policy_to_json(IndexPolicy::Pruned { nprobe: 2 }).to_string_compact(),
            r#"{"Pruned":{"nprobe":2}}"#
        );
        assert!(policy_from_json(&Json::Str("Wat".into())).is_err());
        assert!(policy_from_json(&lsi_obs::parse_json(r#"{"Pruned":{}}"#).unwrap()).is_err());
    }

    #[test]
    fn cluster_index_roundtrips_and_rebuilds_lists() {
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64 * 0.5).cos(), (i as f64 * 0.5).sin()])
            .collect();
        let v = DenseMatrix::from_rows(&rows).unwrap();
        let norms: Vec<f64> = (0..v.nrows()).map(|i| v.row_view(i).nrm2()).collect();
        let idx = ClusterIndex::build(&v, &norms).unwrap();
        let back = index_from_json(&index_to_json(&idx)).unwrap().unwrap();
        assert_eq!(back.assignments(), idx.assignments());
        assert_eq!(back.centroids().data(), idx.centroids().data());
        assert_eq!(back.moved(), idx.moved());
        for l in 0..idx.n_lists() {
            assert_eq!(back.list(l), idx.list(l));
        }
        assert!(index_from_json(&Json::Null).unwrap().is_none());
        let huge =
            r#"{"centroids":{"nrows":1e15,"ncols":0,"data":[]},"assignments":[0],"moved":0}"#;
        let err = index_from_json(&lsi_obs::parse_json(huge).unwrap()).unwrap_err();
        assert_eq!(err, "1000000000000000 lists for 1 documents");
    }

    #[test]
    fn unit_enums_are_stored_as_variant_names() {
        assert_eq!(enum_to_json(Precision::F32), Json::Str("F32".into()));
        assert_eq!(enum_to_json(DocOrigin::FoldedIn).as_str(), Some("FoldedIn"));
        let gfidf: GlobalWeight = enum_from_json(&Json::Str("GfIdf".into())).unwrap();
        assert_eq!(gfidf, GlobalWeight::GfIdf);
        let err = enum_from_json::<LocalWeight>(&Json::Str("Sqrt".into())).unwrap_err();
        assert_eq!(err, "unknown variant `Sqrt`");
        assert!(enum_from_json::<TokenFold>(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn counts_must_be_exact_non_negative_integers() {
        assert_eq!(count(&Json::Num(42.0)), Ok(42));
        for bad in [-1.0, 2.5, 1e300, f64::NAN] {
            assert!(count(&Json::Num(bad)).is_err(), "{bad}");
        }
        assert!(list_id(&Json::Num(u32::MAX as f64 + 1.0)).is_err());
    }

    #[test]
    fn errors_name_the_field() {
        let tree = lsi_obs::parse_json(r#"{"nrows":2,"ncols":2,"data":[1,2,"x",4]}"#).unwrap();
        let err = dense_from_json(&tree).unwrap_err();
        assert_eq!(
            err,
            "field `data`: item 2: expected a number, found a string"
        );
        let short = lsi_obs::parse_json(r#"{"nrows":2,"ncols":2,"data":[1,2,3]}"#).unwrap();
        assert!(dense_from_json(&short).is_err());
        let missing = lsi_obs::parse_json(r#"{"nrows":2,"data":[]}"#).unwrap();
        assert_eq!(
            dense_from_json(&missing).unwrap_err(),
            "missing field `ncols`"
        );
    }
}
