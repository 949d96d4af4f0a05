//! The LSI database schema, streamed: [`model_to_json`] appends an
//! [`LsiModel`] to one pre-sized `String`, and [`model_from_json`] pulls
//! it back out of the text with `lsi_obs::JsonReader`, parsing each
//! array straight into the model's own vectors. No `Json` tree is
//! built on either side. [`LsiModel::to_json`] and
//! [`LsiModel::from_json`] wrap the body in the `#lsi1` trailer.
//!
//! A struct is an object with one member per field, in declaration
//! order; a unit enum is its variant name (`"Exact"`, `"FoldedIn"`,
//! `"Log"`, …); `IndexPolicy::Pruned` is `{"Pruned":{"nprobe":N}}`; an
//! absent index is `null`. These keys, orders and spellings are the
//! format: `crates/core/tests/persist_format.rs` pins them. The reader
//! takes members in any order and skips unknown ones, as a tree lookup
//! did, but a member repeated within one object is an error rather than
//! a silent pick of one copy. It rebuilds every value through a
//! constructor that validates it, and a type, range or shape mismatch
//! is an [`Error::Persist`] naming the field; malformed JSON is reported
//! as the tokenizer words it, with its byte offset.

use std::borrow::Cow;
use std::sync::Arc;

use lsi_linalg::DenseMatrix;
use lsi_obs::{write_json_num, write_json_str, JsonKind, JsonReader, ParseError};
use lsi_sparse::CscMatrix;
use lsi_text::normalize::TokenFold;
use lsi_text::{GlobalWeight, LocalWeight, ParsingRules, TermWeighting, Vocabulary};

use crate::compressed::Precision;
use crate::index::{ClusterIndex, IndexPolicy};
use crate::model::{DocOrigin, LsiModel};
use crate::{Error, Result};

/// Room left after the body for the `#lsi1` trailer line.
const TRAILER_ROOM: usize = 64;

/// The database body, written compactly.
pub(crate) fn model_to_json(m: &LsiModel) -> String {
    let mut out = String::with_capacity(size_hint(m) + TRAILER_ROOM);
    write_object(
        &mut out,
        &[
            ("vocab", &|o| write_vocab(o, &m.vocab)),
            ("weighting", &|o| write_weighting(o, m.weighting)),
            ("global_weights", &|o| write_floats(o, &m.global_weights)),
            ("u", &|o| write_dense(o, &m.u)),
            ("s", &|o| write_floats(o, &m.s)),
            ("v", &|o| write_dense(o, &m.v)),
            ("doc_norms", &|o| write_floats(o, &m.doc_norms)),
            ("doc_ids", &|o| write_strings(o, &m.doc_ids)),
            ("doc_origins", &|o| {
                write_array(o, &m.doc_origins, |o, &e| write_enum(o, e))
            }),
            ("folded_terms", &|o| write_strings(o, &m.folded_terms)),
            ("term_origins", &|o| {
                write_array(o, &m.term_origins, |o, &e| write_enum(o, e))
            }),
            ("weighted", &|o| write_csc(o, &m.weighted)),
            ("precision", &|o| write_enum(o, m.precision)),
            ("index_policy", &|o| write_policy(o, m.index_policy)),
            ("index", &|o| match &m.index {
                Some(ix) => write_index(o, ix),
                None => o.push_str("null"),
            }),
        ],
    );
    out
}

/// An upper estimate of the body's length, so that writing it never
/// regrows the buffer: 25 bytes per float (the longest `f64` text and
/// a comma), 21 per count, and each string's bytes plus quotes, comma
/// and a little escaping.
fn size_hint(m: &LsiModel) -> usize {
    let (indptr, indices, values) = m.weighted.raw();
    let centroids = m.index.as_ref().map_or(0, |ix| ix.centroids().data().len());
    let floats = m.global_weights.len()
        + m.u.data().len()
        + m.s.len()
        + m.v.data().len()
        + m.doc_norms.len()
        + values.len()
        + centroids;
    let v = &m.vocab;
    let counts = indptr.len()
        + indices.len()
        + v.doc_freqs().len()
        + v.global_freqs().len()
        + v.len()
        + m.index.as_ref().map_or(0, |ix| ix.assignments().len());
    // Keys appear twice: in `keys` and in the term map.
    let words = v
        .terms()
        .iter()
        .chain(v.keys())
        .chain(v.keys())
        .chain(&m.folded_terms);
    let strings = words.map(|s| s.len() + 8).sum::<usize>()
        + m.doc_ids.iter().map(|s| s.len() + 8).sum::<usize>()
        + 12 * (m.doc_origins.len() + m.term_origins.len());
    25 * floats + 21 * counts + strings + 1024
}

/// One member of an object being written: its key and its value's writer.
type Member<'a> = (&'static str, &'a dyn Fn(&mut String));

fn write_object(out: &mut String, members: &[Member<'_>]) {
    out.push('{');
    for (i, (key, write)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, key);
        out.push(':');
        write(out);
    }
    out.push('}');
}

fn write_array<T>(out: &mut String, items: &[T], write: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

fn write_count(out: &mut String, x: usize) {
    write_json_num(out, x as f64);
}

fn write_floats(out: &mut String, xs: &[f64]) {
    write_array(out, xs, |o, &x| write_json_num(o, x));
}

fn write_counts(out: &mut String, xs: &[usize]) {
    write_array(out, xs, |o, &x| write_count(o, x));
}

fn write_strings<S: AsRef<str>>(out: &mut String, xs: &[S]) {
    write_array(out, xs, |o, s| write_json_str(o, s.as_ref()));
}

/// Why a read stopped: malformed JSON, reported as the tokenizer words
/// it (with its byte offset), or a value the schema does not allow,
/// with the fields and items that lead to it.
enum Fault {
    Syntax(ParseError),
    Schema(String),
}

impl From<ParseError> for Fault {
    fn from(e: ParseError) -> Fault {
        Fault::Syntax(e)
    }
}

impl Fault {
    /// Prefix a schema error with the place it was found in.
    fn within(self, place: impl FnOnce() -> String) -> Fault {
        match self {
            Fault::Schema(msg) => Fault::Schema(format!("{}: {msg}", place())),
            syntax => syntax,
        }
    }

    fn message(self) -> String {
        match self {
            Fault::Syntax(e) => e.to_string(),
            Fault::Schema(msg) => msg,
        }
    }
}

/// What the readers return: a fault becomes an [`Error::Persist`].
type Read<T> = std::result::Result<T, Fault>;

fn schema<T>(msg: String) -> Read<T> {
    Err(Fault::Schema(msg))
}

/// Rebuild the model from a database body. Only the per-value
/// invariants are checked here; the caller checks the shapes across
/// fields. A load peaks at the text and the model.
pub(crate) fn model_from_json(body: &str) -> Result<LsiModel> {
    let mut r = JsonReader::new(body);
    read_model(&mut r)
        .and_then(|model| {
            r.finish()?;
            Ok(model)
        })
        .map_err(|fault| Error::Persist(fault.message()))
}

/// One member of a stored object, read at most once.
struct Field<T> {
    key: &'static str,
    value: Option<T>,
}

impl<T> Field<T> {
    fn new(key: &'static str) -> Field<T> {
        Field { key, value: None }
    }

    /// Read this member's value; errors name the field.
    fn read(
        &mut self,
        r: &mut JsonReader,
        read: impl FnOnce(&mut JsonReader) -> Read<T>,
    ) -> Read<()> {
        let key = self.key;
        if self.value.is_some() {
            return schema(format!("repeated field `{key}`"));
        }
        self.value = Some(read(r).map_err(|e| e.within(|| format!("field `{key}`")))?);
        Ok(())
    }

    fn get(self) -> Read<T> {
        let key = self.key;
        self.value
            .ok_or_else(|| Fault::Schema(format!("missing field `{key}`")))
    }

    /// [`Field::get`] for a member older files may lack.
    fn or(self, default: T) -> T {
        self.value.unwrap_or(default)
    }
}

/// Read a stored object, handing each member's name to `member`, which
/// reads the value of a member it knows and returns `false` for any
/// other; those are checked as JSON and skipped.
fn read_object(
    r: &mut JsonReader,
    mut member: impl FnMut(&mut JsonReader, &str) -> Read<bool>,
) -> Read<()> {
    expect(r, JsonKind::Obj, "an object")?;
    let mut more = r.begin_object()?;
    while more {
        let key = r.key()?;
        if !member(r, &key)? {
            r.skip_value()?;
        }
        more = r.end_member()?;
    }
    Ok(())
}

/// Read a stored object into one [`Field`] binding per named member,
/// each filled by its reader: `read_fields!(r, nrows => count, …)`.
/// The bindings are named as the format's keys are, `Pruned` included.
macro_rules! read_fields {
    ($r:expr, $($name:ident => $read:expr),+ $(,)?) => {
        $(#[allow(non_snake_case)] let mut $name = Field::new(stringify!($name));)+
        read_object($r, |r, key| {
            match key {
                $(stringify!($name) => $name.read(r, $read)?,)+
                _ => return Ok(false),
            }
            Ok(true)
        })?;
    };
}

fn read_model(r: &mut JsonReader) -> Read<LsiModel> {
    read_fields!(r,
        vocab => read_vocab,
        weighting => read_weighting,
        global_weights => floats,
        u => read_dense,
        s => floats,
        v => read_dense,
        doc_norms => floats,
        doc_ids => |r| list(r, |r| text(r).map(|id| Arc::from(&*id))),
        doc_origins => |r| list(r, read_enum),
        folded_terms => strings,
        term_origins => |r| list(r, read_enum),
        weighted => read_csc,
        precision => read_enum,
        index_policy => read_policy,
        index => read_index,
    );
    Ok(LsiModel {
        vocab: vocab.get()?,
        weighting: weighting.get()?,
        global_weights: global_weights.get()?,
        u: u.get()?,
        s: s.get()?,
        v: v.get()?,
        doc_norms: doc_norms.get()?,
        doc_ids: doc_ids.get()?,
        doc_origins: doc_origins.get()?,
        folded_terms: folded_terms.get()?,
        term_origins: term_origins.get()?,
        weighted: weighted.get()?,
        // These three were added after the format shipped: files
        // without them load as exact scoring with no index.
        precision: precision.or(Precision::Exact),
        compressed: None,
        index_policy: index_policy.or(IndexPolicy::Exact),
        index: index.or(None),
    })
}

fn kind_name(kind: JsonKind) -> &'static str {
    match kind {
        JsonKind::Null => "null",
        JsonKind::Bool => "a bool",
        JsonKind::Num => "a number",
        JsonKind::Str => "a string",
        JsonKind::Arr => "an array",
        JsonKind::Obj => "an object",
    }
}

fn expected(what: &str, found: JsonKind) -> Fault {
    Fault::Schema(format!("expected {what}, found {}", kind_name(found)))
}

/// The next value must be of kind `want`, described as `what`.
fn expect(r: &mut JsonReader, want: JsonKind, what: &str) -> Read<()> {
    match r.peek()? {
        kind if kind == want => Ok(()),
        other => Err(expected(what, other)),
    }
}

/// Any stored float; the writer turns NaN and infinities into `null`,
/// so only finite values ever load.
fn float(r: &mut JsonReader) -> Read<f64> {
    expect(r, JsonKind::Num, "a number")?;
    match r.number()? {
        x if x.is_finite() => Ok(x),
        x => schema(format!("expected a finite number, found {x}")),
    }
}

/// 2^53: every integer up to it is exact in an `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A size, count or index: a non-negative integer `f64` holds exactly.
fn count(r: &mut JsonReader) -> Read<usize> {
    let x = float(r)?;
    if (0.0..=MAX_EXACT_INT).contains(&x) && x.trunc() == x {
        Ok(x as usize)
    } else {
        schema(format!("expected a non-negative integer, found {x}"))
    }
}

fn list_id(r: &mut JsonReader) -> Read<u32> {
    let c = count(r)?;
    u32::try_from(c).map_err(|_| Fault::Schema(format!("list id {c} does not fit in u32")))
}

fn flag(r: &mut JsonReader) -> Read<bool> {
    expect(r, JsonKind::Bool, "a bool")?;
    Ok(r.bool()?)
}

/// A string, borrowed from the text when it has no escapes.
fn text<'a>(r: &mut JsonReader<'a>) -> Read<Cow<'a, str>> {
    expect(r, JsonKind::Str, "a string")?;
    Ok(r.string()?)
}

fn string(r: &mut JsonReader) -> Read<String> {
    text(r).map(Cow::into_owned)
}

/// Read an array item by item into a vector with room for `len_hint`
/// items, as far as the text left could hold them (two bytes each), so
/// a declared shape sizes the buffer but cannot inflate it.
fn list_sized<T>(
    r: &mut JsonReader,
    len_hint: usize,
    mut read: impl FnMut(&mut JsonReader) -> Read<T>,
) -> Read<Vec<T>> {
    expect(r, JsonKind::Arr, "an array")?;
    let mut out = Vec::with_capacity(len_hint.min(r.remaining() / 2 + 1));
    let mut more = r.begin_array()?;
    while more {
        let i = out.len();
        out.push(read(r).map_err(|e| e.within(|| format!("item {i}")))?);
        more = r.end_item()?;
    }
    Ok(out)
}

fn list<T>(r: &mut JsonReader, read: impl FnMut(&mut JsonReader) -> Read<T>) -> Read<Vec<T>> {
    list_sized(r, 0, read)
}

fn floats(r: &mut JsonReader) -> Read<Vec<f64>> {
    list(r, float)
}

fn counts(r: &mut JsonReader) -> Read<Vec<usize>> {
    list(r, count)
}

fn strings(r: &mut JsonReader) -> Read<Vec<String>> {
    list(r, string)
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

fn write_enum<E: UnitEnum>(out: &mut String, value: E) {
    write_json_str(out, value.name());
}

fn read_enum<E: UnitEnum>(r: &mut JsonReader) -> Read<E> {
    match r.peek()? {
        JsonKind::Str => {
            let name = r.string()?;
            E::from_name(&name).ok_or_else(|| Fault::Schema(format!("unknown variant `{name}`")))
        }
        other => Err(expected("a variant name", other)),
    }
}

fn write_dense(out: &mut String, m: &DenseMatrix) {
    write_object(
        out,
        &[
            ("nrows", &|o| write_count(o, m.nrows())),
            ("ncols", &|o| write_count(o, m.ncols())),
            ("data", &|o| write_floats(o, m.data())),
        ],
    );
}

fn read_dense(r: &mut JsonReader) -> Read<DenseMatrix> {
    read_fields!(r,
        nrows => count,
        ncols => count,
        // The shape comes first in every written file: size the buffer
        // by it.
        data => |r| {
            let len = nrows.value.unwrap_or(0).saturating_mul(ncols.value.unwrap_or(0));
            list_sized(r, len, float)
        },
    );
    let (nrows, ncols) = (nrows.get()?, ncols.get()?);
    DenseMatrix::from_col_major(nrows, ncols, data.get()?).map_err(|e| Fault::Schema(e.to_string()))
}

fn write_csc(out: &mut String, m: &CscMatrix) {
    let (indptr, indices, values) = m.raw();
    write_object(
        out,
        &[
            ("nrows", &|o| write_count(o, m.nrows())),
            ("ncols", &|o| write_count(o, m.ncols())),
            ("indptr", &|o| write_counts(o, indptr)),
            ("indices", &|o| write_counts(o, indices)),
            ("values", &|o| write_floats(o, values)),
        ],
    );
}

fn read_csc(r: &mut JsonReader) -> Read<CscMatrix> {
    // `indptr` comes first and ends at the entry count.
    let nnz = |indptr: &Field<Vec<usize>>| indptr.value.as_ref().and_then(|p| p.last()).copied();
    read_fields!(r,
        nrows => count,
        ncols => count,
        indptr => counts,
        indices => |r| list_sized(r, nnz(&indptr).unwrap_or(0), count),
        values => |r| list_sized(r, nnz(&indptr).unwrap_or(0), float),
    );
    let (nrows, ncols) = (nrows.get()?, ncols.get()?);
    let (indptr, indices) = (indptr.get()?, indices.get()?);
    CscMatrix::from_raw(nrows, ncols, indptr, indices, values.get()?)
        .map_err(|e| Fault::Schema(e.to_string()))
}

fn write_vocab(out: &mut String, v: &Vocabulary) {
    // The term map is redundant with `keys` (the reader rebuilds it
    // from them) but stays in the format, sorted by key; a stable sort
    // keeps the order of equal keys.
    let keys = v.keys();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    write_object(
        out,
        &[
            ("rules", &|o| write_rules(o, v.rules())),
            ("displays", &|o| write_strings(o, v.terms())),
            ("keys", &|o| write_strings(o, keys)),
            ("index", &|o| {
                o.push('{');
                for (n, &i) in order.iter().enumerate() {
                    if n > 0 {
                        o.push(',');
                    }
                    write_json_str(o, &keys[i]);
                    o.push(':');
                    write_count(o, i);
                }
                o.push('}');
            }),
            ("doc_freq", &|o| write_counts(o, v.doc_freqs())),
            ("global_freq", &|o| write_counts(o, v.global_freqs())),
            ("n_docs", &|o| write_count(o, v.n_docs())),
        ],
    );
}

fn read_vocab(r: &mut JsonReader) -> Read<Vocabulary> {
    read_fields!(r,
        rules => read_rules,
        displays => strings,
        keys => strings,
        // The term map is rebuilt from `keys`: its text is checked as
        // JSON and stepped over without allocating.
        index => |r| Ok(r.skip_value()?),
        doc_freq => counts,
        global_freq => counts,
        n_docs => count,
    );
    Vocabulary::from_parts(
        rules.get()?,
        displays.get()?,
        keys.get()?,
        doc_freq.get()?,
        global_freq.get()?,
        n_docs.get()?,
    )
    .map_err(Fault::Schema)
}

fn write_rules(out: &mut String, r: &ParsingRules) {
    write_object(
        out,
        &[
            ("min_df", &|o| write_count(o, r.min_df)),
            ("max_df_fraction", &|o| write_json_num(o, r.max_df_fraction)),
            ("min_token_len", &|o| write_count(o, r.min_token_len)),
            ("use_stopwords", &|o| {
                o.push_str(if r.use_stopwords { "true" } else { "false" })
            }),
            ("fold", &|o| write_enum(o, r.fold)),
            ("word_ngrams", &|o| write_count(o, r.word_ngrams)),
        ],
    );
}

fn read_rules(r: &mut JsonReader) -> Read<ParsingRules> {
    read_fields!(r,
        min_df => count,
        max_df_fraction => float,
        min_token_len => count,
        use_stopwords => flag,
        fold => read_enum,
        word_ngrams => count,
    );
    Ok(ParsingRules {
        min_df: min_df.get()?,
        max_df_fraction: max_df_fraction.get()?,
        min_token_len: min_token_len.get()?,
        use_stopwords: use_stopwords.get()?,
        fold: fold.get()?,
        word_ngrams: word_ngrams.get()?,
    })
}

fn write_weighting(out: &mut String, w: TermWeighting) {
    write_object(
        out,
        &[
            ("local", &|o| write_enum(o, w.local)),
            ("global", &|o| write_enum(o, w.global)),
        ],
    );
}

fn read_weighting(r: &mut JsonReader) -> Read<TermWeighting> {
    read_fields!(r, local => read_enum, global => read_enum);
    Ok(TermWeighting {
        local: local.get()?,
        global: global.get()?,
    })
}

fn write_policy(out: &mut String, policy: IndexPolicy) {
    match policy {
        IndexPolicy::Exact => write_json_str(out, "Exact"),
        IndexPolicy::Pruned { nprobe } => write_object(
            out,
            &[("Pruned", &|o| {
                write_object(o, &[("nprobe", &|o| write_count(o, nprobe))])
            })],
        ),
    }
}

fn read_policy(r: &mut JsonReader) -> Read<IndexPolicy> {
    let what = r#""Exact" or {"Pruned":{..}}"#;
    match r.peek()? {
        JsonKind::Str => match &*r.string()? {
            "Exact" => Ok(IndexPolicy::Exact),
            _ => Err(expected(what, JsonKind::Str)),
        },
        JsonKind::Obj => {
            read_fields!(r, Pruned => |r| {
                read_fields!(r, nprobe => count);
                nprobe.get()
            });
            Ok(IndexPolicy::Pruned {
                nprobe: Pruned.get()?,
            })
        }
        other => Err(expected(what, other)),
    }
}

fn write_index(out: &mut String, ix: &ClusterIndex) {
    write_object(
        out,
        &[
            ("centroids", &|o| write_dense(o, ix.centroids())),
            ("assignments", &|o| {
                write_array(o, ix.assignments(), |o, &c| write_json_num(o, c.into()))
            }),
            ("moved", &|o| write_count(o, ix.moved())),
        ],
    );
}

fn read_index(r: &mut JsonReader) -> Read<Option<ClusterIndex>> {
    if r.peek()? == JsonKind::Null {
        r.null()?;
        return Ok(None);
    }
    read_fields!(r,
        centroids => read_dense,
        assignments => |r| list(r, list_id),
        moved => count,
    );
    let (centroids, assignments) = (centroids.get()?, assignments.get()?);
    let moved = moved.get()?;
    // Training makes at most one list per document (one if there are
    // none); bound the count before `from_parts` allocates the lists.
    if centroids.nrows() > assignments.len().max(1) {
        return schema(format!(
            "{} lists for {} documents",
            centroids.nrows(),
            assignments.len()
        ));
    }
    Ok(Some(ClusterIndex::from_parts(
        centroids,
        assignments,
        moved,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read the whole of `text` with `read`, as [`model_from_json`] does.
    fn read_text<T>(
        text: &str,
        read: impl FnOnce(&mut JsonReader) -> Read<T>,
    ) -> std::result::Result<T, String> {
        let mut r = JsonReader::new(text);
        let value = read(&mut r).map_err(Fault::message)?;
        r.finish().map_err(|e| e.to_string())?;
        Ok(value)
    }

    fn write_text(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn index_policy_roundtrips() {
        for p in [IndexPolicy::Exact, IndexPolicy::Pruned { nprobe: 7 }] {
            let text = write_text(|o| write_policy(o, p));
            assert_eq!(read_text(&text, read_policy).unwrap(), p);
        }
        assert_eq!(
            write_text(|o| write_policy(o, IndexPolicy::Pruned { nprobe: 2 })),
            r#"{"Pruned":{"nprobe":2}}"#
        );
        assert!(read_text(r#""Wat""#, read_policy).is_err());
        assert!(read_text(r#"{"Pruned":{}}"#, read_policy).is_err());
    }

    #[test]
    fn cluster_index_roundtrips_and_rebuilds_lists() {
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64 * 0.5).cos(), (i as f64 * 0.5).sin()])
            .collect();
        let v = DenseMatrix::from_rows(&rows).unwrap();
        let norms: Vec<f64> = (0..v.nrows()).map(|i| v.row_view(i).nrm2()).collect();
        let idx = ClusterIndex::build(&v, &norms).unwrap();
        let text = write_text(|o| write_index(o, &idx));
        let back = read_text(&text, read_index).unwrap().unwrap();
        assert_eq!(back.assignments(), idx.assignments());
        assert_eq!(back.centroids().data(), idx.centroids().data());
        assert_eq!(back.moved(), idx.moved());
        for l in 0..idx.n_lists() {
            assert_eq!(back.list(l), idx.list(l));
        }
        assert!(read_text("null", read_index).unwrap().is_none());
        let huge =
            r#"{"centroids":{"nrows":1e15,"ncols":0,"data":[]},"assignments":[0],"moved":0}"#;
        let err = read_text(huge, read_index).unwrap_err();
        assert_eq!(err, "1000000000000000 lists for 1 documents");
    }

    #[test]
    fn unit_enums_are_stored_as_variant_names() {
        assert_eq!(write_text(|o| write_enum(o, Precision::F32)), r#""F32""#);
        assert_eq!(
            write_text(|o| write_enum(o, DocOrigin::FoldedIn)),
            r#""FoldedIn""#
        );
        let gfidf: GlobalWeight = read_text(r#""GfIdf""#, read_enum).unwrap();
        assert_eq!(gfidf, GlobalWeight::GfIdf);
        let err = read_text(r#""Sqrt""#, read_enum::<LocalWeight>).unwrap_err();
        assert_eq!(err, "unknown variant `Sqrt`");
        assert!(read_text("1", read_enum::<TokenFold>).is_err());
    }

    #[test]
    fn counts_must_be_exact_non_negative_integers() {
        assert_eq!(read_text("42", count), Ok(42));
        // `1e400` reads as infinity.
        for bad in ["-1", "2.5", "1e300", "1e400"] {
            assert!(read_text(bad, count).is_err(), "{bad}");
        }
        assert!(read_text(&(u32::MAX as u64 + 1).to_string(), list_id).is_err());
    }

    #[test]
    fn errors_name_the_field() {
        let err = read_text(r#"{"nrows":2,"ncols":2,"data":[1,2,"x",4]}"#, read_dense).unwrap_err();
        assert_eq!(
            err,
            "field `data`: item 2: expected a number, found a string"
        );
        assert!(read_text(r#"{"nrows":2,"ncols":2,"data":[1,2,3]}"#, read_dense).is_err());
        assert_eq!(
            read_text(r#"{"nrows":2,"data":[]}"#, read_dense).unwrap_err(),
            "missing field `ncols`"
        );
    }

    #[test]
    fn repeated_members_are_rejected_and_unknown_ones_skipped() {
        let err =
            read_text(r#"{"nrows":1,"ncols":1,"nrows":1,"data":[0]}"#, read_dense).unwrap_err();
        assert_eq!(err, "repeated field `nrows`");
        // Members in any order load; unknown ones are checked and skipped.
        let m = read_text(
            r#"{"data":[1,2],"extra":{"a":[null,true,"\u00e9"]},"ncols":1,"nrows":2}"#,
            read_dense,
        )
        .unwrap();
        assert_eq!((m.shape(), m.data()), ((2, 1), &[1.0, 2.0][..]));
        // Malformed JSON is reported as the tokenizer words it, offset
        // and all, even inside a skipped member.
        let err = read_text(r#"{"extra":[1,}"#, read_dense).unwrap_err();
        assert_eq!(err, "json parse error at byte 12: expected a JSON value");
    }

    #[test]
    fn declared_shapes_cannot_inflate_the_buffers() {
        let huge = r#"{"nrows":1e15,"ncols":1e15,"data":[1,2,3]}"#;
        assert!(read_text(huge, read_dense).is_err());
        let short = r#"{"nrows":3,"ncols":2,"indptr":[0,1,4e15],"indices":[0],"values":[1]}"#;
        assert!(read_text(short, read_csc).is_err());
    }
}
