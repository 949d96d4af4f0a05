//! Subcommand implementations. Each returns its report as a `String`
//! so the binary stays a thin shell and tests can assert on output.

use std::io::Write as _;
use std::path::Path;

use lsi_core::{IndexPolicy, LsiModel, LsiOptions, Precision};
use lsi_text::{Corpus, Document, ParsingRules, TermWeighting};

use crate::{CliError, Result};

/// Parse a `--weighting` name into a scheme.
pub fn weighting_by_name(name: &str) -> Result<TermWeighting> {
    match name {
        "raw" => Ok(TermWeighting::none()),
        "log-entropy" => Ok(TermWeighting::log_entropy()),
        "tf-idf" => Ok(TermWeighting::tf_idf()),
        other => Err(CliError::usage(format!("unknown weighting {other:?}"))),
    }
}

/// Parse a `--precision` name into a scoring mode.
pub fn precision_by_name(name: &str) -> Result<Precision> {
    Precision::parse(name)
        .ok_or_else(|| CliError::usage(format!("unknown precision {name:?}")))
}

/// Load documents from input paths: `.tsv` files contribute one
/// document per `id<TAB>text` line, anything else is one document whose
/// id is the file stem.
pub fn load_corpus(inputs: &[String]) -> Result<Corpus> {
    let mut corpus = Corpus::new();
    for input in inputs {
        let path = Path::new(input);
        let content = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("cannot read {input}: {e}")))?;
        if path.extension().and_then(|e| e.to_str()) == Some("tsv") {
            for (lineno, line) in content.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let Some((id, text)) = line.split_once('\t') else {
                    return Err(CliError::runtime(format!(
                        "{input}:{}: expected id<TAB>text",
                        lineno + 1
                    )));
                };
                corpus.push(Document::new(id.trim(), text.trim()));
            }
        } else {
            let id = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(input)
                .to_string();
            corpus.push(Document::new(id, content));
        }
    }
    if corpus.is_empty() {
        return Err(CliError::runtime("no documents found in the inputs"));
    }
    Ok(corpus)
}

/// Load a stored database.
pub fn load_model(db: &str) -> Result<LsiModel> {
    let json = std::fs::read_to_string(db)
        .map_err(|e| CliError::runtime(format!("cannot read database {db}: {e}")))?;
    Ok(LsiModel::from_json(&json)?)
}

/// Save a database atomically: write to a sibling temp file, sync, then
/// rename over the target. A crash or injected fault mid-write leaves
/// either the old database or nothing at the target path — never a
/// truncated file (which the checksum trailer would reject on load,
/// but the previous good database would already be gone).
pub fn save_model(model: &LsiModel, out: &str) -> Result<()> {
    let json = model.to_json()?;
    let out_path = Path::new(out);
    let tmp_path = std::path::PathBuf::from(format!("{out}.tmp"));
    let write_err =
        |e: std::io::Error| CliError::runtime(format!("cannot write {out}: {e}"));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp_path)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp_path, out_path)
    })();
    if let Err(e) = result {
        std::fs::remove_file(&tmp_path).ok();
        return Err(write_err(e));
    }
    Ok(())
}

/// Route top-k scoring through the cluster-pruned index at the given
/// probe depth, training the index if the model has none. A probe
/// depth beyond the list count is a usage error (exit 2), like
/// `--nprobe 0` — the caller asked for something the index cannot do.
fn apply_nprobe(model: &mut LsiModel, nprobe: usize) -> Result<()> {
    model.set_index_policy(IndexPolicy::Pruned { nprobe })?;
    let n_lists = model.index_n_lists().unwrap_or(0);
    if nprobe > n_lists {
        return Err(CliError::usage(format!(
            "--nprobe {nprobe} exceeds the index's {n_lists} lists \
             (use --nprobe {n_lists} for an exact-equivalent scan)"
        )));
    }
    Ok(())
}

/// `lsi index`.
#[allow(clippy::too_many_arguments)]
pub fn cmd_index(
    inputs: &[String],
    out: &str,
    k: usize,
    min_df: usize,
    weighting: &str,
    phrases: bool,
    precision: &str,
    nprobe: Option<usize>,
) -> Result<String> {
    let corpus = load_corpus(inputs)?;
    let options = LsiOptions {
        k,
        rules: ParsingRules {
            min_df,
            word_ngrams: if phrases { 2 } else { 1 },
            ..Default::default()
        },
        weighting: weighting_by_name(weighting)?,
        svd_seed: 0x5EED,
    };
    let (mut model, report) = LsiModel::build(&corpus, &options)?;
    model.set_precision(precision_by_name(precision)?);
    let index_note = match nprobe {
        Some(n) => {
            apply_nprobe(&mut model, n)?;
            format!(
                "; trained cluster index ({} lists, nprobe={n})",
                model.index_n_lists().unwrap_or(0)
            )
        }
        None => String::new(),
    };
    save_model(&model, out)?;
    Ok(format!(
        "indexed {} documents, {} terms -> {} factors ({} Lanczos steps, {} of {} converged){index_note}; wrote {}",
        model.n_docs(),
        model.n_terms(),
        model.k(),
        report.steps,
        report.converged,
        model.k(),
        out
    ) + "\n")
}

/// `lsi query`.
pub fn cmd_query(
    db: &str,
    text: &str,
    top: usize,
    threshold: Option<f64>,
    precision: Option<&str>,
    nprobe: Option<usize>,
) -> Result<String> {
    let mut model = load_model(db)?;
    if let Some(p) = precision {
        model.set_precision(precision_by_name(p)?);
    }
    if let Some(n) = nprobe {
        apply_nprobe(&mut model, n)?;
    }
    // A cosine threshold needs every document's score; a plain top-N
    // goes through the partial selection (and, under a reduced
    // precision, the compressed candidate sweep or the cluster-pruned
    // probe).
    let ranked = match threshold {
        Some(t) => model.query(text)?.at_threshold(t),
        None => model.query_top(text, top)?,
    };
    let mut out = String::new();
    for m in ranked.top(top).matches {
        out.push_str(&format!("{:.4}\t{}\n", m.cosine, m.id));
    }
    if out.is_empty() {
        out.push_str("(no documents matched)\n");
    }
    Ok(out)
}

/// `lsi terms`.
pub fn cmd_terms(db: &str, word: &str, top: usize) -> Result<String> {
    let model = load_model(db)?;
    let qhat = model.project_text(word)?;
    if qhat.iter().all(|&x| x == 0.0) {
        return Err(CliError::runtime(format!("{word:?} is not an indexed term")));
    }
    let mut out = String::new();
    for (_, name, cos) in model.nearest_terms(&qhat, top)? {
        out.push_str(&format!("{cos:.4}\t{name}\n"));
    }
    Ok(out)
}

/// `lsi add`.
pub fn cmd_add(db: &str, inputs: &[String], out: &str, method: &str) -> Result<String> {
    let mut model = load_model(db)?;
    let corpus = load_corpus(inputs)?;
    match method {
        "fold" => model.fold_in_documents(&corpus)?,
        "update" => {
            let d = model.vocabulary().count_matrix(&corpus);
            let ids: Vec<String> = corpus.docs.iter().map(|d| d.id.clone()).collect();
            model.svd_update_documents(&d, &ids)?;
        }
        other => return Err(CliError::usage(format!("unknown method {other:?}"))),
    }
    save_model(&model, out)?;
    Ok(format!(
        "added {} documents by {method}; database now holds {} docs; wrote {}",
        corpus.len(),
        model.n_docs(),
        out
    ) + "\n")
}

/// Everything `lsi serve` needs beyond the database path, mirroring
/// the parsed flags (see [`crate::args::Command::Serve`]).
#[derive(Debug, Clone)]
pub struct ServeParams {
    pub addr: String,
    pub port: u16,
    pub threads: usize,
    pub queue_depth: usize,
    pub max_batch: usize,
    pub timeout_ms: u64,
    pub max_timeout_ms: u64,
    pub degrade: bool,
    pub precision: Option<String>,
    pub nprobe: Option<usize>,
}

/// `lsi serve`: load the model once, bind, announce the address on
/// stdout (flushed, so wrappers can scrape the port before the first
/// request), then serve until SIGTERM/SIGINT. Nothing is trained
/// before the bind: the degradation ladder builds what its rungs need
/// on a thread of its own, on its first escalation. The returned
/// report — the command's stdout — is the final serving `RunReport`.
pub fn cmd_serve(db: &str, params: &ServeParams) -> Result<String> {
    let mut model = load_model(db)?;
    if let Some(p) = &params.precision {
        model.set_precision(precision_by_name(p)?);
    }
    if let Some(n) = params.nprobe {
        apply_nprobe(&mut model, n)?;
    }
    let server = lsi_serve::Server::bind(lsi_serve::ServeConfig {
        addr: params.addr.clone(),
        port: params.port,
        threads: params.threads,
        queue_depth: params.queue_depth,
        max_batch: params.max_batch,
        default_timeout_ms: params.timeout_ms,
        max_timeout_ms: params.max_timeout_ms.max(params.timeout_ms),
        degrade: params.degrade,
        ..lsi_serve::ServeConfig::default()
    })
    .map_err(|e| {
        CliError::runtime(format!("cannot bind {}:{}: {e}", params.addr, params.port))
    })?;
    lsi_serve::install_signal_handlers();
    {
        // The listening line goes out before run() blocks; stdout is
        // otherwise silent until the final report after drain.
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "listening on {}", server.local_addr());
        let _ = out.flush();
    }
    let report = server.run(model);
    let mut json = report.to_json().to_string_compact();
    json.push('\n');
    Ok(json)
}

/// `lsi info`.
pub fn cmd_info(db: &str) -> Result<String> {
    let model = load_model(db)?;
    let loss = model.orthogonality_loss()?;
    let folded = model
        .doc_origins()
        .iter()
        .filter(|o| matches!(o, lsi_core::model::DocOrigin::FoldedIn))
        .count();
    let index_line = match model.index_n_lists() {
        Some(n_lists) => format!(
            "{}, {} lists ({} index bytes)",
            model.index_policy().describe(),
            n_lists,
            model.index_resident_bytes().unwrap_or(0)
        ),
        None => model.index_policy().describe(),
    };
    Ok(format!(
        "documents : {}  ({} folded-in)\n\
         terms     : {}\n\
         factors   : {}\n\
         precision : {}  ({} scoring bytes)\n\
         index     : {index_line}\n\
         sigma_1   : {:.6}\n\
         sigma_k   : {:.6}\n\
         V-defect  : {:.3e}  (||V^T V - I||_2, grows with folding-in)\n",
        model.n_docs(),
        folded,
        model.n_terms(),
        model.k(),
        model.precision().name(),
        model.scoring_resident_bytes(),
        model.singular_values().first().copied().unwrap_or(0.0),
        model.singular_values().last().copied().unwrap_or(0.0),
        loss.doc_defect
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lsi-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &Path, name: &str, content: &str) -> String {
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn index_query_info_roundtrip() {
        let dir = tmpdir();
        let tsv = write(
            &dir,
            "docs.tsv",
            "cars1\tcar engine wheel motor car\n\
             cars2\tautomobile engine motor chassis\n\
             cars3\tcar automobile driver wheel\n\
             zoo1\telephant lion zebra elephant\n\
             zoo2\tlion zebra giraffe elephant\n\
             zoo3\tzebra giraffe lion safari\n",
        );
        let db = dir.join("db.json").to_string_lossy().into_owned();
        let msg = cmd_index(&[tsv], &db, 2, 2, "raw", false, "f64", None).unwrap();
        assert!(msg.contains("6 documents"), "{msg}");

        let q = cmd_query(&db, "lion zebra", 3, None, None, None).unwrap();
        let first = q.lines().next().unwrap();
        assert!(first.contains("zoo"), "top hit should be a zoo doc: {q}");

        let info = cmd_info(&db).unwrap();
        assert!(info.contains("documents : 6"));
        assert!(info.contains("factors   : 2"));

        let terms = cmd_terms(&db, "elephant", 3).unwrap();
        assert!(terms.lines().count() == 3);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn precision_persists_and_overrides() {
        let dir = tmpdir();
        let tsv = write(
            &dir,
            "docs.tsv",
            "cars1\tcar engine wheel motor car\n\
             cars2\tautomobile engine motor chassis\n\
             cars3\tcar automobile driver wheel\n\
             zoo1\telephant lion zebra elephant\n\
             zoo2\tlion zebra giraffe elephant\n\
             zoo3\tzebra giraffe lion safari\n",
        );
        let db = dir.join("db.json").to_string_lossy().into_owned();
        cmd_index(&[tsv], &db, 2, 2, "raw", false, "f32", None).unwrap();
        // The mode survives the save/load roundtrip...
        let info = cmd_info(&db).unwrap();
        assert!(info.contains("precision : f32"), "{info}");
        // ...queries serve through it, agreeing with the exact scan...
        let compressed = cmd_query(&db, "lion zebra", 3, None, None, None).unwrap();
        let exact = cmd_query(&db, "lion zebra", 3, None, Some("f64"), None).unwrap();
        assert_eq!(compressed, exact);
        // ...and a per-run override does not touch the stored database.
        let quantized = cmd_query(&db, "lion zebra", 3, None, Some("i8"), None).unwrap();
        assert_eq!(quantized.lines().count(), 3);
        let info = cmd_info(&db).unwrap();
        assert!(info.contains("precision : f32"), "{info}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nprobe_persists_overrides_and_validates() {
        let dir = tmpdir();
        let tsv = write(
            &dir,
            "docs.tsv",
            "cars1\tcar engine wheel motor car\n\
             cars2\tautomobile engine motor chassis\n\
             cars3\tcar automobile driver wheel\n\
             zoo1\telephant lion zebra elephant\n\
             zoo2\tlion zebra giraffe elephant\n\
             zoo3\tzebra giraffe lion safari\n",
        );
        let db = dir.join("db.json").to_string_lossy().into_owned();
        let db_flat = dir.join("flat.json").to_string_lossy().into_owned();
        // 6 docs -> round(sqrt(6)) = 2 lists; nprobe=2 probes them all.
        let msg =
            cmd_index(&[tsv.clone()], &db, 2, 2, "raw", false, "f64", Some(2)).unwrap();
        assert!(msg.contains("trained cluster index"), "{msg}");
        cmd_index(&[tsv], &db_flat, 2, 2, "raw", false, "f64", None).unwrap();
        let info = cmd_info(&db).unwrap();
        assert!(info.contains("pruned (nprobe=2)"), "{info}");
        // Full-depth pruned output matches the exact scan exactly.
        let pruned = cmd_query(&db, "lion zebra", 3, None, None, None).unwrap();
        let exact = cmd_query(&db_flat, "lion zebra", 3, None, None, None).unwrap();
        assert_eq!(pruned, exact);
        // A per-run --nprobe beyond the list count is a usage error...
        let e = cmd_query(&db, "lion zebra", 3, None, None, Some(99)).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        // ...while a valid per-run override serves (and leaves the
        // stored policy alone).
        let narrowed = cmd_query(&db, "lion zebra", 3, None, None, Some(1)).unwrap();
        assert!(!narrowed.is_empty());
        assert!(pruned.lines().count() >= narrowed.lines().count());
        let info = cmd_info(&db).unwrap();
        assert!(info.contains("pruned (nprobe=2)"), "{info}");
        // index-time validation mirrors it.
        let db2 = dir.join("db2.json").to_string_lossy().into_owned();
        let tsv2 = write(&dir, "d2.tsv", "a\tapple banana\nb\tbanana apple\nc\tapple cherry banana\n");
        let e = cmd_index(&[tsv2], &db2, 1, 1, "raw", false, "f64", Some(50)).unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn add_by_update_grows_database() {
        let dir = tmpdir();
        let tsv = write(
            &dir,
            "docs.tsv",
            "a\tapple banana apple cherry\nb\tbanana cherry date\nc\tapple cherry date\nd\tdate banana apple\n",
        );
        let db = dir.join("db.json").to_string_lossy().into_owned();
        cmd_index(&[tsv], &db, 2, 2, "log-entropy", false, "f64", None).unwrap();

        let newdoc = write(&dir, "fresh.txt", "banana date cherry banana");
        let db2 = dir.join("db2.json").to_string_lossy().into_owned();
        let msg = cmd_add(&db, std::slice::from_ref(&newdoc), &db2, "update").unwrap();
        assert!(msg.contains("5 docs"), "{msg}");

        let db3 = dir.join("db3.json").to_string_lossy().into_owned();
        let msg = cmd_add(&db, &[newdoc], &db3, "fold").unwrap();
        assert!(msg.contains("fold"), "{msg}");
        let info = cmd_info(&db3).unwrap();
        assert!(info.contains("(1 folded-in)"), "{info}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn txt_files_use_stem_as_id() {
        let dir = tmpdir();
        let f1 = write(&dir, "alpha.txt", "apple banana apple");
        let f2 = write(&dir, "beta.txt", "banana apple cherry banana");
        let db = dir.join("db.json").to_string_lossy().into_owned();
        cmd_index(&[f1, f2], &db, 1, 1, "raw", false, "f64", None).unwrap();
        let q = cmd_query(&db, "banana", 2, None, None, None).unwrap();
        assert!(q.contains("alpha") && q.contains("beta"), "{q}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_validates_before_listening() {
        let params = ServeParams {
            addr: "127.0.0.1".into(),
            port: 0,
            threads: 2,
            queue_depth: 8,
            max_batch: 4,
            timeout_ms: 1_000,
            max_timeout_ms: 5_000,
            degrade: true,
            precision: None,
            nprobe: None,
        };
        // A missing database is a runtime error before any socket work.
        let e = cmd_serve("/nonexistent/db.json", &params).unwrap_err();
        assert_eq!(e.code, 1, "{e}");

        let dir = tmpdir();
        let tsv = write(&dir, "d.tsv", "a\tapple banana\nb\tbanana apple\nc\tapple cherry\n");
        let db = dir.join("db.json").to_string_lossy().into_owned();
        cmd_index(&[tsv], &db, 1, 1, "raw", false, "f64", None).unwrap();
        // An impossible probe depth is the same usage error as `query`.
        let e = cmd_serve(
            &db,
            &ServeParams {
                nprobe: Some(99),
                ..params.clone()
            },
        )
        .unwrap_err();
        assert_eq!(e.code, 2, "{e}");
        // An unbindable address is a typed runtime error, not a panic.
        let e = cmd_serve(
            &db,
            &ServeParams {
                addr: "198.51.100.1".into(), // TEST-NET-2: not routable here
                ..params
            },
        )
        .unwrap_err();
        assert_eq!(e.code, 1, "{e}");
        assert!(e.to_string().contains("cannot bind"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(load_model("/nonexistent/path.json").is_err());
        assert!(load_corpus(&["/nonexistent/file.txt".to_string()]).is_err());
        assert!(weighting_by_name("magic").is_err());
        let dir = tmpdir();
        let bad = write(&dir, "bad.tsv", "no-tab-here\n");
        assert!(load_corpus(&[bad]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terms_rejects_unknown_words() {
        let dir = tmpdir();
        let tsv = write(&dir, "d.tsv", "a\tapple banana\nb\tbanana apple\n");
        let db = dir.join("db.json").to_string_lossy().into_owned();
        cmd_index(&[tsv], &db, 1, 1, "raw", false, "f64", None).unwrap();
        assert!(cmd_terms(&db, "unicorn", 3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phrases_flag_indexes_word_pairs() {
        let dir = tmpdir();
        let tsv = write(
            &dir,
            "d.tsv",
            "a\thigh blood pressure danger\nb\thigh blood pressure treatment\nc\tblood test results\n",
        );
        let db = dir.join("db.json").to_string_lossy().into_owned();
        let msg_plain = cmd_index(std::slice::from_ref(&tsv), &db, 2, 2, "raw", false, "f64", None).unwrap();
        let plain_terms: usize = msg_plain
            .split(" terms")
            .next()
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let msg_phrases = cmd_index(&[tsv], &db, 2, 2, "raw", true, "f64", None).unwrap();
        let phrase_terms: usize = msg_phrases
            .split(" terms")
            .next()
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            phrase_terms > plain_terms,
            "phrases should add terms: {plain_terms} -> {phrase_terms}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
