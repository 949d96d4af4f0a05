//! §3.3/§4 live: add the fictitious topics M15/M16 to the MEDLINE
//! example by folding-in, SVD-updating, and recomputing, and watch
//! where each method puts them.
//!
//! ```text
//! cargo run --example svd_updating
//! ```

use lsi_core::{LsiModel, LsiOptions};
use lsi_corpora::med::{self, MedExample};
use lsi_text::{Corpus, ParsingRules, TermWeighting};

fn print_positions(label: &str, model: &LsiModel) {
    println!("{label}  (sigma = {:.4}, {:.4})", model.singular_values()[0], model.singular_values()[1]);
    for id in ["M13", "M14", "M15", "M16"] {
        let j = model.doc_index(id).expect("present");
        let c = model.doc_coords_scaled(j);
        println!("  {id}: ({:>7.4}, {:>7.4})", c[0], c[1]);
    }
    let m15 = model.doc_index("M15").unwrap();
    let m13 = model.doc_index("M13").unwrap();
    let m14 = model.doc_index("M14").unwrap();
    println!(
        "  cos(M15, M13) = {:.3}, cos(M15, M14) = {:.3}",
        model.doc_doc_similarity(m15, m13),
        model.doc_doc_similarity(m15, m14)
    );
    let loss = model.orthogonality_loss().expect("measurable");
    println!("  orthogonality defect of V: {:.2e}\n", loss.doc_defect);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = LsiOptions {
        k: 2,
        rules: ParsingRules::paper_example(),
        weighting: TermWeighting::none(),
        svd_seed: 42,
    };
    let base_corpus = Corpus::from_pairs(med::TOPICS);
    let update_corpus = Corpus::from_pairs(med::UPDATE_TOPICS);
    println!("adding M15 ({:?})\nand    M16 ({:?})\n", med::UPDATE_TOPICS[0].1, med::UPDATE_TOPICS[1].1);

    // Folding-in (Figure 7): cheap, original coordinates frozen, and
    // M15 fails to join the rats cluster.
    let (mut folded, _) = LsiModel::build(&base_corpus, &options)?;
    folded.fold_in_documents(&update_corpus)?;
    print_positions("folding-in (Figure 7)", &folded);

    // SVD-updating (Figure 9): the rank-2 factors of (A_2 | D),
    // orthogonality preserved, cluster forms.
    let example = MedExample::build();
    let (mut updated, _) = LsiModel::build(&base_corpus, &options)?;
    let d = example.update_documents_matrix();
    updated.svd_update_documents(&d, &["M15".to_string(), "M16".to_string()])?;
    print_positions("SVD-updating (Figure 9)", &updated);

    // Recomputing (Figure 8): the ground truth.
    let (recomputed, _) = LsiModel::build(&MedExample::extended_corpus(), &options)?;
    print_positions("recomputing (Figure 8)", &recomputed);

    println!(
        "the paper's claim: folding-in freezes the old geometry and distorts\n\
         orthogonality; SVD-updating tracks the recomputed space at a fraction\n\
         of the cost (run `cargo run --release -p lsi-bench --bin repro -- --table7`\n\
         to see)."
    );
    Ok(())
}
