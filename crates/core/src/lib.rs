//! Latent Semantic Indexing.
//!
//! The paper's primary contribution: build a reduced-dimension "semantic
//! space" from the truncated SVD of a (weighted) sparse term-document
//! matrix, retrieve by cosine in that space, and maintain the space as
//! the collection grows.
//!
//! * [`model::LsiModel`] — construction (parse → weight → truncated
//!   SVD), persistence (the JSON schema lives in the private `persist`
//!   module), and accessors for term/document coordinates.
//! * [`query`] — query projection `q̂ = qᵀ U_k Σ_k⁻¹` (Eq. 6) and
//!   cosine ranking, serial and rayon-parallel.
//! * [`update`] — the three ways to add information (§2.3/§4):
//!   folding-in (Eqs. 7–8), SVD-updating (Eqs. 10–13), recomputing.
//! * [`multiquery`] — §5.4's multiple-points-of-interest queries
//!   (Kane-Esrig et al.).
//! * [`compressed`] — the reduced-precision candidate-generation
//!   ladder (f32 / scaled-i8 doc vectors with exact f64 re-rank).
//! * [`ortho`] — §4.3's orthogonality-loss monitor for folded-in
//!   vectors.
//! * [`complexity`] — the flop models of Table 7.
//!
//! # Example
//!
//! ```
//! use lsi_core::{LsiModel, LsiOptions};
//! use lsi_text::{Corpus, ParsingRules, TermWeighting};
//!
//! let corpus = Corpus::from_pairs([
//!     ("doc1", "the engine of the car roared as the driver accelerated"),
//!     ("doc2", "an automobile needs a working motor and a tuned engine"),
//!     ("doc3", "the driver parked the automobile and checked the motor"),
//! ]);
//! let options = LsiOptions {
//!     k: 2,
//!     rules: ParsingRules::default(),
//!     weighting: TermWeighting::log_entropy(),
//!     svd_seed: 1,
//! };
//! let (model, _report) = LsiModel::build(&corpus, &options)?;
//!
//! // "automobile" never occurs in doc1, yet doc1 is retrieved:
//! // the factor space bridges the car/automobile synonymy.
//! let ranked = model.query("automobile")?;
//! assert_eq!(ranked.matches.len(), 3);
//! assert!(ranked.rank_of("doc1").is_some());
//! # Ok::<(), lsi_core::Error>(())
//! ```

// Index-based loops over parallel arrays are the clearest idiom in
// numerical kernels; clippy's iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]


pub mod batch;
pub mod complexity;
pub mod compressed;
pub mod index;
pub mod model;
pub mod multiquery;
pub mod ortho;
mod persist;
pub mod query;
pub mod querylog;
pub mod update;

pub use batch::{BatchPlan, BatchQuery, Rungs};
pub use compressed::Precision;
pub use index::{IndexPolicy, DEFAULT_NPROBE, INDEX_RECLUSTER_THRESHOLD};
pub use model::{LsiModel, LsiOptions};
pub use multiquery::{Combine, MultiQuery};
pub use query::{Match, RankedList};
pub use querylog::RequestCtx;

/// Errors from model construction and updating.
#[derive(Debug)]
pub enum Error {
    /// The SVD driver failed.
    Svd(lsi_svd::Error),
    /// A dense kernel failed.
    Linalg(lsi_linalg::Error),
    /// Sparse-matrix plumbing failed.
    Sparse(lsi_sparse::Error),
    /// The input was inconsistent with the model.
    Inconsistent {
        /// What was wrong.
        context: String,
    },
    /// (De)serialization failed.
    Persist(String),
    /// A non-finite value (NaN/Inf) was detected at a crate boundary —
    /// weighting output, SVD factors, or query scores.
    NonFinite {
        /// Where it was detected.
        context: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Svd(e) => write!(f, "SVD failure: {e}"),
            Error::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            Error::Sparse(e) => write!(f, "sparse matrix failure: {e}"),
            Error::Inconsistent { context } => write!(f, "inconsistent input: {context}"),
            Error::Persist(msg) => write!(f, "persistence failure: {msg}"),
            Error::NonFinite { context } => {
                write!(f, "non-finite value detected: {context}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<lsi_svd::Error> for Error {
    fn from(e: lsi_svd::Error) -> Self {
        Error::Svd(e)
    }
}

impl From<lsi_linalg::Error> for Error {
    fn from(e: lsi_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<lsi_sparse::Error> for Error {
    fn from(e: lsi_sparse::Error) -> Self {
        Error::Sparse(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = Error::Inconsistent {
            context: "bad input".into(),
        };
        assert_eq!(e.to_string(), "inconsistent input: bad input");
        let e = Error::Persist("oops".into());
        assert!(e.to_string().contains("oops"));
        let e: Error = lsi_linalg::Error::NotFinite.into();
        assert!(e.to_string().contains("linear algebra"));
        let e: Error = lsi_svd::Error::RankTooLarge { requested: 9, max: 3 }.into();
        assert!(e.to_string().contains('9'));
    }
}
