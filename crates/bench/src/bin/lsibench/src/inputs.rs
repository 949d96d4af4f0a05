//! Seeded inputs. Everything the programs under test receive — the
//! corpus TSV, the held-out add set, the per-request query texts and the
//! arrival schedule — is derived here from `--seed`, so one seed always
//! gives the same run.

use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;

use lsi_corpora::{SyntheticCorpus, SyntheticOptions};
use lsi_text::Corpus;

/// Latent topics in the synthetic collection.
pub const TOPICS: usize = 50;
/// Documents per topic of the served database (50 × 400 = 20,000).
pub const SERVE_PER_TOPIC: usize = 400;
/// Documents per topic of the ingest corpus (50 × 100 = 5,000): the
/// first of each topic's served documents. The ingest commands are timed
/// on this smaller corpus so that a run holds many of them.
pub const BASE_PER_TOPIC: usize = 100;
/// Held-out documents per topic added by `lsi add` (50 × 4 = 200).
pub const ADD_PER_TOPIC: usize = 4;
/// Factor count passed to `lsi index --k`.
pub const K: usize = 128;
/// Tokens per query: a short keyword query, as in the paper's examples.
pub const QUERY_TOKENS: usize = 6;

pub const SERVE_DOCS: usize = TOPICS * SERVE_PER_TOPIC;
pub const BASE_DOCS: usize = TOPICS * BASE_PER_TOPIC;
pub const ALL_DOCS: usize = TOPICS * (BASE_PER_TOPIC + ADD_PER_TOPIC);

/// splitmix64: a small, seedable generator for the benchmark's own
/// choices (query sampling, shuffles, arrival gaps).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Distinct sub-streams of one `--seed`, one per use.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Intended send times (seconds from the phase start) of a Poisson
/// process at `rate` arrivals per second over `secs` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // Exponential gap by inversion; 1 - u lies in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// The generated collection and query texts of one run.
pub struct Inputs {
    /// Documents of the served database (`SERVE_DOCS` of them).
    pub serve: Corpus,
    /// Documents for the timed `lsi index` (`BASE_DOCS`), a subset of
    /// `serve`.
    pub base: Corpus,
    /// Held-out documents for `lsi add` (`ALL_DOCS - BASE_DOCS`), in
    /// neither of the above.
    pub add: Corpus,
    /// Distinct query texts, in the order requests use them.
    pub queries: Vec<String>,
}

impl Inputs {
    /// Generate the collection with the lsi-corpora synthetic generator
    /// and `n_queries` distinct queries. A query is `QUERY_TOKENS` words
    /// drawn from one served document, so it shares that document's topic
    /// and dialect but is never a copy of it.
    pub fn generate(seed: u64, n_queries: usize) -> Inputs {
        let options = SyntheticOptions {
            n_topics: TOPICS,
            docs_per_topic: SERVE_PER_TOPIC + ADD_PER_TOPIC,
            concepts_per_topic: 30,
            synonyms_per_concept: 3,
            doc_len: 60,
            background_vocab: 500,
            noise_fraction: 0.25,
            query_len: QUERY_TOKENS,
            queries_per_topic: 0,
            polysemy_fraction: 0.0,
            seed: derive(seed, 1),
        };
        let generated = SyntheticCorpus::generate(&options);
        let mut serve = Corpus::new();
        let mut base = Corpus::new();
        let mut add = Corpus::new();
        // Documents come grouped by topic; the last ADD_PER_TOPIC of
        // each topic are held out.
        for (i, doc) in generated.corpus.docs.into_iter().enumerate() {
            let rank = i % (SERVE_PER_TOPIC + ADD_PER_TOPIC);
            if rank >= SERVE_PER_TOPIC {
                add.push(doc);
                continue;
            }
            if rank < BASE_PER_TOPIC {
                base.push(doc.clone());
            }
            serve.push(doc);
        }

        let mut rng = Rng::new(derive(seed, 2));
        let mut seen = HashSet::with_capacity(n_queries);
        let mut queries = Vec::with_capacity(n_queries);
        while queries.len() < n_queries {
            let doc = &serve.docs[rng.below(serve.docs.len())];
            let words: Vec<&str> = doc.text.split_whitespace().collect();
            let text = (0..QUERY_TOKENS)
                .map(|_| words[rng.below(words.len())])
                .collect::<Vec<_>>()
                .join(" ");
            if seen.insert(text.clone()) {
                queries.push(text);
            }
        }
        Inputs {
            serve,
            base,
            add,
            queries,
        }
    }
}

/// Write `corpus` as `id<TAB>text` lines, the format `lsi` reads.
pub fn write_tsv(corpus: &Corpus, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for doc in &corpus.docs {
        writeln!(out, "{}\t{}", doc.id, doc.text)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 500.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 500.0, 10.0));
        assert_ne!(a, poisson_schedule(8, 500.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    }

    #[test]
    fn poisson_schedule_mean_rate_is_within_two_percent() {
        for (seed, rate) in [(1, 150.0), (2, 500.0), (3, 2000.0)] {
            let secs = 200.0;
            let n = poisson_schedule(seed, rate, secs).len() as f64;
            let measured = n / secs;
            assert!(
                (measured / rate - 1.0).abs() < 0.02,
                "seed {seed}: {measured} arrivals/s against {rate}"
            );
        }
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut rng = Rng::new(3);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
    }
}
