//! Relevance judgments.
//!
//! "These collections consist of a set of documents, a set of user
//! queries, and relevance judgements (i.e., for each query every
//! document in the collection has been judged as relevant or not to
//! the query)" (§5.1).

use std::collections::{HashMap, HashSet};

/// Relevance judgments for a collection: per query, the set of relevant
/// document indices (exhaustive judgments, as the paper's footnote 1
/// describes for classic test collections).
#[derive(Debug, Clone, Default)]
pub struct RelevanceJudgments {
    relevant: HashMap<usize, HashSet<usize>>,
}

impl RelevanceJudgments {
    /// Empty judgment set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `doc` is relevant to `query`.
    pub fn add(&mut self, query: usize, doc: usize) {
        self.relevant.entry(query).or_default().insert(doc);
    }

    /// The relevant set for `query` (empty set if none recorded).
    pub fn relevant(&self, query: usize) -> HashSet<usize> {
        self.relevant.get(&query).cloned().unwrap_or_default()
    }

    /// Number of queries with at least one judgment.
    pub fn n_queries(&self) -> usize {
        self.relevant.len()
    }

    /// Query ids with judgments, sorted.
    pub fn queries(&self) -> Vec<usize> {
        let mut q: Vec<usize> = self.relevant.keys().copied().collect();
        q.sort_unstable();
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut j = RelevanceJudgments::new();
        j.add(0, 3);
        j.add(0, 5);
        j.add(2, 1);
        assert!(j.relevant(0).contains(&3));
        assert!(!j.relevant(0).contains(&4));
        assert!(!j.relevant(1).contains(&3));
        assert_eq!(j.relevant(0).len(), 2);
        assert_eq!(j.n_queries(), 2);
        assert_eq!(j.queries(), vec![0, 2]);
    }

    #[test]
    fn missing_query_has_empty_set() {
        let j = RelevanceJudgments::new();
        assert!(j.relevant(9).is_empty());
    }
}
