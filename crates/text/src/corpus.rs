//! Document and corpus types.

/// A single text object (the paper's "document": an abstract, a title,
/// a paragraph — any descriptor-object unit, §5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Caller-chosen label ("M1", a filename, a DOI...).
    pub id: String,
    /// Raw text.
    pub text: String,
}

impl Document {
    /// Construct from anything string-like.
    pub fn new(id: impl Into<String>, text: impl Into<String>) -> Self {
        Document {
            id: id.into(),
            text: text.into(),
        }
    }
}

/// An ordered collection of documents. Order is significant: column `j`
/// of the term-document matrix is `docs[j]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// The documents, in matrix-column order.
    pub docs: Vec<Document>,
}

impl Corpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Build from `(id, text)` pairs.
    pub fn from_pairs<I, S1, S2>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S1, S2)>,
        S1: Into<String>,
        S2: Into<String>,
    {
        Corpus {
            docs: pairs
                .into_iter()
                .map(|(id, text)| Document::new(id, text))
                .collect(),
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Is the corpus empty?
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Append a document.
    pub fn push(&mut self, doc: Document) {
        self.docs.push(doc);
    }

    /// Look up a document's column index by id (linear scan; corpora
    /// needing fast lookup keep their own map).
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.docs.iter().position(|d| d.id == id)
    }

    /// Iterate document texts in column order.
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.docs.iter().map(|d| d.text.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_preserves_order() {
        let c = Corpus::from_pairs([("M1", "alpha"), ("M2", "beta")]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.docs[0].id, "M1");
        assert_eq!(c.docs[1].text, "beta");
    }

    #[test]
    fn index_of_finds_documents() {
        let c = Corpus::from_pairs([("a", "x"), ("b", "y")]);
        assert_eq!(c.index_of("b"), Some(1));
        assert_eq!(c.index_of("zzz"), None);
    }

    #[test]
    fn push_and_texts() {
        let mut c = Corpus::new();
        assert!(c.is_empty());
        c.push(Document::new("d", "hello world"));
        let texts: Vec<&str> = c.texts().collect();
        assert_eq!(texts, vec!["hello world"]);
    }
}
