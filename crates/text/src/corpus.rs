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

    /// Split one long text into paragraph documents (blank-line
    /// separated), ids `{prefix}-p1`, `{prefix}-p2`, ... — the paper's
    /// §5.4: "smaller, more topically coherent units of text (e.g.,
    /// paragraphs, sections) could be represented as well."
    pub fn from_paragraphs(prefix: &str, text: &str) -> Corpus {
        let mut docs = Vec::new();
        let mut current = String::new();
        let flush = |current: &mut String, docs: &mut Vec<Document>| {
            let trimmed = current.trim();
            if !trimmed.is_empty() {
                docs.push(Document::new(
                    format!("{prefix}-p{}", docs.len() + 1),
                    trimmed.to_string(),
                ));
            }
            current.clear();
        };
        for line in text.lines() {
            if line.trim().is_empty() {
                flush(&mut current, &mut docs);
            } else {
                current.push_str(line);
                current.push(' ');
            }
        }
        flush(&mut current, &mut docs);
        Corpus { docs }
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
    fn from_paragraphs_splits_on_blank_lines() {
        let text = "first paragraph line one\nline two\n\n\nsecond paragraph\n\nthird";
        let c = Corpus::from_paragraphs("doc", text);
        assert_eq!(c.len(), 3);
        assert_eq!(c.docs[0].id, "doc-p1");
        assert_eq!(c.docs[0].text, "first paragraph line one line two");
        assert_eq!(c.docs[2].text, "third");
    }

    #[test]
    fn from_paragraphs_handles_edges() {
        assert!(Corpus::from_paragraphs("x", "").is_empty());
        assert!(Corpus::from_paragraphs("x", "\n \n\t\n").is_empty());
        let c = Corpus::from_paragraphs("x", "only one");
        assert_eq!(c.len(), 1);
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
