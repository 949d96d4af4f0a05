//! Tokenization.
//!
//! §5.4 of the paper: "Words are identified by looking for white spaces
//! and punctuation in ASCII text." Tokens are lowercased; no other
//! normalization happens here.

/// Split `text` into lowercase word tokens.
///
/// A token is a maximal run of alphanumeric characters; everything else
/// (whitespace, punctuation, symbols) is a separator. Numbers are kept
/// as tokens — they are ordinary vocabulary items to LSI.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                current.push(lc);
            }
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize("study of depressed patients, after discharge!"),
            vec!["study", "of", "depressed", "patients", "after", "discharge"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("Latent Semantic INDEXING"), vec!["latent", "semantic", "indexing"]);
    }

    #[test]
    fn keeps_numbers() {
        assert_eq!(tokenize("TREC-2 has 1000000 docs"), vec!["trec", "2", "has", "1000000", "docs"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("... --- !!!").is_empty());
    }

    #[test]
    fn splits_possessives() {
        // "children s behavior" in the MED topics comes from
        // "children's"; the apostrophe is a separator.
        assert_eq!(tokenize("children's behavior"), vec!["children", "s", "behavior"]);
    }

    #[test]
    fn unicode_is_handled() {
        assert_eq!(tokenize("naïve Σigma"), vec!["naïve", "σigma"]);
    }
}
