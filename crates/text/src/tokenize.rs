//! Tokenization.
//!
//! §5.4 of the paper: "Words are identified by looking for white spaces
//! and punctuation in ASCII text." Tokens are lowercased; no other
//! normalization happens here.
//!
//! [`for_each_token`] is the one tokenizer: it streams each token to a
//! callback from a buffer reused across tokens, so parsing a corpus
//! allocates nothing per token. [`tokenize()`] collects its output.

/// Pass each lowercase word token of `text` to `f`, in order.
///
/// A token is a maximal run of alphanumeric characters; everything else
/// (whitespace, punctuation, symbols) is a separator. Numbers are kept
/// as tokens — they are ordinary vocabulary items to LSI. The `&str`
/// lives in one buffer that the next token overwrites.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut token = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            token.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            // Some lowercase forms are two chars (`İ` → `i̇`).
            token.extend(ch.to_lowercase());
        } else if !token.is_empty() {
            f(&token);
            token.clear();
        }
    }
    if !token.is_empty() {
        f(&token);
    }
}

/// Split `text` into lowercase word tokens: [`for_each_token`]'s tokens,
/// collected.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_string()));
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
        // A two-char lowercase form stays inside its token.
        assert_eq!(tokenize("İstanbul"), vec!["i\u{307}stanbul"]);
    }
}
