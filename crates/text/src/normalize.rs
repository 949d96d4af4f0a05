//! Surface-form normalization.
//!
//! The paper's large-scale runs use *no* stemming (§5.4: "doctor is
//! quite near doctors but not as similar to doctoral" — they remain
//! distinct terms). The hand-built MED example of §3, however, indexes
//! "blood cultures" under the keyword *culture*, i.e. trivial plurals
//! are folded. [`plural_key`] implements exactly that minimal fold —
//! strip one trailing `s` unless the word is short or ends in `ss` — and
//! nothing more ("studied" does not fold to "study", matching Table 3).

/// Equivalence key for plural folding: `cultures` and `culture` share a
/// key; `patients`/`patient` share a key; `class` keeps its `ss`.
///
/// Words of three characters or fewer are returned unchanged ("is",
/// "gas"-like tokens are too short to treat the `s` as a plural marker).
pub fn plural_key(token: &str) -> &str {
    let n = token.len();
    if n > 3 && token.ends_with('s') && !token.ends_with("ss") {
        &token[..n - 1]
    } else {
        token
    }
}

/// Identity key: the no-stemming behaviour of the paper's production
/// systems.
pub fn identity_key(token: &str) -> &str {
    token
}

/// How tokens are folded into vocabulary entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TokenFold {
    /// No folding at all (paper §5.4 default for large collections).
    #[default]
    None,
    /// Trivial plural folding (paper §3 example behaviour).
    PluralFold,
}

impl TokenFold {
    /// The vocabulary key for `token` under this fold.
    pub fn key<'a>(&self, token: &'a str) -> &'a str {
        match self {
            TokenFold::None => identity_key(token),
            TokenFold::PluralFold => plural_key(token),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plural_fold_merges_trivial_plurals() {
        assert_eq!(plural_key("cultures"), "culture");
        assert_eq!(plural_key("patients"), "patient");
        assert_eq!(plural_key("rats"), "rat");
        assert_eq!(plural_key("kidneys"), "kidney");
    }

    #[test]
    fn plural_fold_keeps_non_plurals() {
        assert_eq!(plural_key("close"), "close");
        assert_eq!(plural_key("fast"), "fast");
        assert_eq!(plural_key("study"), "study");
        // "studied" must NOT fold to "study" (Table 3: M6 has no
        // "study" entry).
        assert_eq!(plural_key("studied"), "studied");
    }

    #[test]
    fn plural_fold_respects_ss_and_short_words() {
        assert_eq!(plural_key("class"), "class");
        assert_eq!(plural_key("press"), "press");
        assert_eq!(plural_key("is"), "is");
        assert_eq!(plural_key("gas"), "gas");
        assert_eq!(plural_key("s"), "s");
    }

    #[test]
    fn fold_modes_dispatch() {
        assert_eq!(TokenFold::None.key("cultures"), "cultures");
        assert_eq!(TokenFold::PluralFold.key("cultures"), "culture");
    }

    #[test]
    fn doctor_doctors_doctoral_example() {
        // §5.4: doctors ~ doctor, doctoral distinct.
        assert_eq!(plural_key("doctors"), "doctor");
        assert_ne!(plural_key("doctoral"), "doctor");
    }
}
