//! Output checks: served rankings against an in-process exact oracle.

use lsi_core::RankedList;

/// A top-k ranking: document ids with their scores, best first.
pub type Hits = Vec<(String, f64)>;

/// The ranking in a `/query` response body
/// (`{"trace_id": ..., "results": [{"id", "doc", "score"}, ...]}`).
pub fn parse_hits(body: &[u8]) -> Result<Hits, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response body is not UTF-8".to_string())?;
    let json = lsi_obs::parse_json(text).map_err(|e| format!("response is not JSON: {e}"))?;
    let Some(lsi_obs::Json::Arr(results)) = json.get("results") else {
        return Err(format!("response has no results array: {text}"));
    };
    results
        .iter()
        .map(|r| {
            let id = r.get("id").and_then(|v| v.as_str());
            let score = r.get("score").and_then(|v| v.as_f64());
            match (id, score) {
                (Some(id), Some(score)) => Ok((id.to_string(), score)),
                _ => Err(format!("malformed result entry in {text}")),
            }
        })
        .collect()
}

/// The oracle's ranking in the same shape.
pub fn oracle_hits(list: &RankedList) -> Hits {
    list.matches
        .iter()
        .map(|m| (m.id.to_string(), m.cosine))
        .collect()
}

/// The served ranking must list the oracle's documents in the oracle's
/// order, each score within `tol` (batched scoring sums in another
/// order than the single-query sweep, so scores may differ in the last
/// bits).
pub fn same_ranking(served: &Hits, oracle: &Hits, tol: f64) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!(
            "{} results served, oracle has {}",
            served.len(),
            oracle.len()
        ));
    }
    for (rank, ((id, score), (want_id, want_score))) in served.iter().zip(oracle).enumerate() {
        if id != want_id {
            return Err(format!("rank {}: served {id}, oracle {want_id}", rank + 1));
        }
        if (score - want_score).abs() > tol {
            return Err(format!(
                "rank {} ({id}): served score {score}, oracle {want_score}",
                rank + 1
            ));
        }
    }
    Ok(())
}

/// Share of the oracle's documents that the served ranking contains.
pub fn recall(served: &Hits, oracle: &Hits) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let found = oracle
        .iter()
        .filter(|(id, _)| served.iter().any(|(s, _)| s == id))
        .count();
    found as f64 / oracle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(ids: &[&str]) -> Hits {
        ids.iter()
            .enumerate()
            .map(|(i, id)| (id.to_string(), 0.9 - 0.1 * i as f64))
            .collect()
    }

    #[test]
    fn parses_a_query_response() {
        let body = br#"{"trace_id":"r1-2","results":[{"id":"t3d7","doc":7,"score":0.75},{"id":"t3d9","doc":9,"score":0.5}]}"#;
        assert_eq!(
            parse_hits(body).unwrap(),
            vec![("t3d7".to_string(), 0.75), ("t3d9".to_string(), 0.5)]
        );
        assert!(parse_hits(br#"{"error":"overloaded"}"#).is_err());
        assert!(parse_hits(b"not json").is_err());
    }

    #[test]
    fn one_swapped_doc_id_fails_the_exact_check() {
        let oracle = hits(&["a", "b", "c", "d"]);
        assert!(same_ranking(&oracle.clone(), &oracle, 1e-9).is_ok());
        let mut swapped = oracle.clone();
        swapped[2].0 = "z".to_string();
        assert!(same_ranking(&swapped, &oracle, 1e-9).is_err());
        // Two documents in swapped order fail too, even with equal sets.
        let reordered = hits(&["a", "c", "b", "d"]);
        assert!(same_ranking(&reordered, &oracle, 1e-9).is_err());
        assert_eq!(recall(&reordered, &oracle), 1.0);
    }

    #[test]
    fn scores_must_agree_within_tolerance() {
        let oracle = hits(&["a", "b"]);
        let mut near = oracle.clone();
        near[1].1 += 1e-12;
        assert!(same_ranking(&near, &oracle, 1e-9).is_ok());
        near[1].1 += 1e-6;
        assert!(same_ranking(&near, &oracle, 1e-9).is_err());
        assert!(same_ranking(&hits(&["a"]), &oracle, 1e-9).is_err());
    }

    #[test]
    fn recall_counts_shared_ids() {
        let oracle = hits(&["a", "b", "c", "d"]);
        assert_eq!(recall(&hits(&["d", "x", "a", "y"]), &oracle), 0.5);
        assert_eq!(recall(&hits(&[]), &hits(&[])), 1.0);
    }
}
