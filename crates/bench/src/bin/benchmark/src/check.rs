//! Correctness checks on the pages the daemons send back.

use milr_serve::Json;

/// A ranked page as a daemon returned it.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// `(index, distance)` in page order.
    pub entries: Vec<(usize, f64)>,
    /// The cluster's degradation flag (`None` from a single node).
    pub partial: Option<bool>,
}

/// Parses a `/rank`, `/cluster/rank` or feedback response body.
pub fn parse_page(body: &[u8]) -> Result<Page, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let json = Json::parse(text)?;
    let entries = json
        .get("ranking")
        .and_then(Json::as_array)
        .ok_or("body has no ranking array")?
        .iter()
        .map(|entry| {
            let index = entry.get("index").and_then(Json::as_u64);
            let distance = entry.get("distance").and_then(Json::as_f64);
            match (index, distance) {
                (Some(index), Some(distance)) => Ok((index as usize, distance)),
                _ => Err(format!("malformed ranking entry {}", entry.dump())),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Page {
        entries,
        partial: json.get("partial").and_then(Json::as_bool),
    })
}

/// The checks every page must pass: exactly `k` entries (or the whole
/// corpus when it is smaller), indices distinct and in range, distances
/// finite, entries ascending by `(distance, index)`; a cluster page
/// must also carry `partial: false`.
pub fn check_page(page: &Page, k: usize, corpus: usize, cluster: bool) -> Result<(), String> {
    let expected = k.min(corpus);
    if page.entries.len() != expected {
        return Err(format!(
            "{} entries, expected {expected}",
            page.entries.len()
        ));
    }
    let mut seen = vec![false; corpus];
    for &(index, distance) in &page.entries {
        if index >= corpus {
            return Err(format!("index {index} outside corpus of {corpus}"));
        }
        if std::mem::replace(&mut seen[index], true) {
            return Err(format!("index {index} appears twice"));
        }
        if !distance.is_finite() {
            return Err(format!("distance of {index} is not finite"));
        }
    }
    for pair in page.entries.windows(2) {
        let ((i0, d0), (i1, d1)) = (pair[0], pair[1]);
        if (d0, i0) >= (d1, i1) {
            return Err(format!("({i0}, {d0}) is not before ({i1}, {d1})"));
        }
    }
    match (cluster, page.partial) {
        (true, Some(false)) | (false, None) => Ok(()),
        (true, other) => Err(format!("cluster page carries partial: {other:?}")),
        (false, Some(flag)) => Err(format!("single-node page carries partial: {flag}")),
    }
}

/// Bit-for-bit comparison of a page with the oracle's.
pub fn same_ranking(page: &[(usize, f64)], oracle: &[(usize, f64)]) -> Result<(), String> {
    if page.len() != oracle.len() {
        return Err(format!(
            "{} entries, oracle has {}",
            page.len(),
            oracle.len()
        ));
    }
    for (rank, (&(i, d), &(oi, od))) in page.iter().zip(oracle).enumerate() {
        if i != oi || d.to_bits() != od.to_bits() {
            return Err(format!(
                "rank {rank}: page has ({i}, {d:?}), oracle has ({oi}, {od:?})"
            ));
        }
    }
    Ok(())
}

/// Share of the page's entries whose label is `category`.
pub fn precision(page: &[(usize, f64)], category: usize, per_category: usize) -> f64 {
    if page.is_empty() {
        return 0.0;
    }
    let hits = page
        .iter()
        .filter(|&&(index, _)| index / per_category == category)
        .count();
    hits as f64 / page.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"ranking":[{"index":1,"distance":0.07695365999999737},{"index":53,"distance":0.1618238242366108}],"cache_hit":true,"nldd":0.3,"aggregator":"min-distance"}"#;

    #[test]
    fn pages_parse_with_exact_distances() {
        let page = parse_page(BODY.as_bytes()).unwrap();
        assert_eq!(
            page.entries,
            vec![(1, 0.07695365999999737), (53, 0.1618238242366108)]
        );
        assert_eq!(page.partial, None);
        let cluster = BODY.replace("\"cache_hit\":true", "\"partial\":false");
        assert_eq!(parse_page(cluster.as_bytes()).unwrap().partial, Some(false));
        assert!(parse_page(b"{}").is_err());
        assert!(parse_page(br#"{"ranking":[{"index":1}]}"#).is_err());
    }

    #[test]
    fn structure_violations_are_named() {
        let page = |entries: &[(usize, f64)]| Page {
            entries: entries.to_vec(),
            partial: None,
        };
        assert!(check_page(&page(&[(1, 0.1), (0, 0.2)]), 2, 10, false).is_ok());
        // The whole corpus is smaller than k.
        assert!(check_page(&page(&[(1, 0.1), (0, 0.2)]), 16, 2, false).is_ok());
        // Equal distances break ties by index.
        assert!(check_page(&page(&[(0, 0.1), (1, 0.1)]), 2, 10, false).is_ok());
        assert!(check_page(&page(&[(1, 0.1), (0, 0.1)]), 2, 10, false).is_err());
        assert!(check_page(&page(&[(1, 0.1)]), 2, 10, false).is_err());
        assert!(check_page(&page(&[(1, 0.2), (0, 0.1)]), 2, 10, false).is_err());
        assert!(check_page(&page(&[(1, 0.1), (1, 0.2)]), 2, 10, false).is_err());
        assert!(check_page(&page(&[(1, 0.1), (10, 0.2)]), 2, 10, false).is_err());
        assert!(check_page(&page(&[(1, f64::NAN), (2, 0.2)]), 2, 10, false).is_err());
        // Cluster pages must say partial: false; single-node pages nothing.
        assert!(check_page(&page(&[(1, 0.1)]), 1, 10, true).is_err());
        let partial = |flag| Page {
            entries: vec![(1, 0.1)],
            partial: Some(flag),
        };
        assert!(check_page(&partial(false), 1, 10, true).is_ok());
        assert!(check_page(&partial(true), 1, 10, true).is_err());
        assert!(check_page(&partial(false), 1, 10, false).is_err());
    }

    #[test]
    fn oracle_comparison_is_bitwise() {
        let page = [(1, 0.1), (2, 0.2)];
        assert!(same_ranking(&page, &page).is_ok());
        assert!(same_ranking(&page, &[(1, 0.1), (2, 0.2 + 1e-17 + f64::EPSILON)]).is_err());
        assert!(same_ranking(&page, &[(1, 0.1), (3, 0.2)]).is_err());
        assert!(same_ranking(&page, &page[..1]).is_err());
    }

    #[test]
    fn precision_counts_the_query_category() {
        let page = [(10, 0.1), (3, 0.2), (19, 0.3), (20, 0.4)];
        assert_eq!(precision(&page, 1, 10), 0.5);
        assert_eq!(precision(&[], 1, 10), 0.0);
    }
}
