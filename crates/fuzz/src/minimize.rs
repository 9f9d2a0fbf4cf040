//! Crasher minimization: greedy chunk removal (ddmin-lite).
//!
//! Given a failing input and a predicate that re-checks the failure, try
//! removing progressively smaller chunks while the failure still
//! reproduces. Deterministic and bounded — the point is a readable repro,
//! not a globally minimal one.

/// Minimizes `input` while `still_fails` holds. The predicate receives a
/// candidate and must return `true` when the *same* failure reproduces.
///
/// Chunks are removed at byte granularity; candidates are re-decoded
/// lossily, since a mutated input need not slice at char boundaries.
pub fn minimize(input: &str, still_fails: &mut dyn FnMut(&str) -> bool) -> String {
    let mut current: Vec<u8> = input.as_bytes().to_vec();
    // Cap total predicate calls so a pathological case cannot stall a run.
    let mut budget: u32 = 2_000;
    let mut chunk = (current.len() / 2).max(1);
    while chunk >= 1 && budget > 0 {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() && budget > 0 {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            budget -= 1;
            if still_fails(&String::from_utf8_lossy(&candidate)) {
                current = candidate;
                removed_any = true;
                // Keep `start` where it is: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        chunk /= 2;
    }
    String::from_utf8_lossy(&current).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_everything_but_the_needle() {
        let haystack = format!("{}NEEDLE{}", "x".repeat(500), "y".repeat(500));
        let minimized = minimize(&haystack, &mut |s: &str| s.contains("NEEDLE"));
        assert_eq!(minimized, "NEEDLE");
    }

    #[test]
    fn preserves_failure_when_nothing_removable() {
        let minimized = minimize("AB", &mut |s: &str| s == "AB");
        assert_eq!(minimized, "AB");
    }

    #[test]
    fn empty_input_stays_empty() {
        assert_eq!(minimize("", &mut |_| true), "");
    }
}
