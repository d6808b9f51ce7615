//! Output checks: the deterministic digest of a report and, when two
//! digests disagree, the first key at which the documents diverge.

use ezflow_net::PerfSnapshot;
use ezflow_sim::JsonValue;

/// FNV-1a, 64 bit, over the concatenation of `parts` — a digest, not a defence: it only has to tell two
/// runs of the same deterministic program apart.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.iter())
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Replaces the snapshot document's wall-clock `perf` block — the one
/// non-deterministic part — with [`PerfSnapshot::zeroed`], returning the
/// block that was there.
pub fn swap_perf(doc: &mut JsonValue, perf: JsonValue) -> Option<JsonValue> {
    let JsonValue::Object(fields) = doc else {
        return None;
    };
    let slot = fields.iter_mut().find(|(k, _)| k == "perf")?;
    Some(std::mem::replace(&mut slot.1, perf))
}

/// The all-zero perf block as JSON.
pub fn zeroed_perf() -> JsonValue {
    PerfSnapshot::zeroed().to_json()
}

/// Dotted path of the first place two documents differ, depth first in
/// document order, with both values; `None` when they are equal.
pub fn first_divergence(a: &JsonValue, b: &JsonValue) -> Option<String> {
    fn walk(a: &JsonValue, b: &JsonValue, path: &mut String) -> bool {
        match (a, b) {
            (JsonValue::Object(fa), JsonValue::Object(fb)) => {
                for ((ka, va), (kb, vb)) in fa.iter().zip(fb) {
                    let len = path.len();
                    if !path.is_empty() {
                        path.push('.');
                    }
                    path.push_str(ka);
                    if ka != kb {
                        path.push_str(&format!(": key `{ka}` vs key `{kb}`"));
                        return true;
                    }
                    if walk(va, vb, path) {
                        return true;
                    }
                    path.truncate(len);
                }
                if fa.len() != fb.len() {
                    path.push_str(&format!(": {} keys vs {}", fa.len(), fb.len()));
                    return true;
                }
                false
            }
            (JsonValue::Array(xa), JsonValue::Array(xb)) => {
                for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                    let len = path.len();
                    path.push_str(&format!("[{i}]"));
                    if walk(va, vb, path) {
                        return true;
                    }
                    path.truncate(len);
                }
                if xa.len() != xb.len() {
                    path.push_str(&format!(": {} elements vs {}", xa.len(), xb.len()));
                    return true;
                }
                false
            }
            _ if a == b => false,
            _ => {
                path.push_str(&format!(": {} vs {}", a.to_compact(), b.to_compact()));
                true
            }
        }
    }
    let mut path = String::new();
    walk(a, b, &mut path).then_some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    #[test]
    fn equal_documents_do_not_diverge() {
        let a = doc(r#"{"a": [1, {"b": 2}], "c": "x"}"#);
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }

    #[test]
    fn divergence_names_the_first_differing_key() {
        let a = doc(r#"{"nodes": [{"id": 0, "mac": {"tx": 5, "rx": 1}}], "z": 1}"#);
        let b = doc(r#"{"nodes": [{"id": 0, "mac": {"tx": 6, "rx": 2}}], "z": 2}"#);
        assert_eq!(first_divergence(&a, &b).unwrap(), "nodes[0].mac.tx: 5 vs 6");
        let short = doc(r#"{"nodes": [], "z": 1}"#);
        assert_eq!(
            first_divergence(&a, &short).unwrap(),
            "nodes: 1 elements vs 0"
        );
    }

    #[test]
    fn swap_perf_replaces_only_the_top_level_block() {
        let mut d = doc(r#"{"label": "x", "perf": {"wall_secs": 1.5}, "n": {"perf": 3}}"#);
        let old = swap_perf(&mut d, zeroed_perf()).unwrap();
        assert_eq!(old.get("wall_secs").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(
            d.get("perf").unwrap().get("wall_secs").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(d.get("n").unwrap().get("perf").unwrap().as_f64(), Some(3.0));
        assert!(swap_perf(&mut doc("[1]"), zeroed_perf()).is_none());
    }

    #[test]
    fn digest_separates_near_identical_texts() {
        assert_ne!(fnv1a(&[b"report 1"]), fnv1a(&[b"report 2"]));
        assert_eq!(fnv1a(&[b"rep", b"ort"]), fnv1a(&[b"report"]));
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
