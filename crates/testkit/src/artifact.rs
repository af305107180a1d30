//! The one differ and the one writer of the committed accuracy
//! artifacts: the golden traces (`tests/golden/*.json`), the training
//! probe (`BENCH_train_probe.json`) and the scenario grid
//! (`BENCH_scenarios.json`).
//!
//! [`diff`] walks a committed artifact and a fresh run side by side and
//! returns one path-qualified line per difference. A number may move
//! only within the tolerance the committed artifact itself states in
//! its top-level `tolerances` object, keyed by the leaf's name:
//! `"<leaf>_absolute"` bounds `|committed − fresh|`; failing that,
//! `"<leaf>_relative"` bounds it as a fraction of `|committed|`. Every
//! other leaf compares
//! by its shortest-round-trip dump, so an artifact without a
//! `tolerances` block — every golden trace — must agree byte for byte.
//!
//! [`render`] writes an artifact as reviewable text: shortest-round-trip
//! numbers, one line per probe query or scenario cell, so a re-bless
//! reads as a per-row diff.

use milr_serve::Json;

/// Path-qualified differences between the `committed` artifact and a
/// `fresh` run, rooted at `root`
/// (`scenarios.cells.sbn.logsumexp.average_precision: committed 0.6 !=
/// fresh 0.7 (beyond 1e-9)`); empty means they agree.
pub fn diff(root: &str, committed: &Json, fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    walk(
        committed.get("tolerances"),
        root,
        "",
        committed,
        fresh,
        &mut out,
    );
    out
}

/// Diffs one node; `key` is the nearest object key above it, which
/// names the tolerance of every number below it (array elements
/// included).
fn walk(
    tolerances: Option<&Json>,
    path: &str,
    key: &str,
    committed: &Json,
    fresh: &Json,
    out: &mut Vec<String>,
) {
    match (committed, fresh) {
        (Json::Obj(c), Json::Obj(f)) => {
            for (k, value) in c {
                let child = format!("{path}.{k}");
                match fresh.get(k) {
                    Some(other) => walk(tolerances, &child, k, value, other, out),
                    None => out.push(format!("{child}: missing from the fresh run")),
                }
            }
            for (k, _) in f {
                if committed.get(k).is_none() {
                    out.push(format!("{path}.{k}: not in the committed artifact"));
                }
            }
        }
        (Json::Arr(c), Json::Arr(f)) => {
            if c.len() != f.len() {
                out.push(format!(
                    "{path}: committed has {} elements, fresh has {}",
                    c.len(),
                    f.len()
                ));
            }
            for (i, (a, b)) in c.iter().zip(f).enumerate() {
                walk(tolerances, &format!("{path}[{i}]"), key, a, b, out);
            }
        }
        _ => {
            let (c, f) = (committed.dump(), fresh.dump());
            let stated = |suffix: &str| {
                let tolerance = tolerances?.get(&format!("{key}_{suffix}"))?;
                tolerance.as_f64()
            };
            let bound = committed.as_f64().and_then(|value| {
                stated("absolute").or_else(|| Some(stated("relative")? * value.abs()))
            });
            match (committed.as_f64(), fresh.as_f64(), bound) {
                _ if c == f => {}
                (Some(a), Some(b), Some(bound)) if (a - b).abs() <= bound => {}
                (.., Some(bound)) => out.push(format!(
                    "{path}: committed {c} != fresh {f} (beyond {bound:e})"
                )),
                (.., None) => out.push(format!("{path}: committed {c} != fresh {f}")),
            }
        }
    }
}

/// The artifact as text. The top level takes one line per field. Below
/// it, a *table* — a non-empty array or object whose members are all
/// arrays or objects — takes one line per member; an object holding a
/// table keeps its other fields on its opening line; anything else is
/// dumped compact on the line it starts.
pub fn render(artifact: &Json) -> String {
    let mut out = String::new();
    match artifact {
        Json::Obj(fields) => lines(&mut out, fields, 0),
        other => out.push_str(&other.dump()),
    }
    out.push('\n');
    out
}

fn is_table(value: &Json) -> bool {
    let container = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_));
    match value {
        Json::Arr(items) => !items.is_empty() && items.iter().all(container),
        Json::Obj(fields) => !fields.is_empty() && fields.iter().all(|(_, v)| container(v)),
        _ => false,
    }
}

fn write(out: &mut String, value: &Json, depth: usize) {
    match value {
        Json::Obj(fields) if is_table(value) => lines(out, fields, depth),
        Json::Arr(items) if is_table(value) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&"  ".repeat(depth + 1));
                write(out, item, depth + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        Json::Obj(fields) if fields.iter().any(|(_, v)| is_table(v)) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: ", Json::str(key.as_str()).dump()));
                write(out, value, depth);
            }
            out.push('}');
        }
        _ => out.push_str(&value.dump()),
    }
}

/// An object with one field per line, its members at `depth + 1`.
fn lines(out: &mut String, fields: &[(String, Json)], depth: usize) {
    out.push_str("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(&format!("{}: ", Json::str(key.as_str()).dump()));
        write(out, value, depth + 1);
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push_str(&"  ".repeat(depth));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{record_trace, standard_cases};

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn exact_leaves_differ_at_any_digit() {
        let committed = parse(r#"{"a": 0.1, "b": "x", "c": true}"#);
        assert!(diff("t", &committed, &committed).is_empty());
        let fresh = parse(r#"{"a": 0.10000000000000002, "b": "y", "c": true}"#);
        assert_eq!(
            diff("t", &committed, &fresh),
            [
                "t.a: committed 0.1 != fresh 0.10000000000000002",
                "t.b: committed \"x\" != fresh \"y\"",
            ]
        );
    }

    #[test]
    fn absolute_tolerance_bounds_the_gap_in_both_directions() {
        let committed = parse(
            r#"{"tolerances": {"ap_absolute": 0.001},
                "rows": [{"ap": 0.5, "n": 3}, {"ap": 0.25, "n": 4}]}"#,
        );
        let inside = parse(
            r#"{"tolerances": {"ap_absolute": 0.001},
                "rows": [{"ap": 0.5009, "n": 3}, {"ap": 0.2491, "n": 4}]}"#,
        );
        assert!(diff("t", &committed, &inside).is_empty());
        let outside = parse(
            r#"{"tolerances": {"ap_absolute": 0.001},
                "rows": [{"ap": 0.502, "n": 3}, {"ap": 0.248, "n": 5}]}"#,
        );
        assert_eq!(
            diff("t", &committed, &outside),
            [
                "t.rows[0].ap: committed 0.5 != fresh 0.502 (beyond 1e-3)",
                "t.rows[1].ap: committed 0.25 != fresh 0.248 (beyond 1e-3)",
                "t.rows[1].n: committed 4 != fresh 5",
            ]
        );
    }

    #[test]
    fn relative_tolerance_scales_with_the_committed_value() {
        let committed = parse(r#"{"tolerances": {"v_relative": 0.01}, "v": [100, 1]}"#);
        let fresh = parse(r#"{"tolerances": {"v_relative": 0.01}, "v": [100.5, 1.5]}"#);
        assert_eq!(
            diff("t", &committed, &fresh),
            ["t.v[1]: committed 1 != fresh 1.5 (beyond 1e-2)"]
        );
    }

    #[test]
    fn missing_and_extra_keys_are_named() {
        let committed = parse(r#"{"a": {"x": 1, "y": 2}}"#);
        let fresh = parse(r#"{"a": {"x": 1, "z": 2}}"#);
        assert_eq!(
            diff("t", &committed, &fresh),
            [
                "t.a.y: missing from the fresh run",
                "t.a.z: not in the committed artifact",
            ]
        );
    }

    #[test]
    fn structural_diffs_are_reported() {
        let committed = Json::Obj(vec![
            ("a".into(), Json::num(1.0)),
            ("b".into(), Json::Arr(vec![Json::num(1.0), Json::num(2.0)])),
        ]);
        let fresh = Json::Obj(vec![
            ("a".into(), Json::str("one")),
            ("b".into(), Json::Arr(vec![Json::num(1.0)])),
            ("c".into(), Json::Bool(true)),
        ]);
        assert_eq!(
            diff("trace", &committed, &fresh),
            [
                "trace.a: committed 1 != fresh \"one\"",
                "trace.b: committed has 2 elements, fresh has 1",
                "trace.c: not in the committed artifact",
            ]
        );
    }

    #[test]
    fn perturbed_trace_diffs_with_a_readable_path() {
        let case = &standard_cases()[0];
        let golden = record_trace(case).unwrap();
        // Simulate a DD kernel change: nudge the first round's nldd.
        let mut actual = golden.clone();
        if let Json::Obj(fields) = &mut actual {
            if let Some((_, Json::Arr(rounds))) = fields.iter_mut().find(|(k, _)| k == "rounds") {
                if let Json::Obj(round) = &mut rounds[0] {
                    if let Some((_, Json::Num(v))) = round.iter_mut().find(|(k, _)| k == "nldd") {
                        *v += 1e-9; // one ulp-scale nudge must be caught
                    }
                }
            }
        }
        let diffs = diff("trace", &golden, &actual);
        assert_eq!(diffs.len(), 1, "exactly one leaf changed: {diffs:?}");
        assert!(
            diffs[0].starts_with("trace.rounds[0].nldd: committed "),
            "diff must name the path: {}",
            diffs[0]
        );
        assert!(diffs[0].contains("!= fresh "));
    }

    #[test]
    fn render_reproduces_the_committed_probe_byte_for_byte() {
        let committed = include_str!("../../../BENCH_train_probe.json");
        assert_eq!(render(&parse(committed)), committed);
    }

    #[test]
    fn render_puts_each_row_of_a_table_on_its_own_line() {
        let artifact = parse(
            r#"{"name": "x", "tolerances": {"v_absolute": 0.000000001},
                "grid": {"a": {"v": 0.5, "w": []}, "b": {"v": 1}},
                "sections": [{"n": 2, "rows": [{"n": 1, "v": [1, 2]}, {"n": 0, "v": []}]}]}"#,
        );
        assert_eq!(
            render(&artifact),
            "{\n  \"name\": \"x\",\n  \"tolerances\": {\"v_absolute\":0.000000001},\n  \
             \"grid\": {\n    \"a\": {\"v\":0.5,\"w\":[]},\n    \"b\": {\"v\":1}\n  },\n  \
             \"sections\": [\n    {\"n\": 2, \"rows\": [\n      {\"n\":1,\"v\":[1,2]},\n      \
             {\"n\":0,\"v\":[]}\n    ]}\n  ]\n}\n"
        );
        assert_eq!(parse(&render(&artifact)), artifact);
    }
}
