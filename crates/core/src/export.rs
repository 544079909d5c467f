//! Similarity-graph export: weighted candidate edges as a TSV edge list,
//! optionally filtered by a small comparison expression à la `prune_graph`
//! (`"w >= 0.2"`). Profile ids are resolved to display keys
//! (`<source>:<original_id>`), so exported graphs join against the input
//! data without knowing internal id assignment.

use sparker_profiles::{Pair, ProfileCollection, ProfileId};
use std::fmt::Write as _;

/// Comparison operator of a [`WeightFilter`] expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Ge,
    Gt,
    Le,
    Lt,
    Eq,
    Ne,
}

impl CmpOp {
    fn parse(text: &str) -> Option<CmpOp> {
        match text {
            ">=" => Some(CmpOp::Ge),
            ">" => Some(CmpOp::Gt),
            "<=" => Some(CmpOp::Le),
            "<" => Some(CmpOp::Lt),
            "==" => Some(CmpOp::Eq),
            "!=" => Some(CmpOp::Ne),
            _ => None,
        }
    }
}

/// A parsed weight-filter expression: `w <op> <number>` where `<op>` is
/// one of `>=`, `>`, `<=`, `<`, `==`, `!=`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightFilter {
    op: CmpOp,
    threshold: f64,
}

impl WeightFilter {
    /// Parse an expression like `"w >= 0.2"`. Whitespace around the three
    /// tokens is flexible; anything else is an error.
    pub fn parse(text: &str) -> Result<WeightFilter, String> {
        let mut parts = text.split_whitespace();
        let (var, op, num) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(v), Some(o), Some(n), None) => (v, o, n),
            _ => {
                return Err(format!(
                    "expected `w <op> <number>` (e.g. \"w >= 0.2\"), got {text:?}"
                ))
            }
        };
        if var != "w" {
            return Err(format!("unknown variable {var:?}; only `w` is supported"));
        }
        let op = CmpOp::parse(op)
            .ok_or_else(|| format!("unknown operator {op:?}; use >=, >, <=, <, == or !="))?;
        let threshold = num
            .parse::<f64>()
            .map_err(|_| format!("invalid number {num:?}"))?;
        if !threshold.is_finite() {
            return Err(format!("threshold must be finite, got {num:?}"));
        }
        Ok(WeightFilter { op, threshold })
    }

    /// Does an edge of weight `w` pass the filter?
    pub fn keeps(&self, w: f64) -> bool {
        match self.op {
            CmpOp::Ge => w >= self.threshold,
            CmpOp::Gt => w > self.threshold,
            CmpOp::Le => w <= self.threshold,
            CmpOp::Lt => w < self.threshold,
            CmpOp::Eq => w == self.threshold,
            CmpOp::Ne => w != self.threshold,
        }
    }
}

/// Render the weighted candidate edges as a TSV edge list
/// (`source_a:id_a  source_b:id_b  weight`, one header line), keeping only
/// the edges `filter` accepts (all of them when `None`). Weights use
/// shortest round-trip float formatting, so re-parsing restores the exact
/// bits.
pub fn export_edges_tsv<'a>(
    collection: &ProfileCollection,
    edges: impl IntoIterator<Item = &'a (Pair, f64)>,
    filter: Option<&WeightFilter>,
) -> String {
    let key = |id: ProfileId| {
        let p = collection.get(id);
        format!("{}:{}", p.source.0, p.original_id)
    };
    let mut out = String::from("a\tb\tweight\n");
    for (pair, w) in edges {
        if filter.is_none_or(|f| f.keeps(*w)) {
            let _ = writeln!(out, "{}\t{}\t{:?}", key(pair.first), key(pair.second), w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_profiles::{Profile, SourceId};

    fn collection() -> ProfileCollection {
        ProfileCollection::dirty(
            (0..4)
                .map(|i| {
                    Profile::builder(SourceId(0), format!("rec{i}"))
                        .attr("name", "x")
                        .build()
                })
                .collect(),
        )
    }

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn filter_expressions_evaluate() {
        for (text, w, expect) in [
            ("w >= 0.2", 0.2, true),
            ("w >= 0.2", 0.19, false),
            ("w > 0.2", 0.2, false),
            ("w <= 0.5", 0.5, true),
            ("w < 0.5", 0.5, false),
            ("w == 1.5", 1.5, true),
            ("w != 1.5", 1.5, false),
            ("  w   >=   0.25  ", 0.3, true),
        ] {
            let f = WeightFilter::parse(text).unwrap();
            assert_eq!(f.keeps(w), expect, "{text} on {w}");
        }
    }

    #[test]
    fn malformed_filters_are_rejected() {
        for (text, needle) in [
            ("", "expected `w <op> <number>`"),
            ("w >=", "expected `w <op> <number>`"),
            ("w >= 0.2 extra", "expected `w <op> <number>`"),
            ("weight >= 0.2", "unknown variable"),
            ("w => 0.2", "unknown operator"),
            ("w >= zero", "invalid number"),
            ("w >= nan", "must be finite"),
            ("w >= inf", "must be finite"),
        ] {
            let err = WeightFilter::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn tsv_resolves_display_keys_and_applies_filter() {
        let coll = collection();
        let edges = vec![(pair(0, 1), 0.75), (pair(1, 2), 0.1), (pair(2, 3), 0.5)];
        let all = export_edges_tsv(&coll, &edges, None);
        assert_eq!(all.lines().count(), 4, "{all}");
        assert!(all.starts_with("a\tb\tweight\n"));
        assert!(all.contains("0:rec0\t0:rec1\t0.75"));

        let filter = WeightFilter::parse("w >= 0.5").unwrap();
        let kept = export_edges_tsv(&coll, &edges, Some(&filter));
        assert_eq!(kept.lines().count(), 3, "{kept}");
        assert!(!kept.contains("0:rec1\t0:rec2"));
        assert!(kept.contains("0:rec2\t0:rec3\t0.5"));
    }
}
