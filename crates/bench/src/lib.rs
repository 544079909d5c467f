//! Shared helpers for the experiment binaries: canonical dataset presets
//! (fixed seeds so every experiment is reproducible) and plain-text table
//! rendering.

use sparker_datasets::{
    generate, generate_dirty, DatasetConfig, Domain, GeneratedDataset, NoiseConfig, ZipfSkew,
};

/// The canonical benchmark suite used by the experiments: one dataset per
/// domain the paper's demo offers, at laptop scale.
pub fn standard_suite() -> Vec<(&'static str, GeneratedDataset)> {
    vec![
        ("abt-buy-like", abt_buy_like(1000)),
        ("dblp-acm-like", bibliographic(1200)),
        ("movies-like", movies(1000)),
        ("dblp-scholar-like", citations(1000)),
    ]
}

/// Abt-Buy-shaped products dataset (the demo's dataset: ~2k products from
/// two catalogues with ~1k matches).
pub fn abt_buy_like(entities: usize) -> GeneratedDataset {
    generate(&DatasetConfig {
        entities,
        unmatched_per_source: entities / 4,
        domain: Domain::Products,
        noise: NoiseConfig::default(),
        seed: 0xAB7_B07,
        skew: None,
    })
}

/// DBLP-ACM-shaped bibliographic dataset.
pub fn bibliographic(entities: usize) -> GeneratedDataset {
    generate(&DatasetConfig {
        entities,
        unmatched_per_source: entities / 4,
        domain: Domain::Bibliographic,
        noise: NoiseConfig::default(),
        seed: 0xDB1_AC4,
        skew: None,
    })
}

/// Movies-shaped dataset.
pub fn movies(entities: usize) -> GeneratedDataset {
    generate(&DatasetConfig {
        entities,
        unmatched_per_source: entities / 4,
        domain: Domain::Movies,
        noise: NoiseConfig::default(),
        seed: 0x303135,
        skew: None,
    })
}

/// DBLP–Scholar-shaped dataset: structured bibliography vs free-text
/// citation strings.
pub fn citations(entities: usize) -> GeneratedDataset {
    generate(&DatasetConfig {
        entities,
        unmatched_per_source: entities / 4,
        domain: Domain::Citations,
        noise: NoiseConfig::default(),
        seed: 0x5C401A,
        skew: None,
    })
}

/// Dirty products catalogue with rank-correlated Zipfian block skew: the
/// first eighth of the file is "popular" and draws many tokens from a
/// Zipf-distributed hot pool, so the blocking graph has a contiguous hub
/// region at low profile ids — the worst case for equal-count contiguous
/// partitioning. The pool is wide and the exponent mild so the hub is made
/// of *many mid-size* hot blocks: those survive the standard
/// purge + block-filtering pipeline (which kills the few monster blocks)
/// and keep the hub dense while the tail goes sparse.
pub fn skewed_dirty(entities: usize) -> GeneratedDataset {
    generate_dirty(
        &DatasetConfig {
            entities,
            unmatched_per_source: 0,
            domain: Domain::Products,
            noise: NoiseConfig::default(),
            seed: 0x51E3BF,
            skew: Some(ZipfSkew {
                hot_tokens: 1000,
                exponent: 0.4,
                hot_entity_fraction: 0.125,
                appends: 96,
            }),
        },
        2,
    )
}

/// Minimal fixed-width table printer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with per-column widths, right-aligning numeric-looking cells.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let numeric: Vec<bool> = (0..cols)
            .map(|i| {
                !self.rows.is_empty()
                    && self.rows.iter().all(|r| {
                        r[i].trim_start_matches(['-', '+'])
                            .chars()
                            .all(|ch| ch.is_ascii_digit() || ch == '.' || ch == 'x' || ch == '%')
                            && !r[i].is_empty()
                    })
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if numeric[i] {
                        format!("{:>width$}", c, width = widths[i])
                    } else {
                        format!("{:<width$}", c, width = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with 4 decimals (the experiments' standard precision).
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".to_string(), "1.0".to_string()]);
        t.row(vec!["b".to_string(), "20.5".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("20.5"));
        // Numeric column right-aligned.
        assert!(lines[2].ends_with(" 1.0"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".to_string()]);
    }

    #[test]
    fn presets_are_deterministic() {
        let a = abt_buy_like(50);
        let b = abt_buy_like(50);
        assert_eq!(a.collection.profiles(), b.collection.profiles());
        assert_eq!(a.ground_truth.len(), 50);
    }
}
