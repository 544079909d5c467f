//! Minimal RFC-4180-style CSV reader/writer.
//!
//! Hand-rolled (no external dependency) but complete for the ER loaders'
//! needs: quoted fields, embedded separators, escaped quotes (`""`),
//! embedded newlines inside quotes, CRLF tolerance, configurable separator.

use crate::error::{Error, Result};
use crate::profile::{Profile, SourceId};

/// Options for [`parse_csv`] / [`profiles_from_csv`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first row is a header (default `true`).
    pub has_header: bool,
    /// Name of the column holding the record's original id; when absent the
    /// 0-based row number is used.
    pub id_column: Option<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
            id_column: Some("id".to_string()),
        }
    }
}

/// Parse CSV text into rows of fields.
///
/// ```
/// use sparker_profiles::parse_csv;
/// let rows = parse_csv("a,b\n\"x,1\",\"he said \"\"hi\"\"\"\n", ',').unwrap();
/// assert_eq!(rows, vec![
///     vec!["a".to_string(), "b".to_string()],
///     vec!["x,1".to_string(), "he said \"hi\"".to_string()],
/// ]);
/// ```
pub fn parse_csv(text: &str, separator: char) -> Result<Vec<Vec<String>>> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    field.push('\n');
                    line += 1;
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(Error::Csv {
                            message: "quote inside unquoted field".to_string(),
                            line,
                        });
                    }
                    in_quotes = true;
                }
                '\r' => { /* swallow; LF handles row end */ }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    line += 1;
                }
                c if c == separator => row.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Csv {
            message: "unterminated quoted field".to_string(),
            line,
        });
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Serialize rows back to CSV (quoting only when needed).
pub fn write_csv(rows: &[Vec<String>], separator: char) -> String {
    let mut out = String::new();
    for row in rows {
        push_csv_row(&mut out, row, separator);
    }
    out
}

/// Append one row to `out` exactly as [`write_csv`] writes it — for
/// writers that stream rows instead of collecting them first.
pub fn push_csv_row<S: AsRef<str>>(out: &mut String, row: &[S], separator: char) {
    for (i, f) in row.iter().enumerate() {
        let f = f.as_ref();
        if i > 0 {
            out.push(separator);
        }
        let needs_quotes =
            f.contains(separator) || f.contains('"') || f.contains('\n') || f.contains('\r');
        if needs_quotes {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

/// Load profiles from CSV text: each row becomes one profile, each non-id
/// column an attribute (header names, or `col0`, `col1`, … without a
/// header). Empty cells are skipped.
pub fn profiles_from_csv(
    text: &str,
    source: SourceId,
    options: &CsvOptions,
) -> Result<Vec<Profile>> {
    let rows = parse_csv(text, options.separator)?;
    let mut it = rows.into_iter();
    let header: Option<Vec<String>> = if options.has_header { it.next() } else { None };

    let id_index: Option<usize> = match (&header, &options.id_column) {
        (Some(h), Some(idc)) => h.iter().position(|c| c == idc),
        _ => None,
    };

    let mut profiles = Vec::new();
    for (rownum, row) in it.enumerate() {
        let original_id = id_index
            .and_then(|i| row.get(i).cloned())
            .unwrap_or_else(|| rownum.to_string());
        let mut b = Profile::builder(source, original_id);
        for (i, value) in row.iter().enumerate() {
            if Some(i) == id_index {
                continue;
            }
            let name = header
                .as_ref()
                .and_then(|h| h.get(i).cloned())
                .unwrap_or_else(|| format!("col{i}"));
            b = b.attr(name, value.clone());
        }
        profiles.push(b.build());
    }
    Ok(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_rows() {
        let rows = parse_csv("a,b,c\n1,2,3\n", ',').unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2", "3"]);
    }

    #[test]
    fn handles_quotes_separators_and_newlines() {
        let rows = parse_csv("\"a,b\",\"line1\nline2\",\"say \"\"hi\"\"\"\n", ',').unwrap();
        assert_eq!(rows[0], vec!["a,b", "line1\nline2", "say \"hi\""]);
    }

    #[test]
    fn crlf_tolerated() {
        let rows = parse_csv("a,b\r\n1,2\r\n", ',').unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let rows = parse_csv("a,b\n1,2", ',').unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_fields_preserved() {
        let rows = parse_csv("a,,c\n", ',').unwrap();
        assert_eq!(rows[0], vec!["a", "", "c"]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = parse_csv("\"abc\n", ',').unwrap_err();
        assert!(matches!(err, Error::Csv { .. }));
    }

    #[test]
    fn quote_mid_field_is_error() {
        let err = parse_csv("ab\"c,d\n", ',').unwrap_err();
        assert!(err.to_string().contains("unquoted"));
    }

    #[test]
    fn custom_separator() {
        let rows = parse_csv("a;b\n1;2\n", ';').unwrap();
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn roundtrip_write_parse() {
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with \"quote\"".to_string(), "multi\nline".to_string()],
        ];
        let text = write_csv(&rows, ',');
        assert_eq!(parse_csv(&text, ',').unwrap(), rows);
    }

    #[test]
    fn profiles_with_header_and_id_column() {
        let text = "id,name,price\nabt-1,Sony TV,699\nabt-2,,\n";
        let ps = profiles_from_csv(text, SourceId(0), &CsvOptions::default()).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].original_id, "abt-1");
        assert_eq!(ps[0].value_of("name"), Some("Sony TV"));
        assert_eq!(ps[0].value_of("price"), Some("699"));
        assert!(
            ps[0].value_of("id").is_none(),
            "id column is not an attribute"
        );
        assert!(ps[1].is_blank(), "empty cells skipped");
    }

    #[test]
    fn profiles_without_header_use_row_numbers() {
        let opts = CsvOptions {
            has_header: false,
            id_column: None,
            ..CsvOptions::default()
        };
        let ps = profiles_from_csv("x,y\nz,w\n", SourceId(1), &opts).unwrap();
        assert_eq!(ps[0].original_id, "0");
        assert_eq!(ps[1].original_id, "1");
        assert_eq!(ps[0].value_of("col0"), Some("x"));
        assert_eq!(ps[1].value_of("col1"), Some("w"));
        assert_eq!(ps[0].source, SourceId(1));
    }

    #[test]
    fn id_column_missing_from_header_falls_back_to_row_number() {
        let opts = CsvOptions {
            id_column: Some("uid".to_string()),
            ..CsvOptions::default()
        };
        let ps = profiles_from_csv("name\nSony\n", SourceId(0), &opts).unwrap();
        assert_eq!(ps[0].original_id, "0");
        assert_eq!(ps[0].value_of("name"), Some("Sony"));
    }
}
