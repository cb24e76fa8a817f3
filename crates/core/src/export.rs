//! Export — "providers can stop the project … and also export resources
//! with the desired tags" (Section III-A).

use serde::{Deserialize, Serialize};

/// One exported resource with its consensus tags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportedResource {
    pub uri: String,
    pub kind: String,
    pub posts: u32,
    pub quality: f64,
    /// `(tag text, occurrences)`, most frequent first.
    pub tags: Vec<(String, u32)>,
}

/// A full project export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Export {
    pub project: String,
    pub resources: Vec<ExportedResource>,
}

impl Export {
    /// CSV rendering: one row per resource, tags as a `;`-joined list.
    /// Fields containing the separator, quotes, or CR/LF are quoted.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("uri,kind,posts,quality,tags\n");
        let mut tags = String::new();
        for r in &self.resources {
            tags.clear();
            for (i, (t, c)) in r.tags.iter().enumerate() {
                let sep = if i == 0 { "" } else { ";" };
                let _ = write!(tags, "{sep}{t}:{c}");
            }
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{}",
                csv_field(&r.uri),
                csv_field(&r.kind),
                r.posts,
                r.quality,
                csv_field(&tags),
            );
        }
        out
    }

    /// Compact binary export (the "download" format).
    // lint: allow(panic-path)
    pub fn to_bytes(&self) -> Vec<u8> {
        itag_store::serbin::to_bytes(self).expect("export types always serialize")
    }

    /// Parses a binary export.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        itag_store::serbin::from_bytes(bytes).map_err(|e| e.to_string())
    }
}

fn csv_field(s: &str) -> String {
    // `\r` must force quoting too: a bare CR (or a CRLF pair) inside an
    // unquoted field splits the row in most CSV readers (RFC 4180 treats
    // CR as part of the record terminator).
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn export() -> Export {
        Export {
            project: "demo".into(),
            resources: vec![
                ExportedResource {
                    uri: "https://a".into(),
                    kind: "Web URL".into(),
                    posts: 4,
                    quality: 0.75,
                    tags: vec![("rust".into(), 3), ("db".into(), 1)],
                },
                ExportedResource {
                    uri: "https://b,with-comma".into(),
                    kind: "Image".into(),
                    posts: 0,
                    quality: 0.0,
                    tags: vec![],
                },
            ],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = export().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("uri,kind"));
        assert!(lines[1].contains("rust:3;db:1"));
    }

    #[test]
    fn csv_quotes_fields_with_separators() {
        let csv = export().to_csv();
        assert!(csv.contains("\"https://b,with-comma\""));
    }

    #[test]
    fn csv_escapes_embedded_quotes() {
        let e = Export {
            project: "p".into(),
            resources: vec![ExportedResource {
                uri: "say \"hi\"".into(),
                kind: "Web URL".into(),
                posts: 1,
                quality: 0.5,
                tags: vec![],
            }],
        };
        assert!(e.to_csv().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_quotes_fields_with_bare_cr_and_crlf() {
        let e = Export {
            project: "p".into(),
            resources: vec![
                ExportedResource {
                    uri: "line\rbreak".into(),
                    kind: "Web URL".into(),
                    posts: 1,
                    quality: 0.5,
                    tags: vec![],
                },
                ExportedResource {
                    uri: "crlf\r\nfield".into(),
                    kind: "Image".into(),
                    posts: 2,
                    quality: 0.25,
                    tags: vec![],
                },
            ],
        };
        let csv = e.to_csv();
        // Quoted, so the CR cannot terminate the record early.
        assert!(csv.contains("\"line\rbreak\""), "bare CR quoted: {csv:?}");
        assert!(csv.contains("\"crlf\r\nfield\""), "CRLF quoted: {csv:?}");
        // Exactly header + 2 records when records are split on `\n`
        // outside quotes (what a conforming reader does).
        let mut records = 0;
        let mut in_quotes = false;
        for c in csv.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                '\n' if !in_quotes => records += 1,
                _ => {}
            }
        }
        assert_eq!(records, 3, "header + 2 rows: {csv:?}");
    }

    #[test]
    fn binary_roundtrip() {
        let e = export();
        let back = Export::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(back, e);
        assert!(Export::from_bytes(&[1, 2, 3]).is_err());
    }
}
