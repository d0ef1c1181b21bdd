//! Plain-text edge-list I/O and serde helpers.
//!
//! Format: the first non-comment line is `n m`; each subsequent non-comment
//! line is an edge `u v`.  Lines starting with `#` or `%` are comments.
//! This matches the common SNAP/Konect style closely enough that external
//! graphs can be dropped in for the examples.

use std::io::{BufRead, BufReader, Read, Write as IoWrite};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Writes `graph` to `writer` in edge-list format.
pub fn write_edge_list<W: IoWrite>(graph: &CsrGraph, writer: &mut W) -> Result<()> {
    writeln!(writer, "# bo3-graph edge list")?;
    writeln!(writer, "{} {}", graph.num_vertices(), graph.num_edges())?;
    for (u, v) in graph.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Reads a graph from an edge-list reader.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph> {
    let buf = BufReader::new(reader);
    let mut header: Option<(usize, usize)> = None;
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_edges = 0usize;
    let mut seen_edges = 0usize;

    for (idx, line) in buf.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| GraphError::Parse {
            line: line_no,
            reason: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let a: usize = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                reason: "expected two integers".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                reason: format!("bad integer: {e}"),
            })?;
        let b: usize = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                reason: "expected two integers".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                reason: format!("bad integer: {e}"),
            })?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                reason: "expected exactly two integers".into(),
            });
        }
        match (&mut builder, header) {
            (None, None) => {
                header = Some((a, b));
                declared_edges = b;
                // The edge list grows with the lines actually read: the
                // declared count is checked after the last one, never
                // trusted to size an allocation.
                builder = Some(GraphBuilder::new(a));
            }
            (Some(b_ref), Some(_)) => {
                b_ref.push_edge(a, b).map_err(|e| GraphError::Parse {
                    line: line_no,
                    reason: e.to_string(),
                })?;
                seen_edges += 1;
            }
            _ => unreachable!("builder and header are set together"),
        }
    }

    let builder = builder.ok_or(GraphError::Parse {
        line: 0,
        reason: "missing header line `n m`".into(),
    })?;
    let graph = builder.build()?;
    if graph.num_edges() != declared_edges && seen_edges != declared_edges {
        return Err(GraphError::Parse {
            line: 0,
            reason: format!("header declared {declared_edges} edges but {seen_edges} were listed"),
        });
    }
    Ok(graph)
}

/// Writes `graph` to the file at `path`.
pub fn save_edge_list<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    write_edge_list(graph, &mut file)
}

/// Reads a graph from the file at `path`.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn round_trip(g: &CsrGraph) -> CsrGraph {
        let mut buf = Vec::new();
        write_edge_list(g, &mut buf).unwrap();
        read_edge_list(buf.as_slice()).unwrap()
    }

    #[test]
    fn round_trip_complete_graph() {
        let g = generators::complete(8);
        assert_eq!(round_trip(&g), g);
    }

    #[test]
    fn round_trip_path_and_star() {
        let p = generators::path(10).unwrap();
        assert_eq!(round_trip(&p), p);
        let s = generators::star(9).unwrap();
        assert_eq!(round_trip(&s), s);
    }

    #[test]
    fn round_trip_preserves_isolated_vertices() {
        let g = crate::builder::GraphBuilder::new(5)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        let h = round_trip(&g);
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# comment\n\n% another\n3 2\n0 1\n# inner\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = read_edge_list("".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(read_edge_list("3 1\n0\n".as_bytes()).is_err());
        assert!(read_edge_list("3 1\n0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("3 1\n0 1 2\n".as_bytes()).is_err());
        // Declared edge counts far past the listed ones are header
        // mismatches, not allocations of that size.
        for text in ["2 1000000000000\n0 1\n", "2 18446744073709551615\n0 1\n"] {
            match read_edge_list(text.as_bytes()) {
                Err(GraphError::Parse { line: 0, reason }) => {
                    assert!(reason.contains("but 1 were listed"), "{reason}")
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        // Declared vertex counts past the `u32` ids the builder takes are
        // refused before `n + 1` offsets are allocated (or `n + 1` wraps).
        for text in [
            "1099511627776 0\n",
            "4294967297 0\n",
            "18446744073709551615 0\n",
        ] {
            match read_edge_list(text.as_bytes()) {
                Err(GraphError::TooLarge { limit, .. }) => assert_eq!(limit as u64, 1 << 32),
                other => panic!("{text:?}: unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_edge_is_an_error_with_line_number() {
        let err = read_edge_list("2 1\n0 5\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn edge_count_mismatch_is_an_error() {
        let err = read_edge_list("3 5\n0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bo3_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.edges");
        let g = generators::cycle(12).unwrap();
        save_edge_list(&g, &path).unwrap();
        let h = load_edge_list(&path).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(&path).ok();
    }
}
