//! Error types for graph construction and analysis.

use std::fmt;

/// Errors produced while building, generating or analysing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint referenced a vertex id outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied where simple graphs are required.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: usize,
    },
    /// A generator was asked for an impossible parameter combination.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A degree sequence cannot be realised as a simple graph.
    Unrealizable {
        /// Human-readable description.
        reason: String,
    },
    /// The operation requires a non-empty graph.
    EmptyGraph,
    /// An operation was refused because the graph exceeds a size limit: a
    /// whole-graph operation past the dense-analysis limit (see
    /// [`crate::DENSE_ANALYSIS_VERTEX_LIMIT`]), which costs `Θ(n²)` on
    /// dense graphs and must not be attempted at scale, or a vertex id or
    /// count that the `u32` ids of [`crate::CsrGraph`] and
    /// [`crate::builder::GraphBuilder`] cannot name (more than 2³²
    /// vertices).
    TooLarge {
        /// Number of vertices in the offending graph.
        n: usize,
        /// The limit that was exceeded.
        limit: usize,
        /// The refused operation, for the error message.
        operation: &'static str,
    },
    /// The operation requires every vertex to have at least one neighbour.
    IsolatedVertex {
        /// The isolated vertex.
        vertex: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => {
                write!(
                    f,
                    "self-loop at vertex {vertex} not allowed in a simple graph"
                )
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
            GraphError::Unrealizable { reason } => {
                write!(f, "degree sequence not realisable: {reason}")
            }
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::TooLarge {
                n,
                limit,
                operation,
            } => write!(f, "refusing {operation} on {n} vertices (limit is {limit})"),
            GraphError::IsolatedVertex { vertex } => {
                write!(f, "vertex {vertex} has no neighbours")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenient result alias used throughout `bo3-graph`.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_vertex_out_of_range() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 5 };
        assert_eq!(
            e.to_string(),
            "vertex 7 out of range for graph with 5 vertices"
        );
    }

    #[test]
    fn display_self_loop() {
        let e = GraphError::SelfLoop { vertex: 3 };
        assert!(e.to_string().contains("self-loop at vertex 3"));
    }

    #[test]
    fn display_invalid_parameter() {
        let e = GraphError::InvalidParameter {
            reason: "p must lie in [0,1]".into(),
        };
        assert!(e.to_string().contains("p must lie in [0,1]"));
    }

    #[test]
    fn display_too_large_names_the_operation_and_limit() {
        let e = GraphError::TooLarge {
            n: 1_000_000,
            limit: 100_000,
            operation: "materializing an implicit topology",
        };
        let msg = e.to_string();
        assert!(msg.contains("materializing an implicit topology"));
        assert!(msg.contains("1000000"));
        assert!(msg.contains("100000"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GraphError::EmptyGraph, GraphError::EmptyGraph);
        assert_ne!(
            GraphError::EmptyGraph,
            GraphError::IsolatedVertex { vertex: 0 }
        );
    }
}
