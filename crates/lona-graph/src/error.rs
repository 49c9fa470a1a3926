//! Error type for graph construction and I/O.

use std::fmt;

/// Errors produced while building, loading or storing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// More nodes than `NodeId` can address.
    TooManyNodes(usize),
    /// More adjacency entries than the CSR offset type can address.
    TooManyEdges(usize),
    /// An edge referenced a node id ≥ the declared node count.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The declared number of nodes.
        num_nodes: u32,
    },
    /// A self-loop was found and the builder forbids them.
    SelfLoop(u32),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A text edge-list line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A compiled container, or a node permutation or score section
    /// read from one, failed validation: bad magic, version, length,
    /// checksum or structure.
    BadSnapshot(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::TooManyNodes(n) => {
                write!(f, "graph has {n} nodes, exceeding the u32 id space")
            }
            GraphError::TooManyEdges(m) => {
                write!(
                    f,
                    "graph has {m} adjacency entries, exceeding the u32 offset space"
                )
            }
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "edge endpoint {node} out of range (graph has {num_nodes} nodes)"
                )
            }
            GraphError::SelfLoop(u) => write!(f, "self-loop on node {u} is not allowed"),
            GraphError::Io(e) => write!(f, "I/O error: {e}"),
            GraphError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            GraphError::BadSnapshot(msg) => write!(f, "bad graph snapshot: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 9,
            num_nodes: 5,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('5'));

        let e = GraphError::Parse {
            line: 3,
            msg: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e = GraphError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
