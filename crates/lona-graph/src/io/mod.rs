//! Graph serialization: the whitespace edge-list text format. The one
//! binary format is the compiled container in `lona_core::compiled`.

mod edgelist;

pub use edgelist::{read_edge_list, write_edge_list, EdgeListOptions};
