//! Loader for the original TGAT artifact's `ml_{name}.csv` edge-list format.
//!
//! Each data row is `user, item, timestamp, label, idx`. Feature matrices
//! (`.npy` in the artifact) are replaced by seeded random edge features and
//! zero node features of the requested dimension, matching the paper's
//! handling of missing features.

use crate::gen::Dataset;
use crate::spec::{DatasetSpec, GraphKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufRead;
use std::path::Path;
use tg_error::TgError;
use tg_graph::{EdgeStream, NodeId, Time};
use tg_tensor::Tensor;

/// Parses one numeric CSV field, reporting its file/line/field position on
/// failure so users can locate bad records in multi-million-row inputs.
fn parse_field(
    raw: Option<&str>,
    path: &Path,
    lineno: usize,
    field: &str,
) -> Result<f64, TgError> {
    let file = path.display().to_string();
    match raw {
        None => Err(TgError::parse(file, lineno, field, "field is missing")),
        Some(text) => text.parse::<f64>().map_err(|_| {
            TgError::parse(file, lineno, field, format!("not a number: {text:?}"))
        }),
    }
}

/// Parses a `ml_{name}.csv` file into a [`Dataset`].
///
/// Rows must be time-sorted (the artifact's preprocessing guarantees this).
/// Lines that fail to parse are reported as [`TgError::Parse`] errors
/// carrying the file, 1-based line number, and field name — never skipped.
pub fn load_csv(path: &Path, name: &str, edge_dim: usize, seed: u64) -> Result<Dataset, TgError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut srcs: Vec<NodeId> = Vec::new();
    let mut dsts: Vec<NodeId> = Vec::new();
    let mut times: Vec<Time> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // Skip a header row if present.
        if idx == 0 && trimmed.chars().next().is_some_and(|c| c.is_alphabetic()) {
            continue;
        }
        let mut fields = trimmed.split(',').map(str::trim);
        // The artifact writes node ids as floats ("3.0"); truncation back to
        // an integer id is the intended decode, not data loss.
        #[expect(clippy::cast_possible_truncation, reason = "artifact stores integer ids as floats")]
        let u = parse_field(fields.next(), path, lineno, "user")? as NodeId;
        #[expect(clippy::cast_possible_truncation, reason = "artifact stores integer ids as floats")]
        let i = parse_field(fields.next(), path, lineno, "item")? as NodeId;
        #[expect(clippy::cast_possible_truncation, reason = "times are f32 end-to-end; f64 only for parsing")]
        let t = parse_field(fields.next(), path, lineno, "timestamp")? as Time;
        srcs.push(u);
        dsts.push(i);
        times.push(t);
    }
    let stream = EdgeStream::new(&srcs, &dsts, &times);
    let n_edges = stream.len();
    let num_nodes = stream.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut feat = vec![0.0f32; n_edges * edge_dim];
    for v in &mut feat {
        *v = rng.gen_range(-1.0..=1.0);
    }
    Ok(Dataset {
        name: name.to_string(),
        spec: DatasetSpec {
            name: "custom",
            kind: GraphKind::Homogeneous { nodes: num_nodes },
            num_edges: n_edges,
            edge_dim: Some(edge_dim),
            max_time: stream.max_time(),
            repeat_prob: 0.0,
            zipf_exponent: 0.0,
            burst_prob: 0.0,
        },
        stream,
        edge_features: Tensor::from_vec(n_edges, edge_dim, feat),
        node_features: Tensor::zeros(num_nodes, edge_dim),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_temp(content: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("tgopt-test-{}.csv", rand::random::<u64>()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    #[test]
    fn loads_basic_csv_with_header() {
        let p = write_temp("u,i,ts,label,idx\n0,3,1.0,0,0\n1,3,2.0,0,1\n");
        let d = load_csv(&p, "test", 8, 1).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(d.stream.len(), 2);
        assert_eq!(d.stream.num_nodes(), 4);
        assert_eq!(d.edge_features.shape(), (2, 8));
        assert_eq!(d.stream.edges()[1].time, 2.0);
    }

    #[test]
    fn loads_headerless_and_skips_blank_lines() {
        let p = write_temp("0,1,5,0,0\n\n2,1,6,0,1\n");
        let d = load_csv(&p, "test", 4, 1).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(d.stream.len(), 2);
    }

    #[test]
    fn truncated_row_reports_file_line_and_field() {
        let p = write_temp("0,1,5,0,0\n0,1\n");
        let err = load_csv(&p, "test", 4, 1).unwrap_err();
        std::fs::remove_file(&p).ok();
        match err {
            TgError::Parse { ref file, line, ref field, .. } => {
                assert!(file.ends_with(".csv"), "unexpected file: {file}");
                assert_eq!(line, 2);
                assert_eq!(field, "timestamp");
            }
            other => panic!("expected Parse error, got: {other}"),
        }
    }

    #[test]
    fn non_numeric_field_reports_its_name_and_content() {
        let p = write_temp("0,abc,5,0,0\n");
        let err = load_csv(&p, "test", 4, 1).unwrap_err();
        std::fs::remove_file(&p).ok();
        let msg = err.to_string();
        assert!(msg.contains(":1:"), "missing line number: {msg}");
        assert!(msg.contains("item"), "missing field name: {msg}");
        assert!(msg.contains("abc"), "missing offending content: {msg}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_csv(Path::new("/nonexistent/x.csv"), "x", 4, 1).unwrap_err();
        assert!(matches!(err, TgError::Io(_)));
    }
}
