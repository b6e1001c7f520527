//! Schema-drift gate for the unified telemetry snapshot.
//!
//! `TelemetrySnapshot`'s JSON shape is frozen behind
//! [`tg_telemetry::SCHEMA_VERSION`]: the sorted field-path fingerprint of
//! a shape-complete snapshot must match the committed golden file
//! `tests/golden/telemetry_schema.txt` exactly, in both directions. A
//! field added, removed, renamed, or retyped fails this suite until the
//! golden is regenerated *and* the schema version is bumped:
//!
//! ```sh
//! UPDATE_TELEMETRY_GOLDEN=1 cargo test --test telemetry_schema
//! ```

use std::sync::Arc;
use tgopt_repro::graph::{Edge, NodeId, TemporalGraph, Time};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::telemetry::{
    schema_paths, Recorder, TelemetrySnapshot, SCHEMA_VERSION,
};
use tgopt_repro::tensor::init;
use tgopt_repro::tgat::{TgatConfig, TgatParams};

const GOLDEN: &str = include_str!("golden/telemetry_schema.txt");
const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/telemetry_schema.txt");

/// A snapshot in which every optional-length sequence has at least one
/// element, so the element paths (`stages[].…`, `latency.workers[].…`)
/// materialize in the fingerprint. Counter *values* are irrelevant:
/// `schema_paths` fingerprints shape and leaf types only.
fn shape_complete() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    snap.stages = Recorder::disabled().breakdown();
    snap.latency.workers.push(Default::default());
    snap.ingest.per_layer.push(Default::default());
    snap
}

/// Fills the sequences an offline or idle run may leave empty, so the
/// element paths compare against the same golden as [`shape_complete`].
fn complete_shape(snap: &mut TelemetrySnapshot) {
    if snap.stages.is_empty() {
        snap.stages = Recorder::disabled().breakdown();
    }
    if snap.latency.workers.is_empty() {
        snap.latency.workers.push(Default::default());
    }
    if snap.ingest.per_layer.is_empty() {
        snap.ingest.per_layer.push(Default::default());
    }
}

fn fingerprint(snap: &TelemetrySnapshot) -> Vec<String> {
    let value = serde::to_value(snap).expect("snapshot serializes");
    schema_paths(&value)
}

fn golden_lines() -> Vec<String> {
    GOLDEN
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Diffs `actual` against the committed golden in both directions and
/// panics with a regeneration hint on any drift.
fn assert_matches_golden(actual: &[String], origin: &str) {
    if std::env::var_os("UPDATE_TELEMETRY_GOLDEN").is_some() {
        let mut text = String::from(
            "# Field-path fingerprint of TelemetrySnapshot (schema_paths).\n\
             # Regenerate: UPDATE_TELEMETRY_GOLDEN=1 cargo test --test telemetry_schema\n\
             # Any diff here is a telemetry schema change: bump SCHEMA_VERSION too.\n",
        );
        for path in actual {
            text.push_str(path);
            text.push('\n');
        }
        std::fs::write(GOLDEN_PATH, text).expect("write golden");
        return;
    }
    let golden = golden_lines();
    let removed: Vec<&String> = golden.iter().filter(|p| !actual.contains(p)).collect();
    let added: Vec<&String> = actual.iter().filter(|p| !golden.contains(p)).collect();
    assert!(
        removed.is_empty() && added.is_empty(),
        "telemetry schema drift detected ({origin}).\n\
         paths in golden but missing from snapshot: {removed:#?}\n\
         paths in snapshot but not in golden: {added:#?}\n\
         If intentional: bump tg_telemetry::SCHEMA_VERSION and regenerate with\n\
         UPDATE_TELEMETRY_GOLDEN=1 cargo test --test telemetry_schema"
    );
}

#[test]
fn fingerprint_matches_committed_golden() {
    assert_matches_golden(&fingerprint(&shape_complete()), "in-process snapshot");
}

#[test]
fn golden_file_is_sorted_and_deduped() {
    if std::env::var_os("UPDATE_TELEMETRY_GOLDEN").is_some() {
        return; // being rewritten by the sibling test this run
    }
    let golden = golden_lines();
    assert!(!golden.is_empty(), "golden fingerprint must not be empty");
    let mut sorted = golden.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(golden, sorted, "golden file must stay sorted and duplicate-free");
}

#[test]
fn snapshot_round_trips_and_reserialized_shape_is_stable() {
    let snap = shape_complete();
    let json = serde_json::to_string(&snap).expect("serialize");
    let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, snap, "round trip must preserve every field");
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    assert_eq!(
        fingerprint(&back),
        fingerprint(&snap),
        "re-serialized snapshot changed shape"
    );
}

/// The snapshot a live-ingest server reports after real traffic carries
/// the current schema version, survives a JSON round trip, fingerprints to
/// the committed golden, and reports the traffic it saw.
#[test]
fn live_server_snapshot_matches_golden() {
    const NODES: usize = 8;
    const BASE: usize = 24;
    let cfg = TgatConfig::tiny();
    let mut graph = TemporalGraph::with_nodes(NODES);
    for i in 0..BASE {
        let (src, dst) = ((i % NODES) as NodeId, ((i * 3 + 1) % NODES) as NodeId);
        graph.insert(&Edge { src, dst, time: (i + 1) as Time, eid: i as u32 });
    }
    let mut rng = init::seeded_rng(11);
    let nf = init::normal(&mut rng, NODES, cfg.dim, 0.5);
    // One spare edge-feature row for the live edge below.
    let ef = init::normal(&mut rng, BASE + 1, cfg.edge_dim, 0.5);
    let params = TgatParams::init(cfg, 3).unwrap();
    let bundle = Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap());
    let server =
        TgServer::deterministic(bundle, ServeConfig::default().with_live_ingest(true)).unwrap();

    let ns: Vec<NodeId> = (0..NODES as NodeId).collect();
    let ts = vec![BASE as Time + 1.0; NODES];
    let first = server.submit_many(&ns, &ts).unwrap();
    server.drain().unwrap();
    server.submit_edge(0, 5, BASE as Time + 0.5).unwrap();
    let second = server.submit_many(&ns, &ts).unwrap();
    server.drain().unwrap();
    for ticket in first.into_iter().chain(second) {
        ticket.wait().unwrap();
    }
    let (stats, mut snap) = server.shutdown_with_telemetry();

    assert_eq!(snap.schema_version, SCHEMA_VERSION);
    assert_eq!(snap.serve.completed, stats.completed);
    assert_eq!(snap.serve.completed, 2 * NODES as u64);
    assert_eq!(snap.ingest.edges_appended, 1);
    let json = serde_json::to_string(&snap).expect("serialize");
    let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, snap, "a served snapshot must survive a serde round trip");
    complete_shape(&mut snap);
    assert_matches_golden(&fingerprint(&snap), "live server snapshot");
}
