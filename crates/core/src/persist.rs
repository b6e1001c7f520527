//! Cache persistence: snapshot the embedding caches to disk and restore
//! them on startup, so a redeployed inference server starts warm instead of
//! re-paying the Figure 7 ramp-up.
//!
//! Format (little-endian, version-tagged):
//!
//! ```text
//! magic "TGOC" | version u32 | n_layers u32
//! per layer: present u8 | limit u64 | dim u32 | count u64
//!            count x (key u64, dim x f32)   -- in FIFO (eviction) order
//! ```
//!
//! Entries are written oldest-first so the restored FIFO evicts in the same
//! order the original would have.

#![deny(clippy::disallowed_types)]

use crate::cache::{EmbedCache, LayerCaches};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use std::path::Path;
use tg_error::TgError;

const MAGIC: &[u8; 4] = b"TGOC";
const VERSION: u32 = 1;

fn bad(msg: impl Into<String>) -> TgError {
    TgError::snapshot(msg)
}

/// Serializes the caches into a byte buffer.
pub fn to_bytes(caches: &LayerCaches) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let n_layers = caches.num_layers();
    #[expect(clippy::cast_possible_truncation, reason = "layer counts are tiny")]
    buf.put_u32_le(n_layers as u32);
    for l in 0..=n_layers {
        match caches.layer(l) {
            None => buf.put_u8(0),
            Some(cache) => {
                buf.put_u8(1);
                buf.put_u64_le(cache.limit() as u64);
                #[expect(clippy::cast_possible_truncation, reason = "dims are far below 2^32")]
                buf.put_u32_le(cache.dim() as u32);
                let entries = cache.export_fifo_order();
                buf.put_u64_le(entries.len() as u64);
                for (key, row) in entries {
                    buf.put_u64_le(key);
                    for v in row.iter() {
                        buf.put_f32_le(*v);
                    }
                }
            }
        }
    }
    buf.freeze()
}

/// Reconstructs caches from [`to_bytes`] output.
///
/// Any malformed input — bad magic, unsupported version, an inconsistent
/// header, or truncation at *any* byte offset — yields
/// [`TgError::SnapshotCorrupt`]; this function never panics on untrusted
/// bytes.
pub fn from_bytes(mut data: Bytes) -> Result<LayerCaches, TgError> {
    let need = |data: &Bytes, n: usize| -> Result<(), TgError> {
        if data.remaining() < n {
            Err(bad("truncated cache snapshot"))
        } else {
            Ok(())
        }
    };
    let to_usize = |v: u64, what: &str| -> Result<usize, TgError> {
        usize::try_from(v).map_err(|_| bad(format!("{what} {v} overflows usize")))
    };
    need(&data, 4 + 4 + 4)?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad("not a TGOpt cache snapshot"));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(bad(format!("unsupported snapshot version {version}")));
    }
    let n_layers = data.get_u32_le() as usize;
    if n_layers > 64 {
        return Err(bad("implausible layer count"));
    }
    let mut per_layer: Vec<Option<EmbedCache>> = Vec::with_capacity(n_layers + 1);
    for _ in 0..=n_layers {
        need(&data, 1)?;
        if data.get_u8() == 0 {
            per_layer.push(None);
            continue;
        }
        need(&data, 8 + 4 + 8)?;
        let limit = to_usize(data.get_u64_le(), "cache limit")?;
        let dim = data.get_u32_le() as usize;
        let count = to_usize(data.get_u64_le(), "entry count")?;
        if limit == 0 || dim == 0 || count > limit {
            return Err(bad("inconsistent snapshot header"));
        }
        let cache = EmbedCache::try_new(limit, dim)?;
        let mut row = vec![0.0f32; dim];
        for _ in 0..count {
            need(&data, 8 + 4 * dim)?;
            let key = data.get_u64_le();
            for v in row.iter_mut() {
                *v = data.get_f32_le();
            }
            cache.store(&[key], &tg_tensor::Tensor::from_vec(1, dim, row.clone()), false)?;
        }
        per_layer.push(Some(cache));
    }
    Ok(LayerCaches::from_parts(per_layer))
}

/// Writes a snapshot to `path`.
pub fn save(caches: &LayerCaches, path: &Path) -> Result<(), TgError> {
    let bytes = to_bytes(caches);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Reads a snapshot from `path`.
///
/// I/O failures surface as [`TgError::Io`]; malformed content as
/// [`TgError::SnapshotCorrupt`].
pub fn load(path: &Path) -> Result<LayerCaches, TgError> {
    let mut f = std::fs::File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    from_bytes(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::pack_key;
    use tg_tensor::Tensor;

    fn populated() -> LayerCaches {
        let lc = LayerCaches::new(3, true, 90, 2);
        for l in 1..=3usize {
            let c = lc.layer(l).unwrap();
            for i in 0..5u32 {
                c.store(
                    &[pack_key(i, l as f32)],
                    &Tensor::from_vec(1, 2, vec![i as f32, l as f32]),
                    false,
                )
                .unwrap();
            }
        }
        lc
    }

    #[test]
    fn roundtrip_preserves_entries_and_structure() {
        let lc = populated();
        let restored = from_bytes(to_bytes(&lc)).unwrap();
        assert_eq!(restored.len(), lc.len());
        assert_eq!(restored.limit(), lc.limit());
        assert_eq!(restored.dim(), lc.dim());
        for l in 1..=3usize {
            let c = restored.layer(l).unwrap();
            for i in 0..5u32 {
                let mut out = Tensor::zeros(1, 2);
                assert_eq!(c.lookup(&[pack_key(i, l as f32)], &mut out, false).unwrap(), vec![true]);
                assert_eq!(out.as_slice(), &[i as f32, l as f32]);
            }
        }
        assert!(restored.layer(0).is_none());
    }

    #[test]
    fn roundtrip_preserves_fifo_eviction_order() {
        let lc = LayerCaches::new(2, false, 3, 1);
        let c = lc.layer(1).unwrap();
        for i in 0..3u32 {
            c.store(&[pack_key(i, 0.0)], &Tensor::from_vec(1, 1, vec![i as f32]), false).unwrap();
        }
        let restored = from_bytes(to_bytes(&lc)).unwrap();
        let rc = restored.layer(1).unwrap();
        // Inserting one more must evict key 0 (the oldest), not key 2.
        rc.store(&[pack_key(9, 0.0)], &Tensor::zeros(1, 1), false).unwrap();
        let mut out = Tensor::zeros(1, 1);
        assert_eq!(rc.lookup(&[pack_key(0, 0.0)], &mut out, false).unwrap(), vec![false]);
        assert_eq!(rc.lookup(&[pack_key(2, 0.0)], &mut out, false).unwrap(), vec![true]);
    }

    #[test]
    fn file_roundtrip() {
        let lc = populated();
        let path = std::env::temp_dir().join(format!("tgoc-{}.bin", std::process::id()));
        save(&lc, &path).unwrap();
        let restored = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.len(), lc.len());
    }

    #[test]
    fn rejects_garbage() {
        let corrupt = |b: Bytes| {
            let err = from_bytes(b).unwrap_err();
            assert!(
                matches!(err, TgError::SnapshotCorrupt { .. }),
                "expected SnapshotCorrupt, got: {err}"
            );
        };
        corrupt(Bytes::from_static(b""));
        corrupt(Bytes::from_static(b"NOPExxxxxxxxxxxxx"));
        // Valid magic, wrong version.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(999);
        buf.put_u32_le(2);
        corrupt(buf.freeze());
        // Truncated after a valid header.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(2);
        buf.put_u8(1);
        buf.put_u64_le(10);
        buf.put_u32_le(4);
        buf.put_u64_le(3); // claims 3 entries, provides none
        corrupt(buf.freeze());
    }

    #[test]
    fn truncation_at_every_length_errors_never_panics() {
        // Round-trip fuzz: a valid snapshot cut at *every* possible byte
        // boundary must produce a typed SnapshotCorrupt — never a panic and
        // never a silently-short cache.
        let full: Vec<u8> = to_bytes(&populated()).as_ref().to_vec();
        for n in 0..full.len() {
            let err = from_bytes(Bytes::from(full[..n].to_vec())).unwrap_err();
            assert!(
                matches!(err, TgError::SnapshotCorrupt { .. }),
                "cut at {n}/{} bytes: expected SnapshotCorrupt, got: {err}",
                full.len()
            );
        }
        // The uncut buffer still parses.
        assert_eq!(from_bytes(Bytes::from(full)).unwrap().len(), populated().len());
    }

    #[test]
    fn missing_snapshot_file_is_io_not_corrupt() {
        let err = load(Path::new("/nonexistent/tgopt-cache.bin")).unwrap_err();
        assert!(matches!(err, TgError::Io(_)), "expected Io, got: {err}");
    }
}
