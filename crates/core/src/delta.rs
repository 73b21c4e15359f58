//! Delta containers: `.bkcp` patches between two model containers.
//!
//! Shipping model updates to a fleet should not mean re-sending the
//! whole container when most kernels are unchanged. A patch produced by
//! [`diff_containers`] records, per compressible conv of the *target*
//! model (keyed by its graph node id):
//!
//! * **SAME** — the kernel is byte-identical to a base record,
//!   referenced by index and pinned by digest;
//! * **EDITS** — the kernel differs in a few channel sequences; the
//!   entry stores the target's tree capacities plus a sparse edit list
//!   (Hamming-1 edits as a single bit index, anything else as the full
//!   9-bit sequence), and the applier rebuilds the record by decoding
//!   the base kernel, applying the edits, and recompressing;
//! * **FULL** — the complete record bytes, for new or heavily changed
//!   kernels.
//!
//! [`apply_patch`] reproduces the target container **bit-exactly**: the
//! diff side self-verifies every EDITS reconstruction (falling back to
//! FULL when recompression would not reproduce the record), and the
//! apply side re-checks every rebuilt record against its stored digest
//! plus the final assembled v3 container against the patch's target
//! digest. The patch file itself carries a whole-file checksum that is
//! verified before anything else, so a corrupted patch is rejected as a
//! typed [`KcError::IntegrityViolation`], never applied.
//!
//! ```text
//! +--------+---------+--------+---------------+---------+-----------+--------+----------+
//! | magic  | version | base   | target graph  | entry   | entries   | target | patch    |
//! | "BKCP" | 0x0301  | digest | section       | count   | (tagged)  | digest | checksum |
//! |        |  u16    |  16 B  | (spec bytes)  |  u32    |           |  16 B  |   16 B   |
//! +--------+---------+--------+---------------+---------+-----------+--------+----------+
//! ```
//!
//! The version constant 0x0301 is deliberately outside the model
//! container's version space {1, 2, 3}: a single-byte corruption that
//! turns the `BKCP` magic into `BKCM` makes the file an unsupported
//! model version, never a parsable container.

use crate::bitseq::BitSeq;
use crate::codec::KernelCodec;
use crate::container::{
    assemble_v3, check_spec_kernels, read_container, read_graph_spec, read_model_container,
    write_container, write_graph_spec, Container,
};
use crate::digest::{Digest, DIGEST_LEN};
use crate::error::{KcError, Result};
use crate::huffman::TreeConfig;
use bitnn::weightgen::{read_sequence, read_sequences, write_sequence};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Patch file magic bytes.
pub const PATCH_MAGIC: &[u8; 4] = b"BKCP";

/// Patch format version. Outside the model container's {1, 2, 3} space
/// so a magic-byte corruption can never make a patch parse as a model.
pub const PATCH_VERSION: u16 = 0x0301;

/// Entry tags.
const TAG_SAME: u8 = 0;
const TAG_EDITS: u8 = 1;
const TAG_FULL: u8 = 2;

/// Edit kinds inside an EDITS entry.
const EDIT_BITFLIP: u8 = 0;
const EDIT_REPLACE: u8 = 1;

/// How a patch encodes each target kernel (for `bnnkc diff` reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Kernels referenced unchanged from the base.
    pub same: usize,
    /// Kernels rebuilt from a sparse edit list.
    pub edits: usize,
    /// Kernels shipped as full records.
    pub full: usize,
}

/// One sparse channel edit: the sequence at flat position
/// `filter * channels + channel` changes.
#[derive(Debug, Clone, Copy)]
struct Edit {
    flat: u32,
    new_seq: u16,
}

/// Compute the sparse edit list between two decoded kernels of equal
/// geometry.
fn channel_edits(base: &bitnn::tensor::BitTensor, new: &bitnn::tensor::BitTensor) -> Vec<Edit> {
    read_sequences(base)
        .into_iter()
        .zip(read_sequences(new))
        .enumerate()
        .filter(|(_, (old, new_seq))| old != new_seq)
        .map(|(flat, (_, new_seq))| Edit {
            flat: flat as u32,
            new_seq,
        })
        .collect()
}

/// Serialize one edit: Hamming-1 changes compress to a single bit index.
fn write_edit(buf: &mut BytesMut, old_seq: u16, edit: Edit) {
    buf.put_u32_le(edit.flat);
    let diff = old_seq ^ edit.new_seq;
    if diff.count_ones() == 1 {
        buf.put_u8(EDIT_BITFLIP);
        buf.put_u8(diff.trailing_zeros() as u8);
    } else {
        buf.put_u8(EDIT_REPLACE);
        buf.put_u16_le(edit.new_seq);
    }
}

/// Diff two model containers into a `.bkcp` patch.
///
/// `base` may be any readable container version; `new` must carry a
/// graph section (v2/v3) because the patch target is always written as
/// v3 and v3 embeds the topology.
///
/// The returned patch, applied to `base` via [`apply_patch`], reproduces
/// the v3 serialization of `new` byte-exactly (verified digest by digest
/// at apply time).
///
/// # Errors
///
/// Returns [`KcError::IncompatibleModel`] if `new` has no graph section,
/// and propagates parse errors from either container.
pub fn diff_containers(base_bytes: &[u8], new_bytes: &[u8]) -> Result<(Bytes, PatchStats)> {
    let base = read_model_container(base_bytes)?;
    let new = read_model_container(new_bytes)?;
    let spec = new.spec.clone().ok_or_else(|| {
        KcError::IncompatibleModel(
            "diff target has no graph section (v1); patches always target v3, \
             so re-compress the new model as v2/v3 first"
                .into(),
        )
    })?;
    let geoms = spec.conv3_geometries();

    // Base records by digest, for SAME detection (first index wins).
    let mut by_digest = std::collections::HashMap::new();
    for (i, rec) in base.kernels.iter().enumerate() {
        by_digest.entry(rec.digest()).or_insert(i);
    }

    let mut buf = BytesMut::new();
    buf.put_slice(PATCH_MAGIC);
    buf.put_u16_le(PATCH_VERSION);
    buf.put_slice(Digest::of(base_bytes).as_bytes());
    write_graph_spec(&mut buf, &spec)?;
    buf.put_u32_le(new.kernels.len() as u32);

    let mut stats = PatchStats::default();
    for (i, rec) in new.kernels.iter().enumerate() {
        let record_bytes = rec.to_bytes();
        let digest = Digest::of(&record_bytes);
        buf.put_u32_le(geoms[i].node as u32);
        if let Some(&base_idx) = by_digest.get(&digest) {
            buf.put_u8(TAG_SAME);
            buf.put_slice(digest.as_bytes());
            buf.put_u32_le(base_idx as u32);
            stats.same += 1;
            continue;
        }
        if let Some(entry) = try_edits_entry(&base, i, rec, &record_bytes)? {
            buf.put_u8(TAG_EDITS);
            buf.put_slice(digest.as_bytes());
            buf.put_slice(&entry);
            stats.edits += 1;
            continue;
        }
        buf.put_u8(TAG_FULL);
        buf.put_slice(digest.as_bytes());
        buf.put_u32_le(record_bytes.len() as u32);
        buf.put_slice(&record_bytes);
        stats.full += 1;
    }

    // Target digest: the exact v3 bytes apply_patch must produce.
    let records: Vec<Bytes> = new.kernels.iter().map(Container::to_bytes).collect();
    let target = assemble_v3(&spec, &records)?;
    buf.put_slice(Digest::of(&target).as_bytes());
    buf.put_slice(Digest::of(&buf).as_bytes());
    Ok((buf.freeze(), stats))
}

/// Try to encode target record `i` as an EDITS entry against the base
/// record at the same index. Returns the serialized entry body (after
/// the tag + digest) only when reconstruction provably reproduces the
/// record bytes — otherwise `None` and the caller ships FULL.
fn try_edits_entry(
    base: &crate::container::ModelContainer,
    i: usize,
    rec: &Container,
    record_bytes: &[u8],
) -> Result<Option<Bytes>> {
    let Some(base_rec) = base.kernels.get(i) else {
        return Ok(None);
    };
    if (base_rec.filters, base_rec.channels) != (rec.filters, rec.channels) {
        return Ok(None);
    }
    let base_kernel = base_rec.decode_kernel()?;
    let new_kernel = rec.decode_kernel()?;
    let edits = channel_edits(&base_kernel, &new_kernel);
    // A sparse entry only pays off while the edit list is small; past
    // that the full record is both smaller and cheaper to apply.
    if edits.len() * 7 + 32 >= record_bytes.len() {
        return Ok(None);
    }
    // Self-verify: rebuild exactly the way apply_patch will and require
    // byte equality, so an EDITS entry can never reconstruct wrong.
    let caps = rec.tree.config().capacities().to_vec();
    let rebuilt = rebuild_from_edits(base_rec, &caps, &edits)?;
    if rebuilt.as_ref() != record_bytes {
        return Ok(None);
    }
    let mut entry = BytesMut::new();
    entry.put_u32_le(i as u32);
    entry.put_u8(caps.len() as u8);
    for &c in &caps {
        entry.put_u16_le(c as u16);
    }
    entry.put_u32_le(edits.len() as u32);
    for e in &edits {
        let f = e.flat as usize / rec.channels;
        let ch = e.flat as usize % rec.channels;
        write_edit(&mut entry, read_sequence(&base_kernel, f, ch), *e);
    }
    Ok(Some(entry.freeze()))
}

/// Decode a base record, apply a sparse edit list, and recompress with
/// the given tree capacities — the shared reconstruction path of the
/// diff-side self-check and the patch applier.
fn rebuild_from_edits(base_rec: &Container, caps: &[usize], edits: &[Edit]) -> Result<Bytes> {
    let mut kernel = base_rec.decode_kernel()?;
    let channels = base_rec.channels;
    for e in edits {
        let flat = e.flat as usize;
        if flat >= base_rec.filters * channels {
            return Err(KcError::CorruptStream(format!(
                "edit position {flat} outside a {}x{} kernel",
                base_rec.filters, channels
            )));
        }
        BitSeq::new(e.new_seq)
            .map_err(|_| KcError::CorruptStream(format!("invalid edit sequence {}", e.new_seq)))?;
        write_sequence(&mut kernel, flat / channels, flat % channels, e.new_seq);
    }
    let config = TreeConfig::with_capacities(caps.to_vec())
        .map_err(|e| KcError::CorruptStream(format!("bad patch tree config: {e}")))?;
    let compressed = KernelCodec::new(config).compress(&kernel)?;
    Ok(write_container(&compressed))
}

/// Apply a `.bkcp` patch to the base container it was diffed from,
/// returning the complete target **v3** container bytes.
///
/// Verification order: the patch's whole-file checksum first (a
/// corrupted patch is rejected before any field is trusted), then the
/// base digest (wrong or corrupted base), then every rebuilt record
/// against its entry digest, and finally the assembled container against
/// the patch's target digest. The result is byte-identical to
/// serializing the new model as v3 directly.
///
/// # Errors
///
/// [`KcError::IntegrityViolation`] on any digest mismatch (records named
/// `"patch"`, `"base container"`, `"patch entry for node N"`,
/// `"patched container"`), [`KcError::CorruptStream`] on structural
/// damage.
pub fn apply_patch(base_bytes: &[u8], patch_bytes: &[u8]) -> Result<Bytes> {
    let mut buf = verify_patch_envelope(patch_bytes)?;
    buf.advance(4 + 2); // magic + version, validated by the envelope check
    let mut base_digest = [0u8; DIGEST_LEN];
    buf.copy_to_slice(&mut base_digest);
    let found = Digest::of(base_bytes);
    if Digest::from_bytes(base_digest) != found {
        return Err(KcError::IntegrityViolation {
            record: "base container".into(),
            expected: Digest::from_bytes(base_digest).to_hex(),
            found: found.to_hex(),
        });
    }
    let base = read_model_container(base_bytes)?;

    let spec = read_graph_spec(&mut buf)?;
    spec.validate()
        .map_err(|e| KcError::CorruptStream(format!("invalid patch graph section: {e}")))?;
    let need = |buf: &&[u8], n: usize, what: &str| -> Result<()> {
        if buf.remaining() < n {
            Err(KcError::CorruptStream(format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(&buf, 4, "entry count")?;
    let count = buf.get_u32_le() as usize;
    if count > 4096 {
        return Err(KcError::CorruptStream(format!(
            "implausible entry count {count}"
        )));
    }

    let mut records = Vec::with_capacity(count);
    let mut parsed = Vec::with_capacity(count);
    for _ in 0..count {
        need(&buf, 4 + 1 + DIGEST_LEN, "entry header")?;
        let node = buf.get_u32_le();
        let tag = buf.get_u8();
        let mut expected = [0u8; DIGEST_LEN];
        buf.copy_to_slice(&mut expected);
        let expected = Digest::from_bytes(expected);
        let record_bytes = match tag {
            TAG_SAME => {
                need(&buf, 4, "SAME entry")?;
                let idx = buf.get_u32_le() as usize;
                let rec = base.kernels.get(idx).ok_or_else(|| {
                    KcError::CorruptStream(format!(
                        "SAME entry references base record {idx} of {}",
                        base.kernels.len()
                    ))
                })?;
                rec.to_bytes()
            }
            TAG_EDITS => {
                need(&buf, 4 + 1, "EDITS entry header")?;
                let idx = buf.get_u32_le() as usize;
                let base_rec = base.kernels.get(idx).ok_or_else(|| {
                    KcError::CorruptStream(format!(
                        "EDITS entry references base record {idx} of {}",
                        base.kernels.len()
                    ))
                })?;
                let nodes = buf.get_u8() as usize;
                if !(2..=8).contains(&nodes) {
                    return Err(KcError::CorruptStream(format!(
                        "bad patch tree node count {nodes}"
                    )));
                }
                need(&buf, 2 * nodes, "patch tree capacities")?;
                let caps: Vec<usize> = (0..nodes).map(|_| buf.get_u16_le() as usize).collect();
                need(&buf, 4, "edit count")?;
                let n_edits = buf.get_u32_le() as usize;
                if n_edits > base_rec.filters * base_rec.channels {
                    return Err(KcError::CorruptStream(format!(
                        "implausible edit count {n_edits}"
                    )));
                }
                let mut edits = Vec::with_capacity(n_edits);
                for _ in 0..n_edits {
                    need(&buf, 5, "edit")?;
                    let flat = buf.get_u32_le();
                    let kind = buf.get_u8();
                    let new_seq = match kind {
                        EDIT_BITFLIP => {
                            need(&buf, 1, "edit bit index")?;
                            let bit = buf.get_u8();
                            if bit >= 9 {
                                return Err(KcError::CorruptStream(format!(
                                    "edit bit index {bit} out of range"
                                )));
                            }
                            let f = flat as usize / base_rec.channels.max(1);
                            let ch = flat as usize % base_rec.channels.max(1);
                            if flat as usize >= base_rec.filters * base_rec.channels {
                                return Err(KcError::CorruptStream(format!(
                                    "edit position {flat} outside the base kernel"
                                )));
                            }
                            let old = read_sequence(&base_rec.decode_kernel()?, f, ch);
                            old ^ (1u16 << bit)
                        }
                        EDIT_REPLACE => {
                            need(&buf, 2, "edit sequence")?;
                            buf.get_u16_le()
                        }
                        other => {
                            return Err(KcError::CorruptStream(format!(
                                "unknown edit kind {other}"
                            )))
                        }
                    };
                    edits.push(Edit { flat, new_seq });
                }
                rebuild_from_edits(base_rec, &caps, &edits)?
            }
            TAG_FULL => {
                need(&buf, 4, "FULL entry length")?;
                let len = buf.get_u32_le() as usize;
                need(&buf, len, "FULL entry body")?;
                let bytes = Bytes::copy_from_slice(&buf[..len]);
                buf.advance(len);
                bytes
            }
            other => {
                return Err(KcError::CorruptStream(format!(
                    "unknown patch entry tag {other}"
                )))
            }
        };
        let found = Digest::of(&record_bytes);
        if found != expected {
            return Err(KcError::IntegrityViolation {
                record: format!("patch entry for node {node}"),
                expected: expected.to_hex(),
                found: found.to_hex(),
            });
        }
        parsed.push(read_container(&record_bytes)?);
        records.push(record_bytes);
    }

    need(&buf, DIGEST_LEN, "target digest")?;
    let mut target_digest = [0u8; DIGEST_LEN];
    buf.copy_to_slice(&mut target_digest);
    let target_digest = Digest::from_bytes(target_digest);
    if buf.remaining() != DIGEST_LEN {
        return Err(KcError::CorruptStream(format!(
            "{} bytes left after the patch trailer",
            buf.remaining()
        )));
    }

    check_spec_kernels(
        &spec,
        parsed.iter().map(|c| (c.filters, c.channels)),
        parsed.len(),
    )?;
    let out = assemble_v3(&spec, &records)?;
    let found = Digest::of(&out);
    if found != target_digest {
        return Err(KcError::IntegrityViolation {
            record: "patched container".into(),
            expected: target_digest.to_hex(),
            found: found.to_hex(),
        });
    }
    Ok(out)
}

/// Summary of a parsed patch header, for `bnnkc inspect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchInfo {
    /// Digest of the base container the patch applies to.
    pub base_digest: Digest,
    /// Digest of the v3 container the patch produces.
    pub target_digest: Digest,
    /// Entry counts by kind.
    pub stats: PatchStats,
    /// `(node id, tag name, payload bytes)` per entry.
    pub entries: Vec<(u32, &'static str, usize)>,
}

/// Parse a patch's structure without a base container: verifies the
/// whole-file checksum and walks the entries. Used by `bnnkc inspect`.
///
/// # Errors
///
/// Same integrity/structure errors as [`apply_patch`], minus everything
/// that needs the base.
pub fn inspect_patch(patch_bytes: &[u8]) -> Result<PatchInfo> {
    let mut buf = verify_patch_envelope(patch_bytes)?;
    buf.advance(4 + 2);
    let mut base_digest = [0u8; DIGEST_LEN];
    buf.copy_to_slice(&mut base_digest);
    let spec = read_graph_spec(&mut buf)?;
    spec.validate()
        .map_err(|e| KcError::CorruptStream(format!("invalid patch graph section: {e}")))?;
    let need = |buf: &&[u8], n: usize, what: &str| -> Result<()> {
        if buf.remaining() < n {
            Err(KcError::CorruptStream(format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(&buf, 4, "entry count")?;
    let count = buf.get_u32_le() as usize;
    if count > 4096 {
        return Err(KcError::CorruptStream(format!(
            "implausible entry count {count}"
        )));
    }
    let mut stats = PatchStats::default();
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        need(&buf, 4 + 1 + DIGEST_LEN, "entry header")?;
        let node = buf.get_u32_le();
        let tag = buf.get_u8();
        buf.advance(DIGEST_LEN);
        let start = buf.remaining();
        let name = match tag {
            TAG_SAME => {
                need(&buf, 4, "SAME entry")?;
                buf.advance(4);
                stats.same += 1;
                "same"
            }
            TAG_EDITS => {
                need(&buf, 5, "EDITS entry header")?;
                buf.advance(4);
                let nodes = buf.get_u8() as usize;
                need(&buf, 2 * nodes + 4, "EDITS entry tables")?;
                buf.advance(2 * nodes);
                let n_edits = buf.get_u32_le() as usize;
                for _ in 0..n_edits {
                    need(&buf, 5, "edit")?;
                    buf.advance(4);
                    let kind = buf.get_u8();
                    match kind {
                        EDIT_BITFLIP => {
                            need(&buf, 1, "edit bit index")?;
                            buf.advance(1);
                        }
                        EDIT_REPLACE => {
                            need(&buf, 2, "edit sequence")?;
                            buf.advance(2);
                        }
                        other => {
                            return Err(KcError::CorruptStream(format!(
                                "unknown edit kind {other}"
                            )))
                        }
                    }
                }
                stats.edits += 1;
                "edits"
            }
            TAG_FULL => {
                need(&buf, 4, "FULL entry length")?;
                let len = buf.get_u32_le() as usize;
                need(&buf, len, "FULL entry body")?;
                buf.advance(len);
                stats.full += 1;
                "full"
            }
            other => {
                return Err(KcError::CorruptStream(format!(
                    "unknown patch entry tag {other}"
                )))
            }
        };
        entries.push((node, name, start - buf.remaining()));
    }
    need(&buf, DIGEST_LEN, "target digest")?;
    let mut target_digest = [0u8; DIGEST_LEN];
    buf.copy_to_slice(&mut target_digest);
    if buf.remaining() != DIGEST_LEN {
        return Err(KcError::CorruptStream(format!(
            "{} bytes left after the patch trailer",
            buf.remaining()
        )));
    }
    Ok(PatchInfo {
        base_digest: Digest::from_bytes(base_digest),
        target_digest: Digest::from_bytes(target_digest),
        stats,
        entries,
    })
}

/// Check the patch magic, version, and whole-file checksum (the last 16
/// bytes cover everything before them). Returns the full byte slice for
/// field-level parsing — the checksum runs *first* so no other field is
/// ever trusted from a corrupted patch.
fn verify_patch_envelope(patch_bytes: &[u8]) -> Result<&[u8]> {
    // Minimum: magic + version + base digest + (empty graph impossible,
    // but structure errors surface later) + target digest + checksum.
    if patch_bytes.len() < 4 + 2 + DIGEST_LEN + DIGEST_LEN + DIGEST_LEN {
        return Err(KcError::CorruptStream("truncated patch".into()));
    }
    if &patch_bytes[..4] != PATCH_MAGIC {
        return Err(KcError::CorruptStream("bad patch magic".into()));
    }
    let version = u16::from_le_bytes([patch_bytes[4], patch_bytes[5]]);
    if version != PATCH_VERSION {
        return Err(KcError::CorruptStream(format!(
            "unsupported patch version {version:#06x}"
        )));
    }
    let body_len = patch_bytes.len() - DIGEST_LEN;
    let mut stored = [0u8; DIGEST_LEN];
    stored.copy_from_slice(&patch_bytes[body_len..]);
    let stored = Digest::from_bytes(stored);
    let found = Digest::of(&patch_bytes[..body_len]);
    if stored != found {
        return Err(KcError::IntegrityViolation {
            record: "patch".into(),
            expected: stored.to_hex(),
            found: found.to_hex(),
        });
    }
    Ok(patch_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CompressedKernel;
    use crate::container::{write_model_container_v2, write_model_container_v3};
    use bitnn::graph::arch::{build_spec, sample_conv3_kernels, Arch};
    use bitnn::tensor::BitTensor;

    fn model(arch: Arch, seed: u64) -> (bitnn::graph::GraphSpec, Vec<BitTensor>) {
        let spec = build_spec(arch, 0.0625, 32).unwrap();
        let kernels = sample_conv3_kernels(&spec, seed).unwrap();
        (spec, kernels)
    }

    fn compress_all(kernels: &[BitTensor]) -> Vec<CompressedKernel> {
        let codec = KernelCodec::paper();
        kernels.iter().map(|k| codec.compress(k).unwrap()).collect()
    }

    #[test]
    fn identical_models_diff_to_all_same() {
        let (spec, kernels) = model(Arch::VggSmall, 7);
        let cks = compress_all(&kernels);
        let base = write_model_container_v2(&spec, &cks).unwrap();
        let new = write_model_container_v3(&spec, &cks).unwrap();
        let (patch, stats) = diff_containers(&base, &new).unwrap();
        assert_eq!(stats.same, cks.len());
        assert_eq!((stats.edits, stats.full), (0, 0));
        assert!(patch.len() < new.len() / 2, "all-SAME patch must be small");
        let out = apply_patch(&base, &patch).unwrap();
        assert_eq!(out, new, "patched bytes must equal the v3 target exactly");
    }

    #[test]
    fn sparse_changes_become_edits_entries() {
        let (spec, mut kernels) = model(Arch::VggSmall, 7);
        let base = write_model_container_v2(&spec, &compress_all(&kernels)).unwrap();
        // Flip one bit in one channel of kernel 1 (Hamming-1) and fully
        // replace a sequence in kernel 2.
        let seq = read_sequence(&kernels[1], 0, 0);
        write_sequence(&mut kernels[1], 0, 0, seq ^ 1);
        let seq = read_sequence(&kernels[2], 1, 1);
        write_sequence(&mut kernels[2], 1, 1, (seq ^ 0b101) & 0x1FF);
        let cks = compress_all(&kernels);
        let new = write_model_container_v3(&spec, &cks).unwrap();
        let (patch, stats) = diff_containers(&base, &new).unwrap();
        assert!(stats.same >= 1, "untouched kernels must dedupe: {stats:?}");
        assert!(stats.edits >= 1, "sparse changes must delta: {stats:?}");
        let out = apply_patch(&base, &patch).unwrap();
        assert_eq!(out, new);
    }

    #[test]
    fn wrong_base_is_rejected() {
        let (spec, kernels) = model(Arch::VggSmall, 7);
        let (_, other_kernels) = model(Arch::VggSmall, 8);
        let cks = compress_all(&kernels);
        let base = write_model_container_v2(&spec, &cks).unwrap();
        let wrong = write_model_container_v2(&spec, &compress_all(&other_kernels)).unwrap();
        let new = write_model_container_v3(&spec, &cks).unwrap();
        let (patch, _) = diff_containers(&base, &new).unwrap();
        let err = apply_patch(&wrong, &patch).unwrap_err();
        assert!(
            matches!(&err, KcError::IntegrityViolation { record, .. } if record == "base container"),
            "{err}"
        );
    }

    #[test]
    fn v1_base_patches_forward_to_v3() {
        use crate::container::write_model_container;
        let (spec, mut kernels) = model(Arch::ReActNet, 3);
        let base = write_model_container(&compress_all(&kernels));
        let seq = read_sequence(&kernels[0], 0, 0);
        write_sequence(&mut kernels[0], 0, 0, seq ^ 2);
        let new = write_model_container_v3(&spec, &compress_all(&kernels)).unwrap();
        let (patch, _) = diff_containers(&base, &new).unwrap();
        assert_eq!(apply_patch(&base, &patch).unwrap(), new);
    }

    #[test]
    fn v1_diff_target_is_rejected() {
        let (_, kernels) = model(Arch::ReActNet, 3);
        use crate::container::write_model_container;
        let v1 = write_model_container(&compress_all(&kernels));
        let err = diff_containers(&v1, &v1).unwrap_err();
        assert!(matches!(err, KcError::IncompatibleModel(_)), "{err}");
    }

    #[test]
    fn patch_checksum_guards_every_byte() {
        let (spec, kernels) = model(Arch::VggSmall, 11);
        let cks = compress_all(&kernels);
        let base = write_model_container_v2(&spec, &cks).unwrap();
        let new = write_model_container_v3(&spec, &cks).unwrap();
        let (patch, _) = diff_containers(&base, &new).unwrap();
        // Every single-byte corruption must be rejected — the whole-file
        // checksum catches body bytes, the magic/version checks catch the
        // header, and a corrupted checksum no longer matches the body.
        let step = (patch.len() / 97).max(1);
        for pos in (0..patch.len()).step_by(step) {
            let mut bad = patch.to_vec();
            bad[pos] ^= 0x20;
            assert!(
                apply_patch(&base, &bad).is_err(),
                "byte {pos} corrupt patch applied"
            );
        }
    }

    #[test]
    fn inspect_reports_entry_kinds() {
        let (spec, mut kernels) = model(Arch::VggSmall, 5);
        let base = write_model_container_v2(&spec, &compress_all(&kernels)).unwrap();
        let seq = read_sequence(&kernels[0], 0, 0);
        write_sequence(&mut kernels[0], 0, 0, seq ^ 4);
        let new = write_model_container_v3(&spec, &compress_all(&kernels)).unwrap();
        let (patch, stats) = diff_containers(&base, &new).unwrap();
        let info = inspect_patch(&patch).unwrap();
        assert_eq!(info.stats, stats);
        assert_eq!(info.entries.len(), stats.same + stats.edits + stats.full);
        assert_eq!(info.base_digest, Digest::of(&base));
        assert_eq!(info.target_digest, Digest::of(&new));
    }
}
