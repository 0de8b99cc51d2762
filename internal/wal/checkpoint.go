package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
)

// Checkpoint is a serialized epoch: everything needed to rebuild a serving
// handle at sequence Seq without replaying history before it.
//
// Dict holds the dictionary prefix [0, hwm) — the strings the journal had
// durably assigned IDs to when the checkpoint was taken. Every ID the
// tables, views and replayable log suffix reference is below hwm or is
// assigned by a suffix record's own growth section, so restoring this
// prefix and replaying reproduces identical IDs. Strings interned after
// hwm (reader-side interning not yet journaled) are deliberately excluded:
// the record that journals them re-assigns the same IDs on replay.
//
// Views holds every view's counted extent, whatever the shard count it
// was written at: a restore at any shard count seeds its engines from
// them instead of enumerating the views. Files without Views (written
// before extents were checkpointed at every shard count) restore by
// enumeration.
//
// A checkpoint carries no statistics: the restored engines count them
// exactly from the tables and extents. Files written when it did still
// decode, since gob skips stream fields the struct lacks.
type Checkpoint struct {
	Seq    uint64
	Dict   []string
	Tables []TableRows
	Views  []ViewExtent
}

// TableRows is one relation's ID shadow in storage order.
type TableRows struct {
	Rel  string
	Rows [][]uint32
}

// ViewExtent is one view's counted extent (rows aligned with their
// derivation counts), mirroring eval.Extent.
type ViewExtent struct {
	Name   string
	Rows   [][]uint32
	Counts []int
}

// Checkpoint files: fixed header, gob-encoded Checkpoint, trailing CRC32
// over everything before it. Written to a temp file, fsynced, renamed —
// a checkpoint either exists completely or not at all.
const (
	ckptMagic   = "REPROCKP"
	walMagic    = "REPROWAL"
	walVersion  = 1
	fileHeader  = 8 + 4 + 8 + 8 + 8 // magic, version, schemaFP, viewsFP, firstSeq/seq
	ckptTrailer = 4
)

// fileHeaderBytes renders the shared segment/checkpoint header.
func fileHeaderBytes(magic string, schemaFP, viewsFP, seq uint64) []byte {
	b := make([]byte, fileHeader)
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[8:], walVersion)
	binary.LittleEndian.PutUint64(b[12:], schemaFP)
	binary.LittleEndian.PutUint64(b[20:], viewsFP)
	binary.LittleEndian.PutUint64(b[28:], seq)
	return b
}

// parseFileHeader validates the magic/version and checks the fingerprints
// against the opener's: a schema or view-set mismatch means the durable
// state belongs to a different system and must not be replayed into this
// one (IDs and plan constants would not line up).
func parseFileHeader(b []byte, magic string, o Options) (seq uint64, err error) {
	if len(b) < fileHeader {
		return 0, fmt.Errorf("wal: file shorter than its header")
	}
	if string(b[:8]) != magic {
		return 0, fmt.Errorf("wal: bad magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != walVersion {
		return 0, fmt.Errorf("wal: unsupported version %d", v)
	}
	if fp := binary.LittleEndian.Uint64(b[12:]); fp != o.SchemaFP {
		return 0, fmt.Errorf("wal: durable state was written for a different schema (fingerprint %x, want %x)", fp, o.SchemaFP)
	}
	if fp := binary.LittleEndian.Uint64(b[20:]); fp != o.ViewsFP {
		return 0, fmt.Errorf("wal: durable state was written for a different view set (fingerprint %x, want %x)", fp, o.ViewsFP)
	}
	return binary.LittleEndian.Uint64(b[28:]), nil
}

// encodeCheckpoint renders the complete checkpoint file contents.
func encodeCheckpoint(ck *Checkpoint, o Options) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(fileHeaderBytes(ckptMagic, o.SchemaFP, o.ViewsFP, ck.Seq))
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("wal: encode checkpoint: %w", err)
	}
	sum := crc32.Checksum(buf.Bytes(), crcTable)
	b := buf.Bytes()
	return binary.LittleEndian.AppendUint32(b, sum), nil
}

// readCheckpointFile loads and fully validates one checkpoint file.
func readCheckpointFile(path string, o Options) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < fileHeader+ckptTrailer {
		return nil, fmt.Errorf("wal: checkpoint %s truncated", path)
	}
	body, tail := b[:len(b)-ckptTrailer], b[len(b)-ckptTrailer:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint %s fails its checksum", path)
	}
	seq, err := parseFileHeader(body, ckptMagic, o)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", path, err)
	}
	ck := &Checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(body[fileHeader:])).Decode(ck); err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: decode: %w", path, err)
	}
	if ck.Seq != seq {
		return nil, fmt.Errorf("wal: checkpoint %s: header seq %d != body seq %d", path, seq, ck.Seq)
	}
	return ck, nil
}
