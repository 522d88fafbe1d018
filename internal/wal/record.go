package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/model"
)

// On-disk framing. A segment file is the 8-byte segment magic followed by a
// sequence of records; each record is
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// and a payload is
//
//	u64 batch sequence number | u32 change count | changes
//
// where each change is a one-byte kind tag followed by the fields of the
// entity family the kind carries, as fixed-width int64s in model's codec
// order (model.KeyKind.Fields: 2 for a post, 4 for a comment, 1 for a
// user, 2 for a friendship or like edge). Everything is little-endian.
// The CRC covers only the payload: a torn write corrupts either the
// length/CRC header (detected by a short read or an absurd length) or the
// payload (detected by the CRC), and either way the record and everything
// after it is discarded as the un-committed tail.

const (
	segmentMagic  = "TTCWAL01"
	recHeaderSize = 8 // u32 length + u32 crc

	// maxRecordLen bounds a record's payload so a corrupt length prefix
	// cannot drive a giant allocation. 64 MiB is far beyond any real batch
	// (a change encodes in at most 33 bytes).
	maxRecordLen = 64 << 20

	// minChangeSize is the smallest encoded change (kind byte plus one
	// int64 field); the decoder uses it to sanity-check the declared
	// change count against the bytes actually present.
	minChangeSize = 1 + 8
)

// castagnoli is the CRC-32C table; the same polynomial storage systems
// conventionally use for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch is one committed update batch as stored in the log.
type Batch struct {
	// Seq is the batch's commit sequence number (1 = first committed batch
	// after the initial evaluation).
	Seq uint64
	// Changes is the batch's change set, in commit order.
	Changes []model.Change
}

// appendUint64 builds payloads without intermediate buffers.
func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// encodePayload serializes a batch into a record payload.
func encodePayload(dst []byte, seq uint64, changes []model.Change) ([]byte, error) {
	dst = appendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(changes)))
	var vals [model.MaxFields]int64
	for i := range changes {
		ch := &changes[i]
		f, ok := ch.Kind.Family()
		if !ok {
			return nil, fmt.Errorf("wal: cannot encode unknown change kind %d", ch.Kind)
		}
		dst = append(dst, byte(ch.Kind))
		for _, v := range ch.AppendFields(vals[:0], f) {
			dst = appendUint64(dst, uint64(v))
		}
	}
	return dst, nil
}

// byteReader walks a payload with explicit bounds checks so arbitrary bytes
// can never index out of range — decoding errors, never panics.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("wal: truncated payload at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// decodePayload parses a record payload back into a Batch. It is total: any
// byte slice either decodes into a valid batch or returns an error.
func decodePayload(p []byte) (Batch, error) {
	r := &byteReader{b: p}
	seq, err := r.u64()
	if err != nil {
		return Batch{}, err
	}
	count, err := r.u32()
	if err != nil {
		return Batch{}, err
	}
	if int(count) > r.remaining()/minChangeSize {
		return Batch{}, fmt.Errorf("wal: change count %d exceeds payload capacity", count)
	}
	b := Batch{Seq: seq, Changes: make([]model.Change, count)}
	var vals [model.MaxFields]int64
	for i := range b.Changes {
		ch := &b.Changes[i]
		kind, err := r.byte()
		if err != nil {
			return Batch{}, err
		}
		ch.Kind = model.ChangeKind(kind)
		f, ok := ch.Kind.Family()
		if !ok {
			return Batch{}, fmt.Errorf("wal: unknown change kind %d at change %d", kind, i)
		}
		fields := vals[:len(f.Fields())]
		for k := range fields {
			v, err := r.u64()
			if err != nil {
				return Batch{}, err
			}
			fields[k] = int64(v)
		}
		ch.SetFields(f, fields)
	}
	if r.remaining() != 0 {
		return Batch{}, fmt.Errorf("wal: %d trailing bytes after %d changes", r.remaining(), count)
	}
	return b, nil
}

// fillFrameHeader writes the length/CRC header over buf's first
// recHeaderSize bytes, framing the payload that follows them — the single
// definition of the frame layout (Append's pooled-buffer path, frameRecord
// and the snapshot's chunkWriter all go through it).
func fillFrameHeader(buf []byte) {
	payload := buf[recHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
}

// frameRecord wraps a payload in the length/CRC header.
func frameRecord(payload []byte) []byte {
	out := make([]byte, recHeaderSize+len(payload))
	copy(out[recHeaderSize:], payload)
	fillFrameHeader(out)
	return out
}
