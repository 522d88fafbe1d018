package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/model"
)

// Snapshot file format ("TTCSNAP2"). It is chunked so the encoder can
// stream a large model straight to the file through a bounded buffer
// instead of materializing the whole image in memory (and so the serving
// writer never stalls for the encode — it hands off a copy-on-write view
// and keeps committing):
//
//	8-byte magic | u64 seq | u64 meta | u32 CRC-32C of seq+meta |
//	( u32 len>0 | u32 CRC-32C of chunk | chunk bytes )* |
//	u32 0 | u32 chunk count
//
// The chunk payloads concatenate to the body: the five entity arrays, one
// per family in model.KeyKind order, each as a u64 count and its entities'
// fields as fixed-width little-endian int64s, in model's codec order
// (model.KeyKind.Fields). Chunk boundaries carry no meaning beyond the
// encoder's buffer limit. Every chunk carries its own CRC, so corruption
// is localized and detected without buffering the whole file's checksum
// state, and the zero-length terminator (whose CRC field holds the chunk
// count) proves the image is complete.
//
// Snapshots are written through replaceFile, so a visible snap-*.snap is
// always complete; the CRCs guard against latent media corruption, and
// recovery falls back to the previous snapshot if the newest fails them.

const (
	snapshotMagic = "TTCSNAP2"

	// defaultSnapChunk is the streaming encoder's buffer bound: chunks are
	// flushed once they reach this size (plus at most one entity).
	defaultSnapChunk = 256 << 10

	// maxSnapChunkLen bounds a declared chunk length so a corrupt length
	// field cannot drive a giant allocation before the remaining-bytes
	// check would catch it.
	maxSnapChunkLen = 64 << 20

	// snapBatch is how many entities the codec moves between a snapshot
	// and its fields at a time.
	snapBatch = 256
)

// chunkWriter frames the streaming encoder's output: entities accumulate
// in a bounded buffer that is flushed as one CRC-checked chunk whenever it
// reaches the limit. A chunk is framed as a WAL record is: buf keeps
// recHeaderSize bytes in front of the chunk for fillFrameHeader, and
// limit counts them. onChunk (when non-nil) observes progress after every
// flushed chunk; returning an error aborts the stream.
type chunkWriter struct {
	w       io.Writer
	buf     []byte
	limit   int
	chunks  uint32
	written int64
	onChunk func(written int) error
}

func (cw *chunkWriter) flush() error {
	if len(cw.buf) == recHeaderSize {
		return nil
	}
	fillFrameHeader(cw.buf)
	if _, err := cw.w.Write(cw.buf); err != nil {
		return err
	}
	cw.written += int64(len(cw.buf))
	cw.chunks++
	cw.buf = cw.buf[:recHeaderSize]
	if cw.onChunk != nil {
		return cw.onChunk(int(cw.written))
	}
	return nil
}

func (cw *chunkWriter) maybeFlush() error {
	if len(cw.buf) >= cw.limit {
		return cw.flush()
	}
	return nil
}

// put appends entities of width fields each, whose fields vals holds, and
// flushes the buffer after each entity that takes it to the limit.
func (cw *chunkWriter) put(vals []int64, width int) error {
	size := 8 * width
	for len(vals) > 0 {
		// The entities up to the one that reaches the limit.
		k := min(len(vals), max(1, (cw.limit-len(cw.buf)+size-1)/size)*width)
		buf := cw.buf
		for _, v := range vals[:k] {
			buf = appendUint64(buf, uint64(v))
		}
		cw.buf, vals = buf, vals[k:]
		if err := cw.maybeFlush(); err != nil {
			return err
		}
	}
	return nil
}

// terminator flushes the final partial chunk and writes the zero-length
// end marker carrying the chunk count.
func (cw *chunkWriter) terminator() error {
	if err := cw.flush(); err != nil {
		return err
	}
	var end [8]byte
	binary.LittleEndian.PutUint32(end[4:8], cw.chunks)
	if _, err := cw.w.Write(end[:]); err != nil {
		return err
	}
	cw.written += int64(len(end))
	return nil
}

// Entities is what a snapshot is written from: the five entity arrays,
// read through their lengths and their fields in codec order, as a
// *model.Snapshot or a State's *model.View holds them.
type Entities interface {
	Len(f model.KeyKind) int
	AppendFields(dst []int64, f model.KeyKind, i, j int) []int64
}

// encodeSnapshotStream writes a snapshot to w chunk by chunk,
// never holding more than ~chunkBytes of encoded state in memory.
func encodeSnapshotStream(w io.Writer, seq, meta uint64, s Entities, chunkBytes int, onChunk func(int) error) error {
	if chunkBytes <= 0 {
		chunkBytes = defaultSnapChunk
	}
	var hdr []byte
	hdr = append(hdr, snapshotMagic...)
	hdr = appendUint64(hdr, seq)
	hdr = appendUint64(hdr, meta)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr[len(snapshotMagic):], castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	cw := &chunkWriter{w: w, buf: make([]byte, recHeaderSize, recHeaderSize+chunkBytes+64), limit: recHeaderSize + chunkBytes, onChunk: onChunk}
	// Each entity is appended whole, then the buffer is flushed if it
	// crossed the limit — a chunk never splits an entity's fields, but that
	// is an encoder convenience, not a format guarantee the decoder relies
	// on (it reassembles the body before parsing).
	var vals [snapBatch * model.MaxFields]int64
	for f := model.KeyKind(0); f < model.Families; f++ {
		n, width := s.Len(f), len(f.Fields())
		cw.buf = appendUint64(cw.buf, uint64(n))
		for i := 0; i < n; i += snapBatch {
			if err := cw.put(s.AppendFields(vals[:0], f, i, min(i+snapBatch, n)), width); err != nil {
				return err
			}
		}
	}
	return cw.terminator()
}

// decodeSnapshot parses an encoded snapshot: header CRC, then per-chunk
// CRCs, then the terminator's chunk count, then the reassembled body. Like
// decodePayload it is total: arbitrary bytes decode or error, never panic.
func decodeSnapshot(data []byte) (seq, meta uint64, _ *model.Snapshot, _ error) {
	fail := func(err error) (uint64, uint64, *model.Snapshot, error) { return 0, 0, nil, err }
	hdrLen := len(snapshotMagic) + 2*8 + 4
	if len(data) < hdrLen+8 {
		return fail(fmt.Errorf("wal: snapshot too short (%d bytes)", len(data)))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fail(fmt.Errorf("wal: bad snapshot magic %q", data[:len(snapshotMagic)]))
	}
	hdrBody := data[len(snapshotMagic) : hdrLen-4]
	if crc32.Checksum(hdrBody, castagnoli) != binary.LittleEndian.Uint32(data[hdrLen-4:hdrLen]) {
		return fail(fmt.Errorf("wal: snapshot header checksum mismatch"))
	}
	seq = binary.LittleEndian.Uint64(hdrBody[0:8])
	meta = binary.LittleEndian.Uint64(hdrBody[8:16])

	var body []byte
	chunks := uint32(0)
	off := hdrLen
	for {
		if len(data)-off < 8 {
			return fail(fmt.Errorf("wal: snapshot truncated before chunk %d terminator", chunks))
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		off += 8
		if length == 0 {
			if crc != chunks {
				return fail(fmt.Errorf("wal: snapshot terminator claims %d chunks, read %d", crc, chunks))
			}
			break
		}
		if length > maxSnapChunkLen {
			return fail(fmt.Errorf("wal: snapshot chunk length %d exceeds limit", length))
		}
		if int(length) > len(data)-off {
			return fail(fmt.Errorf("wal: snapshot chunk %d of %d bytes exceeds remaining %d", chunks, length, len(data)-off))
		}
		chunk := data[off : off+int(length)]
		if crc32.Checksum(chunk, castagnoli) != crc {
			return fail(fmt.Errorf("wal: snapshot chunk %d checksum mismatch", chunks))
		}
		body = append(body, chunk...)
		off += int(length)
		chunks++
	}
	if off != len(data) {
		return fail(fmt.Errorf("wal: %d trailing bytes after snapshot terminator", len(data)-off))
	}
	s, err := parseSnapshotArrays(&byteReader{b: body})
	if err != nil {
		return fail(err)
	}
	return seq, meta, s, nil
}

// parseSnapshotArrays decodes the five entity arrays — the shared body
// layout — consuming the reader fully.
func parseSnapshotArrays(r *byteReader) (*model.Snapshot, error) {
	s := &model.Snapshot{}
	var vals [snapBatch * model.MaxFields]int64
	for f := model.KeyKind(0); f < model.Families; f++ {
		// The count is checked against the bytes present, 8 per field, so
		// the fields below cannot run past the end. A zero count leaves the
		// array nil, so a decoded snapshot is DeepEqual to the encoded one.
		n, err := r.u64()
		if err != nil {
			return nil, err
		}
		width := len(f.Fields())
		if n > uint64(r.remaining()/(8*width)) {
			return nil, fmt.Errorf("wal: snapshot count %d exceeds remaining bytes", n)
		}
		s.Grow(f, int(n))
		for left := int(n); left > 0; {
			batch := vals[:min(left, snapBatch)*width]
			for k := range batch {
				batch[k] = int64(binary.LittleEndian.Uint64(r.b[r.off:]))
				r.off += 8
			}
			s.AppendEntities(f, batch)
			left -= len(batch) / width
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after snapshot body", r.remaining())
	}
	return s, nil
}
