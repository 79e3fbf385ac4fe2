package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// StreamReader incrementally decodes a trace that is still being
// written: each Poll drains the bytes currently available from the
// underlying reader, decodes every complete record into RecordBatch
// values (stream order, same grouping rules as ReadBatched) and
// buffers the partial record tail for the next Poll. This is the
// decode layer of the live ingest path: a producer appends to a trace
// file while a follower polls it and feeds the batches to
// core.Live.Append.
//
// The underlying reader must report io.EOF at the current end of data
// and return fresh bytes on later Reads once the producer has appended
// more — an *os.File behaves exactly like this. Gzip-compressed traces
// cannot be tailed (the decompressor treats the mid-stream end as
// corruption); ingest.OpenStream refuses them.
//
// StreamReader is not safe for concurrent use; callers serialize Polls
// (core.Live.Feed does so under its epoch lock).
type StreamReader struct {
	r          io.Reader
	buf        []byte // undecoded bytes: a partial record tail
	readBuf    []byte
	headerDone bool
	consumed   int64
	seen       map[CounterID]struct{}
	err        error
}

// NewStreamReader returns a StreamReader decoding the trace stream r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{
		r:       r,
		readBuf: make([]byte, 64<<10),
		seen:    make(map[CounterID]struct{}),
	}
}

// Consumed returns the number of stream bytes fully decoded so far.
// The offset is always record-aligned (header included), so the stream
// prefix of Consumed() bytes is itself a loadable trace — the property
// the batch-equivalence harness checkpoints on.
func (sr *StreamReader) Consumed() int64 { return sr.consumed }

// Buffered returns the number of bytes read but not yet decodable (the
// partial record waiting for the producer's next write).
func (sr *StreamReader) Buffered() int { return len(sr.buf) }

// Done reports whether the stream ended cleanly: nil when every byte
// read so far has been decoded (the stream stopped at a record
// boundary), ErrTruncated when a partial record remains buffered, and
// the sticky decode error if one occurred. A stream that never
// delivered a complete header reports ErrBadMagic, as an empty stream
// does.
func (sr *StreamReader) Done() error {
	if sr.err != nil {
		return sr.err
	}
	if !sr.headerDone {
		return ErrBadMagic
	}
	if len(sr.buf) != 0 {
		return ErrTruncated
	}
	return nil
}

// Poll drains the bytes currently available from the underlying reader
// and decodes every complete record, delivering them as batches to
// emit in stream order. It returns the number of records decoded this
// poll. Reading and decoding interleave chunk by chunk, so attaching
// to a large existing trace never buffers more than one read chunk
// plus a partial record — not the whole backlog. Running out of data
// mid-record is not an error — the partial tail is kept for the next
// Poll; framing and decode errors (and errors returned by emit) are
// sticky and returned by every subsequent call.
func (sr *StreamReader) Poll(emit func(*RecordBatch) error) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	total := 0
	st := &pollState{b: &RecordBatch{MaxCPU: -1}, emit: emit}
	// fail delivers the records decoded before the failure — they are
	// valid and counted in Consumed() — then makes the error sticky.
	fail := func(err error) (int, error) {
		_ = sr.flush(st)
		sr.err = err
		return total, err
	}
	for {
		n, err := sr.r.Read(sr.readBuf)
		if n > 0 {
			sr.buf = append(sr.buf, sr.readBuf[:n]...)
			d, derr := sr.decodeBuffered(st)
			total += d
			if derr != nil {
				return fail(derr)
			}
		}
		if err == io.EOF || (err == nil && n == 0) {
			break
		}
		if err != nil {
			return fail(err)
		}
	}
	if err := sr.flush(st); err != nil {
		sr.err = err
		return total, err
	}
	return total, nil
}

// pollState is one Poll's batch-building state, shared across the
// per-chunk decode passes.
type pollState struct {
	b    *RecordBatch
	nrec int
	emit func(*RecordBatch) error
}

// flush emits the current batch, if non-empty, and starts a fresh one.
// The batch is consumed even when emit fails: a batch handed to emit
// must never be delivered twice (the failure path flushes once more to
// deliver records decoded before the error).
func (sr *StreamReader) flush(st *pollState) error {
	if st.b.empty() {
		return nil
	}
	b := st.b
	st.b = &RecordBatch{MaxCPU: -1}
	st.nrec = 0
	clear(sr.seen)
	return st.emit(b)
}

// decodeBuffered decodes every complete record currently buffered into
// the poll's batch, flushing at batchRecords granularity, and compacts
// the partial tail to the front of the buffer.
func (sr *StreamReader) decodeBuffered(st *pollState) (int, error) {
	off := 0
	if !sr.headerDone {
		n, err := sr.parseHeader()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil // header still incomplete
		}
		off = n
		sr.headerDone = true
		sr.consumed += int64(n)
	}
	total := 0
	for {
		kind, kn := binary.Uvarint(sr.buf[off:])
		if kn == 0 {
			break // record tag incomplete
		}
		if kn < 0 {
			return total, fmt.Errorf("trace: reading record kind: varint overflow")
		}
		size, sn := binary.Uvarint(sr.buf[off+kn:])
		if sn == 0 {
			break
		}
		if sn < 0 {
			return total, ErrTruncated
		}
		if size > maxRecordSize {
			return total, fmt.Errorf("trace: record payload of %d bytes exceeds the %d byte limit", size, maxRecordSize)
		}
		need := kn + sn + int(size)
		if len(sr.buf)-off < need {
			break // payload incomplete
		}
		if err := decodeInto(kind, sr.buf[off+kn+sn:off+need], st.b, sr.seen); err != nil {
			return total, err
		}
		off += need
		sr.consumed += int64(need)
		total++
		if st.nrec++; st.nrec >= batchRecords {
			if err := sr.flush(st); err != nil {
				return total, err
			}
		}
	}
	// Keep the partial tail, compacted to the front of the buffer.
	sr.buf = append(sr.buf[:0], sr.buf[off:]...)
	return total, nil
}

// parseHeader validates the stream magic and version once both are
// fully buffered, returning the header length (0 when more bytes are
// needed).
func (sr *StreamReader) parseHeader() (int, error) {
	if len(sr.buf) < len(magic) {
		return 0, nil
	}
	for i := range magic {
		if sr.buf[i] != magic[i] {
			return 0, ErrBadMagic
		}
	}
	version, n := binary.Uvarint(sr.buf[len(magic):])
	if n == 0 {
		return 0, nil
	}
	if n < 0 {
		return 0, fmt.Errorf("trace: reading version: varint overflow")
	}
	if version > formatVersion {
		return 0, fmt.Errorf("trace: unsupported format version %d (max %d)", version, formatVersion)
	}
	return len(magic) + n, nil
}
