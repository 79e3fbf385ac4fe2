package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBadMagic reports that the stream is not an Aftermath trace.
var ErrBadMagic = errors.New("trace: bad magic (not an Aftermath trace)")

// ErrTruncated reports a stream that ends inside a record.
var ErrTruncated = errors.New("trace: truncated record")

// maxRecordSize bounds a single record's payload. Real records are a
// handful of varints (the largest, a topology for thousands of CPUs,
// stays in kilobytes); a length field beyond this bound is a corrupt
// or malicious stream, rejected before any allocation happens.
const maxRecordSize = 1 << 28

// MaxCPUID bounds the CPU ids the decoders accept. The format stores
// CPU ids as varints, so a corrupt stream can claim ids near 2^31;
// consumers index per-CPU arrays by id, which such ids would blow up.
// No machine the trace model targets comes near a million CPUs.
const MaxCPUID = 1 << 20

// payloadChunk bounds how far the framing stage grows a payload
// buffer ahead of the bytes that actually arrived: a corrupt length
// field costs at most one chunk before the stream runs dry.
const payloadChunk = 1 << 20

// dec decodes a record payload.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.err = ErrTruncated
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.err = ErrTruncated
		return false
	}
	v := d.b[d.off] != 0
	d.off++
	return v
}

// cpuID decodes a CPU id and rejects implausible values: ids above
// MaxCPUID always (consumers size per-CPU arrays by id), and negative
// ids unless the field admits the -1 "no CPU" sentinel.
func (d *dec) cpuID(allowNone bool) int32 {
	v := d.varint()
	if d.err != nil {
		return 0
	}
	min := int64(0)
	if allowNone {
		min = -1
	}
	if v < min || v > MaxCPUID {
		d.err = fmt.Errorf("trace: implausible CPU id %d", v)
		return 0
	}
	return int32(v)
}

// count decodes an element count for an array whose elements occupy
// at least one payload byte each, so any count beyond the remaining
// payload is provably corrupt and rejected before allocation.
func (d *dec) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.err = ErrTruncated
		return 0
	}
	return int(v)
}

// decodeTopology decodes a topology payload for decodeInto. The
// element counts are validated against the remaining payload, so
// corrupt streams cannot demand huge arrays.
func decodeTopology(d *dec) (Topology, error) {
	var t Topology
	t.Name = d.str()
	numNodes := d.count()
	t.NumNodes = int32(numNodes)
	t.NodeOfCPU = make([]int32, d.count())
	for i := range t.NodeOfCPU {
		t.NodeOfCPU[i] = int32(d.uvarint())
	}
	if d.err == nil && int64(numNodes)*int64(numNodes) > int64(len(d.b)-d.off) {
		d.err = ErrTruncated
	}
	if d.err != nil {
		return Topology{}, d.err
	}
	t.Distance = make([]int32, numNodes*numNodes)
	for i := range t.Distance {
		t.Distance[i] = int32(d.uvarint())
	}
	if d.err != nil {
		return Topology{}, d.err
	}
	return t, nil
}
