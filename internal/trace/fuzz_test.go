package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/iotest"
)

// fuzzSeedTrace builds a small well-formed trace exercising every
// record kind, used as the structured fuzz seed.
func fuzzSeedTrace(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	steps := []func() error{
		func() error {
			return w.WriteTopology(Topology{
				Name: "fuzz", NumNodes: 2,
				NodeOfCPU: []int32{0, 1},
				Distance:  []int32{0, 1, 1, 0},
			})
		},
		func() error { return w.WriteTaskType(TaskType{ID: 1, Addr: 0x400, Name: "work"}) },
		func() error { return w.WriteTask(Task{ID: 1, Type: 1, Created: 5, CreatorCPU: 0}) },
		func() error {
			return w.WriteState(StateEvent{CPU: 0, State: StateTaskExec, Start: 10, End: 90, Task: 1})
		},
		func() error {
			return w.WriteDiscrete(DiscreteEvent{CPU: 1, Kind: EventSteal, Time: 15, Arg: 1})
		},
		func() error {
			return w.WriteCounterDesc(CounterDesc{ID: 7, Name: CounterCacheMisses, Monotonic: true})
		},
		func() error { return w.WriteSample(CounterSample{CPU: 0, Counter: 7, Time: 20, Value: 100}) },
		func() error {
			return w.WriteComm(CommEvent{Kind: CommRead, CPU: 0, SrcCPU: -1, Time: 12, Task: 1, Addr: 0x1000, Size: 64})
		},
		func() error { return w.WriteRegion(MemRegion{ID: 1, Addr: 0x1000, Size: 4096, Node: 1}) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace: arbitrary bytes through ReadBatched on one worker (the
// StreamReader path) and on four (the parallel framing/decode
// pipeline), and through a StreamReader fed one byte at a time, must
// return an error or decode cleanly — never panic, and never allocate
// proportionally to corrupt length fields. All three must agree on
// whether the input is a valid trace and, when it is, record by
// record.
func FuzzReadTrace(f *testing.F) {
	valid := fuzzSeedTrace(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	f.Add([]byte{})
	f.Add([]byte("ATMG"))                                       // header only, no version
	f.Add([]byte("ATMG\x01"))                                   // empty valid trace
	f.Add([]byte("not a trace at all"))                         // bad magic
	f.Add([]byte("ATMG\x01\x04\xff\xff\xff\xff\x0f"))           // state record, huge payload length
	f.Add([]byte("ATMG\x01\x01\x03foo"))                        // topology with garbage payload
	f.Add([]byte("ATMG\x01\x01\x06\x00\xff\xff\xff\xff\x0f"))   // topology claiming 2^32 nodes
	f.Add([]byte("ATMG\x01\x04\x05\x7f\x00\x00\x00\x00"))       // state on implausible CPU 127... truncated
	f.Add([]byte("ATMG\x01\x63\x02\x01\x02"))                   // unknown record kind 0x63, skipped
	f.Add(append(append([]byte{}, valid...), 0x04, 0x02, 0x01)) // valid trace + trailing truncated record

	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference: a StreamReader fed one byte per Read, so every
		// record and the header straddle read boundaries.
		ref := &RecordBatch{MaxCPU: -1}
		sr := NewStreamReader(iotest.OneByteReader(bytes.NewReader(data)))
		_, refErr := sr.Poll(func(b *RecordBatch) error { collectBatches(ref, b); return nil })
		if refErr == nil {
			refErr = sr.Done()
		}

		for _, workers := range []int{1, 4} {
			got, err := readAll(bytes.NewReader(data), workers)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("workers=%d: batched err = %v, byte-wise stream err = %v", workers, err, refErr)
			}
			if refErr == nil && !reflect.DeepEqual(got, ref) {
				t.Fatalf("workers=%d: records diverge\nstream: %+v\nbatched: %+v", workers, ref, got)
			}
		}
	})
}
