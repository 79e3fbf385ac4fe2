package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// readAll decodes r with ReadBatched on the given number of workers
// and merges every batch, in stream order, into one.
func readAll(r io.Reader, workers int) (*RecordBatch, error) {
	all := &RecordBatch{MaxCPU: -1}
	err := ReadBatched(r, workers, func(b *RecordBatch) error {
		collectBatches(all, b)
		return nil
	})
	return all, err
}

func nopEmit(*RecordBatch) error { return nil }

func TestRoundTripAllKinds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	topo := Topology{
		Name:      "test-machine",
		NumNodes:  2,
		NodeOfCPU: []int32{0, 0, 1, 1},
		Distance:  []int32{0, 1, 1, 0},
	}
	tt := TaskType{ID: 7, Addr: 0x401000, Name: "seidel_block"}
	task := Task{ID: 42, Type: 7, Created: 1000, CreatorCPU: 2}
	st := StateEvent{CPU: 3, State: StateTaskExec, Start: 2000, End: 5000, Task: 42}
	de := DiscreteEvent{CPU: 3, Kind: EventSteal, Time: 1999, Arg: 42}
	cd := CounterDesc{ID: 1, Name: CounterBranchMisses, Monotonic: true}
	cs := CounterSample{CPU: 3, Counter: 1, Time: 2000, Value: 123456}
	ce := CommEvent{Kind: CommRead, CPU: 3, SrcCPU: -1, Time: 2001, Task: 42, Addr: 0xdead0000, Size: 65536}
	mr := MemRegion{ID: 5, Addr: 0xdead0000, Size: 1 << 20, Node: 1}

	for _, step := range []func() error{
		func() error { return w.WriteTopology(topo) },
		func() error { return w.WriteTaskType(tt) },
		func() error { return w.WriteTask(task) },
		func() error { return w.WriteState(st) },
		func() error { return w.WriteDiscrete(de) },
		func() error { return w.WriteCounterDesc(cd) },
		func() error { return w.WriteSample(cs) },
		func() error { return w.WriteComm(ce) },
		func() error { return w.WriteRegion(mr) },
		w.Flush,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	c, err := readAll(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Topologies) != 1 || !reflect.DeepEqual(c.Topologies[0], topo) {
		t.Errorf("topology mismatch: %+v", c.Topologies)
	}
	if len(c.TaskTypes) != 1 || c.TaskTypes[0] != tt {
		t.Errorf("task type mismatch: %+v", c.TaskTypes)
	}
	if len(c.Tasks) != 1 || c.Tasks[0] != task {
		t.Errorf("task mismatch: %+v", c.Tasks)
	}
	if len(c.States) != 1 || c.States[0] != st {
		t.Errorf("state mismatch: %+v", c.States)
	}
	if len(c.Discrete) != 1 || c.Discrete[0] != de {
		t.Errorf("discrete mismatch: %+v", c.Discrete)
	}
	if len(c.Descs) != 1 || c.Descs[0] != cd {
		t.Errorf("counter desc mismatch: %+v", c.Descs)
	}
	if len(c.Samples) != 1 || c.Samples[0] != cs {
		t.Errorf("sample mismatch: %+v", c.Samples)
	}
	if len(c.Comms) != 1 || c.Comms[0] != ce {
		t.Errorf("comm mismatch: %+v", c.Comms)
	}
	if len(c.Regions) != 1 || c.Regions[0] != mr {
		t.Errorf("region mismatch: %+v", c.Regions)
	}
}

func TestPerCPUOrderEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteState(StateEvent{CPU: 0, Start: 100, End: 200}); err != nil {
		t.Fatal(err)
	}
	// Same CPU, earlier start: must be rejected.
	if err := w.WriteState(StateEvent{CPU: 0, Start: 50, End: 60}); err == nil {
		t.Error("expected out-of-order error on same CPU")
	}
	// Different CPU, earlier start: interleaving across CPUs is free.
	if err := w.WriteState(StateEvent{CPU: 1, Start: 50, End: 60}); err != nil {
		t.Errorf("cross-CPU interleaving should be allowed: %v", err)
	}
	// Samples of different counters on the same CPU are ordered
	// independently.
	if err := w.WriteSample(CounterSample{CPU: 0, Counter: 1, Time: 500}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSample(CounterSample{CPU: 0, Counter: 2, Time: 100}); err != nil {
		t.Errorf("samples of a different counter should order independently: %v", err)
	}
	if err := w.WriteSample(CounterSample{CPU: 0, Counter: 1, Time: 400}); err == nil {
		t.Error("expected out-of-order error for same counter/CPU")
	}
}

func TestNegativeDurationRejected(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteState(StateEvent{CPU: 0, Start: 100, End: 50}); err == nil {
		t.Error("expected error for end < start")
	}
}

func TestBadMagic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := ReadBatched(strings.NewReader("not a trace"), workers, nopEmit); err != ErrBadMagic {
			t.Errorf("workers=%d: got %v, want ErrBadMagic", workers, err)
		}
		if err := ReadBatched(strings.NewReader(""), workers, nopEmit); err != ErrBadMagic {
			t.Errorf("workers=%d: empty stream: got %v, want ErrBadMagic", workers, err)
		}
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTask(Task{ID: 1, Type: 1, Created: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, workers := range []int{1, 4} {
		if err := ReadBatched(bytes.NewReader(b[:len(b)-1]), workers, nopEmit); err != ErrTruncated {
			t.Errorf("workers=%d: got %v, want ErrTruncated", workers, err)
		}
	}
}

// TestUnknownRecordSkipped verifies forward compatibility: a record
// with an unknown kind tag is skipped and the following records still
// decode.
func TestUnknownRecordSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTask(Task{ID: 1, Type: 2, Created: 3, CreatorCPU: 4}); err != nil {
		t.Fatal(err)
	}
	// Forge a record with kind 99 directly in the stream.
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	if err := w.record(99, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTask(Task{ID: 2, Type: 2, Created: 5, CreatorCPU: 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		c, err := readAll(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Tasks) != 2 {
			t.Errorf("workers=%d: got %d tasks, want 2", workers, len(c.Tasks))
		}
	}
}

// TestOmittedKindsTolerated verifies the incremental approach of
// Section VI-A: a consumer interested only in states can read a trace
// that contains many kinds, and a trace without memory accesses still
// loads.
func TestOmittedKindsTolerated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteState(StateEvent{CPU: 0, State: StateTaskExec, Start: 0, End: 10, Task: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteComm(CommEvent{Kind: CommWrite, CPU: 0, SrcCPU: -1, Time: 9, Task: 1, Addr: 16, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var states int
	if err := ReadBatched(bytes.NewReader(buf.Bytes()), 1, func(b *RecordBatch) error {
		states += len(b.States)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if states != 1 {
		t.Errorf("got %d states, want 1", states)
	}
}

func TestFileRoundTripPlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.atm", "t.atm.gz"} {
		path := filepath.Join(dir, name)
		fw, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]StateEvent, 100)
		for i := range want {
			want[i] = StateEvent{
				CPU:   int32(i % 4),
				State: WorkerState(i % NumWorkerStates),
				Start: int64(i * 10),
				End:   int64(i*10 + 5),
				Task:  TaskID(i),
			}
			if err := fw.WriteState(want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := readFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.States, want) {
			t.Errorf("%s: round trip mismatch (%d events)", name, len(got.States))
		}
	}
}

// readFile decodes the trace file at path, decompressing it when its
// head is the gzip magic.
func readFile(path string) (*RecordBatch, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r io.Reader = bytes.NewReader(raw)
	if SniffGzip(raw) {
		if r, err = gzip.NewReader(r); err != nil {
			return nil, err
		}
	}
	return readAll(r, 1)
}

// Property: every randomly generated event round trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(cpu uint16, state uint8, start int64, dur uint32, task uint64) bool {
		start = start % (1 << 40)
		if start < 0 {
			start = -start
		}
		ev := StateEvent{
			CPU:   int32(cpu), // valid ids: readers reject CPUs outside [0, MaxCPUID]
			State: WorkerState(state % uint8(NumWorkerStates)),
			Start: start,
			End:   start + int64(dur),
			Task:  TaskID(task),
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteState(ev); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := readAll(&buf, 1)
		return err == nil && len(got.States) == 1 && got.States[0] == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommRoundTripProperty(t *testing.T) {
	f := func(kind uint8, cpu uint16, src int16, tm int64, task, addr, size uint64) bool {
		if tm < 0 {
			tm = -tm
		}
		if src < -1 {
			src = -1 // -1 is the only valid negative (no source CPU)
		}
		ev := CommEvent{
			Kind:   CommKind(kind % uint8(NumCommKinds)),
			CPU:    int32(cpu),
			SrcCPU: int32(src),
			Time:   tm % (1 << 40),
			Task:   TaskID(task),
			Addr:   addr,
			Size:   size,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteComm(ev); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := readAll(&buf, 1)
		return err == nil && len(got.Comms) == 1 && got.Comms[0] == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInterleavedStreams verifies that events from many CPUs can be
// interleaved arbitrarily while each CPU's stream stays ordered.
func TestInterleavedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	next := make([]int64, 8)
	var wrote int
	for i := 0; i < 1000; i++ {
		cpu := rng.Intn(8)
		start := next[cpu]
		end := start + int64(rng.Intn(100)+1)
		next[cpu] = end
		if err := w.WriteState(StateEvent{CPU: int32(cpu), Start: start, End: end}); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	all, err := readAll(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[int32]int64)
	for _, s := range all.States {
		if prev, ok := last[s.CPU]; ok && s.Start < prev {
			t.Errorf("CPU %d out of order: %d after %d", s.CPU, s.Start, prev)
		}
		last[s.CPU] = s.Start
	}
	if len(all.States) != wrote {
		t.Errorf("read %d events, wrote %d", len(all.States), wrote)
	}
}

func TestStateAndKindStrings(t *testing.T) {
	if StateIdle.String() != "idle" || StateTaskExec.String() != "task_exec" {
		t.Error("state names wrong")
	}
	if WorkerState(200).String() != "unknown" {
		t.Error("out-of-range state should be unknown")
	}
	if EventSteal.String() != "steal" || EventKind(200).String() != "unknown" {
		t.Error("event kind names wrong")
	}
	if CommRead.String() != "read" || CommKind(200).String() != "unknown" {
		t.Error("comm kind names wrong")
	}
}

func TestRegionContains(t *testing.T) {
	r := MemRegion{Addr: 100, Size: 50}
	for _, tc := range []struct {
		addr uint64
		want bool
	}{{99, false}, {100, true}, {149, true}, {150, false}} {
		if got := r.Contains(tc.addr); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// TestCompressionShrinks sanity-checks that gzip output is smaller for
// a repetitive trace (the reason the paper compresses traces).
func TestCompressionShrinks(t *testing.T) {
	dir := t.TempDir()
	write := func(path string) int64 {
		fw, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			if err := fw.WriteState(StateEvent{CPU: 0, State: StateTaskExec, Start: int64(i * 10), End: int64(i*10 + 9), Task: TaskID(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := statSize(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := write(filepath.Join(dir, "p.atm"))
	gz := write(filepath.Join(dir, "p.atm.gz"))
	if gz >= plain {
		t.Errorf("gzip trace (%d bytes) not smaller than plain (%d bytes)", gz, plain)
	}
}

func TestVarintHeaderVersion(t *testing.T) {
	// A future version must be rejected.
	var buf bytes.Buffer
	buf.Write(magic[:])
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], formatVersion+1)
	buf.Write(tmp[:n])
	for _, workers := range []int{1, 4} {
		if err := ReadBatched(bytes.NewReader(buf.Bytes()), workers, nopEmit); err == nil {
			t.Errorf("workers=%d: expected version error", workers)
		}
	}
}
