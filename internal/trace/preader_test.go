package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// syntheticStream writes a trace large enough to span many batches,
// mixing every record kind.
func syntheticStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteTopology(Topology{
		Name: "synthetic", NumNodes: 2,
		NodeOfCPU: []int32{0, 0, 1, 1},
		Distance:  []int32{0, 1, 1, 0},
	}))
	must(w.WriteTaskType(TaskType{ID: 1, Addr: 0x40, Name: "work"}))
	must(w.WriteCounterDesc(CounterDesc{ID: 7, Name: "ctr", Monotonic: true}))
	must(w.WriteRegion(MemRegion{ID: 1, Addr: 0x1000, Size: 0x1000, Node: 1}))
	const events = 3 * batchRecords
	for i := 0; i < events; i++ {
		cpu := int32(i % 4)
		tm := int64(i/4) * 10
		must(w.WriteTask(Task{ID: TaskID(i + 1), Type: 1, Created: tm, CreatorCPU: cpu}))
		must(w.WriteState(StateEvent{CPU: cpu, State: StateTaskExec, Start: tm, End: tm + 9, Task: TaskID(i + 1)}))
		must(w.WriteSample(CounterSample{CPU: cpu, Counter: 7, Time: tm, Value: int64(i)}))
		must(w.WriteSample(CounterSample{CPU: cpu, Counter: CounterID(100 + i%3), Time: tm, Value: int64(i)}))
		must(w.WriteComm(CommEvent{Kind: CommRead, CPU: cpu, SrcCPU: -1, Time: tm, Task: TaskID(i + 1), Addr: 0x1000, Size: 64}))
		must(w.WriteDiscrete(DiscreteEvent{CPU: cpu, Kind: EventTaskCreated, Time: tm, Arg: uint64(i)}))
	}
	must(w.Flush())
	return buf.Bytes()
}

// TestReadBatchedWorkersAgree: the parallel decode pipeline delivers
// exactly the records the single-worker StreamReader path delivers, in
// the same order, for every worker count.
func TestReadBatchedWorkersAgree(t *testing.T) {
	data := syntheticStream(t)
	want, err := readAll(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := readAll(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: records differ from the single-worker read", workers)
		}
	}
}

func TestReadBatchedCounterIDOrder(t *testing.T) {
	data := syntheticStream(t)
	// Counter registration order must match the sequential
	// first-touch order: 7 (desc), then 100, 101, 102 (samples).
	var order []CounterID
	seen := map[CounterID]bool{}
	err := ReadBatched(bytes.NewReader(data), 4, func(b *RecordBatch) error {
		for _, id := range b.CounterIDs {
			if !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []CounterID{7, 100, 101, 102}
	if len(order) != len(want) {
		t.Fatalf("counter order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("counter order = %v, want %v", order, want)
		}
	}
}

func TestReadBatchedTruncated(t *testing.T) {
	data := syntheticStream(t)
	for _, workers := range []int{1, 4} {
		err := ReadBatched(bytes.NewReader(data[:len(data)-3]), workers, func(b *RecordBatch) error { return nil })
		if err == nil {
			t.Fatalf("workers=%d: no error on truncated stream", workers)
		}
	}
}

func TestReadBatchedBadMagic(t *testing.T) {
	err := ReadBatched(bytes.NewReader([]byte("nope")), 4, func(b *RecordBatch) error { return nil })
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}
