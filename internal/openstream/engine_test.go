package openstream

import (
	"bytes"
	"testing"

	"github.com/openstream/aftermath/internal/topology"
	"github.com/openstream/aftermath/internal/trace"
)

// chainProgram builds a linear chain of n tasks, each reading its
// predecessor's output.
func chainProgram(t *testing.T, n int) *Program {
	b := NewBuilder()
	typ := b.Type("link")
	var prev RegionRef = -1
	for i := 0; i < n; i++ {
		out := b.NewRegion(4096)
		spec := TaskSpec{
			Type: typ, Compute: 10000,
			Writes:  []Access{{Region: out, Bytes: 4096}},
			Creator: Root,
		}
		if prev >= 0 {
			spec.Reads = []Access{{Region: prev, Bytes: 4096}}
		}
		prev = out
		b.Task(spec)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fanProgram builds one producer whose output is read by n consumers.
func fanProgram(t *testing.T, n int) *Program {
	b := NewBuilder()
	prod := b.Type("producer")
	cons := b.Type("consumer")
	out := b.NewRegion(64 * 1024)
	b.Task(TaskSpec{
		Type: prod, Compute: 5000,
		Writes: []Access{{Region: out, Bytes: 64 * 1024}}, Creator: Root,
	})
	for i := 0; i < n; i++ {
		b.Task(TaskSpec{
			Type: cons, Compute: 100000,
			Reads: []Access{{Region: out, Bytes: 64 * 1024}}, Creator: Root,
		})
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testConfig(m *topology.Machine) Config {
	cfg := DefaultConfig(m)
	cfg.Seed = 42
	return cfg
}

func TestAllTasksExecute(t *testing.T) {
	p := fanProgram(t, 100)
	res, err := Run(p, testConfig(topology.Small(2, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 101 {
		t.Errorf("executed %d tasks, want 101", res.TasksExecuted)
	}
	if res.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
	if res.Seconds <= 0 {
		t.Error("seconds must be positive")
	}
}

func TestChainIsSequential(t *testing.T) {
	// A chain cannot overlap: makespan must be at least the sum of
	// task computes.
	const n = 50
	p := chainProgram(t, n)
	res, err := Run(p, testConfig(topology.Small(2, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < n*10000 {
		t.Errorf("chain makespan %d below serial compute %d", res.Makespan, n*10000)
	}
}

func TestFanOutParallelizes(t *testing.T) {
	// 64 independent consumers on 8 CPUs must run roughly 8x faster
	// than on 1 CPU.
	p1 := fanProgram(t, 64)
	res1, err := Run(p1, testConfig(topology.Small(1, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	p8 := fanProgram(t, 64)
	res8, err := Run(p8, testConfig(topology.Small(2, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(res1.Makespan) / float64(res8.Makespan)
	if speedup < 4 {
		t.Errorf("speedup on 8 CPUs = %.2f, want >= 4", speedup)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		p := fanProgram(t, 200)
		cfg := testConfig(topology.Small(4, 4))
		res, err := Run(p, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Steals != b.Steals {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestTraceEmission(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	p := fanProgram(t, 32)
	cfg := testConfig(topology.Small(2, 4))
	res, err := Run(p, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var (
		topoCount  int
		types      int
		tasks      int
		execStates int
		idleStates int
		reads      int
		writes     int
		regions    int
		samples    int
		lastEnd    int64
	)
	err = trace.ReadBatched(&buf, 1, func(b *trace.RecordBatch) error {
		topoCount += len(b.Topologies)
		types += len(b.TaskTypes)
		tasks += len(b.Tasks)
		regions += len(b.Regions)
		samples += len(b.Samples)
		for _, s := range b.States {
			switch s.State {
			case trace.StateTaskExec:
				execStates++
			case trace.StateIdle:
				idleStates++
			}
			if s.End > lastEnd {
				lastEnd = s.End
			}
		}
		for _, c := range b.Comms {
			switch c.Kind {
			case trace.CommRead:
				reads++
			case trace.CommWrite:
				writes++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if topoCount != 1 {
		t.Errorf("topology records = %d, want 1", topoCount)
	}
	if types != 2 {
		t.Errorf("task types = %d, want 2", types)
	}
	if tasks != 33 {
		t.Errorf("task records = %d, want 33", tasks)
	}
	if execStates != 33 {
		t.Errorf("exec states = %d, want 33", execStates)
	}
	if idleStates == 0 {
		t.Error("expected idle states")
	}
	if reads != 32 {
		t.Errorf("read events = %d, want 32", reads)
	}
	if writes != 1 {
		t.Errorf("write events = %d, want 1", writes)
	}
	if regions != 1 {
		t.Errorf("region records = %d, want 1", regions)
	}
	if samples == 0 {
		t.Error("expected counter samples")
	}
	if lastEnd != res.Makespan {
		t.Errorf("last state ends at %d, makespan %d", lastEnd, res.Makespan)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A task whose creator never runs because the creator depends on
	// the child's output is a cycle; Build must reject it.
	b := NewBuilder()
	typ := b.Type("x")
	r1 := b.NewRegion(64)
	r2 := b.NewRegion(64)
	t1 := b.Task(TaskSpec{
		Type: typ, Compute: 10,
		Reads:   []Access{{Region: r2, Bytes: 64}},
		Writes:  []Access{{Region: r1, Bytes: 64}},
		Creator: Root,
	})
	b.Task(TaskSpec{
		Type: typ, Compute: 10,
		Reads:   []Access{{Region: r1, Bytes: 64}},
		Writes:  []Access{{Region: r2, Bytes: 64}},
		Creator: t1,
	})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestBuilderValidation(t *testing.T) {
	// Double-written region.
	b := NewBuilder()
	typ := b.Type("x")
	r := b.NewRegion(64)
	b.Task(TaskSpec{Type: typ, Writes: []Access{{Region: r, Bytes: 64}}, Creator: Root})
	b.Task(TaskSpec{Type: typ, Writes: []Access{{Region: r, Bytes: 64}}, Creator: Root})
	if _, err := b.Build(); err == nil {
		t.Error("expected double-writer error")
	}

	// Read of an unwritten region.
	b = NewBuilder()
	typ = b.Type("x")
	r = b.NewRegion(64)
	b.Task(TaskSpec{Type: typ, Reads: []Access{{Region: r, Bytes: 64}}, Creator: Root})
	if _, err := b.Build(); err == nil {
		t.Error("expected unwritten-region error")
	}

	// Creator must precede child.
	b = NewBuilder()
	typ = b.Type("x")
	b.Task(TaskSpec{Type: typ, Creator: 5})
	if _, err := b.Build(); err == nil {
		t.Error("expected invalid-creator error")
	}

	// Type interning.
	b = NewBuilder()
	if b.Type("a") != b.Type("a") {
		t.Error("type interning broken")
	}
	if b.Type("a") == b.Type("b") {
		t.Error("distinct types must differ")
	}
}

func TestCreatorChain(t *testing.T) {
	// Root creates t1; t1 creates t2; t2 creates t3. All must run,
	// and creation order must be respected (children run after
	// creators).
	b := NewBuilder()
	typ := b.Type("x")
	t1 := b.Task(TaskSpec{Type: typ, Compute: 1000, Creator: Root})
	t2 := b.Task(TaskSpec{Type: typ, Compute: 1000, Creator: t1})
	b.Task(TaskSpec{Type: typ, Compute: 1000, Creator: t2})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, testConfig(topology.Small(1, 2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 3 {
		t.Errorf("executed %d, want 3", res.TasksExecuted)
	}
	// Serial chain through creation: at least 3 computes.
	if res.Makespan < 3000 {
		t.Errorf("makespan %d too small for serial creation chain", res.Makespan)
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	// With NUMA-aware scheduling, init tasks spread round-robin, so
	// backings land on distinct nodes.
	b := NewBuilder()
	init := b.Type("init")
	nregions := 16
	for i := 0; i < nregions; i++ {
		r := b.NewRegion(1 << 20)
		b.Task(TaskSpec{Type: init, Compute: 100000, Writes: []Access{{Region: r, Bytes: 1 << 20}}, Creator: Root})
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cfg := testConfig(topology.Small(4, 2))
	cfg.Sched = SchedNUMA
	if _, err := Run(p, cfg, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	nodes := make(map[int32]int)
	err = trace.ReadBatched(&buf, 1, func(b *trace.RecordBatch) error {
		for _, r := range b.Regions {
			nodes[r.Node]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 3 {
		t.Errorf("NUMA-aware init spread over %d nodes, want >= 3 of 4 (%v)", len(nodes), nodes)
	}
}

func TestNUMASchedulingImprovesLocality(t *testing.T) {
	// Producer/consumer pairs: with NUMA-aware scheduling consumers
	// run where their data is; makespan must beat random stealing.
	build := func() *Program {
		b := NewBuilder()
		prod := b.Type("produce")
		cons := b.Type("consume")
		const pairs = 64
		for i := 0; i < pairs; i++ {
			r := b.NewRegion(1 << 20)
			pt := b.Task(TaskSpec{Type: prod, Compute: 50000, Writes: []Access{{Region: r, Bytes: 1 << 20}}, Creator: Root})
			// Chain of consumers keeps data hot on its node.
			prev := r
			for j := 0; j < 4; j++ {
				out := b.NewRegion(1 << 20)
				pt = b.Task(TaskSpec{
					Type: cons, Compute: 50000,
					Reads:   []Access{{Region: prev, Bytes: 1 << 20}},
					Writes:  []Access{{Region: out, Bytes: 1 << 20}},
					Creator: pt,
				})
				prev = out
			}
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := topology.Opteron6282SE()
	cfgRand := testConfig(m)
	cfgRand.Sched = SchedRandom
	resRand, err := Run(build(), cfgRand, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgNUMA := testConfig(m)
	cfgNUMA.Sched = SchedNUMA
	resNUMA, err := Run(build(), cfgNUMA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resNUMA.Makespan >= resRand.Makespan {
		t.Errorf("NUMA-aware makespan %d not better than random %d",
			resNUMA.Makespan, resRand.Makespan)
	}
}

func TestStealsHappen(t *testing.T) {
	p := fanProgram(t, 128)
	res, err := Run(p, testConfig(topology.Small(2, 4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Error("expected steals with random scheduling and a fan-out program")
	}
	if res.StealAttempts < res.Steals {
		t.Error("attempts must be >= successful steals")
	}
}

func TestStateAccounting(t *testing.T) {
	p := fanProgram(t, 32)
	res, err := Run(p, testConfig(topology.Small(2, 2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StateCycles[trace.StateTaskExec] == 0 {
		t.Error("no task execution time accounted")
	}
	if res.StateCycles[trace.StateTaskCreate] == 0 {
		t.Error("no creation time accounted")
	}
	// Total accounted time can't exceed CPUs * makespan.
	var total int64
	for _, c := range res.StateCycles {
		total += c
	}
	if limit := res.Makespan * 4; total > limit {
		t.Errorf("accounted %d cycles > CPUs*makespan %d", total, limit)
	}
}

func TestPageFaultAccounting(t *testing.T) {
	b := NewBuilder()
	typ := b.Type("init")
	r := b.NewRegion(1 << 20) // 256 pages
	b.Task(TaskSpec{Type: typ, Compute: 100, Writes: []Access{{Region: r, Bytes: 1 << 20}}, Creator: Root})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, testConfig(topology.Small(1, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesFaulted != 256 {
		t.Errorf("pages faulted = %d, want 256", res.PagesFaulted)
	}
	if res.SystemTimeCycles == 0 {
		t.Error("page faults must cost system time")
	}
}

func TestRunWithoutMachine(t *testing.T) {
	p := fanProgram(t, 1)
	if _, err := Run(p, Config{}, nil); err == nil {
		t.Error("expected config validation error")
	}
}
