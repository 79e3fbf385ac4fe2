package figs

import (
	"bytes"
	"os"

	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/metrics"
	"github.com/openstream/aftermath/internal/openstream"
	"github.com/openstream/aftermath/internal/trace"
)

// runInMemory simulates a program with tracing into memory and loads
// the trace.
func runInMemory(p *openstream.Program, cfg openstream.Config) (*core.Trace, openstream.Result, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	res, err := openstream.Run(p, cfg, w)
	if err != nil {
		return nil, res, err
	}
	if err := w.Flush(); err != nil {
		return nil, res, err
	}
	tr, err := core.FromReader(&buf)
	return tr, res, err
}

// runToFile simulates a program, streaming the trace to a file.
func runToFile(p *openstream.Program, cfg openstream.Config, path string) (openstream.Result, error) {
	fw, err := trace.Create(path)
	if err != nil {
		return openstream.Result{}, err
	}
	res, err := openstream.Run(p, cfg, fw.Writer)
	if err != nil {
		fw.Close()
		return res, err
	}
	return res, fw.Close()
}

// fileSize returns a file's size in bytes (0 on error).
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// typePhaseEnd returns the time by which 95% of the executions of the
// given task type have finished — used to delimit the initialization
// phase.
func typePhaseEnd(tr *core.Trace, typeName string) int64 {
	var ends []int64
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if t.ExecCPU >= 0 && tr.TypeName(t.Type) == typeName {
			ends = append(ends, t.ExecEnd)
		}
	}
	if len(ends) == 0 {
		return tr.Span.Start
	}
	// Select the 95th percentile end time.
	k := len(ends) * 95 / 100
	if k >= len(ends) {
		k = len(ends) - 1
	}
	return quickSelect(ends, k)
}

// quickSelect returns the k-th smallest element (0-based), modifying
// the slice.
func quickSelect(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// typeExecFraction returns the share of task-execution time in
// [t0, t1) spent in tasks of the given type.
func typeExecFraction(tr *core.Trace, typeName string, t0, t1 int64) float64 {
	var inType, total int64
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for _, ev := range tr.StatesIn(cpu, t0, t1) {
			if ev.State != trace.StateTaskExec {
				continue
			}
			s, e := ev.Start, ev.End
			if s < t0 {
				s = t0
			}
			if e > t1 {
				e = t1
			}
			if e <= s {
				continue
			}
			total += e - s
			if task, ok := tr.TaskByID(ev.Task); ok && tr.TypeName(task.Type) == typeName {
				inType += e - s
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(inType) / float64(total)
}

// increaseShare returns the fraction of a cumulative series' total
// increase that happened at or before the cutoff time.
func increaseShare(s metrics.Series, cutoff int64) float64 {
	if s.Len() < 2 {
		return 0
	}
	first := s.Values[0]
	last := s.Values[s.Len()-1]
	if last <= first {
		return 0
	}
	atCut := first
	for i := 0; i < s.Len(); i++ {
		if s.Times[i] > cutoff {
			break
		}
		atCut = s.Values[i]
	}
	return (atCut - first) / (last - first)
}

// idleFraction returns the idle share of total worker time.
func idleFraction(tr *core.Trace) float64 {
	var idle, total int64
	for cpu := int32(0); int(cpu) < tr.NumCPUs(); cpu++ {
		for _, ev := range tr.StatesIn(cpu, tr.Span.Start, tr.Span.End) {
			d := ev.Duration()
			total += d
			if ev.State == trace.StateIdle {
				idle += d
			}
		}
	}
	// Gaps (before a worker's first activity) also count as idle
	// time against the full span.
	full := tr.Span.Duration() * int64(tr.NumCPUs())
	idle += full - total
	if full == 0 {
		return 0
	}
	return float64(idle) / float64(full)
}
