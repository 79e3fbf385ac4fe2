// Command atmdump dumps the records of an Aftermath trace file for
// debugging: record counts by kind, and optionally every record.
// Gzip-compressed traces are detected by content and decompressed.
//
// Records are decoded in batches of up to a few thousand, and -v
// prints each batch grouped by kind (all topology records of the
// batch, then task types, tasks, states, ...), so records of different
// kinds are not interleaved in stream order. Record kinds the decoder
// does not know are skipped without being counted.
//
// Usage:
//
//	atmdump trace.atm.gz          # record statistics
//	atmdump -v -n 50 trace.atm.gz # first 50 records, verbose
package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/openstream/aftermath/internal/trace"
)

func main() {
	var (
		verbose = flag.Bool("v", false, "print every record")
		limit   = flag.Int("n", 0, "stop after this many records (0 = all)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: atmdump [-v] [-n N] trace.atm[.gz]")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *verbose, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "atmdump:", err)
		os.Exit(1)
	}
}

var errLimit = errors.New("record limit reached")

// run dumps the trace at path to w: every record when verbose, then
// the record count of each kind. limit > 0 stops after that many
// records.
func run(w io.Writer, path string, verbose bool, limit int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var r io.Reader = br
	if head, _ := br.Peek(2); trace.SniffGzip(head) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return err
		}
		defer gz.Close()
		r = gz
	}

	var counts [numKinds]int
	total := 0
	// One decode worker: batch boundaries, and so the -v output, do
	// not depend on the machine.
	err = trace.ReadBatched(r, 1, func(b *trace.RecordBatch) error {
		for ki, k := range batchKinds(b) {
			for i := 0; i < k.n; i++ {
				counts[ki]++
				total++
				if verbose {
					fmt.Fprintf(w, "%-12s %s\n", k.name, k.line(i))
				}
				if limit > 0 && total >= limit {
					return errLimit
				}
			}
		}
		return nil
	})
	if err != nil && err != errLimit {
		return err
	}
	fmt.Fprintf(w, "\n%s: %d records\n", path, total)
	for ki, k := range batchKinds(&trace.RecordBatch{}) {
		if counts[ki] > 0 {
			fmt.Fprintf(w, "  %-12s %10d\n", k.name, counts[ki])
		}
	}
	return nil
}

// batchKind is one record kind of a batch: its name, its record count
// and the -v line of its i-th record.
type batchKind struct {
	name string
	n    int
	line func(i int) string
}

// kind describes the records recs of one kind.
func kind[T any](name string, recs []T, line func(T) string) batchKind {
	return batchKind{name, len(recs), func(i int) string { return line(recs[i]) }}
}

// numKinds is the number of record kinds batchKinds lists.
const numKinds = 9

// batchKinds lists the record kinds of b, in the order -v prints them
// within a batch and the summary lists them.
func batchKinds(b *trace.RecordBatch) [numKinds]batchKind {
	return [numKinds]batchKind{
		kind("topology", b.Topologies, func(t trace.Topology) string {
			return fmt.Sprintf("%s: %d CPUs, %d nodes", t.Name, len(t.NodeOfCPU), t.NumNodes)
		}),
		kind("tasktype", b.TaskTypes, func(t trace.TaskType) string {
			return fmt.Sprintf("id=%d addr=0x%x name=%s", t.ID, t.Addr, t.Name)
		}),
		kind("task", b.Tasks, func(t trace.Task) string {
			return fmt.Sprintf("id=%d type=%d created=%d by cpu %d", t.ID, t.Type, t.Created, t.CreatorCPU)
		}),
		kind("state", b.States, func(s trace.StateEvent) string {
			return fmt.Sprintf("cpu=%d %s [%d,%d) task=%d", s.CPU, s.State, s.Start, s.End, s.Task)
		}),
		kind("discrete", b.Discrete, func(d trace.DiscreteEvent) string {
			return fmt.Sprintf("cpu=%d %s t=%d arg=%d", d.CPU, d.Kind, d.Time, d.Arg)
		}),
		kind("counterdesc", b.Descs, func(c trace.CounterDesc) string {
			return fmt.Sprintf("id=%d name=%s monotonic=%v", c.ID, c.Name, c.Monotonic)
		}),
		kind("sample", b.Samples, func(s trace.CounterSample) string {
			return fmt.Sprintf("cpu=%d counter=%d t=%d v=%d", s.CPU, s.Counter, s.Time, s.Value)
		}),
		kind("comm", b.Comms, func(c trace.CommEvent) string {
			return fmt.Sprintf("cpu=%d %s t=%d task=%d addr=0x%x size=%d src=%d",
				c.CPU, c.Kind, c.Time, c.Task, c.Addr, c.Size, c.SrcCPU)
		}),
		kind("region", b.Regions, func(r trace.MemRegion) string {
			return fmt.Sprintf("id=%d addr=0x%x size=%d node=%d", r.ID, r.Addr, r.Size, r.Node)
		}),
	}
}
