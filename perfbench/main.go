// Command perfbench is Aftermath's session benchmark. It generates its
// inputs from a seed through the public simulator API, drives the real
// cmd/aftermath server as a child process on loopback with a scripted
// user session, checks every response against a reference computed
// in-process, and prints every metric by name and unit. The last line
// of its standard output is one JSON object with the run's verdict and
// metrics.
//
// Workloads:
//
//	explore-seidel  one user panning and zooming a paper-scale seidel trace
//	hub-mixed       two users on a hub serving gzip, store and span traces
//	follow-kmeans   a kmeans trace appended on a fixed schedule while served live
//
// With -trace 0 the run measures the end-to-end metrics of the real
// binary. With -trace 1 it replays the same workload in-process, times
// the calls into each layer's public functions, reports the per-layer
// metrics and writes the spans of every call as stdouttrace JSONL,
// which `aftermath -serve <file>` opens.
//
// Usage (from the repository root, after building cmd/aftermath):
//
//	perfbench -workload explore-seidel -seed 1 -seconds 10 -trace 0 -bin path/to/aftermath
//
// perfbench/run.sh builds both programs and runs the benchmark.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects a run's metrics and its correctness ledger: every
// checked operation counts as attempted, every check that fails as
// failed.
type report struct {
	mu        sync.Mutex // guards the ledger: checks come from several clients
	metrics   []metric
	infos     []metric // printed, not part of the JSON result
	attempted int
	failed    int
	failures  []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// info records a figure that is printed with the run but is not one of
// the workload's gated metrics.
func (r *report) info(name string, v float64, unit string) {
	r.infos = append(r.infos, metric{name, v, unit})
}

// check records one checked operation; ok=false counts a failure and
// keeps its description for the log.
func (r *report) check(ok bool, format string, args ...interface{}) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// note prints an informational line that is not a gated metric.
func note(format string, args ...interface{}) {
	fmt.Printf("# "+format+"\n", args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one "name value unit" line per metric, the failures, and
// the final JSON line. It returns whether every check passed and every
// metric is a finite number.
func (r *report) print() bool {
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	finite := true
	for _, m := range r.metrics {
		fmt.Printf("%-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			finite = false
			r.failures = append(r.failures, "metric "+m.Name+" has no value")
			continue
		}
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	for _, m := range r.infos {
		fmt.Printf("# %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Printf("# %-30s %14.4f %s\n", "failed_frac", float64(r.failed)/float64(max(1, r.attempted)), "1")
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	out.Correct = r.failed == 0 && r.attempted > 0 && finite
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(b))
	return out.Correct
}

// config is the command line of one run.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	bin      string // the aftermath binary under test
	work     string // scratch directory for generated inputs and logs
	spans    string // where a traced run writes its spans
}

var workloads = map[string]struct {
	e2e    func(cfg config, in *inputs, r *report) error
	inputs func(cfg config) (*inputs, error)
}{
	"explore-seidel": {runExplore, genExplore},
	"hub-mixed":      {runHub, genHub},
	"follow-kmeans":  {runFollow, genFollow},
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload: explore-seidel, hub-mixed or follow-kmeans")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and the session")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured session phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 replays the workload in-process and reports per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", filepath.Join(".bench_build", "bin", "aftermath"), "aftermath binary under test")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for inputs and logs")
	flag.StringVar(&cfg.spans, "spans", "", "spans output of a traced run (default <work>/../spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	cfg.traced = traced == 1
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traced != 0 && traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload <%v> -seed n -seconds s -trace 0|1\n", names)
		os.Exit(2)
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(filepath.Dir(cfg.work), "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	if err := run(cfg, wl.inputs, wl.e2e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, gen func(config) (*inputs, error), e2e func(config, *inputs, *report) error) error {
	dir, err := os.MkdirTemp(mkdirAll(cfg.work), cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	start := time.Now()
	in, err := gen(cfg)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	note("inputs generated in %.1fs", time.Since(start).Seconds())
	// Write the inputs back and collect the generator's garbage now,
	// not during the session.
	if err := syncFiles(in.seidel, in.seidelGz, in.kmeans, in.store, in.spans); err != nil {
		return err
	}
	runtime.GC()
	r := &report{}
	if cfg.traced {
		err = runLayers(cfg, in, r)
	} else {
		err = e2e(cfg, in, r)
	}
	if err != nil {
		return err
	}
	if !r.print() {
		return errFailed
	}
	return nil
}

// errFailed reports a run whose checks failed; its result is printed.
var errFailed = errors.New("output checks failed")

// syncFiles writes the named files back to disk; empty names are
// skipped.
func syncFiles(paths ...string) error {
	for _, p := range paths {
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return fmt.Errorf("syncing %s: %w", p, err)
		}
	}
	return nil
}

// mkdirAll creates dir (best effort; MkdirTemp reports a failure).
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp below reports any failure
	return dir
}
