package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	aftermath "github.com/openstream/aftermath"
)

// inputs are the files one run generates from its seed, before any
// timed region. Unused fields stay empty.
type inputs struct {
	seidel      string // raw native seidel trace
	seidelTasks int
	seidelGz    string // gzip copy of seidel (hub)
	kmeans      string // raw native kmeans trace
	kmeansTasks int
	store       string // SaveSnapshot of kmeans, served as kmeans.atms (hub)
	spans       string // stdouttrace JSONL of a generated microservice run
	spanCount   int
	hubDir      string // the directory the hub serves
	seed        int64
}

// hubSeidelSalt separates the hub's seidel seed from explore's, so the
// two workloads never serve the same trace.
const hubSeidelSalt = 0x5eed

// hubSpans is the size of the generated span stream.
const hubSpans = 180000

func genExplore(cfg config) (*inputs, error) {
	in := &inputs{seed: cfg.seed, seidel: filepath.Join(cfg.work, "seidel.atm")}
	var err error
	in.seidelTasks, err = genSeidel(in.seidel, cfg.seed)
	return in, err
}

func genFollow(cfg config) (*inputs, error) {
	in := &inputs{seed: cfg.seed, kmeans: filepath.Join(cfg.work, "kmeans.atm")}
	var err error
	in.kmeansTasks, err = genKMeans(in.kmeans, cfg.seed)
	return in, err
}

func genHub(cfg config) (*inputs, error) {
	in := &inputs{
		seed:   cfg.seed,
		hubDir: filepath.Join(cfg.work, "hub"),
		seidel: filepath.Join(cfg.work, "seidel.atm"),
		kmeans: filepath.Join(cfg.work, "kmeans.atm"),
	}
	if err := os.MkdirAll(in.hubDir, 0o755); err != nil {
		return nil, err
	}
	in.seidelGz = filepath.Join(in.hubDir, "seidel.atm.gz")
	in.store = filepath.Join(in.hubDir, "kmeans.atms")
	in.spans = filepath.Join(in.hubDir, "spans.jsonl")
	// Two chains, one per CPU: seidel and its gzip copy; kmeans, its
	// store snapshot and the spans.
	var seidelErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if in.seidelTasks, seidelErr = genSeidel(in.seidel, cfg.seed^hubSeidelSalt); seidelErr == nil {
			seidelErr = gzipFile(in.seidel, in.seidelGz)
		}
	}()
	err := func() (err error) {
		if in.kmeansTasks, err = genKMeans(in.kmeans, cfg.seed); err != nil {
			return err
		}
		if err := storeFile(in.kmeans, in.store); err != nil {
			return err
		}
		in.spanCount, err = genSpans(in.spans, cfg.seed, hubSpans)
		return err
	}()
	wg.Wait()
	return in, errors.Join(seidelErr, err)
}

// genSeidel simulates the paper-scale seidel stencil (2^14 matrix in
// 2^8 blocks, 52 sweeps) on the UV2000 model with NUMA-aware
// scheduling and writes the raw native trace.
func genSeidel(path string, seed int64) (int, error) {
	sc := aftermath.DefaultSeidelConfig()
	sc.Seed = seed
	p, err := aftermath.BuildSeidel(sc)
	if err != nil {
		return 0, err
	}
	return simulate(p, aftermath.UV2000(), seed, path)
}

// genKMeans simulates the paper-scale k-means run on the 64-CPU
// Opteron model and writes the raw native trace.
func genKMeans(path string, seed int64) (int, error) {
	kc := aftermath.DefaultKMeansConfig()
	kc.Seed = seed
	p, err := aftermath.BuildKMeans(kc)
	if err != nil {
		return 0, err
	}
	return simulate(p, aftermath.Opteron6282SE(), seed, path)
}

func simulate(p *aftermath.Program, m *aftermath.Machine, seed int64, path string) (int, error) {
	sim := aftermath.DefaultSimConfig(m)
	sim.Seed = seed
	sim.Sched = aftermath.SchedNUMA
	res, err := aftermath.SimulateToFile(p, sim, path)
	if err != nil {
		return 0, fmt.Errorf("simulating %s: %w", filepath.Base(path), err)
	}
	return res.TasksExecuted, nil
}

// gzipFile writes a gzip copy of src. The fastest level keeps input
// generation short; decompression cost does not depend on it.
func gzipFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(out, gzip.BestSpeed)
	if err != nil {
		out.Close()
		return err
	}
	if _, err := io.Copy(zw, in); err != nil {
		out.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// storeFile loads src and saves it as a columnar store snapshot.
func storeFile(src, dst string) error {
	tr, err := aftermath.Open(src)
	if err != nil {
		return err
	}
	return aftermath.SaveSnapshot(tr, dst)
}

// opSpec is one operation of the generated microservice topology: its
// service, its own work before and after its children, and the calls it
// makes (each taken with probability prob).
type opSpec struct {
	svc, name string
	selfUs    float64
	prob      float64
	calls     []*opSpec
}

// spanTopology is the generated system: a gateway fronting three
// request kinds over auth, catalog, cart, payment, cache and db.
func spanTopology() []*opSpec {
	auth := &opSpec{svc: "auth", name: "verify", selfUs: 120, prob: 1}
	dbq := func(p float64) *opSpec { return &opSpec{svc: "db", name: "query", selfUs: 700, prob: p} }
	commit := &opSpec{svc: "db", name: "commit", selfUs: 400, prob: 1}
	cache := &opSpec{svc: "cache", name: "get", selfUs: 60, prob: 1}
	return []*opSpec{
		{svc: "gateway", name: "GET /product", selfUs: 80, calls: []*opSpec{
			auth,
			{svc: "catalog", name: "lookup", selfUs: 200, prob: 1, calls: []*opSpec{cache, dbq(0.3)}},
		}},
		{svc: "gateway", name: "POST /cart", selfUs: 90, calls: []*opSpec{
			auth,
			{svc: "cart", name: "add", selfUs: 250, prob: 1, calls: []*opSpec{dbq(1), commit}},
		}},
		{svc: "gateway", name: "POST /checkout", selfUs: 110, calls: []*opSpec{
			auth,
			{svc: "cart", name: "load", selfUs: 150, prob: 1, calls: []*opSpec{dbq(1)}},
			{svc: "payment", name: "charge", selfUs: 900, prob: 1, calls: []*opSpec{commit}},
		}},
	}
}

// spanBase is the wall-clock origin of generated span timestamps.
var spanBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// genSpans writes at least n spans of a seeded microservice run as
// stdouttrace JSONL and returns the exact count. Requests arrive every
// 0-400µs; one in two hundred carries a planted latency outlier (one
// span thirty times slower than usual).
func genSpans(path string, seed int64, n int) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	roots := spanTopology()
	var spanID uint64
	count := 0
	var now float64 // µs since spanBase
	var emit func(op *opSpec, start float64, traceID string, parent uint64, slowAt int) float64
	emit = func(op *opSpec, start float64, traceID string, parent uint64, slowAt int) float64 {
		spanID++
		id := spanID
		self := op.selfUs * math.Exp(0.25*rng.NormFloat64())
		if slowAt == count {
			self *= 30
		}
		count++
		t := start + self/2
		for _, c := range op.calls {
			if rng.Float64() < c.prob {
				t = emit(c, t+5, traceID, id, slowAt) + 5
			}
		}
		end := t + self/2
		status := "Unset"
		if op.svc == "payment" && rng.Float64() < 0.01 {
			status = "Error"
		}
		parentField := ""
		if parent != 0 {
			parentField = fmt.Sprintf(`"Parent":{"TraceID":%q,"SpanID":"%016x"},`, traceID, parent)
		}
		fmt.Fprintf(w, `{"Name":%q,"SpanContext":{"TraceID":%q,"SpanID":"%016x"},%s"StartTime":%q,"EndTime":%q,"Status":{"Code":%q},"Resource":[{"Key":"service.name","Value":{"Type":"STRING","Value":%q}}]}`+"\n",
			op.name, traceID, id, parentField, stamp(start), stamp(end), status, op.svc)
		return end
	}
	for req := 1; count < n; req++ {
		now += rng.Float64() * 400
		slowAt := -1
		if rng.Intn(200) == 0 {
			slowAt = count + rng.Intn(4)
		}
		emit(roots[rng.Intn(len(roots))], now, fmt.Sprintf("%032x", req), 0, slowAt)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return count, f.Close()
}

// stamp formats µs since spanBase as an RFC 3339 timestamp.
func stamp(us float64) string {
	return spanBase.Add(time.Duration(us * 1e3)).Format(time.RFC3339Nano)
}
