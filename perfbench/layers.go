package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	aftermath "github.com/openstream/aftermath"
	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
	"github.com/openstream/aftermath/internal/trace"
	"github.com/openstream/aftermath/internal/ui"
)

// The traced run: the workload's inputs replayed in-process, with every
// call into a layer's public functions timed inside a span. Layers are
// named by module: trace, ingest, core, store, query, anomaly, render
// and ui; "bench" spans are the replayed requests, chunks and steps.

// reps is how often a cheap layer call is repeated; its median counts.
const reps = 3

// liveChunks is the number of appends of a trace replayed through the
// live path when the workload has no append schedule of its own.
const liveChunks = 48

// layerInputs are the files of each format the layer calls read: the
// workload's own where it serves one, otherwise derived from its raw
// trace (outside every timed region).
type layerInputs struct {
	raw, gz, store, spans string
}

func layerInputsFor(cfg config, in *inputs) (*layerInputs, error) {
	li := &layerInputs{raw: in.seidel, gz: in.seidelGz, store: in.store, spans: in.spans}
	if cfg.workload == "follow-kmeans" {
		li.raw = in.kmeans
	}
	if li.gz == "" {
		li.gz = filepath.Join(cfg.work, "raw.atm.gz")
		if err := gzipFile(li.raw, li.gz); err != nil {
			return nil, err
		}
	}
	if li.store == "" {
		li.store = filepath.Join(cfg.work, "raw.atms")
		if err := storeFile(li.raw, li.store); err != nil {
			return nil, err
		}
	}
	if li.spans == "" {
		li.spans = filepath.Join(cfg.work, "spans.jsonl")
		if _, err := genSpans(li.spans, cfg.seed, hubSpans); err != nil {
			return nil, err
		}
	}
	return li, nil
}

// workloadURLs are the requests the traced run replays against an
// in-process viewer of tr: the start of the explore walk, the hub's URL
// set, or the follow session's final-epoch set, each with the workload's
// anomaly windows where it has them.
func workloadURLs(workload string, seed int64, tr *core.Trace) []string {
	rng := rand.New(rand.NewSource(seed))
	start, end := tr.Span.Start, tr.Span.End
	var urls []string
	switch workload {
	case "hub-mixed":
		return hubURLs(rng, start, end)
	case "follow-kmeans":
		urls = finalURLs(rng, start, end, 1)[0]
	default:
		for i, v := range walk(rng, start, end, 18) {
			urls = append(urls, stepURLs(i, v)...)
		}
	}
	for _, v := range anomalyWindows(rng, start, end) {
		urls = append(urls, "anomalies?"+v.params())
	}
	return urls
}

// memDelta measures the allocations of fn: mallocs and allocated MB.
func memDelta(fn func()) (mallocs float64, allocMB float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc-a.TotalAlloc) / 1e6
}

// heapMB is the live heap after a collection.
func heapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// medianOf runs fn n times (each in its own span) and returns the median
// duration in ms.
func medianOf(rc *recorder, parent *span, layer, name string, n int, fn func()) float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, ms(rc.timed(parent, layer, name, fn)))
	}
	return median(xs)
}

// countRecords counts every record of a batch.
func countRecords(b *trace.RecordBatch) int {
	return len(b.Topologies) + len(b.TaskTypes) + len(b.Tasks) + len(b.States) + len(b.Discrete) +
		len(b.Descs) + len(b.Samples) + len(b.Comms) + len(b.Regions)
}

func runLayers(cfg config, in *inputs, r *report) error {
	li, err := layerInputsFor(cfg, in)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(li.raw)
	if err != nil {
		return err
	}
	rc := &recorder{}
	mb := float64(len(raw)) / 1e6

	// trace: batched decode of the raw bytes.
	var records int
	decodeMs := medianOf(rc, nil, "trace", "ReadBatched", reps, func() {
		records = 0
		err = trace.ReadBatched(bytes.NewReader(raw), 0, func(b *trace.RecordBatch) error {
			records += countRecords(b)
			return nil
		})
	})
	if err != nil {
		return err
	}
	r.add("trace.decode_s", decodeMs/1e3, "s")
	r.add("trace.decode_mb_s", mb/(decodeMs/1e3), "MB/s")
	r.add("trace.records", float64(records), "count")

	// core: the batch builder (decode included; build_s subtracts it)
	// and the live builder over the same bytes.
	var tr *core.Trace
	heap0 := heapMB()
	var buildMs float64
	allocs, allocMB := memDelta(func() {
		buildMs = ms(rc.timed(nil, "core", "FromReader", func() { tr, err = core.FromReader(bytes.NewReader(raw)) }))
	})
	if err != nil {
		return err
	}
	r.add("core.build_s", (buildMs-decodeMs)/1e3, "s")
	r.add("core.build_allocs", allocs, "count")
	r.add("core.build_alloc_mb", allocMB, "MB")
	r.add("core.heap_mb", heapMB()-heap0, "MB")
	liveMs := ms(rc.timed(nil, "core", "FromDecoder", func() {
		_, err = core.FromDecoder(trace.NewStreamReader(bytes.NewReader(raw)))
	}))
	if err != nil {
		return err
	}
	r.add("core.live_build_s", liveMs/1e3, "s")
	r.add("core.live_vs_batch", liveMs/buildMs, "ratio")
	runtime.GC()

	// ingest: one Open per format, the span importer, the store mmap.
	for _, f := range []struct{ name, path string }{{"native", li.raw}, {"gzip", li.gz}, {"store", li.store}, {"spans", li.spans}} {
		var t *core.Trace
		d := rc.timed(nil, "ingest", "Open "+f.name, func() { t, err = ingest.Open(f.path) })
		if err != nil {
			return fmt.Errorf("ingest.Open %s: %w", f.name, err)
		}
		t.Close()
		runtime.GC()
		r.add("ingest.open_s."+f.name, d.Seconds(), "s")
	}
	sf, err := os.Open(li.spans)
	if err != nil {
		return err
	}
	var rep *aftermath.ImportReport
	d := rc.timed(nil, "ingest", "ImportSpans", func() { _, rep, err = ingest.ImportSpans(sf) })
	sf.Close()
	if err != nil {
		return err
	}
	runtime.GC()
	r.add("ingest.spans_per_s", float64(rep.Spans)/d.Seconds(), "1/s")
	var st *core.Trace
	storeMs := medianOf(rc, nil, "store", "OpenStore", reps, func() {
		if st, err = core.OpenStore(li.store); err == nil {
			st.Close()
		}
	})
	if err != nil {
		return err
	}
	r.add("store.open_ms", storeMs, "ms")

	queryLayer(cfg, rc, tr, r)
	anomalyLayer(rc, tr, r)
	if err := renderLayer(rc, tr, r); err != nil {
		return err
	}
	if err := uiLayer(cfg, rc, tr, r); err != nil {
		return err
	}
	tr = nil
	runtime.GC()
	var ends []int
	if cfg.workload == "follow-kmeans" {
		ends, _ = chunkEnds(len(raw), cfg.seconds)
	} else {
		for i := 1; i <= liveChunks; i++ {
			ends = append(ends, len(raw)*i/liveChunks)
		}
	}
	if err := liveLayer(rc, raw, ends, r); err != nil {
		return err
	}

	for layer, d := range selfTimes(rc.spans) {
		r.info("self_s."+layer, d.Seconds(), "s")
	}
	sort.Slice(r.infos, func(i, j int) bool { return r.infos[i].Name < r.infos[j].Name })
	if err := rc.writeJSONL(cfg.spans); err != nil {
		return err
	}
	f, err := os.Open(cfg.spans)
	if err != nil {
		return err
	}
	defer f.Close()
	_, srep, err := aftermath.ImportSpans(f)
	r.check(err == nil && srep.Spans == len(rc.spans), "spans file %s does not import: %v", cfg.spans, err)
	note("spans: %d written to %s", len(rc.spans), cfg.spans)
	return nil
}

// queryLayer times the executors over the first views of the workload
// walk.
func queryLayer(cfg config, rc *recorder, tr *core.Trace, r *report) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var statsMs, matrixMs, seriesMs, anomMs []float64
	for i, v := range walk(rng, tr.Span.Start, tr.Span.End, 12) {
		root := rc.root("bench", fmt.Sprintf("query step %d", i))
		q := func() *query.Query { return query.New().Window(v.t0, v.t1) }
		statsMs = append(statsMs, ms(rc.timed(root, "query", "StatsOf", func() { query.StatsOf(tr, q()) })))
		matrixMs = append(matrixMs, ms(rc.timed(root, "query", "CommMatrixOf", func() { query.CommMatrixOf(tr, q()) })))
		seriesMs = append(seriesMs, ms(rc.timed(root, "query", "SeriesOf", func() {
			_, _ = query.SeriesOf(tr, q().Metric("idle").Intervals(100+i)) // idle always resolves
		})))
		anomMs = append(anomMs, ms(rc.timed(root, "query", "AnomaliesOf", func() {
			_, _ = query.AnomaliesOf(tr, q()) // no kind selected: cannot fail
		})))
		root.end()
	}
	r.add("query.stats_ms_p50", median(statsMs), "ms")
	r.add("query.matrix_ms_p50", median(matrixMs), "ms")
	r.add("query.series_ms_p50", median(seriesMs), "ms")
	r.add("query.anomalies_ms_p50", median(anomMs), "ms")
}

// anomalyLayer times the full-span scan and each registered detector
// alone.
func anomalyLayer(rc *recorder, tr *core.Trace, r *report) {
	var found []anomaly.Anomaly
	r.add("anomaly.scan_ms", medianOf(rc, nil, "anomaly", "Scan", reps, func() { found = anomaly.Scan(tr, anomaly.Config{}) }), "ms")
	r.add("anomaly.findings", float64(len(found)), "count")
	for _, d := range anomaly.Detectors() {
		r.add("anomaly.detector_ms."+d.Name(), medianOf(rc, nil, "anomaly", "ScanWith "+d.Name(), reps, func() {
			anomaly.ScanWith(tr, anomaly.Config{}, d)
		}), "ms")
	}
}

// renderLayer times the full-span timeline in every mode, its PNG
// encoding, the idle plot and the communication matrix.
func renderLayer(rc *recorder, tr *core.Trace, r *report) error {
	var encMs, pngKB []float64
	var err error
	for _, m := range modes {
		mode, perr := render.ParseMode(m)
		if perr != nil {
			return perr
		}
		q := query.New().Mode(mode).Size(1100, 420)
		var fb *render.Framebuffer
		var rs render.Stats
		r.add("render.timeline_ms."+m, medianOf(rc, nil, "render", "Timeline "+m, reps, func() {
			fb, rs, err = query.TimelineOf(tr, q)
		}), "ms")
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		encMs = append(encMs, ms(rc.timed(nil, "render", "EncodePNG "+m, func() { err = fb.EncodePNG(&buf) })))
		if err != nil {
			return err
		}
		pngKB = append(pngKB, float64(buf.Len())/1024)
		a, _ := memDelta(func() { _, _, err = query.TimelineOf(tr, q) })
		r.add("render.timeline_allocs."+m, a, "count")
		if m == "state" {
			r.add("render.rects_per_cell", float64(rs.Rects)/float64(max(1, rs.PixelColumns)), "ratio")
			a, _ = memDelta(func() { err = fb.EncodePNG(&bytes.Buffer{}) })
			r.add("render.encode_allocs", a, "count")
		}
		if err != nil {
			return err
		}
	}
	r.add("render.encode_ms_p50", median(encMs), "ms")
	r.add("render.png_kb", median(pngKB), "KiB")
	series, err := query.SeriesOf(tr, query.New().Metric("idle").Intervals(200))
	if err != nil {
		return err
	}
	r.add("render.plot_ms", medianOf(rc, nil, "render", "PlotSeries", reps, func() {
		_, err = render.PlotSeries(render.PlotConfig{Width: 1100, Height: 180, Title: "IDLE"}, series)
	}), "ms")
	if err != nil {
		return err
	}
	cm := query.CommMatrixOf(tr, query.New())
	r.add("render.matrix_ms", medianOf(rc, nil, "render", "RenderMatrix", reps, func() { render.RenderMatrix(cm, 14) }), "ms")
	return nil
}

// uiLayer replays the workload's requests over HTTP against an
// in-process viewer of tr: a miss pass (each body checked against its
// reference, whose direct timing gives the miss overhead), hit passes
// with tracing on and off, and a two-client Zipf mix on a fresh cache
// for the hit ratio and singleflight coalescing.
func uiLayer(cfg config, rc *recorder, tr *core.Trace, r *report) error {
	urls := workloadURLs(cfg.workload, cfg.seed, tr)
	hs := httptest.NewServer(ui.NewServer(tr, "bench"))
	defer hs.Close()
	var overhead []float64
	for _, rel := range dedupe(urls) {
		root := rc.root("bench", "GET "+rel)
		var sm sample
		rc.timed(root, "ui", "miss", func() { sm = get(hs.URL+"/"+rel, new(bytes.Buffer)) })
		var want []byte
		var err error
		direct := rc.timed(root, "query", "reference", func() { want, _, err = reference(tr, rel) })
		root.end()
		r.check(err == nil && sm.status == http.StatusOK && sm.cache == "MISS" && bytes.Equal(sm.body, want),
			"in-process GET %s: status %d, X-Cache %q, body matches reference %v", rel, sm.status, sm.cache, bytes.Equal(sm.body, want))
		overhead = append(overhead, ms(sm.dur-direct))
	}
	r.add("ui.miss_overhead_ms_p50", median(overhead), "ms")

	hitPass := func(rc *recorder) []float64 {
		var xs []float64
		for _, rel := range urls {
			root := rc.root("bench", "GET "+rel)
			var sm sample
			rc.timed(root, "ui", "hit", func() { sm = get(hs.URL+"/"+rel, new(bytes.Buffer)) })
			root.end()
			r.check(sm.status == http.StatusOK && sm.cache == "HIT", "in-process GET %s: status %d, X-Cache %q on a warm cache", rel, sm.status, sm.cache)
			xs = append(xs, ms(sm.dur))
		}
		return xs
	}
	// Untraced and traced passes alternate, each going first in turn, so
	// that neither the host's drift nor the order passes for tracing
	// overhead.
	var hits, untraced []float64
	for p := 0; p < 4; p++ {
		if p%2 == 0 {
			untraced = append(untraced, hitPass(nil)...)
		}
		hits = append(hits, hitPass(rc)...)
		if p%2 == 1 {
			untraced = append(untraced, hitPass(nil)...)
		}
	}
	r.add("ui.hit_ms_p50", median(hits), "ms")
	ht, _, _ := tail(hits)
	r.add("ui.hit_ms_tail", ht, "ms")
	r.add("bench.trace_overhead_pct", 100*(median(hits)-median(untraced))/median(untraced), "%")

	// Allocations of one cache-hit request, handler only.
	srv := ui.NewServer(tr, "bench")
	req := httptest.NewRequest(http.MethodGet, "/"+urls[0], nil)
	srv.ServeHTTP(httptest.NewRecorder(), req)
	var hitAllocs []float64
	for i := 0; i < 5; i++ {
		w := httptest.NewRecorder()
		a, _ := memDelta(func() { srv.ServeHTTP(w, req) })
		hitAllocs = append(hitAllocs, a)
	}
	r.add("ui.hit_allocs", median(hitAllocs), "count")

	return uiMix(cfg, rc, tr, urls, r)
}

// uiMix runs the two-client Zipf mix on a fresh in-process viewer. A hit
// that started before the miss of its key finished waited on that miss:
// it was coalesced by the singleflight.
func uiMix(cfg config, rc *recorder, tr *core.Trace, urls []string, r *report) error {
	hs := httptest.NewServer(ui.NewServer(tr, "bench"))
	defer hs.Close()
	const perClient = 600
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for c := 0; c < hubClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*hubClients + int64(c)))
			z := rand.NewZipf(rng, 1.1, 1, uint64(len(urls)-1))
			for i := 0; i < perClient; i++ {
				rel := urls[z.Uint64()]
				root := rc.root("bench", "GET "+rel)
				var sm sample
				rc.timed(root, "ui", "mix", func() { sm = get(hs.URL+"/"+rel, new(bytes.Buffer)) })
				root.end()
				sm.body = nil
				mu.Lock()
				all = append(all, sm)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	missEnd := map[string]time.Time{}
	var nHit, nMiss, coalesced int
	for _, sm := range all {
		r.check(sm.status == http.StatusOK, "in-process mix GET %s: status %d", sm.url, sm.status)
		if sm.cache == "MISS" {
			nMiss++
			missEnd[sm.url] = sm.start.Add(sm.dur)
		}
	}
	for _, sm := range all {
		if sm.cache == "HIT" {
			nHit++
			if end, ok := missEnd[sm.url]; ok && sm.start.Before(end) {
				coalesced++
			}
		}
	}
	r.add("ui.hits", float64(nHit), "count")
	r.add("ui.misses", float64(nMiss), "count")
	r.add("ui.hit_ratio", float64(nHit)/float64(max(1, nHit+nMiss)), "ratio")
	r.add("ui.coalesced", float64(coalesced), "count")
	return nil
}

// liveLayer replays raw through the live path in the given append
// schedule: StreamReader.Poll, Live.Append and Live.Publish per chunk,
// with an in-process live viewer whose SSE stream must deliver each
// published epoch.
func liveLayer(rc *recorder, raw []byte, ends []int, r *report) error {
	lv := core.NewLive()
	hs := httptest.NewServer(ui.NewLiveServer(lv, "bench"))
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &frameLog{wake: make(chan struct{}, 1)}
	done, err := subscribe(ctx, hs.URL+"/events", log.add)
	if err != nil {
		return err
	}
	g := &growReader{data: raw}
	sr := trace.NewStreamReader(g)
	var pollMs, appendMs, publishMs, pushMs, sizeMB []float64
	epochs := 0
	for i, end := range ends {
		g.limit = end
		root := rc.root("bench", fmt.Sprintf("chunk %d", i))
		var batches []*trace.RecordBatch
		pollMs = append(pollMs, ms(rc.timed(root, "trace", "Poll", func() {
			_, err = sr.Poll(func(b *trace.RecordBatch) error {
				batches = append(batches, b)
				return nil
			})
		})))
		if err != nil {
			return err
		}
		appendMs = append(appendMs, ms(rc.timed(root, "core", "Append", func() { err = lv.Append(batches...) })))
		if err != nil {
			return err
		}
		var epoch uint64
		publishMs = append(publishMs, ms(rc.timed(root, "core", "Publish", func() { _, epoch = lv.Publish() })))
		epochs++
		published := time.Now()
		push := root.child("ui", "push")
		at, ok := log.first(func(st liveStatus) bool { return st.Epoch >= epoch }, frameTimeout)
		push.end()
		root.end()
		if r.check(ok, "in-process live viewer: no SSE frame for epoch %d", epoch) {
			pushMs = append(pushMs, ms(at.Sub(published)))
		}
		sizeMB = append(sizeMB, float64(end)/1e6)
	}
	cancel()
	<-done
	r.add("trace.poll_ms_p50", median(pollMs), "ms")
	addTail := func(name string, xs []float64) {
		r.add(name+"_p50", median(xs), "ms")
		t, _, _ := tail(xs)
		r.add(name+"_tail", t, "ms")
	}
	addTail("core.append_ms", appendMs)
	addTail("core.publish_ms", publishMs)
	r.add("core.publish_ms_per_mb", slope(sizeMB, publishMs), "ms/MB")
	r.add("ui.push_ms_p50", median(pushMs), "ms")
	r.add("ui.frames_per_epoch", float64(log.count())/float64(max(1, epochs)), "ratio")
	return nil
}

// dedupe keeps the first occurrence of each string.
func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
