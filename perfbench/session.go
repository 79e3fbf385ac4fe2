package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// session accumulates the requests of one workload against its servers:
// their latencies and X-Cache answers, completion counts, and the served
// bodies for the reference check. Safe for concurrent clients.
type session struct {
	base string
	r    *report

	mu   sync.Mutex
	reqs []request
	ver  map[string]served // trace prefix -> bodies served
}

// request is one completed 200 of a session.
type request struct {
	key        string // the full URL, server included
	cache      string // X-Cache: MISS, HIT or empty
	start, end time.Time
}

func newSession(r *report) *session {
	return &session{r: r, ver: map[string]served{}}
}

// fetch requests prefix+rel (prefix is "/" for a single-trace viewer,
// "/t/<name>/" on a hub), checks the status and records the latency
// and the body.
func (s *session) fetch(prefix, rel string) {
	s.do(prefix, rel, true, true, nil)
}

// do fetches prefix+rel and checks that it answers 200 and that check
// (if not nil) accepts the body. record adds the request to the
// session's latency samples, keep its body to the reference check. It
// returns the request and whether it answered 200.
func (s *session) do(prefix, rel string, record, keep bool, check func([]byte) bool) (request, bool) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	sm := get(s.base+prefix+rel, buf)
	if check != nil && sm.status == http.StatusOK {
		s.r.check(check(sm.body), "GET %s%s: malformed body", prefix, rel)
	}
	q := request{s.base + prefix + rel, sm.cache, sm.start, sm.start.Add(sm.dur)}
	if !s.r.check(sm.status == http.StatusOK, "GET %s%s: status %d", prefix, rel, sm.status) {
		return q, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if record {
		s.reqs = append(s.reqs, q)
	}
	if keep && rel != "" {
		if s.ver[prefix] == nil {
			s.ver[prefix] = served{}
		}
		s.ver[prefix].add(rel, sm.body)
	}
	return q, true
}

// phase is the stretch of a session that gives its warm samples, cut
// into equal slices. Warm figures are medians over the slices of each
// slice's figure, so that one collection or scheduler stall in the
// client or the server does not decide a run.
type phase struct {
	from, to time.Time
	slices   int
}

// slice returns which slice t falls in, or -1 outside the phase.
func (p phase) slice(t time.Time) int {
	if t.Before(p.from) || !t.Before(p.to) || p.slices < 1 {
		return -1
	}
	return int(int64(t.Sub(p.from)) * int64(p.slices) / int64(p.to.Sub(p.from)))
}

// sliceOf numbers the slices of ps in order and returns the number of
// the one t falls in, or -1 outside every phase.
func sliceOf(ps []phase, t time.Time) int {
	off := 0
	for _, p := range ps {
		if i := p.slice(t); i >= 0 {
			return off + i
		}
		off += p.slices
	}
	return -1
}

// sliceLens returns the length of every slice of ps, in order.
func sliceLens(ps []phase) []time.Duration {
	var out []time.Duration
	for _, p := range ps {
		for i := 0; i < p.slices; i++ {
			out = append(out, p.to.Sub(p.from)/time.Duration(p.slices))
		}
	}
	return out
}

// latencyMetrics reports the cold and warm medians and tails. Cold are
// the misses, and the hits that started while their key's miss was
// still running: those waited on the miss's render (the viewer
// coalesces concurrent misses of one key) and only the rest are served
// from the cache. Warm are the other hits that started within warm.
func (s *session) latencyMetrics(warm ...phase) {
	s.mu.Lock()
	defer s.mu.Unlock()
	missEnd := map[string]time.Time{}
	for _, q := range s.reqs {
		if q.cache == "MISS" {
			missEnd[q.key] = q.end
		}
	}
	var cold []float64
	lens := sliceLens(warm)
	bySlice := make([][]float64, len(lens))
	coalesced, nWarm := 0, 0
	for _, q := range s.reqs {
		d := ms(q.end.Sub(q.start))
		switch {
		case q.cache == "HIT" && q.start.Before(missEnd[q.key]):
			coalesced++
			cold = append(cold, d)
		case q.cache == "HIT":
			if i := sliceOf(warm, q.start); i >= 0 {
				bySlice[i] = append(bySlice[i], d)
				nWarm++
			}
		case q.cache == "MISS":
			cold = append(cold, d)
		}
	}
	addLatency(s.r, "cold", cold)
	note("cold: %d hits waited on their key's miss", coalesced)
	var p50s, tails []float64
	for _, xs := range bySlice {
		p50s = append(p50s, median(xs))
		t, _, _ := tail(xs)
		tails = append(tails, t)
	}
	// Printed, not gated: on a shared 2-vCPU virtual machine, the p50 of
	// sub-millisecond hits drifted up to 2x between runs with the host's
	// load, beyond any usable regression bound.
	s.r.info("warm_p50_ms", median(p50s), "ms")
	s.r.info("warm_tail_ms", median(tails), "ms")
	_, pct, _ := tail(bySlice[0])
	note("warm: %d samples in %d slices of %.2fs, tail is p%.0f per slice", nWarm, len(lens), lens[0].Seconds(), pct)
}

// scanAnomalies requests every window of /anomalies on prefix reps
// times, and returns each window's median latency. Pass k requests
// every window in turn, each moved k nanoseconds later so that each
// request is a distinct key and a fresh scan; the passes spread each
// window's samples over the scan. The scans are checked like every body
// but are not part of the cold and warm samples.
func (s *session) scanAnomalies(prefix string, windows []view, reps int) []float64 {
	xs := make([][]float64, len(windows))
	for k := int64(0); k < int64(reps); k++ {
		for i, v := range windows {
			q, ok := s.do(prefix, "anomalies?"+view{v.t0 + k, v.t1 + k}.params(), false, true, nil)
			if ok && s.r.check(q.cache == "MISS", "GET %s: X-Cache %q, want a fresh scan", q.key, q.cache) {
				xs[i] = append(xs[i], ms(q.end.Sub(q.start)))
			}
		}
	}
	var out []float64
	for _, w := range xs {
		if len(w) > 0 {
			out = append(out, median(w))
		}
	}
	return out
}

// throughput is the median over the slices of ps of the requests
// completed per second.
func (s *session) throughput(ps ...phase) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lens := sliceLens(ps)
	rates := make([]float64, len(lens))
	for _, q := range s.reqs {
		if i := sliceOf(ps, q.end); i >= 0 {
			rates[i] += 1 / lens[i].Seconds()
		}
	}
	return median(rates)
}

// addLatency reports <name>_p50_ms and <name>_tail_ms, noting the
// sample count and the percentile the tail stands for.
func addLatency(r *report, name string, xs []float64) {
	r.add(name+"_p50_ms", median(xs), "ms")
	t, pct, ok := tail(xs)
	r.add(name+"_tail_ms", t, "ms")
	if !ok {
		note("%s tail: only %d samples, reporting the maximum", name, len(xs))
		return
	}
	note("%s: %d samples, tail is p%.1f", name, len(xs), pct)
}

// firstView loads what the index page fetches on first paint: the page,
// the coarse level-3 tile and plot, their exact refinements and the
// interval statistics. It returns the wall time of the whole set.
func (s *session) firstView(prefix string, span [2]int64) time.Duration {
	start := time.Now()
	w := fmt.Sprintf("t0=%d&t1=%d", span[0], span[1])
	for _, rel := range []string{
		"",
		"render?mode=state&" + w + "&w=1100&h=420&level=3",
		"plot?kind=idle&w=1100&h=180&level=3",
		"render?mode=state&" + w + "&w=1100&h=420",
		"plot?kind=idle&w=1100&h=180",
		"stats?" + w,
	} {
		s.fetch(prefix, rel)
	}
	return time.Since(start)
}

// liveOf fetches and decodes a /live status.
func liveOf(url string) (liveStatus, error) {
	sm := get(url, new(bytes.Buffer))
	var st liveStatus
	if sm.status != http.StatusOK {
		return st, fmt.Errorf("GET %s: status %d", url, sm.status)
	}
	return st, json.Unmarshal(sm.body, &st)
}

// modes are the six timeline modes, in the order the walk rotates them.
var modes = []string{"state", "heatmap", "typemap", "numa-read", "numa-write", "numa-heat"}

// view is one timeline window.
type view struct{ t0, t1 int64 }

func (v view) params() string { return fmt.Sprintf("t0=%d&t1=%d", v.t0, v.t1) }

// walk generates a seeded pan/zoom path over [start, end). The zoom
// depth follows a fixed zigzag, in by halves from the full span down to
// 1/256 of it and back out, and the view pans along a golden-ratio
// sweep of the span, so every stretch of the path mixes the same depths
// and places in every run's trace. The seed moves each view by up to an
// eighth of its width.
func walk(rng *rand.Rand, start, end int64, steps int) []view {
	const maxDepth = 8
	const golden = 0.6180339887498949
	span := end - start
	out := make([]view, 0, steps)
	for i := 0; i < steps; i++ {
		depth := i % (2 * maxDepth)
		if depth > maxDepth {
			depth = 2*maxDepth - depth
		}
		w := span >> depth
		frac := math.Mod(0.5+float64(i)*golden, 1)
		c := start + int64(frac*float64(span)) + int64((rng.Float64()-0.5)*float64(w)/16)
		out = append(out, clampView(view{c - w/2, c - w/2 + w}, start, end))
	}
	return out
}

// clampView shifts v into [start, end), shrinking it to fit.
func clampView(v view, start, end int64) view {
	w := v.t1 - v.t0
	if w >= end-start {
		return view{start, end}
	}
	if v.t0 < start {
		v = view{start, start + w}
	}
	if v.t1 > end {
		v = view{end - w, end}
	}
	return v
}

// fixedView is the window of width span/div centered at frac of the
// span, moved by a seeded jitter of up to 1/512 of the span: the same
// place in every run's trace, give or take.
func fixedView(rng *rand.Rand, start, end int64, div int64, frac float64) view {
	span := end - start
	w := span / div
	c := start + int64(frac*float64(span)) + int64((rng.Float64()-0.5)*float64(span)/256)
	return clampView(view{c - w/2, c - w/2 + w}, start, end)
}

// stepURLs are the requests of walk step i on view v: the coarse and
// exact tiles in the step's mode and the interval statistics; every
// third step adds the communication matrix and a metric plot.
func stepURLs(i int, v view) []string {
	m := modes[i%len(modes)]
	urls := []string{
		"render?mode=" + m + "&" + v.params() + "&w=1100&h=420&level=3",
		"render?mode=" + m + "&" + v.params() + "&w=1100&h=420",
		"stats?" + v.params(),
	}
	if i%3 == 2 {
		kind := []string{"idle", "avgdur"}[(i/3)%2]
		urls = append(urls, "matrix?"+v.params(),
			fmt.Sprintf("plot?kind=%s&w=1100&h=180&n=%d", kind, 100+i))
	}
	return urls
}

// anomalyWindows is the seeded fixed set of /anomalies windows: widths
// of 1/2, 1/4 and 1/8 of the span, each at four places along it (see
// fixedView). A scan's cost follows its width, so the median window is
// one of the middle width, not the border between two widths.
func anomalyWindows(rng *rand.Rand, start, end int64) []view {
	var out []view
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, div := range []int64{2, 4, 8} {
			out = append(out, fixedView(rng, start, end, div, frac))
		}
	}
	return out
}
