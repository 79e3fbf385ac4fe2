package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	aftermath "github.com/openstream/aftermath"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		v, pct, ok := tail(xs)
		if n < 20 {
			if ok || v != float64(n) {
				t.Fatalf("n=%d: got (%v, %v, %v), want the maximum unresolved", n, v, pct, ok)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Fatalf("n=%d: tail p%v = %v has %d samples beyond, want >= %d", n, pct, v, beyond, tailBeyond)
		}
		for _, higher := range tailLadder {
			if higher <= pct {
				break
			}
			if rank := nearestRank(higher, n); n-rank >= tailBeyond {
				t.Fatalf("n=%d: p%v also has ten samples beyond, tail chose p%v", n, higher, pct)
			}
		}
	}
}

func TestTailExamples(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		pct, at float64
	}{
		{20, 50, 10}, {40, 75, 30}, {100, 90, 90}, {200, 95, 190}, {10000, 95, 9500},
	} {
		v, pct, ok := tail(seq(c.n))
		if !ok || pct != c.pct || v != c.at {
			t.Errorf("n=%d: tail = p%v %v (ok %v), want p%v %v", c.n, pct, v, ok, c.pct, c.at)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := spanRec{trace: 1, id: 1, layer: "bench", start: at(0), end: at(100)}
	spans := []spanRec{
		root,
		// Overlapping children cover [10,50); the last one overhangs the
		// root and counts only up to its end.
		{trace: 1, id: 2, parent: 1, layer: "query", start: at(10), end: at(30)},
		{trace: 1, id: 3, parent: 1, layer: "render", start: at(20), end: at(50)},
		{trace: 1, id: 4, parent: 1, layer: "render", start: at(90), end: at(120)},
		// A grandchild is covered by its parent, not by the root.
		{trace: 1, id: 5, parent: 3, layer: "render", start: at(25), end: at(35)},
	}
	if got, want := selfTime(root, spans[1:4]), 50*time.Millisecond; got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":  50 * time.Millisecond,
		"query":  20 * time.Millisecond,
		"render": (30 - 10 + 30 + 10) * time.Millisecond,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if leaf := selfTime(spans[1], nil); leaf != 20*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", leaf)
	}
}

func TestSpansImport(t *testing.T) {
	rc := &recorder{}
	for i := 0; i < 3; i++ {
		root := rc.root("bench", "GET render")
		rc.timed(root, "query", "TimelineOf", func() { time.Sleep(time.Millisecond) })
		c := root.child("render", "EncodePNG")
		c.child("render", "deflate").end()
		c.end()
		root.end()
	}
	var none *recorder
	none.timed(none.root("bench", "untraced"), "ui", "hit", func() {})
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rc.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, rep, err := aftermath.ImportSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 12 || rep.Traces != 3 || len(tr.Tasks) != 12 {
		t.Fatalf("imported %d spans in %d traces (%d tasks), want 12 in 3", rep.Spans, rep.Traces, len(tr.Tasks))
	}
	services := map[string]bool{}
	for _, s := range rep.Services {
		services[s.Name] = true
	}
	for _, want := range []string{"bench", "query", "render"} {
		if !services[want] {
			t.Errorf("service %q missing from the import: %+v", want, rep.Services)
		}
	}
}

func TestGenSpansCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	n, err := genSpans(path, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, rep, err := aftermath.ImportSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2000 || rep.Spans != n || len(tr.Tasks) != n {
		t.Fatalf("generated %d spans, imported %d as %d tasks", n, rep.Spans, len(tr.Tasks))
	}
}

func TestSliceOfNumbersAcrossPhases(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ps := []phase{{at(0), at(1000), 4}, {at(5000), at(5500), 2}}
	for _, c := range []struct {
		ms, want int
	}{
		{-1, -1}, {0, 0}, {249, 0}, {250, 1}, {999, 3}, {1000, -1}, {4999, -1}, {5000, 4}, {5499, 5}, {5500, -1},
	} {
		if got := sliceOf(ps, at(c.ms)); got != c.want {
			t.Errorf("sliceOf(%d ms) = %d, want %d", c.ms, got, c.want)
		}
	}
	lens := sliceLens(ps)
	if len(lens) != 6 || lens[0] != 250*time.Millisecond || lens[5] != 250*time.Millisecond {
		t.Errorf("sliceLens = %v, want six slices of 250ms", lens)
	}
}

func TestServedCountsBodiesUnlikeTheFirst(t *testing.T) {
	sv := served{}
	buf := []byte("same")
	sv.add("stats", buf)
	buf[0] = 'S' // add must not keep the caller's buffer
	sv.add("stats", []byte("same"))
	sv.add("stats", []byte("other"))
	b := sv["stats"]
	if string(b.first) != "same" || b.n != 3 || b.differ != 1 {
		t.Fatalf("got first %q, %d bodies, %d unlike the first; want \"same\", 3, 1", b.first, b.n, b.differ)
	}
}

func TestFinalURLPassesAreDistinctKeys(t *testing.T) {
	sets := finalURLs(rand.New(rand.NewSource(1)), 1000, 1_000_000, 3)
	seen := map[string]bool{}
	for k, set := range sets {
		if len(set) != 28 {
			t.Fatalf("pass %d has %d URLs, want 28", k, len(set))
		}
		for _, u := range set {
			if seen[u] {
				t.Errorf("pass %d repeats %q", k, u)
			}
			seen[u] = true
		}
	}
	for _, u := range []string{"render?mode=state&w=1100&h=420", "stats", "render?mode=heatmap&t0=1002&t1=1000002&w=1100&h=420", "stats?t0=1001&t1=1000001"} {
		if !seen[u] {
			t.Errorf("no pass requests %q", u)
		}
	}
}
