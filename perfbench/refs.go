package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/openstream/aftermath/internal/anomaly"
	"github.com/openstream/aftermath/internal/core"
	"github.com/openstream/aftermath/internal/query"
	"github.com/openstream/aftermath/internal/render"
)

// The reference side of the output checks: every body the server
// returns is recomputed in-process from the same file, through the
// query executors and EncodePNG or json.Marshal, and compared byte for
// byte.
// The request parameters are resolved with the defaults and clamps the
// viewer documents for each endpoint.

// reference computes the body the viewer should return for rel, an
// endpoint-relative URL such as "render?mode=state&w=1100", together
// with the time the direct exec, render and encode took.
func reference(tr *core.Trace, rel string) ([]byte, time.Duration, error) {
	path, raw, _ := strings.Cut(rel, "?")
	v, err := url.ParseQuery(raw)
	if err != nil {
		return nil, 0, err
	}
	q, err := query.FromValues(v)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var body []byte
	switch path {
	case "render":
		body, err = refRender(tr, q, v)
	case "matrix":
		q.Window(query.WindowOf(tr, q))
		cell := intOr(v, "cell", 14, 4, 64)
		q = q.MatrixOnly(cell)
		body, err = encode(render.RenderMatrix(query.CommMatrixOf(tr, q), cell))
	case "plot":
		w, h := intOr(v, "w", 800, 100, 4000), intOr(v, "h", 220, 50, 2000)
		q.Metric(strOr(v, "kind", "idle")).Intervals(intOr(v, "n", 200, 10, 2000)).Level(intOr(v, "level", 0, 0, 12))
		q = q.SeriesOnly(w, h)
		series, serr := query.SeriesOf(tr, q)
		if serr != nil {
			return nil, 0, serr
		}
		fb, perr := render.PlotSeries(render.PlotConfig{Width: w, Height: h, Title: strings.ToUpper(series.Name)}, series)
		if perr != nil {
			return nil, 0, perr
		}
		body, err = encode(fb)
	case "stats":
		q.Window(query.WindowOf(tr, q))
		body, err = jsonLine(query.StatsOf(tr, q.StatsOnly()))
	case "anomalies":
		body, err = refAnomalies(tr, q, v)
	default:
		return nil, 0, fmt.Errorf("no reference for endpoint %q", path)
	}
	return body, time.Since(start), err
}

func refRender(tr *core.Trace, q *query.Query, v url.Values) ([]byte, error) {
	q.Window(query.WindowOf(tr, q))
	q.Size(intOr(v, "w", 1000, 100, 4000), intOr(v, "h", 400, 50, 2000)).
		Shades(intOr(v, "shades", 10, 2, 64)).
		Level(intOr(v, "level", 0, 0, 12)).
		Labels(query.FlagParam(v, "labels", true))
	if v.Get("counter") == "" {
		q.Rate(true)
	}
	fb, _, err := query.TimelineOf(tr, q)
	if err != nil {
		return nil, err
	}
	return encode(fb)
}

// anomalyJSON mirrors one finding of the /anomalies body.
type anomalyJSON struct {
	Kind        string  `json:"kind"`
	Score       float64 `json:"score"`
	Start       int64   `json:"start"`
	End         int64   `json:"end"`
	CPU         int32   `json:"cpu"`
	Task        uint64  `json:"task,omitempty"`
	Counter     string  `json:"counter,omitempty"`
	Explanation string  `json:"explanation"`
}

type anomaliesJSON struct {
	Start     int64         `json:"start"`
	End       int64         `json:"end"`
	Count     int           `json:"count"`
	Anomalies []anomalyJSON `json:"anomalies"`
}

func refAnomalies(tr *core.Trace, q *query.Query, v url.Values) ([]byte, error) {
	t0, t1 := query.WindowOf(tr, q)
	t0, t1 = max(t0, tr.Span.Start), min(t1, tr.Span.End)
	q.Window(t0, t1)
	q.AnomalyWindows(intOr(v, "windows", anomaly.DefaultWindows, 8, 4096))
	q = q.ScanOnly().Limit(intOr(v, "n", 50, 1, 1000)).AnomalyKind(v.Get("kind"))
	found, err := query.AnomaliesOf(tr, q)
	if err != nil {
		return nil, err
	}
	resp := anomaliesJSON{Start: t0, End: t1, Anomalies: []anomalyJSON{}}
	for _, a := range found {
		resp.Anomalies = append(resp.Anomalies, anomalyJSON{
			Kind: a.Kind.String(), Score: a.Score, Start: a.Window.Start, End: a.Window.End,
			CPU: a.CPU, Task: uint64(a.TaskID), Counter: a.Counter, Explanation: a.Explanation,
		})
	}
	resp.Count = len(resp.Anomalies)
	return jsonLine(resp)
}

func encode(fb *render.Framebuffer) ([]byte, error) {
	var buf bytes.Buffer
	err := fb.EncodePNG(&buf)
	return buf.Bytes(), err
}

func jsonLine(v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

func intOr(v url.Values, key string, def, lo, hi int) int {
	n, err := query.IntParam(v, key, def)
	if err != nil {
		n = def
	}
	return min(max(n, lo), hi)
}

func strOr(v url.Values, key, def string) string {
	if s := v.Get(key); s != "" {
		return s
	}
	return def
}

// served holds, per endpoint-relative URL, the first 200 body a session
// received, how many it received, and how many of the later ones
// differed from the first. References are computed after the server
// has stopped, outside every timed region.
type served map[string]*bodies

type bodies struct {
	first  []byte
	n      int // bodies received
	differ int // later bodies unlike the first
}

// add records body, served for rel; it does not keep body.
func (sv served) add(rel string, body []byte) {
	b := sv[rel]
	if b == nil {
		sv[rel] = &bodies{first: bytes.Clone(body), n: 1}
		return
	}
	b.n++
	if !bytes.Equal(b.first, body) {
		b.differ++
	}
}

// verify checks every served body against its reference on tr, byte
// for byte: the first of each URL directly, the others through their
// comparison with the first. Each body counts as one checked operation.
// The references are computed by one worker per CPU.
func (sv served) verify(tr *core.Trace, r *report) {
	rels := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rel := range rels {
				b := sv[rel]
				want, _, err := reference(tr, rel)
				ok := err == nil && bytes.Equal(b.first, want)
				for i := 0; i < b.n; i++ {
					r.check(ok && i < b.n-b.differ, "body of %s differs from its in-process reference (err %v, %d of %d unlike the first)", rel, err, b.differ, b.n)
				}
			}
		}()
	}
	for rel := range sv {
		rels <- rel
	}
	close(rels)
	wg.Wait()
}
