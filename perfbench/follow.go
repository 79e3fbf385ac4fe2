package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/openstream/aftermath/internal/ingest"
	"github.com/openstream/aftermath/internal/trace"
)

// The follow-kmeans schedule. Chunk size, rate and total bytes are part
// of the workload: push latency grows with the size of the followed
// trace.
const (
	followChunk    = 256 << 10              // bytes per paced append
	followInterval = 125 * time.Millisecond // one chunk per interval: 2 MiB/s
	followAttach   = 8                      // chunks written before the server starts
	followPoll     = "100ms"                // the server's -poll interval
	frameTimeout   = 10 * time.Second       // a chunk not pushed by then is a missed frame
)

// setupsPerPass is how many times a follow run starts a server of its
// own on the attach prefix after each final-epoch cold pass, besides
// the start of the followed server. Starting on 2 MB takes a tenth of a
// second, so many starts are cheap; spreading them over the run keeps a
// few slow seconds of the host from deciding setup_s and first_view_ms.
const setupsPerPass = 2

// counts are the cumulative record counts a /live status or SSE frame
// reports: state, discrete and communication events, and counter
// samples.
type counts struct{ events, samples int64 }

func (c counts) coveredBy(st liveStatus) bool {
	return st.Events >= c.events && st.Samples >= c.samples
}

// growReader serves data[:limit] and reports io.EOF at the limit, so a
// StreamReader sees the file grow chunk by chunk.
type growReader struct {
	data       []byte
	off, limit int
}

func (g *growReader) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		return 0, io.EOF
	}
	n := copy(p, g.data[g.off:g.limit])
	g.off += n
	return n, nil
}

// prefixCounts decodes data as it grows by the given chunk ends and
// returns the record counts each prefix holds: the counts a frame must
// reach to deliver that chunk.
func prefixCounts(data []byte, ends []int) ([]counts, error) {
	g := &growReader{data: data}
	sr := trace.NewStreamReader(g)
	var c counts
	out := make([]counts, len(ends))
	for i, end := range ends {
		g.limit = end
		if _, err := sr.Poll(func(b *trace.RecordBatch) error {
			c.events += int64(len(b.States) + len(b.Discrete) + len(b.Comms))
			c.samples += int64(len(b.Samples))
			return nil
		}); err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// chunkEnds splits size bytes into the paced chunks of the schedule
// (after the attach prefix) and one final burst; it returns the end
// offset of every chunk, attach chunks included.
func chunkEnds(size, seconds int) (ends []int, paced int) {
	paced = seconds * int(time.Second/followInterval)
	for i := 1; i <= followAttach+paced && i*followChunk < size; i++ {
		ends = append(ends, i*followChunk)
	}
	paced = len(ends) - followAttach
	return append(ends, size), paced
}

// frameLog collects SSE epoch frames and wakes the reader on each.
type frameLog struct {
	mu     sync.Mutex
	frames []frame
	wake   chan struct{} // one slot: the reader only needs "something new"
}

func (l *frameLog) add(f frame) {
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// first returns the arrival of the first frame whose status satisfies
// ok, waiting up to timeout.
func (l *frameLog) first(ok func(liveStatus) bool, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		for _, f := range l.frames {
			if ok(f.st) {
				l.mu.Unlock()
				return f.at, true
			}
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// count returns the number of frames received after the stream's
// initial status frame.
func (l *frameLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(0, len(l.frames)-1)
}

// runFollow is the follow-kmeans session: -follow on a raw kmeans file
// that the benchmark grows open-loop on a fixed schedule, with one SSE
// subscriber and one client re-reading epochURLs after every pushed
// epoch. A final burst appends the rest of the file.
// Afterwards the served trace must equal a batch load of the file, and
// one client scans anomaly windows and replays a URL set on the final
// epoch.
func runFollow(cfg config, in *inputs, r *report) error {
	data, err := os.ReadFile(in.kmeans)
	if err != nil {
		return err
	}
	ends, paced := chunkEnds(len(data), cfg.seconds)
	need, err := prefixCounts(data, ends)
	if err != nil {
		return err
	}
	path := in.kmeans + ".follow"
	attach := in.kmeans + ".attach"
	if err := os.WriteFile(attach, data[:ends[followAttach-1]], 0o644); err != nil {
		return err
	}

	// start runs a -follow server on file, which holds the attach
	// prefix, and loads the first view from it; it records both times.
	sess := newSession(r)
	var setupS, firstMs []float64
	start := func(file string) (*server, error) {
		ready := func(b []byte) bool {
			var st liveStatus
			return json.Unmarshal(b, &st) == nil && need[followAttach-1].coveredBy(st)
		}
		s, d, err := startServer(cfg, fmt.Sprintf("follow-%d.log", len(setupS)), "/live", ready, "-follow", "-poll", followPoll, file)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		st, err := liveOf(s.base + "/live")
		if err != nil {
			s.stop()
			return nil, err
		}
		sess.base = s.base
		firstMs = append(firstMs, ms(sess.firstView("/", [2]int64{st.Start, st.End})))
		return s, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(data[:ends[followAttach-1]]); err != nil {
		return err
	}
	srv, err := start(path)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	log := &frameLog{wake: make(chan struct{}, 1)}
	sseDone, err := subscribe(ctx, srv.base+"/events", log.add)
	if err != nil {
		cancel()
		srv.stop()
		return err
	}
	readerDone := make(chan struct{})
	var epochReads []float64 // owned by the reader until readerDone
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-log.wake:
			}
			for _, rel := range epochURLs {
				if q, ok := sess.do("/", rel, false, false, func(b []byte) bool { return wellFormed(rel, b) }); ok {
					epochReads = append(epochReads, ms(q.end.Sub(q.start)))
				}
			}
		}
	}()

	// Paced phase: chunk i is due at paceStart + i*interval, whatever
	// the server does; latency counts from the due time.
	paceStart := time.Now()
	var lateness, push, sizeMB []float64
	for i := 0; i < paced; i++ {
		c := followAttach + i
		due := paceStart.Add(time.Duration(i) * followInterval)
		time.Sleep(time.Until(due))
		lateness = append(lateness, ms(time.Since(due)))
		if _, err := f.Write(data[ends[c-1]:ends[c]]); err != nil {
			cancel()
			srv.stop()
			return err
		}
	}
	for i := 0; i < paced; i++ {
		c := followAttach + i
		due := paceStart.Add(time.Duration(i) * followInterval)
		at, ok := log.first(need[c].coveredBy, time.Until(due.Add(frameTimeout)))
		if r.check(ok, "chunk %d: no epoch frame within %s of its due time", c, frameTimeout) {
			push = append(push, ms(at.Sub(due)))
			sizeMB = append(sizeMB, float64(ends[c])/1e6)
		}
	}

	// Burst: the rest of the file in one write, timed to the frame that
	// reports all of it.
	burst := len(data) - ends[len(ends)-2]
	burstAt := time.Now()
	if _, err := f.Write(data[ends[len(ends)-2]:]); err != nil {
		cancel()
		srv.stop()
		return err
	}
	at, ok := log.first(need[len(need)-1].coveredBy, 60*time.Second)
	r.check(ok, "burst of %d bytes: no frame reported all of it", burst)
	followMBs := float64(burst) / 1e6 / at.Sub(burstAt).Seconds()
	cancel()
	<-readerDone
	<-sseDone
	// The peak of the follow phase: the final-epoch queries below peak
	// where the collector happens to run during their anomaly scans
	// (between about 600 and 750 MB on the same input).
	rss, err := srv.peakRSSMB()
	if err != nil {
		srv.stop()
		return err
	}

	final, err := liveOf(srv.base + "/live")
	if err != nil {
		srv.stop()
		return err
	}

	// Final epoch: one closed-loop client reads the URL set cold in
	// finalPasses passes of distinct keys, scans the anomaly windows and
	// replays the first pass warm. Only these requests give the cold and
	// warm samples: the reads during appends raced the publishes and
	// varied with how the epochs fell. After each pass, while the
	// followed server idles, setupsPerPass servers start on the attach
	// prefix, load their first view and stop.
	fin := newSession(r)
	fin.base = srv.base
	rng := rand.New(rand.NewSource(cfg.seed))
	sets := finalURLs(rng, final.Start, final.End, finalPasses)
	var rates []float64
	for _, set := range sets {
		passStart := time.Now()
		for _, rel := range set {
			fin.fetch("/", rel)
		}
		rates = append(rates, float64(len(set))/time.Since(passStart).Seconds())
		for j := 0; j < setupsPerPass; j++ {
			s, err := start(attach)
			if err != nil {
				srv.stop()
				return err
			}
			s.stop()
		}
	}
	anomalies := fin.scanAnomalies("/", anomalyWindows(rng, final.Start, final.End), anomalyReps)
	warm := replay(fin, "/", sets[0], warmFor)
	srv.stop()

	// Stream equals batch, from outside: the final counts, exact tile
	// and statistics of the live server against a batch load of the full
	// file.
	tr, err := ingest.Open(path)
	if err != nil {
		return err
	}
	ev, smp := tr.EventCounts()
	r.check(final.Tasks == len(tr.Tasks) && final.CPUs == tr.NumCPUs() && final.Events == ev && final.Samples == smp,
		"final /live %+v differs from the batch load (%d tasks, %d CPUs, %d events, %d samples)", final, len(tr.Tasks), tr.NumCPUs(), ev, smp)
	fin.ver["/"].verify(tr, r)
	// Every start served the same attach prefix: their first views must
	// agree byte for byte.
	for rel, b := range sess.ver["/"] {
		for i := 0; i < b.n; i++ {
			r.check(i < b.n-b.differ, "first view %s: %d of %d bodies unlike the first", rel, b.differ, b.n)
		}
	}

	note("setups %.3v s, first views %.4v ms", setupS, firstMs)
	r.add("setup_s", median(setupS), "s")
	r.add("first_view_ms", median(firstMs), "ms")
	fin.latencyMetrics(warm)
	r.add("anomalies_p50_ms", median(anomalies), "ms")
	r.add("throughput_rps", median(rates), "1/s")
	r.add("peak_rss_mb", rss, "MB")

	// Follow-only figures: printed with the run, not gated.
	r.info("push_p50_ms", median(push), "ms")
	pt, pct, _ := tail(push)
	r.info("push_tail_ms", pt, "ms")
	note("push: %d samples, tail is p%.1f", len(push), pct)
	r.info("follow_mb_s", followMBs, "MB/s")
	r.info("epoch_read_p50_ms", median(epochReads), "ms")
	lt, _, _ := tail(lateness)
	r.info("bench.lateness_ms_tail", lt, "ms")
	note("paced: %d chunks of %d KiB every %s from %.1f MB, burst %.1f MB", paced, followChunk>>10, followInterval, float64(ends[followAttach-1])/1e6, float64(burst)/1e6)
	note("push latency grows %.2f ms per MB of trace", slope(sizeMB, push))
	for i := 0; i < len(push); i += max(1, len(push)/8) {
		note("push at %5.1f MB: %7.1f ms", sizeMB[i], push[i])
	}
	return nil
}

// finalPasses is how many times the follow session reads its final-epoch
// URL set cold.
const finalPasses = 6

// finalURLs is the follow session's URL set on the final epoch, once per
// pass: the unwindowed exact tile and statistics the live page shows,
// the other five modes over the full span, then the six modes and the
// statistics over windows of 1/4, 1/16 and 1/64 of the span (see
// fixedView). Pass k moves every window k nanoseconds later, the full
// span included, so that each pass reads distinct keys of the same work.
func finalURLs(rng *rand.Rand, start, end int64, passes int) [][]string {
	views := []view{{start, end}, fixedView(rng, start, end, 4, 0.5), fixedView(rng, start, end, 16, 0.3), fixedView(rng, start, end, 64, 0.7)}
	out := make([][]string, passes)
	for k := range out {
		var set []string
		for i, v := range views {
			p := view{v.t0 + int64(k), v.t1 + int64(k)}.params()
			if i == 0 && k == 0 {
				p = ""
			}
			for _, m := range modes {
				set = append(set, "render?"+strings.Join(nonEmpty("mode="+m, p, "w=1100&h=420"), "&"))
			}
			set = append(set, strings.Join(nonEmpty("stats", p), "?"))
		}
		out[k] = set
	}
	return out
}

// nonEmpty returns the non-empty strings of ss.
func nonEmpty(ss ...string) []string {
	var out []string
	for _, x := range ss {
		if x != "" {
			out = append(out, x)
		}
	}
	return out
}

// epochURLs are what the follow reader fetches after each pushed epoch:
// what the live index page reloads (the coarse and exact timeline and
// idle plot) and the statistics.
var epochURLs = []string{
	"render?mode=state&w=1100&h=420&level=3",
	"render?mode=state&w=1100&h=420",
	"plot?kind=idle&w=1100&h=180&level=3",
	"plot?kind=idle&w=1100&h=180",
	"stats",
}

// wellFormed checks a body served for rel during appends, where no
// reference exists: a decodable PNG or a JSON object.
func wellFormed(rel string, body []byte) bool {
	if strings.HasPrefix(rel, "render") || strings.HasPrefix(rel, "plot") {
		_, err := png.DecodeConfig(bytes.NewReader(body))
		return err == nil
	}
	var v map[string]interface{}
	return json.Unmarshal(body, &v) == nil
}
